"""Every number checked three ways.

The solver's outputs are cross-examined against brute-force oracles that
share no code path with the recursions they certify:

1. the coordinator's recursion on (plant state, memory carrier) must
   reproduce the original decentralized equations state by state when fed
   the same noise draws;
2. the recursive estimator must equal conditioning in the full joint
   Gaussian of the closed loop;
3. the predicted cost must match exact second-moment propagation and the
   Monte Carlo mean.
"""

import numpy as np

import declqg as dq

rng = np.random.default_rng(7)

plant = dq.PlantModel.create(
    n=2, T=6, d_x=2, d_u=(1, 1), d_y=(1, 1),
    A=[[0.95, 0.1], [-0.05, 0.85]], B=[[1.0, 0.0], [0.2, 0.8]],
    C=[[[1.0, 0.0]], [[0.0, 1.0]]],
    Q=np.eye(2), R=np.eye(2),
    sigma_x=np.eye(2), sigma_w0=0.3 * np.eye(2),
    sigma_w=[[[0.1]], [[0.1]]])
mp = dq.build_symmetric_delay(plant, 2)
gains = dq.LocalGains.random(plant, mp, rng, 0.3)
cs = dq.build(plant, mp, gains)

# -- 1. paired-noise equivalence ------------------------------------------
thetas = dq.random_theta_maps(cs, rng, 0.3)
prims = dq.draw_primitives(plant, seed=1, count=50)
rb = dq.rollout_plant(plant, mp, gains, dq.ZHistoryPolicy(thetas), prims,
                      keep=50)
cr = dq.rollout_coordinated(cs, dq.ZHistoryPolicy(thetas), prims)
gap = max(np.abs(np.hstack([rb.samples[r].x, rb.samples[r].carrier])
                 - cr.xtilde[r]).max() for r in range(50))
print(f"paired-noise rollouts, original vs coordinated: max gap {gap:.2e}")

# -- 2. recursive filter vs joint-Gaussian conditioning --------------------
_, fgains, _ = dq.forward_riccati(cs)
ro = rb.samples[0]
xb = np.zeros(cs.d_state)
worst = 0.0
for t in range(1, plant.T + 1):
    if t > 1:
        oracle = dq.gaussian_conditioning(cs, thetas, t) @ ro.z[:t - 1].ravel()
        worst = max(worst, np.abs(xb - oracle).max())
    if t < plant.T:
        innovation = (ro.z[t - 1] - cs.C[t - 1] @ xb
                      - cs.protocol.zu @ ro.u_tilde[t - 1])
        xb = (cs.A[t - 1] @ xb + cs.B[t - 1] @ ro.u_tilde[t - 1]
              + fgains[t - 1] @ innovation)
print(f"recursive estimate vs brute-force conditioning: max gap {worst:.2e}")

# -- 3. three routes to the expected cost ----------------------------------
ss = dq.solve(plant, mp, gains)
exact = dq.exact_cost(plant, mp, gains, ss)
mc = dq.simulate(plant, mp, gains, ss, seed=2, count=100_000)
print(f"\npredicted J                 = {ss.J:.8f}")
print(f"exact moment propagation    = {exact:.8f}")
print(f"Monte Carlo mean (1e5)      = {mc.mean:.8f} +- {mc.stderr:.6f}")
print(f"|J - exact| = {abs(ss.J - exact):.2e},  "
      f"|J - MC| = {abs(ss.J - mc.mean) / mc.stderr:.2f} stderr")

# The innovation covariance is singular by construction (shared increments
# are noiseless functions of the state), which is why the filter cuts each
# innovation at a relative rank.
P, _, _ = dq.forward_riccati(cs)
t = 3
innov_cov = cs.C[t - 1] @ P[t - 1] @ cs.C[t - 1].T + cs.SigV[t - 1]
eigs = np.linalg.eigvalsh(innov_cov)
print(f"\ninnovation covariance eigenvalues at t={t}: "
      + np.array2string(eigs, precision=6))
