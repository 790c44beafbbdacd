"""Searching over the local gains.

The solver is exact only for a fixed choice of the local gain matrices; the
outer problem over them is non-convex in general, so a deterministic pattern
search does the exploring.  Two stories:

1. a single controller with one-step sharing is the classical partially
   observed LQG problem in disguise; composing the textbook regulator and
   filter gains gives local gains whose best response hits the classical
   optimum, and the tuner finds the same value from scratch;
2. on a genuinely decentralized instance, tuned local gains beat the
   zero-gain baseline.
"""

import numpy as np

import declqg as dq

# -- 1. the centralized sanity story ---------------------------------------
plant = dq.PlantModel.create(
    n=1, T=5, d_x=2, d_u=(1,), d_y=(1,),
    A=np.array([[0.9, 0.2], [0.0, 0.8]]), B=np.array([[0.0], [1.0]]),
    C=[np.array([[1.0, 0.3]])], Q=np.eye(2), R=[[0.5]],
    sigma_x=np.eye(2), sigma_w0=0.2 * np.eye(2), sigma_w=[[[0.1]]])
mp = dq.build_symmetric_delay(plant, 1)

# textbook finite-horizon LQR gains and Kalman (filtered) gains
S = np.zeros((2, 2))
K_lqr = [None] * plant.T
for t in range(plant.T, 0, -1):
    A, B = plant.A[t - 1], plant.B[t - 1]
    lam = B.T @ S @ A
    br = plant.R + B.T @ S @ B
    K_lqr[t - 1] = -np.linalg.solve(br, lam)
    S = plant.Q + A.T @ S @ A - lam.T @ np.linalg.solve(br, lam)
P = plant.sigma_x
K_f = [None] * plant.T
for t in range(1, plant.T + 1):
    C = plant.C[t - 1]
    V = C @ P @ C.T + plant.sigma_w
    K_f[t - 1] = P @ C.T @ np.linalg.inv(V)
    P = plant.A[t - 1] @ (P - K_f[t - 1] @ C @ P) @ plant.A[t - 1].T \
        + plant.sigma_w0

composed = dq.LocalGains.create(
    plant, mp,
    [[K_lqr[t] @ K_f[t]] for t in range(plant.T)],
    [[np.zeros((1, 0))] for _ in range(plant.T)])
ss = dq.solve(plant, mp, composed)
print(f"best response to the composed classical gains: J = {ss.J:.8f}")

result = dq.tune(plant, mp, budget=3000, seed=0, restarts=1)
print(f"tune from scratch (budget 3000):               J = {result.J:.8f}")
print(f"relative gap: {abs(result.J - ss.J) / ss.J:.2e}")

# -- 2. a decentralized instance -------------------------------------------
plant2 = dq.PlantModel.create(
    n=2, T=6, d_x=2, d_u=(1, 1), d_y=(1, 1),
    A=[[0.95, 0.1], [-0.05, 0.85]], B=[[1.0, 0.0], [0.2, 0.8]],
    C=[[[1.0, 0.0]], [[0.0, 1.0]]], Q=np.eye(2), R=np.eye(2),
    sigma_x=np.eye(2), sigma_w0=0.3 * np.eye(2),
    sigma_w=[[[0.1]], [[0.1]]])
mp2 = dq.build_symmetric_delay(plant2, 2)

baseline = dq.solve(plant2, mp2, dq.LocalGains.zeros(plant2, mp2))
tuned = dq.tune(plant2, mp2, budget=1500, seed=0, restarts=2)
print(f"\ndecentralized instance (k=2):")
print(f"  zero local gains:  J = {baseline.J:.6f}")
print(f"  tuned local gains: J = {tuned.J:.6f} "
      f"({tuned.evaluations} exact inner solves)")

# the tuner's incumbent trace is non-increasing and reproducible bitwise
incumbents = [row[2] for row in tuned.log]
assert all(b <= a for a, b in zip(incumbents, incumbents[1:]))
mc = dq.simulate(plant2, mp2, tuned.gains, tuned.strategy, seed=1,
                 count=50_000)
print(f"  Monte Carlo check: {mc.mean:.6f} +- {mc.stderr:.6f}")
