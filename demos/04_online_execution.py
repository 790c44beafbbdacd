"""Running the controllers online.

After solving, each controller needs only its own current observation, its
local memory, and a shared finite-dimensional statistic that every
controller can update identically from broadcast data.  This script walks
one closed-loop trajectory step by step, then shows the delayed-sharing
shortcut: a statistic built from a strategy-independent Kalman predictor,
the memory carrier at the same delayed time and a short window of
coordinator actions, connected to the solver's statistic by an explicit
matrix.
"""

import numpy as np

import declqg as dq

plant = dq.PlantModel.create(
    n=2, T=7, d_x=1, d_u=(1, 1), d_y=(1, 1),
    A=[[0.9]], B=[[1.0, 0.5]], C=[[[1.0]], [[0.7]]],
    Q=[[1.0]], R=np.eye(2), sigma_x=[[1.0]], sigma_w0=[[0.4]],
    sigma_w=[[[0.2]], [[0.3]]])
k = 2
mp = dq.build_symmetric_delay(plant, k)
gains = dq.LocalGains.zeros(plant, mp)
ss = dq.solve(plant, mp, gains)
cs = ss.cs

# One realization of all primitive randomness.
prims = dq.draw_primitives(plant, seed=5, count=1)
x = prims.x1[0]
carrier = np.zeros(mp.d_carrier)
st = dq.initial_state(cs)

print("t    x        shared statistic         u1       u2       step cost")
total = 0.0
for t in range(1, plant.T + 1):
    y = plant.C[t - 1] @ x + prims.wy[t - 1][0]
    m = mp.m_sel @ carrier
    y_local = [y[plant.y_slice(i)] for i in range(2)]
    m_local = [m[mp.m_slice(i)] for i in range(2)]
    actions = dq.act(st, ss, y_local, m_local)
    u = np.concatenate(actions)
    z = mp.zc @ carrier + mp.zy @ y + mp.zu @ u
    cost = plant.step_cost(x, u)
    total += cost
    shown = np.array2string(st.stat, precision=3)
    print(f"{t}   {x[0]:+.3f}   {shown:<24} {u[0]:+.3f}   {u[1]:+.3f}   {cost:.3f}")
    if t < plant.T:
        u_tilde = ss.Lgain[t - 1] @ st.stat
        st = dq.step_statistic(st, ss, z, u_tilde)
        x = plant.A[t - 1] @ x + plant.B[t - 1] @ u + prims.w0[t - 1][0]
        carrier = mp.cc @ carrier + mp.cy @ y + mp.cu @ u
print(f"realized total cost {total:.3f} (expected {ss.J:.3f})")

# -- the delayed-sharing shortcut ------------------------------------------
# The statistic S_t = (delayed predictor, memory carrier at the same delayed
# time, recent coordinator actions) needs no solver quantities to update:
# its Kalman covariance is strategy independent.  An explicit matrix turns
# it into the solver's statistic.
print(f"\ndelayed-sharing statistic for k={k}:")
maps = dq.delayed_stat_map(cs, k)     # entry t-1 is the map at t
print(f"  S_t dimension {maps.shape[2]}, map shape {maps[0].shape}")

rb = dq.rollout_plant(plant, mp, gains, dq.StatisticPolicy(ss),
                      dq.draw_primitives(plant, seed=6, count=1), keep=1)
ro = rb.samples[0]
start = dq.DelayedStatTracker.create(plant, mp)   # an immutable value
tracker, worst = start, 0.0
for t in range(1, plant.T + 1):
    rebuilt = maps[t - 1] @ tracker.stat().vector()
    worst = max(worst, np.abs(rebuilt - ro.stat[t - 1]).max())
    tracker = tracker.advance(ro.y[t - 1], ro.u[t - 1], ro.u_tilde[t - 1])
print(f"  max |statistic - M_map S| along a rollout: {worst:.2e}")

gains_on_stat = dq.delayed_stat_gains(ss, k)
print(f"  equivalent gains on S_t have shape {gains_on_stat[2].shape}; "
      "actions computed either way agree:")
tracker = start
for t in range(1, plant.T + 1):
    via_stat = gains_on_stat[t - 1] @ tracker.stat().vector()
    via_solver = ss.Lgain[t - 1] @ ro.stat[t - 1]
    if t in (3, 5):
        print(f"    t={t}: via S_t {np.array2string(via_stat, precision=5)}"
              f"  via solver stat {np.array2string(via_solver, precision=5)}")
    tracker = tracker.advance(ro.y[t - 1], ro.u[t - 1], ro.u_tilde[t - 1])
