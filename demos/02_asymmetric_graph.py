"""Asymmetric delays on a communication graph.

Three controllers sit on a line: 1 and 2 exchange data with one step of
delay, 2 and 3 likewise, but anything between 1 and 3 must hop through the
middle and takes two steps.  The compiled protocol carries the not-yet-
common window of each controller's data; local memories are selections of
it, and they overlap (controller 2 remembers what 1 and 3 sent it).
"""

import numpy as np

import declqg as dq

plant = dq.PlantModel.create(
    n=3, T=8, d_x=2, d_u=(1, 1, 1), d_y=(1, 1, 1),
    A=[[0.9, 0.1], [0.0, 0.9]],
    B=[[1.0, 0.5, 0.0], [0.0, 0.5, 1.0]],
    C=[[[1.0, 0.0]], [[0.5, 0.5]], [[0.0, 1.0]]],
    Q=np.eye(2), R=np.eye(3),
    sigma_x=np.eye(2), sigma_w0=0.2 * np.eye(2),
    sigma_w=[[[0.1]], [[0.1]], [[0.1]]])

graph = dq.DelayGraph.create([
    [1, 1, 2],
    [1, 1, 1],
    [2, 1, 1],
])
mp = dq.build_asymmetric_delay(plant, graph)

print("worst-case delays per controller:",
      [graph.k_star(j) for j in range(3)])
print("local memory dims:", list(mp.d_m), " carrier dim:", mp.d_carrier,
      " shared increment dim:", mp.d_z)

trace = dq.token_trace(mp)
t = 5
print(f"\nat t={t}:")
for i in range(3):
    toks = trace.memory_tokens(i, t)
    names = ", ".join(f"{k.upper()}^{j + 1}_{s}" for k, j, s, _ in toks)
    print(f"  M^{i + 1} = ({names})")
names = ", ".join(f"{k.upper()}^{j + 1}_{s}" for k, j, s, _ in trace.z[t])
print(f"  Z    = ({names})")

# The update matrices in memory coordinates are not block diagonal across
# controllers: controller 2's next memory reads the others' windows.
view = mp.memory_view()
print("\nstacked P_my in memory coordinates (note the off-diagonal reads):")
print(view["my"].astype(int))

# Solve and sanity-check against simulation.
gains = dq.LocalGains.zeros(plant, mp)
ss = dq.solve(plant, mp, gains)
mc = dq.simulate(plant, mp, gains, ss, seed=0, count=20000)
exact = dq.exact_cost(plant, mp, gains, ss)
print(f"\nJ = {ss.J:.6f}")
print(f"exact closed-loop cost  = {exact:.6f}")
print(f"Monte Carlo (20k rollouts) = {mc.mean:.6f} +- {mc.stderr:.6f}")

# Compare against fully symmetric sharing at the graph's best and worst
# delays: the graph sits between them.
for k in (1, 2):
    mpk = dq.build_symmetric_delay(plant, k)
    ssk = dq.solve(plant, mpk, dq.LocalGains.zeros(plant, mpk))
    print(f"symmetric k={k} reference: J = {ssk.J:.6f}")
