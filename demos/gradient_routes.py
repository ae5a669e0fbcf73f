"""The two gradient strategies, side by side with finite differences.

Builds a small NODE head, computes the loss gradient three ways - exact
reverse-mode through the stored RK4 recursion, the continuous adjoint, and
central finite differences of the whole pipeline - and prints how closely
they agree, along with what each route had to keep in memory.
"""

import numpy as np

from nodehead import SolverConfig, init_node_head, train_step
from nodehead.adjoint import adjoint_solve, backprop_rk4_batch
from nodehead.dynamics import init_params
from nodehead.model import evaluate, head_from_flat, head_to_flat
from nodehead.solvers import solve_fixed_batch

D, WIDTH, CLASSES, BATCH = 4, 8, 3, 5

rng = np.random.default_rng(0)
head = init_node_head(0, D, CLASSES, width=WIDTH, scale=0.6)
features = rng.standard_normal((BATCH, D))
labels = rng.integers(0, CLASSES, BATCH)

fixed = SolverConfig(method="rk4_fixed", n_steps=400)
adaptive = SolverConfig(rtol=1e-8, atol=1e-8)

loss_d, g_discrete, stats_d, _ = train_step(head, features, labels, "discrete", fixed)
loss_a, g_adjoint, stats_a, _ = train_step(head, features, labels, "adjoint", adaptive)

print(f"loss (discrete forward):  {loss_d:.10f}")
print(f"loss (adaptive forward):  {loss_a:.10f}")

step = 1e-5
flat0 = head_to_flat(head)
g_fd = np.zeros_like(flat0)
for i in range(flat0.size):
    bump = np.zeros_like(flat0)
    bump[i] = step
    up, _, _ = evaluate(head_from_flat(head, flat0 + bump), features, labels, fixed)
    dn, _, _ = evaluate(head_from_flat(head, flat0 - bump), features, labels, fixed)
    g_fd[i] = (up - dn) / (2 * step)

for name, g in (("discrete", g_discrete), ("adjoint", g_adjoint)):
    print(f"max |{name} - finite differences| = {np.abs(g - g_fd).max():.3e}")
print(f"max |discrete - adjoint|            = {np.abs(g_discrete - g_adjoint).max():.3e}")

# the memory asymmetry, measured on the raw ODE-block gradients
params = init_params(1, D, WIDTH, scale=0.6)
h0 = rng.standard_normal(D)
cot = rng.standard_normal(D)
print("\nretained backward-pass state (floats):")
for n_steps in (100, 1000):
    hT, traj = solve_fixed_batch(params, h0[None], 0.0, 1.0, n_steps)
    d_h0, _ = backprop_rk4_batch(params, traj, cot[None])
    adj = adjoint_solve(params, hT[0], cot, 0.0, 1.0, adaptive)
    print(f"  n_steps={n_steps:4d}:  discrete {traj.n_retained_floats:7d}   "
          f"adjoint {adj.retained_floats:4d} (= 2d + p, step-count independent)   "
          f"max |d_h0 difference| {np.abs(d_h0[0] - adj.d_h0).max():.1e}")
