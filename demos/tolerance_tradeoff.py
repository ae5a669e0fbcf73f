"""Solver tolerances trade numerical precision for speed.

Evaluates one fixed NODE head across a ladder of rtol=atol settings and
prints the cost (dynamics evaluations) next to the drift of the logits from
a very tight reference solve. Tighter tolerance, more work, closer answer.
"""

import numpy as np

from nodehead import SolverConfig, forward, init_node_head

head = init_node_head(0, 8, 3, width=16, scale=3.0)
x = np.random.default_rng(1).standard_normal((1, 8))

reference, _ = forward(head, x, SolverConfig(rtol=1e-12, atol=1e-12))

print(f"{'rtol=atol':>10} {'n_feval':>8} {'accepted':>9} {'rejected':>9} {'|logits - ref|':>15}")
for tol in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
    logits, stats = forward(head, x, SolverConfig(rtol=tol, atol=tol))
    drift = np.abs(logits - reference).max()
    print(f"{tol:>10.0e} {stats.n_feval:>8} {stats.n_accept:>9} {stats.n_reject:>9} {drift:>15.3e}")

print("\nthe default setting rtol=atol=1e-5 sits in the middle of the ladder:")
logits, stats = forward(head, x, SolverConfig(rtol=1e-5, atol=1e-5))
print(f"  {stats.n_feval} evaluations, logits within {np.abs(logits - reference).max():.1e} of reference")
