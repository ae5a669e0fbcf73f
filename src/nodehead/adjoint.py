"""Gradients of an ODE solve with respect to its initial state and parameters.

Two strategies with opposite memory profiles, each with one workspace
(:func:`~nodehead.dynamics.workspace`) per pass:

* :func:`backprop_rk4_batch` walks a stored fixed-step RK4 trajectory of an
  (n, d) batch from ``solve_fixed_batch`` in reverse, differentiating the
  discrete recursion exactly. It checks the field and the cotangent's
  shape; one ``rk4_reverse`` call of the workspace that wrote the
  trajectory then carries the cotangent of the forward carry backward over
  the grid, reverses each step from the stored stage records and sums the
  parameter gradient over rows, stages and steps. Memory grows with the
  step count. For the two-layer field the reverse carry is the cotangent
  of the first stage's pre-activation; :mod:`nodehead.dynamics` derives
  it and its cost.
* :func:`adjoint_solve` integrates the augmented system [h; a; g] of one
  state backward in time, where a(t) is the adjoint state dL/dh(t) and g
  accumulates the parameter gradient. The augmented vector is a 1-row
  batch of the batch-first adaptive solver
  (:func:`~nodehead.solvers.integrate_adaptive`), and each right-hand side
  evaluation gets f, -a.T df/dh and -a.T df/dparams from one n=1
  :func:`~nodehead.dynamics.vjp_batch` call at that row's time. Retained
  memory is one augmented vector of size 2d + p no matter how many steps
  the solver takes. :mod:`nodehead.model` runs it once per row of a batch.

Both give (dL/dh0, dL/dparams) up to solver accuracy, with dL/dparams
flattened in the dynamics module's documented order.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import vjp_batch, workspace
# looked up here by the benchmark's span tracer (perfbench/spans.py)
from .dynamics import eval_dynamics, vjp_params, vjp_state  # noqa: F401
from .errors import ContractError, NumericError
from .solvers import SolveStats, integrate_adaptive


@dataclass
class GradientResult:
    """Loss gradients of :func:`adjoint_solve` w.r.t. ODE input state and dynamics parameters.

    ``retained_floats`` records how much solution state the backward pass
    kept alive: a single augmented vector of size 2d + p.
    """

    d_h0: np.ndarray
    d_params: np.ndarray
    stats: SolveStats | None = None
    retained_floats: int = 0

    def __post_init__(self):
        if not (np.all(np.isfinite(self.d_h0)) and np.all(np.isfinite(self.d_params))):
            raise NumericError("gradient result contains non-finite entries")


def backprop_rk4_batch(field, trajectory, d_hT_rows):
    """Exact reverse-mode differentiation of the RK4 recursion stored by ``solve_fixed_batch``.

    ``d_hT_rows`` has one cotangent row per sample; returns (d_h0_rows,
    d_params_sum) where the parameter gradient is summed over rows (callers
    scale the cotangents for mean reductions). The workspace that wrote the
    trajectory runs the whole pass in one ``rk4_reverse`` call, walking the
    grid backwards from the stored stage records. ``field`` must be the
    object the trajectory was solved with; any other raises
    :class:`ContractError`, and a cotangent of another shape than the
    batch raises :class:`ContractError`.
    """
    work = trajectory.work
    if getattr(work, "field", None) is not field:
        raise ContractError("trajectory was not written by this field; "
                            "pass the field that solve_fixed_batch solved it with")
    g = np.array(d_hT_rows, dtype=np.float64)
    if g.shape != trajectory.h0.shape:
        raise ContractError(f"cotangent shape {g.shape} does not match batch shape {trajectory.h0.shape}")
    return work.rk4_reverse(trajectory, g)


def adjoint_solve(field, hT, d_hT, t0, t1, config):
    """Continuous adjoint gradients of one state via one backward solve of [h; a; g].

    ``hT`` (shape (d,)) must be the forward solution at ``t1`` under the
    same field and config. The augmented system re-integrates h backward
    alongside da/dt = -a.T df/dh and dg/dt = -a.T df/dparams, starting from
    [hT; d_hT; 0]; a(t0) is dL/dh0 and g(t0) is dL/dparams. No trajectory
    is stored - the backward pass carries a single vector of size 2d + p.
    """
    hT = np.asarray(hT, dtype=np.float64)
    d_hT = np.asarray(d_hT, dtype=np.float64)
    d = hT.shape[0]
    if d_hT.shape != (d,):
        raise ContractError(f"d_hT shape {d_hT.shape} does not match state shape {hT.shape}")
    work = workspace(field, hT[None])
    neg_a = np.empty((1, d))

    def aug_rhs(y, t):
        # the cotangent -a turns both VJPs into the adjoint's right-hand sides
        dy = np.empty_like(y)
        np.negative(y[:, d : 2 * d], out=neg_a)
        vjp_batch(field, y[:, :d], t, neg_a, out=dy[:, d : 2 * d], work=work,
                  d_params_out=dy[0, 2 * d :], value_out=dy[:, :d])
        return dy

    y1 = np.concatenate([hT, d_hT, np.zeros(field.n_params)])[None]
    try:
        (y0,), stats = integrate_adaptive(aug_rhs, y1, t1, t0, config)
    except NumericError as exc:
        raise type(exc)(f"adjoint backward pass failed: {exc}", where=exc.where) from exc
    return GradientResult(
        d_h0=y0[d : 2 * d],
        d_params=y0[2 * d :],
        stats=stats,
        retained_floats=stats.retained_floats,
    )
