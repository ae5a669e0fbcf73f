"""Gradients of an ODE solve with respect to its initial state and parameters.

Two strategies with opposite memory profiles:

* :func:`backprop_through_solver` walks a stored fixed-step RK4 trajectory
  in reverse, differentiating the discrete recursion exactly. Memory grows
  with the step count (the trajectory itself). :func:`backprop_rk4_batch`
  is the same walk over a batch trajectory from ``solve_fixed_batch``: it
  rebuilds each stage input in one
  :class:`~nodehead.dynamics.BatchWorkspace`, sends every stage through
  :func:`~nodehead.dynamics.vjp_batch`, and lets the workspace sum the
  parameter gradient over rows and stages.
* :func:`adjoint_solve` integrates the augmented system [h; a; g] backward
  in time, where a(t) is the adjoint state dL/dh(t) and g accumulates the
  parameter gradient. Retained memory is one augmented vector of size
  2d + p no matter how many steps the solver takes.

Both return the same pair (dL/dh0, dL/dparams) up to solver accuracy, with
dL/dparams flattened in the dynamics module's documented order.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import BatchWorkspace, DynamicsParams, eval_dynamics, vjp_batch, vjp_params, vjp_state
from .errors import ContractError, NumericError, ShapeError
from .solvers import RK4_B, RK4_C, SolveStats, Trajectory, integrate_adaptive


@dataclass
class GradientResult:
    """Loss gradients w.r.t. ODE input state and dynamics parameters.

    ``retained_floats`` records how much solution state the producing pass
    kept alive: the whole trajectory for the discrete method, a single
    augmented vector for the adjoint.
    """

    d_h0: np.ndarray
    d_params: np.ndarray
    stats: SolveStats | None = None
    retained_floats: int = 0

    def __post_init__(self):
        if not (np.all(np.isfinite(self.d_h0)) and np.all(np.isfinite(self.d_params))):
            raise NumericError("gradient result contains non-finite entries")


def _vjp_field(params):
    """Resolve the (f, vjp_state, vjp_params, n_params) quadruple.

    DynamicsParams dispatches to the analytic MLP routines; any other object
    must expose ``eval``/``vjp_state``/``vjp_params`` methods and an
    ``n_params`` attribute (used by closed-form test fields).
    """
    if isinstance(params, DynamicsParams):
        return (
            lambda h, t: eval_dynamics(params, h, t),
            lambda h, t, a: vjp_state(params, h, t, a),
            lambda h, t, a: vjp_params(params, h, t, a),
            params.n_params,
        )
    return params.eval, params.vjp_state, params.vjp_params, params.n_params


def backprop_through_solver(params, trajectory, d_hT):
    """Exact reverse-mode differentiation of the stored RK4 recursion.

    ``trajectory`` must come from ``solve_fixed`` with stages retained;
    ``d_hT`` is the loss gradient at the final state. Each step's stage
    inputs are rebuilt from the stored state and stage derivatives, so the
    reverse pass performs no new forward integration.
    """
    if trajectory.stages is None:
        raise ContractError("trajectory has no retained stages; use solve_fixed to produce it")
    _, f_vjp_state, f_vjp_params, n_params = _vjp_field(params)
    g = np.asarray(d_hT, dtype=np.float64).copy()
    d_params = np.zeros(n_params)
    times = trajectory.times
    for i in range(len(times) - 2, -1, -1):
        t = times[i]
        dt = times[i + 1] - times[i]
        h = trajectory.states[i]
        k1, k2, k3, _ = trajectory.stages[i]
        y2 = h + 0.5 * dt * k1
        y3 = h + 0.5 * dt * k2
        y4 = h + dt * k3
        c4 = (dt / 6.0) * g
        v4 = f_vjp_state(y4, t + dt, c4)
        d_params += f_vjp_params(y4, t + dt, c4)
        c3 = (dt / 3.0) * g + dt * v4
        v3 = f_vjp_state(y3, t + 0.5 * dt, c3)
        d_params += f_vjp_params(y3, t + 0.5 * dt, c3)
        c2 = (dt / 3.0) * g + 0.5 * dt * v3
        v2 = f_vjp_state(y2, t + 0.5 * dt, c2)
        d_params += f_vjp_params(y2, t + 0.5 * dt, c2)
        c1 = (dt / 6.0) * g + 0.5 * dt * v2
        v1 = f_vjp_state(h, t, c1)
        d_params += f_vjp_params(h, t, c1)
        g = g + v1 + v2 + v3 + v4
    return GradientResult(
        d_h0=g,
        d_params=d_params,
        retained_floats=trajectory.n_retained_floats,
    )


def backprop_rk4_batch(params, trajectory, d_hT_rows):
    """Batched reverse pass over a trajectory from ``solve_fixed_batch``.

    ``d_hT_rows`` has one cotangent row per sample; returns (d_h0_rows,
    d_params_sum) where the parameter gradient is summed over rows (callers
    scale the cotangents for mean reductions). Stage inputs are rebuilt in
    one :class:`~nodehead.dynamics.BatchWorkspace`, which also accumulates
    the parameter gradient, so the loop allocates nothing per stage.
    """
    if trajectory.stages is None:
        raise ContractError("trajectory has no retained stages; use solve_fixed_batch to produce it")
    g = np.array(d_hT_rows, dtype=np.float64)
    if g.shape != trajectory.states.shape[1:]:
        raise ShapeError(f"cotangent shape {g.shape} does not match batch shape {trajectory.states.shape[1:]}")
    work = BatchWorkspace(params, g.shape[0])
    c = np.empty_like(g)
    scratch = np.empty_like(g)
    v = np.empty((4,) + g.shape)
    times = trajectory.times
    for i in range(len(times) - 2, -1, -1):
        t = times[i]
        dt = times[i + 1] - t
        h = trajectory.states[i]
        k = trajectory.stages[i]
        for j in (3, 2, 1, 0):
            # stage j's cotangent: its weight b_j dt in the step, plus what stage
            # j+1 sends back through its input h + RK4_C[j+1] dt k_j
            np.multiply(g, RK4_B[j] * dt, out=c)
            if j < 3:
                np.multiply(v[j + 1], RK4_C[j + 1] * dt, out=scratch)
                c += scratch
            y = h
            if j > 0:
                y = work.y
                np.multiply(k[j - 1], RK4_C[j] * dt, out=y)
                y += h
            vjp_batch(params, y, t + RK4_C[j] * dt, c, out=v[j], work=work)
        for j in range(4):
            g += v[j]
    return g, work.d_params()


def adjoint_solve(params, hT, d_hT, t0, t1, config):
    """Continuous adjoint gradients via one backward solve of [h; a; g].

    ``hT`` must be the forward solution at ``t1`` under the same params and
    config. The augmented system re-integrates h backward alongside
    da/dt = -a.T df/dh and dg/dt = -a.T df/dparams, starting from
    [hT; d_hT; 0]; a(t0) is dL/dh0 and g(t0) is dL/dparams. No trajectory
    is stored - the backward pass carries a single vector of size 2d + p.
    """
    f, f_vjp_state, f_vjp_params, n_params = _vjp_field(params)
    hT = np.asarray(hT, dtype=np.float64)
    d_hT = np.asarray(d_hT, dtype=np.float64)
    d = hT.shape[0]
    if d_hT.shape != (d,):
        raise ContractError(f"d_hT shape {d_hT.shape} does not match state shape {hT.shape}")

    def aug_rhs(y, t):
        h = y[:d]
        a = y[d : 2 * d]
        return np.concatenate([f(h, t), -f_vjp_state(h, t, a), -f_vjp_params(h, t, a)])

    y1 = np.concatenate([hT, d_hT, np.zeros(n_params)])
    try:
        y0, stats = integrate_adaptive(aug_rhs, y1, t1, t0, config)
    except NumericError as exc:
        raise type(exc)(f"adjoint backward pass failed: {exc}", where=exc.where) from exc
    return GradientResult(
        d_h0=y0[d : 2 * d],
        d_params=y0[2 * d :],
        stats=stats,
        retained_floats=stats.retained_floats,
    )
