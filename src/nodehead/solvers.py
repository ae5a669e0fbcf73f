"""Numerical integration of the hidden-state ODE.

Two methods cover the two training strategies, and :func:`solve` is the
one place that picks between them by ``SolverConfig.method``, on an (n, d)
batch. Both take a field in the sense of :mod:`nodehead.dynamics`
(``DynamicsParams`` or a closed-form field) and build one workspace per
solve with :func:`~nodehead.dynamics.workspace`:

* :func:`solve_fixed_batch` - classic 4-stage RK4 on a uniform grid shared
  by the rows of an (n, d) batch, the routine training and evaluation run.
  It owns the grid, the stage buffers and the finiteness check of every
  step. The field at (h0, t0), evaluated once per solve with
  :func:`~nodehead.dynamics.eval_dynamics_batch`, starts the workspace's
  carry; the workspace steps it and writes all four stage records straight
  into the trajectory, so the discrete recursion can be differentiated
  exactly in reverse (memory grows with the step count), or, with
  ``keep_trajectory=False`` (:func:`rk4_terminal_batch`), keeps only the
  current step. For the two-layer field the carry is the first stage's
  pre-activation ``z = h @ w1_h.T + t * w1_t + b1`` (see
  :mod:`nodehead.dynamics`): ``z_{i+1} = z_i + ubar_i @ M + dt * m``, so a
  step costs four (n, width)(width, width) GEMMs instead of 8 state-space
  ones, which pays while the width stays below 2 times d. A stage record
  is the activation ``u = tanh(z)`` rather than the derivative
  ``k = u @ w2.T + b2``, the state is formed once at the end, and the
  trajectory keeps ``h0`` and the activations, not the grid states.
* :func:`solve_adaptive` - Dormand-Prince 5(4) embedded pair with
  rtol/atol step control for one state, the tolerance-tunable path: the
  field runs at n=1 through
  :func:`~nodehead.dynamics.eval_dynamics_batch`, and :func:`solve` loops
  it over the rows of a batch.
  The stepping itself is :func:`integrate_adaptive`, which takes a plain
  ``f(y, t)`` because the adjoint also integrates its augmented system
  with it. Supports backward integration (t1 < t0) for the adjoint pass
  and retains nothing beyond the current state.

Step control: the first step is (t1 - t0) / 10, the per-component error
scale is ``s_i = atol + rtol * max(|y_i|, |y'_i|)`` over the current and
proposed states, a step is accepted when the RMS of ``e_i / s_i`` is at
most 1, and the next step is
``dt * clamp(SAFETY * err**(-1/5), MIN_FACTOR, MAX_FACTOR)``.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import eval_dynamics_batch, workspace
# looked up here by the benchmark's span tracer (perfbench/spans.py)
from .dynamics import eval_dynamics  # noqa: F401
from .errors import ContractError, NumericError, StepBudgetError

# Dormand-Prince 5(4) tableau. Stage 7 is evaluated at the 5th-order
# solution, so its value seeds stage 1 of the next step (FSAL).
DOPRI5_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
DOPRI5_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
DOPRI5_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
DOPRI5_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
DOPRI5_ERR = DOPRI5_B5 - DOPRI5_B4
# step-size controller: safety factor and the clamp on the step ratio
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 5.0


@dataclass
class SolverConfig:
    """Integration settings shared by both methods.

    ``method`` selects the integrator ("rk4_fixed" or "dopri5"); ``n_steps``
    only applies to the fixed method, the tolerances and the step budget
    only to the adaptive one.
    """

    method: str = "dopri5"
    rtol: float = 1e-5
    atol: float = 1e-5
    n_steps: int = 20
    max_steps: int = 100_000

    def __post_init__(self):
        if self.method not in ("rk4_fixed", "dopri5"):
            raise ContractError(f"unknown solver method {self.method!r}")
        if not (0 < self.rtol < np.inf and 0 < self.atol < np.inf):
            raise ContractError(f"tolerances must be finite and positive, got rtol={self.rtol}, atol={self.atol}")
        if self.n_steps < 1:
            raise ContractError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.max_steps < 1:
            raise ContractError(f"max_steps must be >= 1, got {self.max_steps}")


@dataclass
class SolveStats:
    """Cost counters for one solve.

    ``retained_floats`` is the size of the solution buffer the solver carries
    across step boundaries - one state vector for the adaptive method,
    the full trajectory for the fixed one.
    """

    n_feval: int = 0
    n_accept: int = 0
    n_reject: int = 0
    retained_floats: int = 0

    def merge(self, other):
        self.n_feval += other.n_feval
        self.n_accept += other.n_accept
        self.n_reject += other.n_reject
        self.retained_floats = max(self.retained_floats, other.retained_floats)


@dataclass
class Trajectory:
    """Grid solution of a fixed-step batch solve with per-step RK stages.

    ``times`` is the grid, ``h0`` the (n, d) initial batch, and
    ``stages[i]`` holds the four RK4 stage records of the step from
    ``times[i]`` to ``times[i+1]``, shape (n_steps, 4, n, stage_dim). For
    the two-layer field a record is the stage's activation ``u = tanh(z)``
    (stage_dim = width, derivative ``u @ w2.T + b2``); for a closed-form
    field it is the stage derivative (stage_dim = d). That is all the
    reverse pass reads. ``states``, the (n_steps + 1, n, d) grid batches, is
    rebuilt from them by the field's workspace on first access; its last
    entry is bitwise the solve's terminal state.
    """

    times: np.ndarray
    h0: np.ndarray
    stages: np.ndarray | None = None
    field: object = None

    @cached_property
    def states(self):
        return workspace(self.field, self.h0).rk4_states(self.h0, self.times, self.stages)

    @property
    def n_retained_floats(self):
        return self.h0.size + self.stages.size


def _require_finite(y, t):
    if not np.all(np.isfinite(y)):
        raise NumericError(f"solver state became non-finite at t={t}", where=t)


def solve_fixed_batch(field, states0, t0, t1, n_steps, keep_trajectory=True):
    """Integrate the rows of ``states0`` (shape (n, d)) with ``n_steps`` uniform RK4 steps.

    Returns (hT, Trajectory). Each row is an independent initial value; the
    uniform grid makes the batched recursion exactly the per-row one, just
    evaluated together. This loop owns the grid and the stage buffers. The
    field at (h0, t0), evaluated with
    :func:`~nodehead.dynamics.eval_dynamics_batch`, starts the workspace's
    carry (``rk4_begin``); the workspace steps the carry (``rk4_step``),
    writing the four stage records straight into the trajectory, and forms
    the terminal state from it (``rk4_end``). The carry is checked to be
    finite after every step. A non-finite terminal state is located on the
    grid by rebuilding the states, so the :class:`NumericError` names the
    first grid time whose state is non-finite. With
    ``keep_trajectory=False`` only the current step's stages are held and
    the trajectory is None.
    """
    if n_steps < 1:
        raise ContractError(f"n_steps must be >= 1, got {n_steps}")
    if not t1 > t0:
        raise ContractError(f"fixed solve requires t1 > t0, got [{t0}, {t1}]")
    h0 = np.asarray(states0, dtype=np.float64)
    work = workspace(field, h0)
    times = t0 + (t1 - t0) * np.arange(n_steps + 1) / n_steps
    times[-1] = t1
    # without the trajectory one stage slot is reused
    kept = n_steps if keep_trajectory else 1
    stages = np.empty((kept, 4, h0.shape[0], work.stage_dim))
    # the field at (h0, t0) starts the carry; its value is not needed
    eval_dynamics_batch(field, h0, t0, out=np.empty_like(h0), work=work)
    carry = work.rk4_begin(h0)
    for i in range(n_steps):
        t = times[i]
        work.rk4_step(carry, t, times[i + 1] - t, stages[i % kept], last=i == n_steps - 1)
        _require_finite(carry, times[i + 1])
    hT = work.rk4_end(h0, carry, t1 - t0)
    traj = Trajectory(times, h0=h0.copy(), stages=stages, field=field) if keep_trajectory else None
    if not np.all(np.isfinite(hT)):
        # name the first non-finite grid state; without a trajectory to rebuild
        # the states from, a solve that keeps one fails the same way here
        if traj is None:
            solve_fixed_batch(field, h0, t0, t1, n_steps)
        for t, h in zip(times, traj.states):
            _require_finite(h, t)
    return hT, traj


def rk4_terminal_batch(field, states0, t0, t1, n_steps):
    """Terminal states of :func:`solve_fixed_batch` without the trajectory.

    Evaluation-only form for metric passes, where the trajectory would be
    dead weight.
    """
    return solve_fixed_batch(field, states0, t0, t1, n_steps, keep_trajectory=False)[0]


def integrate_adaptive(f, y0, t0, t1, config):
    """Dormand-Prince 5(4) solve of dy/dt = f(y, t) from t0 to exactly t1.

    Integration direction follows sign(t1 - t0). Raises
    :class:`StepBudgetError` when ``config.max_steps`` attempted steps do not
    reach t1 and :class:`NumericError` when the state goes non-finite. The
    returned stats count every derivative evaluation; with FSAL reuse each
    attempted step costs six fresh evaluations after the initial one.
    """
    if t1 == t0:
        raise ContractError("adaptive solve requires t1 != t0")
    y = np.asarray(y0, dtype=np.float64).copy()
    stats = SolveStats(retained_floats=y.size)
    direction = 1.0 if t1 > t0 else -1.0
    dt = (t1 - t0) / 10.0
    t = t0
    k = [None] * 7
    k[0] = np.asarray(f(y, t), dtype=np.float64)
    stats.n_feval += 1
    attempts = 0
    while (t1 - t) * direction > 0:
        if attempts >= config.max_steps:
            raise StepBudgetError(
                f"step budget {config.max_steps} exhausted at t={t} before reaching {t1}",
                where=t,
            )
        attempts += 1
        last = (t + dt - t1) * direction >= 0
        if last:
            dt = t1 - t
        for i in range(1, 7):
            yi = y + dt * sum(DOPRI5_A[i][j] * k[j] for j in range(i))
            k[i] = np.asarray(f(yi, t + DOPRI5_C[i] * dt), dtype=np.float64)
        stats.n_feval += 6
        # stage 7 sits at the 5th-order solution: y5 is the last yi above
        y5 = y + dt * sum(DOPRI5_A[6][j] * k[j] for j in range(6))
        err_vec = dt * sum(DOPRI5_ERR[i] * k[i] for i in range(7))
        _require_finite(y5, t + dt)
        scale = config.atol + config.rtol * np.maximum(np.abs(y), np.abs(y5))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        if err <= 1.0:
            t = t1 if last else t + dt
            y = y5
            k[0] = k[6]
            stats.n_accept += 1
        else:
            stats.n_reject += 1
        if err == 0.0:
            factor = MAX_FACTOR
        else:
            factor = min(max(SAFETY * err ** -0.2, MIN_FACTOR), MAX_FACTOR)
        dt = dt * factor
    return y, stats


def solve_adaptive(field, h0, t0, t1, config):
    """Adaptive solve of one state ``h0`` (shape (d,)); returns (hT, SolveStats).

    The field runs at n=1 through one workspace for the whole solve.
    """
    h0 = np.asarray(h0, dtype=np.float64)[None]
    work = workspace(field, h0)
    f = lambda y, t: eval_dynamics_batch(field, y, t, work=work)
    hT, stats = integrate_adaptive(f, h0, t0, t1, config)
    return hT[0], stats


def solve(field, states0, t0, t1, config, keep_trajectory=False):
    """Solve the rows of ``states0`` (shape (n, d)) by ``config.method``; returns
    (hT, SolveStats, Trajectory | None).

    The fixed method is one :func:`solve_fixed_batch` call, with stats from
    its grid (four evaluations per step and row, every step accepted) and the
    trajectory when ``keep_trajectory``. The adaptive method runs
    :func:`solve_adaptive` per row, so step control stays per-trajectory.
    """
    states0 = np.asarray(states0, dtype=np.float64)
    if config.method == "rk4_fixed":
        hT, traj = solve_fixed_batch(field, states0, t0, t1, config.n_steps, keep_trajectory)
        stats = SolveStats(n_feval=4 * config.n_steps * states0.shape[0], n_accept=config.n_steps,
                           retained_floats=traj.n_retained_floats if traj else states0.size)
        return hT, stats, traj
    hT = np.empty_like(states0)
    stats = SolveStats()
    for i in range(states0.shape[0]):
        hT[i], s = solve_adaptive(field, states0[i], t0, t1, config)
        stats.merge(s)
    return hT, stats, None
