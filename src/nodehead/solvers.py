"""Numerical integration of the hidden-state ODE.

Two methods cover the two training strategies, and :func:`solve` is the
one place that picks between them by ``SolverConfig.method``, on an (n, d)
batch. Both take a field in the sense of :mod:`nodehead.dynamics`
(``DynamicsParams`` or a closed-form field) and build one workspace per
solve with :func:`~nodehead.dynamics.workspace`, which a fixed-step
trajectory keeps as the workspace that wrote it:

* :func:`solve_fixed_batch` - classic 4-stage RK4 on a uniform grid shared
  by the rows of an (n, d) batch, the routine training and evaluation run.
  It owns the grid, the stage buffer, the input checks and the one check
  of the states: a non-finite terminal state makes it scan the grid states.
  The field at (h0, t0), evaluated once per solve with
  :func:`~nodehead.dynamics.eval_dynamics_batch`, starts the workspace's
  carry, and one ``rk4_solve`` call of the workspace runs every step and
  writes all four stage records straight into the trajectory, so the
  discrete recursion can be differentiated exactly in reverse (memory
  grows with the step count), or, with
  ``keep_trajectory=False`` (:func:`rk4_terminal_batch`), keeps only the
  current step. For the two-layer field the carry is the first stage's
  pre-activation and a stage record its activation, so the trajectory
  keeps ``h0`` and the activations, not the grid states;
  :mod:`nodehead.dynamics` derives the recursion and its cost.
* :func:`integrate_adaptive` - the Dormand-Prince 5(4) embedded pair
  with rtol/atol step control, the tolerance-tunable path. It steps an
  (n, m) batch in which every row keeps its own time, step size,
  accept/reject decision and step budget, and each stage is one field call
  over the rows still integrating, with their times as a column. It takes
  a plain ``f(y, t)`` because the adjoint also integrates its augmented
  system with it, as a 1-row batch; :func:`solve` runs it on the field
  through :func:`~nodehead.dynamics.eval_dynamics_batch`, and
  :func:`solve_adaptive` is that solve's n=1 case. Supports backward
  integration (t1 < t0) for the adjoint pass and retains nothing beyond
  the current batch.

Step control, per row: the first step is (t1 - t0) / 10, the
per-component error scale is ``s_i = atol + rtol * max(|y_i|, |y'_i|)``
over the row's current and proposed states, a step is accepted when the
RMS of ``e_i / s_i`` over the row is at most 1, and the next step is
``dt * clamp(SAFETY * err**(-1/5), MIN_FACTOR, MAX_FACTOR)``.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import eval_dynamics_batch, workspace
# looked up here by the benchmark's span tracer (perfbench/spans.py)
from .dynamics import eval_dynamics  # noqa: F401
from .errors import ContractError, NumericError

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

    Every counter sums over the rows of the batch. ``retained_floats`` is
    the size of the solution buffer the solver carries across step
    boundaries - the (n, m) batch for the adaptive method, the full
    trajectory for the fixed one.
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
    the two-layer field a record is the stage's activation (stage_dim =
    width; see :mod:`nodehead.dynamics`); for a closed-form field it is
    the stage derivative (stage_dim = d). ``work``, the workspace that
    wrote them, runs the reverse pass (``rk4_reverse``) and rebuilds
    ``states``, the (n_steps + 1, n, d) grid batches, on first access
    (``rk4_states``); its last entry is bitwise the solve's terminal state.
    """

    times: np.ndarray
    h0: np.ndarray
    stages: np.ndarray | None = None
    work: object = None

    @cached_property
    def states(self):
        return self.work.rk4_states(self.h0, self.times, self.stages)

    @property
    def n_retained_floats(self):
        return self.h0.size + self.stages.size


def require_finite(y, t):
    """Raise :class:`NumericError` at time ``t`` unless every entry of ``y`` is finite."""
    if not np.all(np.isfinite(y)):
        raise NumericError(f"solver state became non-finite at t={t}", where=t)


def solve_fixed_batch(field, states0, t0, t1, n_steps, keep_trajectory=True):
    """Integrate the rows of ``states0`` (shape (n, d)) with ``n_steps`` uniform RK4 steps.

    Returns (hT, Trajectory). Each row is an independent initial value; the
    uniform grid makes the batched recursion exactly the per-row one, just
    evaluated together. This function owns the grid and the stage buffer.
    The field at (h0, t0), evaluated with
    :func:`~nodehead.dynamics.eval_dynamics_batch`, starts the workspace's
    carry, and one ``rk4_solve`` call runs the steps, writing the four
    stage records of each straight into the trajectory, and returns the
    terminal state; the trajectory keeps the workspace. The one check after
    ``h0`` follows: a non-finite terminal state makes this function scan the
    grid states it rebuilds, so the :class:`NumericError` names the first
    grid time whose state is non-finite. With ``keep_trajectory=False``
    only the current step's stages are held and the trajectory is None.
    """
    if n_steps < 1:
        raise ContractError(f"n_steps must be >= 1, got {n_steps}")
    if not t1 > t0:
        raise ContractError(f"fixed solve requires t1 > t0, got [{t0}, {t1}]")
    h0 = np.asarray(states0, dtype=np.float64)
    require_finite(h0, t0)
    work = workspace(field, h0)
    times = t0 + (t1 - t0) * np.arange(n_steps + 1) / n_steps
    times[-1] = t1
    # without the trajectory one stage slot is reused
    stages = np.empty((n_steps if keep_trajectory else 1, 4, h0.shape[0], work.stage_dim))
    # the field at (h0, t0) starts the carry; its value is not needed
    eval_dynamics_batch(field, h0, t0, out=np.empty_like(h0), work=work)
    hT = work.rk4_solve(h0, times, stages)
    traj = Trajectory(times, h0=h0.copy(), stages=stages, work=work) if keep_trajectory else None
    if not np.all(np.isfinite(hT)):
        # name the first non-finite grid state; without a trajectory to rebuild
        # the states from, a solve that keeps one fails the same way here
        if traj is None:
            solve_fixed_batch(field, h0, t0, t1, n_steps)
        for t, h in zip(times, traj.states):
            require_finite(h, t)
    return hT, traj


def rk4_terminal_batch(field, states0, t0, t1, n_steps):
    """Terminal states of :func:`solve_fixed_batch` without the trajectory.

    Evaluation-only form for metric passes, where the trajectory would be
    dead weight.
    """
    return solve_fixed_batch(field, states0, t0, t1, n_steps, keep_trajectory=False)[0]


def integrate_adaptive(f, y0, t0, t1, config):
    """Dormand-Prince 5(4) solve of dy/dt = f(y, t) for each row of ``y0``
    (shape (n, m)) from t0 to exactly t1; returns (yT, SolveStats).

    ``f`` takes a batch of rows and their times as a column (shape (k, 1))
    and returns the rows' derivatives. Each row has its own time, step
    size, accept/reject decision and budget of ``config.max_steps``
    attempted steps, so its result and counts are those of its solve
    alone, up to the rounding of a field that mixes rows (a GEMM); a stage
    is one call of ``f`` over the rows still integrating. Integration
    direction follows sign(t1 - t0). Raises :class:`NumericError` when a
    row's budget does not reach t1 or its state is or goes non-finite,
    ``where`` being that row's time. The stats sum over rows: a row's
    derivative evaluation counts once, and with FSAL reuse each attempted
    step costs six fresh evaluations after the initial one.
    """
    if t1 == t0:
        raise ContractError("adaptive solve requires t1 != t0")
    y = np.array(y0, dtype=np.float64)
    if y.ndim != 2:
        raise ContractError(f"adaptive solve takes an (n, m) batch of rows, got shape {y.shape}")
    require_finite(y, t0)
    out = np.empty_like(y)
    stats = SolveStats(n_feval=len(y), retained_floats=y.size)
    forward = t1 > t0
    # the time and step of each row still integrating, and its index in y0; every
    # such row has attempted each step so far, so ``attempts`` counts per row
    t = np.full((len(y), 1), float(t0))
    dt = np.full_like(t, (t1 - t0) / 10.0)
    rows = np.arange(len(y))
    attempts = 0
    k = [np.asarray(f(y, t), dtype=np.float64)] + [None] * 6
    while rows.size:
        if attempts >= config.max_steps:
            raise NumericError(f"step budget {config.max_steps} exhausted at t={t[0, 0]} before reaching {t1}",
                               where=float(t[0, 0]))
        attempts += 1
        last = t + dt >= t1 if forward else t + dt <= t1
        np.copyto(dt, t1 - t, where=last)
        stage_t = t + DOPRI5_C[:, None, None] * dt
        for i in range(1, 7):
            yi = y + dt * sum(DOPRI5_A[i][j] * k[j] for j in range(i))
            k[i] = np.asarray(f(yi, stage_t[i]), dtype=np.float64)
        stats.n_feval += 6 * rows.size
        # stage 7 sits at the 5th-order solution: its input is y5
        y5 = yi
        err_vec = dt * sum(DOPRI5_ERR[i] * k[i] for i in range(7))
        if not np.isfinite(y5).all():
            where = float(stage_t[6, np.argmin(np.isfinite(y5).all(axis=1)), 0])
            raise NumericError(f"solver state became non-finite at t={where}", where=where)
        scale = config.atol + config.rtol * np.maximum(np.abs(y), np.abs(y5))
        # the RMS over each row, summed as np.mean sums
        err = np.sqrt(np.add.reduce((err_vec / scale) ** 2, axis=1, keepdims=True) / y.shape[1])
        ok = err <= 1.0
        n_ok = int(np.count_nonzero(ok))
        stats.n_accept += n_ok
        stats.n_reject += rows.size - n_ok
        # a row that accepts its last step has reached t1 and leaves the batch below
        t = np.where(ok, stage_t[6], t)
        y, k[0] = (y5, k[6]) if n_ok == rows.size else (np.where(ok, y5, y), np.where(ok, k[6], k[0]))
        # the step ratio SAFETY * err**(-1/5), clamped, with Python's scalar power:
        # numpy's vectorized power rounds some values differently, and the scalar
        # one keeps each row's steps those of the scalar controller
        dt *= np.array([[min(max(SAFETY * e ** -0.2, MIN_FACTOR), MAX_FACTOR) if e else MAX_FACTOR]
                        for e in err[:, 0].tolist()])
        done = (ok & last)[:, 0]
        if np.count_nonzero(done):
            out[rows[done]] = y[done]
            rows, y, k[0], t, dt = (a[~done] for a in (rows, y, k[0], t, dt))
    return out, stats


def solve_adaptive(field, h0, t0, t1, config):
    """Adaptive solve of one state ``h0`` (shape (d,)); returns (hT, SolveStats).

    The n=1 case of :func:`solve` with a dopri5 ``config``.
    """
    hT, stats, _ = solve(field, np.asarray(h0, dtype=np.float64)[None], t0, t1, config)
    return hT[0], stats


def solve(field, states0, t0, t1, config, keep_trajectory=False):
    """Solve the rows of ``states0`` (shape (n, d)) by ``config.method``; returns
    (hT, SolveStats, Trajectory | None).

    The fixed method is one :func:`solve_fixed_batch` call, with stats from
    its grid (four evaluations and one accepted step per step and row) and
    the trajectory when ``keep_trajectory``. The adaptive method is one
    :func:`integrate_adaptive` call on the whole batch, whose step control
    stays per row. Either way the stats sum over the rows.
    """
    states0 = np.asarray(states0, dtype=np.float64)
    if config.method == "rk4_fixed":
        hT, traj = solve_fixed_batch(field, states0, t0, t1, config.n_steps, keep_trajectory)
        steps = config.n_steps * states0.shape[0]
        stats = SolveStats(n_feval=4 * steps, n_accept=steps,
                           retained_floats=traj.n_retained_floats if traj else states0.size)
        return hT, stats, traj
    work = workspace(field, states0)
    hT, stats = integrate_adaptive(lambda y, t: eval_dynamics_batch(field, y, t, work=work),
                                   states0, t0, t1, config)
    return hT, stats, None
