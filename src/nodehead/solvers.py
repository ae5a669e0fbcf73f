"""Numerical integration of the hidden-state ODE.

Two methods cover the two training strategies, fixed-step RK4 in a
single-state and a batch form:

* :func:`solve_fixed` - classic 4-stage RK4 on a uniform grid, retaining
  every state and stage so the discrete recursion can be differentiated
  exactly in reverse (memory grows with the step count). It takes one
  state and any field, and is the reference the batch routine is tested
  against.
* :func:`solve_fixed_batch` - the same recursion on an (n, d) batch with a
  shared grid, the routine training and evaluation run. It builds one
  :class:`~nodehead.dynamics.BatchWorkspace` per solve, routes every stage
  through :func:`~nodehead.dynamics.eval_dynamics_batch` into preallocated
  buffers, and either writes the stages straight into the returned
  trajectory or, with ``keep_trajectory=False``
  (:func:`rk4_terminal_batch`), keeps only the current step.
* :func:`solve_adaptive` - Dormand-Prince 5(4) embedded pair with
  rtol/atol step control, the tolerance-tunable path. Supports backward
  integration (t1 < t0) for the adjoint pass and retains nothing beyond
  the current state.

Step control: the per-component error scale is
``s_i = atol + rtol * max(|y_i|, |y'_i|)`` over the current and proposed
states, a step is accepted when the RMS of ``e_i / s_i`` is at most 1, and
the next step is ``dt * clamp(safety * err**(-1/5), min_factor, max_factor)``.

The single-state integrators accept either
:class:`~nodehead.dynamics.DynamicsParams` or any callable
``f(y, t) -> dy/dt``, so plain vector fields (test problems, augmented
adjoint systems) run through the same code path; the batch routine takes
DynamicsParams only.
"""

from dataclasses import dataclass, field

import numpy as np

from .dynamics import BatchWorkspace, DynamicsParams, check_batch, eval_dynamics, eval_dynamics_batch
from .errors import ContractError, NumericError, StepBudgetError

# Classic RK4 weights, kept in tableau form so an independently coded
# tableau evaluation reproduces steps bitwise (all stage coefficients are
# exact binary fractions).
RK4_B = np.array([1 / 6, 1 / 3, 1 / 3, 1 / 6])
RK4_C = (0.0, 0.5, 0.5, 1.0)  # stage times; stage j reads h + RK4_C[j] * dt * k[j-1]

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


@dataclass
class SolverConfig:
    """Integration settings shared by both methods.

    ``method`` selects the integrator ("rk4_fixed" or "dopri5"); ``n_steps``
    only applies to the fixed method, the tolerance/controller fields only
    to the adaptive one. ``h_init=None`` means (t1 - t0) / 10.
    """

    method: str = "dopri5"
    rtol: float = 1e-5
    atol: float = 1e-5
    n_steps: int = 20
    h_init: float | None = None
    max_steps: int = 100_000
    safety: float = 0.9
    min_factor: float = 0.2
    max_factor: float = 5.0

    def __post_init__(self):
        if self.method not in ("rk4_fixed", "dopri5"):
            raise ContractError(f"unknown solver method {self.method!r}")
        if self.rtol <= 0 or self.atol <= 0:
            raise ContractError(f"tolerances must be positive, got rtol={self.rtol}, atol={self.atol}")
        if self.n_steps < 1:
            raise ContractError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.max_steps < 1:
            raise ContractError(f"max_steps must be >= 1, got {self.max_steps}")
        if not (0 < self.min_factor < 1 < self.max_factor):
            raise ContractError(
                f"need 0 < min_factor < 1 < max_factor, got {self.min_factor}, {self.max_factor}"
            )


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
    """Grid solution of a fixed-step solve with per-step RK stages.

    ``states[i]`` is the solution at ``times[i]``; ``stages[i]`` holds the
    four RK4 stage derivatives of the step from ``times[i]`` to
    ``times[i+1]``. For batched solves the state axis is (n, d) instead of
    (d,) and all arrays gain the batch axis accordingly.
    """

    times: np.ndarray
    states: np.ndarray
    stages: np.ndarray | None = field(default=None)

    @property
    def n_retained_floats(self):
        total = self.states.size
        if self.stages is not None:
            total += self.stages.size
        return total


def as_field(params):
    """Resolve ``params`` into a derivative callable f(y, t)."""
    if isinstance(params, DynamicsParams):
        return lambda h, t: eval_dynamics(params, h, t)
    if callable(params):
        return params
    raise TypeError(f"expected DynamicsParams or callable field, got {type(params).__name__}")


def _require_finite(y, t):
    if not np.all(np.isfinite(y)):
        raise NumericError(f"solver state became non-finite at t={t}", where=t)


def rk4_step(params, h, t, dt):
    """One classic RK4 step; returns (h_next, stages) with stages shaped (4, d).

    The stage derivatives are returned so reverse passes can re-walk the
    recursion without re-integrating.
    """
    f = as_field(params)
    h = np.asarray(h, dtype=np.float64)
    k1 = f(h, t)
    k2 = f(h + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = f(h + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = f(h + dt * k3, t + dt)
    h_next = h + dt * (RK4_B[0] * k1 + RK4_B[1] * k2 + RK4_B[2] * k3 + RK4_B[3] * k4)
    _require_finite(h_next, t + dt)
    return h_next, np.stack([k1, k2, k3, k4])


def solve_fixed(params, h0, t0, t1, n_steps):
    """Integrate with ``n_steps`` uniform RK4 steps, keeping the full trajectory."""
    if n_steps < 1:
        raise ContractError(f"n_steps must be >= 1, got {n_steps}")
    if not t1 > t0:
        raise ContractError(f"fixed solve requires t1 > t0, got [{t0}, {t1}]")
    h = np.asarray(h0, dtype=np.float64)
    times = t0 + (t1 - t0) * np.arange(n_steps + 1) / n_steps
    times[-1] = t1
    states = np.empty((n_steps + 1,) + h.shape)
    stages = np.empty((n_steps, 4) + h.shape)
    states[0] = h
    for i in range(n_steps):
        dt = times[i + 1] - times[i]
        h, k = rk4_step(params, h, times[i], dt)
        states[i + 1] = h
        stages[i] = k
    return h, Trajectory(times=times, states=states, stages=stages)


def solve_fixed_batch(params, states0, t0, t1, n_steps, keep_trajectory=True):
    """Batched :func:`solve_fixed` over rows of ``states0`` (shape (n, d)).

    Returns (hT, Trajectory). Each row is an independent initial value; the
    uniform grid makes the batched recursion exactly the per-row one, just
    evaluated together. One :class:`~nodehead.dynamics.BatchWorkspace` serves
    every stage, and the stage derivatives are written straight into the
    trajectory buffers. With ``keep_trajectory=False`` only the current
    step's stages are held and the trajectory is None.
    """
    if n_steps < 1:
        raise ContractError(f"n_steps must be >= 1, got {n_steps}")
    if not t1 > t0:
        raise ContractError(f"fixed solve requires t1 > t0, got [{t0}, {t1}]")
    h0 = check_batch(params, states0)
    times = t0 + (t1 - t0) * np.arange(n_steps + 1) / n_steps
    times[-1] = t1
    work = BatchWorkspace(params, h0.shape[0])
    # without the trajectory, two state slots alternate and one stage slot is reused
    kept = n_steps if keep_trajectory else 1
    states = np.empty((kept + 1,) + h0.shape)
    stages = np.empty((kept, 4) + h0.shape)
    states[0] = h0
    for i in range(n_steps):
        t = times[i]
        dt = times[i + 1] - t
        h = states[i % (kept + 1)]
        h_next = states[(i + 1) % (kept + 1)]
        k = stages[i % kept]
        eval_dynamics_batch(params, h, t, out=k[0], work=work)
        for j in (1, 2, 3):
            np.multiply(k[j - 1], RK4_C[j] * dt, out=work.y)
            work.y += h
            eval_dynamics_batch(params, work.y, t + RK4_C[j] * dt, out=k[j], work=work)
        np.matmul(RK4_B, k.reshape(4, -1), out=h_next.reshape(-1))
        h_next *= dt
        h_next += h
        _require_finite(h_next, t + dt)
    if not keep_trajectory:
        return h_next, None
    return h_next, Trajectory(times=times, states=states, stages=stages)


def rk4_terminal_batch(params, states0, t0, t1, n_steps):
    """Terminal states of :func:`solve_fixed_batch` without the trajectory.

    Evaluation-only form for metric passes, where the trajectory would be
    dead weight.
    """
    return solve_fixed_batch(params, states0, t0, t1, n_steps, keep_trajectory=False)[0]


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
    span = t1 - t0
    dt = config.h_init if config.h_init is not None else span / 10.0
    if dt * direction <= 0:
        dt = span / 10.0
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
            factor = config.max_factor
        else:
            factor = min(max(config.safety * err ** -0.2, config.min_factor), config.max_factor)
        dt = dt * factor
    return y, stats


def solve_adaptive(params, h0, t0, t1, config):
    """Adaptive solve of the dynamics field; returns (hT, SolveStats)."""
    return integrate_adaptive(as_field(params), h0, t0, t1, config)


def solve(params, h0, t0, t1, config):
    """Dispatch on ``config.method``; returns (hT, SolveStats) either way.

    The fixed method's stats are derived from its grid (four evaluations per
    step, every step accepted); its trajectory is dropped here - callers that
    need it for a reverse pass use :func:`solve_fixed` directly.
    """
    if config.method == "rk4_fixed":
        h, traj = solve_fixed(params, h0, t0, t1, config.n_steps)
        return h, SolveStats(
            n_feval=4 * config.n_steps,
            n_accept=config.n_steps,
            retained_floats=traj.n_retained_floats,
        )
    h, stats = solve_adaptive(params, h0, t0, t1, config)
    return h, stats
