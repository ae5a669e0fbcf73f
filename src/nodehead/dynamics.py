"""The learnable vector field driving the continuous-depth block.

The hidden state evolves by dh/dt = f(h, t, params) where f is a two-layer
tanh MLP over the time-appended state:

    f(h, t) = w2 @ tanh(w1 @ [h; t] + b1) + b2

Appending t as one extra input coordinate is the simplest way to give f an
explicit time dependence; tanh keeps the field Lipschitz so explicit solvers
behave well.

Every routine works on a batch of states of shape (n, d) and a time that
is either one scalar for every row or a column of per-row times (shape
(n, 1)), the scalar being its broadcast case: :func:`eval_dynamics_batch`
evaluates the field and :func:`vjp_batch`
returns the two vector-Jacobian products the adjoint consumes
(a.T @ df/dh per row, a.T @ df/dparams summed over rows), both analytic.
The single-state :func:`eval_dynamics`, :func:`vjp_state` and
:func:`vjp_params` are their n=1 cases.

A *field* is either :class:`DynamicsParams` or a closed-form field: any
object with batch methods ``eval(H, t) -> F`` and
``vjp(H, t, A) -> (dH, dθ summed over rows)`` and an ``n_params``
attribute. :func:`workspace` is the one place that tells them apart;
solvers build one workspace per solve and pass it to every call.

The workspace also runs the classic RK4 solve and its reverse pass, each
in one call, for :func:`~nodehead.solvers.solve_fixed_batch` and
:func:`~nodehead.adjoint.backprop_rk4_batch`. What it carries from step
to step depends on the field. A closed-form field steps in state space:
its carry is the state, and it stores the four stage derivatives. The
two-layer field carries the pre-activation of its first stage,

    z_i = h_i @ w1_h.T + t_i * w1_t + b1        (shape (n, width)),

with w1_h and w1_t the state block and time column of w1. A stage
derivative is ``k = u @ w2.T + b2`` with ``u = tanh(z)``, so a state
``h + v @ w2.T + a * b2`` at time ``t + a`` has the pre-activation
``z + v @ M + a * m``, where ``M = w2.T @ w1_h.T`` (width x width) and
``m = b2 @ w1_h.T + w1_t``. With ``a_j = RK4_C[j] * dt`` a step is

    u_0 = tanh(z_i),    u_j = tanh(z_i + a_j * (u_{j-1} @ M + m)),
    ubar_i = sum_j dt * RK4_B[j] * u_j,
    z_{i+1} = z_i + ubar_i @ M + dt * m,

because the state update ``h_{i+1} = h_i + ubar_i @ w2.T + dt * b2`` is
such a shift. The state itself is formed once, at the end:
``hT = h0 + (sum_i ubar_i) @ w2.T + (t1 - t0) * b2``. The results are
those of the state-space recursion up to rounding.

* A forward step costs four (n, w)(w, w) GEMMs: ``u_0 @ M``, ``u_1 @ M``,
  ``u_2 @ M`` and ``ubar @ M``; the last step skips ``ubar @ M``, since
  the terminal state reads only the sum of the ``ubar_i``. The state-space
  step costs 8 GEMMs between widths d and w. The trajectory keeps ``h0``,
  the four activations per step and the workspace that wrote them, not
  the grid states, which that workspace rebuilds on demand.
* The reverse pass carries ``gz = dL/dz`` backward. ``G = dL/dhT @ w2``
  is formed once, and a step costs ``gz @ M.T``, three stage GEMMs and the
  gradient of M (2 GEMMs, 4 n w^2 multiply-adds); the first step starts
  from ``gz = 0`` and skips the products with it. It walks the stored
  activations and never recomputes tanh. ``dL/dh0 = dL/dhT + gz_0 @ w1_h``;
  w1 and b1 get their direct gradients once, from ``gz_0`` and ``h0``,
  and the sums for M and m are mapped onto w1, w2 and b2 once per pass,
  at O(width^2 * d) cost whatever n is.
* Forward plus reverse, a step costs ``12 * n * w^2`` multiply-adds,
  against ``28 * n * d * w`` in state space, so the carry pays while the
  width stays below about 2.3 * d. The forward solve alone costs
  ``4 * n * w^2`` against ``8 * n * d * w`` and pays below 2 * d. Every
  workload and the CLI default use width = d.

Flat parameter order (a stable contract relied on by checkpoints and the
adjoint's gradient accumulator): w1 row-major, then b1, then w2 row-major,
then b2. :func:`param_count` gives its length, and every reader and writer
of a flat vector takes the four blocks from one splitter.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError

# Classic RK4 in tableau form (all coefficients are exact binary fractions):
# stage j reads h + RK4_C[j] * dt * k[j-1] at t + RK4_C[j] * dt, and the step
# is h + dt * sum_j RK4_B[j] * k[j].
RK4_B = np.array([1 / 6, 1 / 3, 1 / 3, 1 / 6])
RK4_C = (0.0, 0.5, 0.5, 1.0)


@dataclass(frozen=True)
class DynamicsParams:
    """Parameters of the two-layer field; arrays are frozen after construction.

    Shapes: w1 is (width, d+1), b1 is (width,), w2 is (d, width), b2 is (d,).
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        for name in ("w1", "b1", "w2", "b2"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        width, d_plus_1 = self.w1.shape
        d = d_plus_1 - 1
        if self.b1.shape != (width,):
            raise ContractError(f"b1 shape {self.b1.shape} inconsistent with w1 {self.w1.shape}")
        if self.w2.shape != (d, width):
            raise ContractError(f"w2 shape {self.w2.shape} inconsistent with w1 {self.w1.shape}")
        if self.b2.shape != (d,):
            raise ContractError(f"b2 shape {self.b2.shape} inconsistent with w1 {self.w1.shape}")

    @property
    def d(self):
        return self.w2.shape[0]

    @property
    def width(self):
        return self.w1.shape[0]

    @property
    def n_params(self):
        return param_count(self.d, self.width)

    def flatten(self):
        """(w1, b1, w2, b2) as one float64 vector in the documented order."""
        flat = np.empty(self.n_params)
        for view, arr in zip(_param_views(flat, self.d, self.width), (self.w1, self.b1, self.w2, self.b2)):
            view[...] = arr
        return flat


def param_count(d, width):
    """The length of the flat parameter vector of a field of dimension ``d`` and hidden ``width``."""
    return width * (d + 1) + width + d * width + d


def _param_views(flat, d, width):
    """(w1, b1, w2, b2) as views of the flat vector ``flat``, in the documented order."""
    i_b1 = width * (d + 1)
    i_w2 = i_b1 + width
    i_b2 = i_w2 + d * width
    return (flat[:i_b1].reshape(width, d + 1), flat[i_b1:i_w2],
            flat[i_w2:i_b2].reshape(d, width), flat[i_b2 : i_b2 + d])


def unflatten(flat, d, width):
    """Rebuild DynamicsParams from a flat vector in the documented order."""
    flat = np.asarray(flat, dtype=np.float64)
    expected = param_count(d, width)
    if flat.shape != (expected,):
        raise ContractError(f"flat parameter vector has shape {flat.shape}, expected ({expected},)")
    return DynamicsParams(*(view.copy() for view in _param_views(flat, d, width)))


def init_params(seed, d, width, scale=0.1):
    """Seeded uniform init: entries ~ U(-scale*sqrt(1/fan_in), +scale*sqrt(1/fan_in)).

    fan_in is d+1 for the first layer and width for the second; biases use
    their layer's bound. Identical seeds give bitwise-identical parameters;
    scale=0 gives the zero field (the block becomes the identity map).
    """
    if d < 1 or width < 1:
        raise ContractError(f"d and width must be >= 1, got d={d}, width={width}")
    if not 0 <= scale < np.inf:
        raise ContractError(f"scale must be finite and >= 0, got {scale}")
    rng = np.random.default_rng(seed)
    lim1 = scale * np.sqrt(1.0 / (d + 1))
    lim2 = scale * np.sqrt(1.0 / width)
    w1 = rng.uniform(-lim1, lim1, size=(width, d + 1))
    b1 = rng.uniform(-lim1, lim1, size=width)
    w2 = rng.uniform(-lim2, lim2, size=(d, width))
    b2 = rng.uniform(-lim2, lim2, size=d)
    return DynamicsParams(w1, b1, w2, b2)


def _row(h):
    return np.asarray(h, dtype=np.float64)[None]


def eval_dynamics(field, h, t):
    """dh/dt at one state ``h`` of shape (d,); the n=1 case of :func:`eval_dynamics_batch`."""
    return eval_dynamics_batch(field, _row(h), t)[0]


def vjp_state(field, h, t, a):
    """a.T @ df/dh at one state; the state half of an n=1 :func:`vjp_batch`."""
    return vjp_batch(field, _row(h), t, _row(a))[0][0]


def vjp_params(field, h, t, a):
    """a.T @ df/dparams at one state as a flat vector; the parameter half of an n=1 :func:`vjp_batch`."""
    return vjp_batch(field, _row(h), t, _row(a))[1]


class BatchWorkspace:
    """Preallocated operands for repeated work on one (n, d) batch of the two-layer field.

    Built once per solve from ``params``, with only what every use needs:
    ``w1`` split into a transposed state block ``w1h_t`` and its time
    column, so a stage computes ``z = y @ w1h_t + (t * w1[:, d] + b1)``
    without appending a time column to the states, and the activation
    buffer ``u1 = [tanh(z) | 1]``, so ``f = u1 @ [w2 | b2].T`` is one GEMM.
    Every buffer is contiguous except ``u``, because strided elementwise
    passes cost more than the bias adds they would save.

    What one kind of solve alone uses is built on its first use: the VJP
    buffers by :meth:`vjp`, ``M`` and ``m`` by :meth:`rk4_solve`, so a
    dopri5 or adjoint workspace never forms ``M``. The RK4 solve and its
    reverse pass keep their step buffers and running sums as locals, so
    nothing of one call is left for the next.
    """

    def __init__(self, params, n):
        d, width = params.d, params.width
        self.field = params
        self.stage_dim = width  # an RK4 stage is stored as its activation
        self.w1h_t = params.w1[:, :d].T.copy()
        self.w1t = params.w1[:, d].copy()
        self.b1 = params.b1
        self.w2 = params.w2
        self.w2b_t = np.vstack([params.w2.T, params.b2])
        self.tb = np.empty(width)
        self.z = np.empty((n, width))
        self.u1 = np.empty((n, width + 1))
        self.u1[:, width] = 1.0
        self.u = self.u1[:, :width]

    def activate(self, states, t):
        """Compute ``u = tanh(z)`` for the stage input (states, t), in the
        leading rows of the buffers when ``states`` has fewer rows than the
        workspace. ``t`` is one time for every row or a column of per-row times."""
        k = len(states)
        tb = np.multiply(self.w1t, t, out=self.tb if np.ndim(t) == 0 else None)
        tb += self.b1
        np.matmul(states, self.w1h_t, out=self.z[:k])
        self.z[:k] += tb
        np.tanh(self.z[:k], out=self.u[:k])

    def eval(self, states, t, out=None):
        self.activate(states, t)
        return np.matmul(self.u1[:len(states)], self.w2b_t, out=out)

    @cached_property
    def _vjp_buffers(self):
        n, width = self.z.shape
        return np.empty((n, width)), np.ones(n), np.empty((n, self.w2.shape[0] + 1))

    def vjp(self, states, t, cotangents, out, d_params_out, value_out=None):
        """With z = w1 @ [h; t] + b1 and w1_h the block of w1 over h, a.T @ df/dh is
        w1_h.T @ ((w2.T @ a) * (1 - tanh(z)^2)); see :func:`vjp_batch` for the rest.

        The row-summed parameter gradient is written straight into the flat
        ``d_params_out`` with np.dot, because it writes each block into its
        contiguous slice and, unlike np.matmul, stays fast on the rank-1
        products of an n=1 batch.
        """
        s, ones, x = self._vjp_buffers
        self.activate(states, t)
        if value_out is not None:
            np.matmul(self.u1, self.w2b_t, out=value_out)
        np.matmul(cotangents, self.w2, out=s)
        np.multiply(self.u, self.u, out=self.z)
        np.subtract(1.0, self.z, out=self.z)
        s *= self.z
        d_states = np.matmul(s, self.w1h_t.T, out=out)
        d, width = self.w2.shape
        g_w1, g_b1, g_w2, g_b2 = _param_views(d_params_out, d, width)
        x[:, :d] = states
        x[:, d:] = t
        np.dot(s.T, x, out=g_w1)
        np.dot(ones, s, out=g_b1)
        np.dot(cotangents.T, self.u, out=g_w2)
        np.dot(ones, cotangents, out=g_b2)
        return d_states, d_params_out

    @cached_property
    def _hidden(self):
        """``M = w2.T @ w1h_t`` and ``m = b2 @ w1h_t + w1[:, d]``: a state
        ``h + v @ w2.T + a * b2`` at time ``t + a`` has the pre-activation
        ``z + v @ M + a * m``, z being that of (h, t)."""
        return self.w2.T @ self.w1h_t, self.w2b_t[-1] @ self.w1h_t + self.w1t

    def rk4_solve(self, h0, times, stages):
        """The terminal state of the RK4 solve from ``h0`` over the grid ``times``.

        The carry starts as the pre-activation ``z_0`` that :meth:`eval` at
        (h0, t0) left behind and is stepped in place. Stage j's
        pre-activation is ``z + a_j * (u_{j-1} @ M + m)`` with
        ``a_j = RK4_C[j] * dt`` and ``u_0 = tanh(z)``; step i writes each
        activation ``u_j`` to ``stages[i % len(stages)][j]`` (shape (n, width)).
        With ``ubar = sum_j dt * RK4_B[j] * u_j`` the step's state is
        ``h + ubar @ w2.T + dt * b2``, so the carry becomes
        ``z + ubar @ M + dt * m`` and ``U`` sums ``ubar``; after the last
        step nothing reads the carry, so it is left as it was.
        """
        M, m = self._hidden
        z = self.z
        z_half, z_full, ubar = (np.empty_like(z) for _ in range(3))
        U = np.zeros_like(z)
        M_half, M_full = np.empty_like(M), np.empty_like(M)
        n_steps = len(times) - 1
        for i in range(n_steps):
            t = times[i]
            dt = times[i + 1] - t
            u = stages[i % len(stages)]
            np.tanh(z, out=u[0])
            # the shares of the stage pre-activations that do not depend on u
            np.add(z, (0.5 * dt) * m, out=z_half)
            np.add(z, dt * m, out=z_full)
            np.multiply(M, 0.5 * dt, out=M_half)
            np.multiply(M, dt, out=M_full)
            for j, zj, Mj in ((1, z_half, M_half), (2, z_half, M_half), (3, z_full, M_full)):
                uj = np.matmul(u[j - 1], Mj, out=u[j])
                uj += zj
                np.tanh(uj, out=uj)
            np.matmul(RK4_B * dt, u.reshape(4, -1), out=ubar.reshape(-1))
            U += ubar
            if i < n_steps - 1:
                np.matmul(ubar, M, out=z)
                z += z_full
        return self._state(h0, U, times[-1] - times[0])

    def _state(self, h0, U, span, out=None):
        """The state ``h0 + U @ w2.T + span * b2`` that a running sum ``U`` reaches."""
        width = self.stage_dim
        out = np.matmul(U, self.w2b_t[:width], out=out)
        out += span * self.w2b_t[width]
        out += h0
        return out

    def rk4_states(self, h0, times, stages):
        """The grid states of a solve from ``h0``, rebuilt from its stage
        records as :meth:`rk4_solve` forms them, so the last one is bitwise
        the solve's terminal state."""
        U, ubar = np.zeros_like(self.z), np.empty_like(self.z)
        states = np.empty((len(times),) + h0.shape)
        states[0] = h0
        for i in range(len(times) - 1):
            np.matmul(RK4_B * (times[i + 1] - times[i]), stages[i].reshape(4, -1), out=ubar.reshape(-1))
            U += ubar
            self._state(h0, U, times[i + 1] - times[0], out=states[i + 1])
        return states

    def rk4_reverse(self, trajectory, g):
        """(dL/dh0, dL/dθ) of the solve that wrote ``trajectory``, for the
        cotangent ``g`` of its terminal state; dL/dθ is flat in the
        documented order.

        The reverse carry ``gz = dL/dz`` starts at zero on the last grid
        point, since the terminal state reads only ``U``, and is pulled back
        over each step from its stored activations. ``dL/dubar = G + gz @ M.T``
        with the constant ``G = g @ w2``. With ``s_j = dL/dz_j`` of stage j,
        the stages chain back as
        ``s_j = (dt * RK4_B[j] * dL/dubar + a_{j+1} * s_{j+1} @ M.T) * (1 - u_j^2)``,
        and ``gz`` gains ``sum_j s_j``. ``M`` collects ``ubar.T @ gz`` and
        ``a_j * u_{j-1}.T @ s_j``, ``m`` collects ``dt * sum_rows gz`` and
        ``a_j * sum_rows s_j``. On the last step ``gz`` is still zero, so its
        three products are skipped and ``dL/dubar = G``. Then ``w2`` and
        ``b2`` get their gradients through the terminal state
        ``h0 + U @ w2.T + (t1 - t0) * b2``, ``w1`` and ``b1`` through
        ``z_0 = h0 @ w1h_t + t0 * w1[:, d] + b1``, and the sums for M and m
        are mapped onto w1, w2 and b2. ``M.T`` and ``w1_h`` are made
        contiguous, because a transposed operand slows the GEMM.
        """
        h0, times, stages = trajectory.h0, trajectory.times, trajectory.stages
        n, width = self.z.shape
        d = self.w2.shape[0]
        m_t, w1h = self._hidden[0].T.copy(), self.w1h_t.T.copy()
        G = g @ self.w2
        H, tmp, ubar = (np.empty((n, width)) for _ in range(3))
        S, D = np.empty((4, n, width)), np.empty((4, n, width))
        U, gz = np.zeros((n, width)), np.zeros((n, width))
        g_M, g_m = np.zeros((width, width)), np.zeros(width)
        ones = np.ones(3 * n)
        for i in range(len(times) - 2, -1, -1):
            u = stages[i]
            dt = times[i + 1] - times[i]
            np.matmul(RK4_B * dt, u.reshape(4, -1), out=ubar.reshape(-1))
            U += ubar
            if i == len(times) - 2:
                H[...] = G
            else:
                # the carry's own step z + ubar @ M + dt * m, while gz is still dL/dz_{i+1}
                g_M += ubar.T @ gz
                g_m += dt * (ones[:n] @ gz)
                np.matmul(gz, m_t, out=H)
                H += G
            np.multiply(u, u, out=D)
            np.subtract(1.0, D, out=D)
            for j in (3, 2, 1, 0):
                s = S[j]
                np.multiply(H, RK4_B[j] * dt, out=s)
                if j < 3:
                    # S[j + 1] already holds a_{j+1} * s_{j+1}
                    s += np.matmul(S[j + 1], m_t, out=tmp)
                s *= D[j]
                gz += s
                if j > 0:
                    s *= RK4_C[j] * dt
            scaled = S[1:].reshape(-1, width)
            g_M += u[:3].reshape(-1, width).T @ scaled
            g_m += ones @ scaled
        d_flat = np.empty(param_count(d, width))
        g_w1, g_b1, g_w2, g_b2 = _param_views(d_flat, d, width)
        g_w1h = gz.T @ h0
        g_w1h += g_M.T @ self.w2.T
        g_w1h += np.outer(g_m, self.w2b_t[-1])
        g_w1[:, :d] = g_w1h
        np.matmul(ones[:n], gz, out=g_b1)
        np.add(times[0] * g_b1, g_m, out=g_w1[:, d])
        np.add(g.T @ U, self.w1h_t @ g_M.T, out=g_w2)
        np.add((times[-1] - times[0]) * (ones[:n] @ g), self.w1h_t @ g_m, out=g_b2)
        return g + gz @ w1h, d_flat


class FieldWorkspace:
    """The workspace of a closed-form field: the calls a :class:`BatchWorkspace`
    answers, served by the field's own ``eval`` and ``vjp``. Its RK4 solve
    runs in state space, carries the state itself and stores the four stage
    derivatives; its reverse pass carries the state's cotangent."""

    def __init__(self, field, states):
        self.field = field
        self.stage_dim = np.shape(states)[-1]

    def eval(self, states, t, out=None):
        return _into(out, self.field.eval(states, t))

    def vjp(self, states, t, cotangents, out, d_params_out, value_out=None):
        d_states, d_flat = self.field.vjp(states, t, cotangents)
        d_params_out[...] = d_flat
        if value_out is not None:
            value_out[...] = self.field.eval(states, t)
        return _into(out, d_states), d_params_out

    def rk4_solve(self, h0, times, stages):
        h = np.array(h0, dtype=np.float64)
        for i in range(len(times) - 1):
            t = times[i]
            dt = times[i + 1] - t
            k = stages[i % len(stages)]
            self.eval(h, t, k[0])
            for j in (1, 2, 3):
                self.eval(h + RK4_C[j] * dt * k[j - 1], t + RK4_C[j] * dt, k[j])
            h += _increment(dt, k)
        return h

    def rk4_states(self, h0, times, stages):
        states = np.empty((len(times),) + h0.shape)
        states[0] = h0
        for i in range(len(times) - 1):
            states[i + 1] = states[i] + _increment(times[i + 1] - times[i], stages[i])
        return states

    def rk4_reverse(self, trajectory, g):
        g, d_params = np.array(g), np.zeros(self.field.n_params)
        times = trajectory.times
        for i in range(len(times) - 2, -1, -1):
            h, stages = trajectory.states[i], trajectory.stages[i]
            t = times[i]
            dt = times[i + 1] - t
            v = [None] * 4
            for j in (3, 2, 1, 0):
                # stage j's cotangent: its weight b_j dt in the step, plus what stage
                # j+1 sends back through its input h + RK4_C[j+1] dt k_j
                c = RK4_B[j] * dt * g
                if j < 3:
                    c += RK4_C[j + 1] * dt * v[j + 1]
                y = h if j == 0 else h + RK4_C[j] * dt * stages[j - 1]
                v[j], d_flat = self.field.vjp(y, t + RK4_C[j] * dt, c)
                d_params += d_flat
            for vj in v:
                g += vj
        return g, d_params


def _increment(dt, stages):
    """``dt * sum_j RK4_B[j] * k_j`` over the four stage derivatives ``stages``."""
    inc = np.matmul(RK4_B, stages.reshape(4, -1)).reshape(stages.shape[1:])
    inc *= dt
    return inc


def _into(out, value):
    if out is None:
        return value
    out[...] = value
    return out


def workspace(field, states, cotangents=None):
    """The workspace for repeated work of ``field`` on batches shaped like ``states``.

    This is the one place the field kind is decided: :class:`DynamicsParams`
    gets a :class:`BatchWorkspace` once ``states`` (and ``cotangents``, when
    given) are checked to be (n, d) batches of its dimension, raising
    :class:`ContractError` otherwise; any other field is closed-form and gets a
    :class:`FieldWorkspace`. Either keeps its ``field``, answers ``eval``
    and ``vjp``, and the RK4 protocol of the fixed-step solve:
    ``rk4_solve(h0, times, stages)``, once :func:`eval_dynamics_batch` has
    run at (h0, t0), steps over the grid ``times``, writes step i's stage
    records (``stage_dim`` wide) to ``stages[i % len(stages)]`` and returns
    the terminal state unchecked, since the solve scans its grid states;
    ``rk4_states(h0, times, stages)`` rebuilds the grid states from the
    records; and ``rk4_reverse(trajectory, g)``, on the workspace that
    wrote the trajectory, returns the initial state's gradient and the flat
    parameter gradient for the terminal cotangent ``g``.
    """
    if not isinstance(field, DynamicsParams):
        return FieldWorkspace(field, states)
    shape = np.shape(states)
    if len(shape) != 2 or shape[1] != field.d:
        raise ContractError(f"batch shape {shape} does not match field dimension {field.d}")
    if cotangents is not None and np.shape(cotangents) != shape:
        raise ContractError(
            f"batch shapes {shape} and {np.shape(cotangents)} inconsistent with dimension {field.d}"
        )
    return BatchWorkspace(field, shape[0])


def eval_dynamics_batch(field, states, t, out=None, work=None):
    """Row-wise field evaluation for a batch of states at time t.

    ``states`` has shape (n, d); the result matches. ``t`` is one time for
    every row or a column of per-row times, shape (n, 1). Solvers pass the
    :func:`workspace` they built for this batch shape as ``work`` and the
    destination as ``out``, so repeated calls allocate nothing.
    """
    if work is None:
        states = np.asarray(states, dtype=np.float64)
        work = workspace(field, states)
    return work.eval(states, t, out)


def vjp_batch(field, states, t, cotangents, out=None, work=None, d_params_out=None, value_out=None):
    """Batched VJPs for one stage: per-row state gradients plus summed parameter gradient.

    Returns (d_states, d_flat) where d_states[i] = a_i.T @ df/dh at row i
    (written to ``out`` when given) and d_flat is the sum over rows of
    a_i.T @ df/dparams in flat order, written to ``d_params_out`` when
    given. The adjoint passes the :func:`workspace` it built for this batch
    shape as ``work`` and its right-hand side's slices as the outputs, so
    repeated calls allocate nothing. ``value_out`` also receives
    f(states, t) from the same activation, so one call gives all three
    parts of the adjoint's augmented right-hand side.
    """
    if work is None:
        states = np.asarray(states, dtype=np.float64)
        cotangents = np.asarray(cotangents, dtype=np.float64)
        work = workspace(field, states, cotangents)
    if d_params_out is None:
        d_params_out = np.empty(field.n_params)
    return work.vjp(states, t, cotangents, out, d_params_out, value_out)
