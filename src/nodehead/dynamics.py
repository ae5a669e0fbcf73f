"""The learnable vector field driving the continuous-depth block.

The hidden state evolves by dh/dt = f(h, t, params) where f is a two-layer
tanh MLP over the time-appended state:

    f(h, t) = w2 @ tanh(w1 @ [h; t] + b1) + b2

Appending t as one extra input coordinate is the simplest way to give f an
explicit time dependence; tanh keeps the field Lipschitz so explicit solvers
behave well.

Every routine works on a batch of states of shape (n, d) with one shared
time: :func:`eval_dynamics_batch` evaluates the field and :func:`vjp_batch`
returns the two vector-Jacobian products the adjoint consumes
(a.T @ df/dh per row, a.T @ df/dparams summed over rows), both analytic.
The single-state :func:`eval_dynamics`, :func:`vjp_state` and
:func:`vjp_params` are their n=1 cases.

A *field* is either :class:`DynamicsParams` or a closed-form field: any
object with batch methods ``eval(H, t) -> F`` and
``vjp(H, t, A) -> (dH, dθ summed over rows)`` and an ``n_params``
attribute. :func:`workspace` is the one place that tells them apart;
solvers build one workspace per solve and pass it to every call.

The workspace also takes the classic RK4 step and its reverse, for the
fixed-step loops in :mod:`nodehead.solvers` and :mod:`nodehead.adjoint`.
The loops carry one array from step to step, and the workspace decides
what it is. A closed-form field steps in state space: its carry is the
state, and it stores the four stage derivatives. The two-layer field
carries the pre-activation of its first stage,

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
  step costs 8 GEMMs between widths d and w. The trajectory keeps ``h0``
  and the four activations per step, not the grid states, which it
  rebuilds on demand.
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
then b2.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError, ShapeError

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
            raise ShapeError(f"b1 shape {self.b1.shape} inconsistent with w1 {self.w1.shape}")
        if self.w2.shape != (d, width):
            raise ShapeError(f"w2 shape {self.w2.shape} inconsistent with w1 {self.w1.shape}")
        if self.b2.shape != (d,):
            raise ShapeError(f"b2 shape {self.b2.shape} inconsistent with w1 {self.w1.shape}")

    @property
    def d(self):
        return self.w2.shape[0]

    @property
    def width(self):
        return self.w1.shape[0]

    @property
    def n_params(self):
        return self.w1.size + self.b1.size + self.w2.size + self.b2.size

    def flatten(self):
        """Concatenate (w1, b1, w2, b2) row-major into one float64 vector."""
        return np.concatenate(
            [self.w1.ravel(), self.b1, self.w2.ravel(), self.b2]
        )


def unflatten(flat, d, width):
    """Rebuild DynamicsParams from a flat vector in the documented order."""
    flat = np.asarray(flat, dtype=np.float64)
    expected = width * (d + 1) + width + d * width + d
    if flat.shape != (expected,):
        raise ShapeError(f"flat parameter vector has shape {flat.shape}, expected ({expected},)")
    i = 0
    w1 = flat[i : i + width * (d + 1)].reshape(width, d + 1).copy()
    i += width * (d + 1)
    b1 = flat[i : i + width].copy()
    i += width
    w2 = flat[i : i + d * width].reshape(d, width).copy()
    i += d * width
    b2 = flat[i : i + d].copy()
    return DynamicsParams(w1, b1, w2, b2)


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
    buffers by :meth:`vjp`, ``M``, ``m`` and the step buffers by
    :meth:`rk4_step`, the reverse-pass buffers and gradient sums by
    :meth:`rk4_reverse_begin`. A dopri5 or adjoint workspace never forms ``M``.
    """

    def __init__(self, params, n):
        d, width = params.d, params.width
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
        """Compute ``u = tanh(z)`` for the stage input (states, t)."""
        np.multiply(self.w1t, t, out=self.tb)
        self.tb += self.b1
        np.matmul(states, self.w1h_t, out=self.z)
        self.z += self.tb
        np.tanh(self.z, out=self.u)

    def eval(self, states, t, out=None):
        self.activate(states, t)
        return np.matmul(self.u1, self.w2b_t, out=out)

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
        n_w1 = width * (d + 1)
        x[:, :d] = states
        x[:, d] = t
        np.dot(s.T, x, out=d_params_out[:n_w1].reshape(width, d + 1))
        np.dot(ones, s, out=d_params_out[n_w1 : n_w1 + width])
        np.dot(cotangents.T, self.u, out=d_params_out[n_w1 + width : -d].reshape(d, width))
        np.dot(ones, cotangents, out=d_params_out[-d:])
        return d_states, d_params_out

    @cached_property
    def _hidden(self):
        """``M = w2.T @ w1h_t`` and ``m = b2 @ w1h_t + w1[:, d]``: a state
        ``h + v @ w2.T + a * b2`` at time ``t + a`` has the pre-activation
        ``z + v @ M + a * m``, z being that of (h, t)."""
        return self.w2.T @ self.w1h_t, self.w2b_t[-1] @ self.w1h_t + self.w1t

    @cached_property
    def _step_buffers(self):
        """``z + (dt / 2) * m``, ``z + dt * m``, ``ubar``, the running sum ``U``,
        and ``(dt / 2) * M`` and ``dt * M``."""
        M = self._hidden[0]
        return (*(np.empty_like(self.z) for _ in range(4)), np.empty_like(M), np.empty_like(M))

    def rk4_begin(self, h0):
        """The carry of an RK4 solve from ``h0``: the pre-activation ``z_0`` that
        :meth:`eval` at (h0, t0) left behind. Zeroes the running sum ``U``."""
        self._step_buffers[3][...] = 0.0
        return self.z

    def rk4_step(self, z, t, dt, stages, last=False):
        """One RK4 step of the carry ``z`` from ``t`` to ``t + dt``, in place.

        Stage j's pre-activation is ``z + a_j * (u_{j-1} @ M + m)`` with
        ``a_j = RK4_C[j] * dt`` and ``u_0 = tanh(z)``; each activation
        ``u_j`` is written to ``stages[j]`` (shape (n, width)). With
        ``ubar = sum_j dt * RK4_B[j] * u_j`` the step's state is
        ``h + ubar @ w2.T + dt * b2``, so the carry becomes
        ``z + ubar @ M + dt * m`` and ``U`` collects ``ubar``. On the
        solve's ``last`` step nothing reads the carry again, so it is left
        as it was.
        """
        M, m = self._hidden
        z_half, z_full, ubar, U, M_half, M_full = self._step_buffers
        np.tanh(z, out=stages[0])
        # the shares of the stage pre-activations that do not depend on u
        np.add(z, (0.5 * dt) * m, out=z_half)
        np.add(z, dt * m, out=z_full)
        np.multiply(M, 0.5 * dt, out=M_half)
        np.multiply(M, dt, out=M_full)
        for j, zj, Mj in ((1, z_half, M_half), (2, z_half, M_half), (3, z_full, M_full)):
            u = np.matmul(stages[j - 1], Mj, out=stages[j])
            u += zj
            np.tanh(u, out=u)
        np.matmul(RK4_B * dt, stages.reshape(4, -1), out=ubar.reshape(-1))
        U += ubar
        if not last:
            np.matmul(ubar, M, out=z)
            z += z_full
        return z

    def _state(self, h0, U, span, out=None):
        """The state ``h0 + U @ w2.T + span * b2`` that a running sum ``U`` reaches."""
        width = self.stage_dim
        out = np.matmul(U, self.w2b_t[:width], out=out)
        out += span * self.w2b_t[width]
        out += h0
        return out

    def rk4_end(self, h0, z, span):
        """The state at the end of the solve from ``h0`` over ``span = t1 - t0``."""
        return self._state(h0, self._step_buffers[3], span)

    def rk4_states(self, h0, times, stages):
        """The grid states of a solve from ``h0``, rebuilt from its stage
        records as :meth:`rk4_step` and :meth:`rk4_end` form them, so the last
        one is bitwise the solve's terminal state."""
        U, ubar = np.zeros_like(self.z), np.empty_like(self.z)
        states = np.empty((len(times),) + h0.shape)
        states[0] = h0
        for i in range(len(times) - 1):
            np.matmul(RK4_B * (times[i + 1] - times[i]), stages[i].reshape(4, -1), out=ubar.reshape(-1))
            U += ubar
            self._state(h0, U, times[i + 1] - times[0], out=states[i + 1])
        return states

    @cached_property
    def _reverse(self):
        """The reverse pass's operands and buffers: contiguous ``M.T`` and
        ``w1_h``, because a transposed operand slows the GEMM, then
        ``G = dL/dhT @ w2``, dL/dubar, S, 1 - u^2, scratch, ubar,
        the running sum U, the state gradient and a row of ones."""
        n, width = self.z.shape
        d = self.w2.shape[0]
        e = lambda *shape: np.empty(shape)
        return (self._hidden[0].T.copy(), self.w1h_t.T.copy(), e(n, width), e(n, width),
                e(4, n, width), e(4, n, width), e(n, width), e(n, width), e(n, width),
                e(n, d), np.ones(3 * n))

    @cached_property
    def _grads(self):
        """Running sums of the reverse pass: the gradients of w1_h, of w1's
        time column, b1, w2, b2, and then of M and m."""
        d, width = self.w2.shape
        z = np.zeros
        return z((width, d)), z(width), z(width), z((d, width)), z(d), z((width, width)), z(width)

    def rk4_reverse_begin(self, g):
        """The reverse carry for the cotangent ``g`` of the terminal state:
        ``gz = dL/dz`` at the last grid point, which is zero, since the
        terminal state reads only ``U``. Forms the constant ``G = g @ w2``."""
        _, _, G, _, _, _, _, _, U, _, _ = self._reverse
        np.matmul(g, self.w2, out=G)
        U[...] = 0.0
        return np.zeros_like(G)

    def rk4_step_vjp(self, trajectory, i, gz):
        """Pull the reverse carry ``gz`` back over step ``i`` of ``trajectory``,
        in place, from its stored activations, and add the step's gradients
        of ``M`` and ``m`` to the running sums.

        ``dL/dubar = G + gz @ M.T``. With ``s_j = dL/dz_j`` of stage j, the
        stages chain back as
        ``s_j = (dt * RK4_B[j] * dL/dubar + a_{j+1} * s_{j+1} @ M.T) * (1 - u_j^2)``,
        and ``gz`` gains ``sum_j s_j``. ``M`` collects ``ubar.T @ gz`` and
        ``a_j * u_{j-1}.T @ s_j``, ``m`` collects ``dt * sum_rows gz`` and
        ``a_j * sum_rows s_j``. On the last step, where the pass starts, ``gz``
        is still the zero carry of :meth:`rk4_reverse_begin`, so its three
        products are skipped and ``dL/dubar = G``.
        """
        m_t, _, G, H, S, D, tmp, ubar, U, _, ones = self._reverse
        g_M, g_m = self._grads[5:]
        n, width = G.shape
        stages = trajectory.stages[i]
        t = trajectory.times[i]
        dt = trajectory.times[i + 1] - t
        np.matmul(RK4_B * dt, stages.reshape(4, -1), out=ubar.reshape(-1))
        U += ubar
        if i == len(trajectory.times) - 2:
            H[...] = G
        else:
            # the carry's own step z + ubar @ M + dt * m, while gz is still dL/dz_{i+1}
            g_M += ubar.T @ gz
            g_m += dt * (ones[:n] @ gz)
            np.matmul(gz, m_t, out=H)
            H += G
        np.multiply(stages, stages, out=D)
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
        g_M += stages[:3].reshape(-1, width).T @ scaled
        g_m += ones @ scaled
        return gz

    def rk4_reverse_end(self, trajectory, g, gz):
        """The gradient of the solve's initial state, written into ``g``, and
        the direct parameter gradients: ``w2`` and ``b2`` through the terminal
        state ``h0 + U @ w2.T + (t1 - t0) * b2``, ``w1`` and ``b1`` through
        ``z_0 = h0 @ w1h_t + t0 * w1[:, d] + b1``."""
        _, w1h, _, _, _, _, _, _, U, dh, ones = self._reverse
        g_w1h, g_w1t, g_b1, g_w2, g_b2 = self._grads[:5]
        h0, times = trajectory.h0, trajectory.times
        n = g.shape[0]
        g_w2 += g.T @ U
        g_b2 += (times[-1] - times[0]) * (ones[:n] @ g)
        g_w1h += gz.T @ h0
        row_sum = ones[:n] @ gz
        g_b1 += row_sum
        g_w1t += times[0] * row_sum
        g += np.matmul(gz, w1h, out=dh)
        return g

    def d_params(self):
        """The reverse pass's summed parameter gradient, flat in the documented
        order: the direct sums, plus those of M and m mapped onto w1, w2 and
        b2 once per pass."""
        g_w1h, g_w1t, g_b1, g_w2, g_b2, g_M, g_m = self._grads
        g_w1h = g_w1h + g_M.T @ self.w2.T + np.outer(g_m, self.w2b_t[-1])
        g_w1 = np.concatenate([g_w1h, (g_w1t + g_m)[:, None]], axis=1)
        g_w2 = g_w2 + self.w1h_t @ g_M.T
        g_b2 = g_b2 + self.w1h_t @ g_m
        return np.concatenate([g_w1.ravel(), g_b1, g_w2.ravel(), g_b2])


class FieldWorkspace:
    """The workspace of a closed-form field: the calls a :class:`BatchWorkspace`
    answers, served by the field's own ``eval`` and ``vjp``. Its RK4 step
    runs in state space, carries the state itself and stores the four stage
    derivatives; its reverse carry is the state's cotangent."""

    def __init__(self, field, states):
        self.field = field
        self.stage_dim = np.shape(states)[-1]
        self.g = np.zeros(field.n_params)

    def eval(self, states, t, out=None):
        return _into(out, self.field.eval(states, t))

    def vjp(self, states, t, cotangents, out, d_params_out, value_out=None):
        d_states, d_flat = self.field.vjp(states, t, cotangents)
        d_params_out[...] = d_flat
        if value_out is not None:
            value_out[...] = self.field.eval(states, t)
        return _into(out, d_states), d_params_out

    def rk4_begin(self, h0):
        return np.array(h0, dtype=np.float64)

    def rk4_step(self, h, t, dt, stages, last=False):
        self.eval(h, t, stages[0])
        for j in (1, 2, 3):
            self.eval(h + RK4_C[j] * dt * stages[j - 1], t + RK4_C[j] * dt, stages[j])
        h += _increment(dt, stages)
        return h

    def rk4_end(self, h0, h, span):
        return h

    def rk4_states(self, h0, times, stages):
        states = np.empty((len(times),) + h0.shape)
        states[0] = h0
        for i in range(len(times) - 1):
            states[i + 1] = states[i] + _increment(times[i + 1] - times[i], stages[i])
        return states

    def rk4_reverse_begin(self, g):
        return g

    def rk4_step_vjp(self, trajectory, i, g):
        h, stages = trajectory.states[i], trajectory.stages[i]
        t = trajectory.times[i]
        dt = trajectory.times[i + 1] - t
        v = [None] * 4
        for j in (3, 2, 1, 0):
            # stage j's cotangent: its weight b_j dt in the step, plus what stage
            # j+1 sends back through its input h + RK4_C[j+1] dt k_j
            c = RK4_B[j] * dt * g
            if j < 3:
                c += RK4_C[j + 1] * dt * v[j + 1]
            y = h if j == 0 else h + RK4_C[j] * dt * stages[j - 1]
            v[j], d_flat = self.field.vjp(y, t + RK4_C[j] * dt, c)
            self.g += d_flat
        for vj in v:
            g += vj
        return g

    def rk4_reverse_end(self, trajectory, g, carry):
        return g

    def d_params(self):
        return self.g.copy()


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
    :class:`ShapeError` otherwise; any other field is closed-form and gets a
    :class:`FieldWorkspace`. Either answers ``eval`` and ``vjp``, and the
    RK4 protocol of the fixed-step loops: ``rk4_begin`` gives the carry
    once :func:`eval_dynamics_batch` has run at (h0, t0), ``rk4_step``
    advances it in place and writes the step's stage records (``stage_dim``
    wide), ``rk4_end`` forms the terminal state and ``rk4_states`` rebuilds
    the grid states from the records. In reverse, ``rk4_reverse_begin``
    gives the reverse carry for the terminal cotangent, ``rk4_step_vjp``
    pulls it back over one step of a trajectory, ``rk4_reverse_end`` gives
    the initial state's gradient, and ``d_params`` reads back the parameter
    gradient the reverse steps summed.
    """
    if not isinstance(field, DynamicsParams):
        return FieldWorkspace(field, states)
    shape = np.shape(states)
    if len(shape) != 2 or shape[1] != field.d:
        raise ShapeError(f"batch shape {shape} does not match field dimension {field.d}")
    if cotangents is not None and np.shape(cotangents) != shape:
        raise ShapeError(
            f"batch shapes {shape} and {np.shape(cotangents)} inconsistent with dimension {field.d}"
        )
    return BatchWorkspace(field, shape[0])


def eval_dynamics_batch(field, states, t, out=None, work=None):
    """Row-wise field evaluation for a batch of states with shared time t.

    ``states`` has shape (n, d); the result matches. Solvers pass the
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
