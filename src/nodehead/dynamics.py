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
Stage 0 of a step is the field at the step's own state, which the loop
evaluates with :func:`eval_dynamics_batch`; the workspace takes the other
three stages and the step. A closed-form field steps in state space and
stores the four stage derivatives. The two-layer field steps in its
hidden space: a stage derivative is ``k = u @ w2.T + b2`` with
``u = tanh(z)``, so stage j's input ``h + a_j * k_{j-1}`` at time
``t + a_j`` (``a_j = RK4_C[j] * dt``) reaches the field only through its
pre-activation

    z_j = z_0 + a_j * (u_{j-1} @ M + m),    z_0 = h @ w1_h.T + t * w1_t + b1,

with w1_h and w1_t the state block and time column of w1,
``M = w2.T @ w1_h.T`` (width x width) and ``m = b2 @ w1_h.T + w1_t``. The
step is ``h + dt * (ubar @ w2.T + b2)`` with ``ubar = sum_j RK4_B[j] * u_j``.
The results are those of the state-space recursion up to rounding.

* A forward step costs 6 GEMMs instead of 8: two for stage 0's field
  evaluation, one that sends its derivative k_0 into stage 1 through
  w1_h, two (n, w)(w, w) products into stages 2 and 3, and one (n, w)(w, d)
  product out. The trajectory keeps the four activations u_j in place of
  the four k_j, the same bytes when width = d.
* A reverse step costs 10 GEMMs instead of 20 and never recomputes tanh,
  since it walks the stored activations. The gradients of M and m are
  summed over all steps and mapped onto w1, w2 and b2 once per pass, at
  O(width^2 * d) cost whatever n is.
* Forward plus reverse, a step costs 8*n*d*w + 8*n*w^2 multiply-adds
  instead of 28*n*d*w, so the hidden space pays only while the width w
  stays below about 2.5*d, and the forward solve alone only below 2*d. At
  d = 64 on a 2-vCPU host, forward plus reverse measured 15% faster at
  width 128, 13% faster at 160 and 2% slower at 256; the forward solve
  alone was even at 128 and 17% slower at 160. Every workload and the CLI
  default use width = d.

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
    :meth:`rk4_step_vjp`. A dopri5 or adjoint workspace never forms ``M``.
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
        """``M = w2.T @ w1h_t`` and ``m = b2 @ w1h_t + w1[:, d]``: stage j's
        input ``h + a_j * (u_{j-1} @ w2.T + b2)`` at time ``t + a_j`` has the
        pre-activation ``z_0 + a_j * (u_{j-1} @ M + m)``."""
        return self.w2.T @ self.w1h_t, self.w2b_t[-1] @ self.w1h_t + self.w1t

    @cached_property
    def _step_buffers(self):
        return np.empty_like(self.z), np.empty_like(self.z), np.empty_like(self.z)

    def rk4_step(self, h, t, dt, k0, stages, out):
        """The rest of an RK4 step of the rows of ``h`` from ``t`` to ``t + dt``,
        taken in hidden space, once :meth:`eval` at (h, t) has given stage 0's
        derivative ``k0`` and left ``z_0`` and ``u_0 = tanh(z_0)`` behind.

        Stage 1's pre-activation is ``z_0 + a_1 * (k0 @ w1h_t + w1[:, d])``,
        and stage j's, for j = 2, 3, is ``z_0 + a_j * (u_{j-1} @ M + m)``
        with ``a_j = RK4_C[j] * dt``; each activation ``u_j = tanh(z_j)`` is
        written to ``stages[j]`` (shape (n, width)). ``out`` receives
        ``h + ubar @ w2.T + dt * b2`` with ``ubar = sum_j dt * RK4_B[j] * u_j``.
        """
        M, m = self._hidden
        z_half, z_full, ubar = self._step_buffers
        width = self.stage_dim
        z0 = self.z
        np.copyto(stages[0], self.u)
        u = np.matmul(k0, self.w1h_t, out=stages[1])
        u += self.w1t
        u *= 0.5 * dt
        u += z0
        np.tanh(u, out=u)
        # the shares of z_2 and z_3 that do not depend on u
        np.add(z0, (0.5 * dt) * m, out=z_half)
        np.add(z0, dt * m, out=z_full)
        for j, z in ((2, z_half), (3, z_full)):
            u = np.matmul(stages[j - 1], M, out=stages[j])
            u *= RK4_C[j] * dt
            u += z
            np.tanh(u, out=u)
        np.matmul(RK4_B * dt, stages.reshape(4, -1), out=ubar.reshape(-1))
        np.matmul(ubar, self.w2b_t[:width], out=out)
        out += dt * self.w2b_t[width]
        out += h
        return out

    @cached_property
    def _reverse(self):
        """The reverse pass's operands and buffers: contiguous ``M.T`` and
        ``w1_h``, because a transposed operand slows the GEMM, then S, G,
        1 - u^2, scratch, sum_j s_j, ubar, the state gradient and a row of ones."""
        n, width = self.z.shape
        d = self.w2.shape[0]
        e = lambda *shape: np.empty(shape)
        return (self._hidden[0].T.copy(), self.w1h_t.T.copy(), e(4, n, width), e(n, width),
                e(4, n, width), e(n, width), e(n, width), e(n, width), e(n, d), np.ones(3 * n))

    @cached_property
    def _grads(self):
        """Running sums of the reverse pass: the gradients of w1_h, of w1's
        time column, b1, w2, b2, and then of M and m."""
        d, width = self.w2.shape
        z = np.zeros
        return z((width, d)), z(width), z(width), z((d, width)), z(d), z((width, width)), z(width)

    def rk4_step_vjp(self, h, t, dt, stages, g):
        """Pull the cotangent ``g`` of :meth:`rk4_step`'s output back onto its
        input ``h``, in place, from the stored activations ``stages``, and add
        the step's parameter gradient to the running sums.

        With ``s_j = dL/dz_j``, the stages chain back as
        ``s_j = (dt * RK4_B[j] * g @ w2 + a_{j+1} * s_{j+1} @ M.T) * (1 - u_j^2)``;
        ``h`` gets ``(sum_j s_j) @ w1_h`` on top of ``g``, and ``M`` and ``m``
        collect ``a_j * u_{j-1}.T @ s_j`` and ``a_j * sum_rows s_j``.
        """
        m_t, w1h, S, G, D, tmp, dzh, ubar, dh, ones = self._reverse
        g_w1h, g_w1t, g_b1, g_w2, g_b2, g_M, g_m = self._grads
        n, width = G.shape
        # the output h + ubar @ w2.T + dt * b2
        np.matmul(RK4_B * dt, stages.reshape(4, -1), out=ubar.reshape(-1))
        g_w2 += g.T @ ubar
        g_b2 += dt * (ones[:n] @ g)
        np.matmul(g, self.w2, out=G)
        np.multiply(stages, stages, out=D)
        np.subtract(1.0, D, out=D)
        for j in (3, 2, 1, 0):
            s = S[j]
            np.multiply(G, RK4_B[j] * dt, out=s)
            if j < 3:
                # S[j + 1] already holds a_{j+1} * s_{j+1}
                s += np.matmul(S[j + 1], m_t, out=tmp)
            s *= D[j]
            if j == 3:
                dzh[...] = s
            else:
                dzh += s
            if j > 0:
                s *= RK4_C[j] * dt
        # every z_j holds z_0 = h @ w1h_t + t * w1[:, d] + b1 once
        g += np.matmul(dzh, w1h, out=dh)
        g_w1h += dzh.T @ h
        row_sum = ones[:n] @ dzh
        g_b1 += row_sum
        g_w1t += t * row_sum
        scaled = S[1:].reshape(-1, width)
        g_M += stages[:3].reshape(-1, width).T @ scaled
        g_m += ones @ scaled
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
    runs in state space and stores the four stage derivatives."""

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

    def rk4_step(self, h, t, dt, k0, stages, out):
        stages[0] = k0
        for j in (1, 2, 3):
            self.eval(h + RK4_C[j] * dt * stages[j - 1], t + RK4_C[j] * dt, stages[j])
        np.matmul(RK4_B, stages.reshape(4, -1), out=out.reshape(-1))
        out *= dt
        out += h
        return out

    def rk4_step_vjp(self, h, t, dt, stages, g):
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

    def d_params(self):
        return self.g.copy()


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
    :class:`FieldWorkspace`. Either answers ``eval``, ``vjp``, the RK4 step
    ``rk4_step`` and its reverse ``rk4_step_vjp``; ``stage_dim`` is the width
    of the stage records ``rk4_step`` writes, and ``d_params`` reads back the
    parameter gradient the reverse steps summed.
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
