"""The learnable vector field driving the continuous-depth block.

The hidden state evolves by dh/dt = f(h, t, params) where f is a two-layer
tanh MLP over the time-appended state:

    f(h, t) = w2 @ tanh(w1 @ [h; t] + b1) + b2

Appending t as one extra input coordinate is the simplest way to give f an
explicit time dependence; tanh keeps the field Lipschitz so explicit solvers
behave well.

Every routine works on a batch of states of shape (n, d) with one shared
time: :func:`eval_dynamics_batch` evaluates the field and :func:`vjp_batch`
returns the two vector-Jacobian products reverse passes and the adjoint
consume (a.T @ df/dh per row, a.T @ df/dparams summed over rows), both
analytic. The single-state :func:`eval_dynamics`, :func:`vjp_state` and
:func:`vjp_params` are their n=1 cases.

A *field* is either :class:`DynamicsParams` or a closed-form field: any
object with batch methods ``eval(H, t) -> F`` and
``vjp(H, t, A) -> (dH, dθ summed over rows)`` and an ``n_params``
attribute. :func:`workspace` is the one place that tells them apart;
solvers build one workspace per solve and pass it to every call.

Flat parameter order (a stable contract relied on by checkpoints and the
adjoint's gradient accumulator): w1 row-major, then b1, then w2 row-major,
then b2.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError


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
    """Preallocated operands for repeated field evaluations on one (n, d) batch.

    Built once per solve from ``params``: ``w1`` is split into a transposed
    state block and its time column, so a stage computes
    ``z = y @ w1[:, :d].T + (t * w1[:, d] + b1)`` without appending a time
    column to the states. The activation lives in ``u1 = [tanh(z) | 1]``, so
    ``f = u1 @ [w2 | b2].T`` is one GEMM and the reverse pass gets
    ``d[w2 | b2] = c.T @ u1`` from one GEMM too. Every buffer is contiguous
    except ``u``, because strided elementwise passes cost more than the
    bias adds they would save. The reverse pass sums its parameter
    gradient over rows and stages here; :meth:`d_params` reads it back in
    flat order.
    """

    def __init__(self, params, n):
        d, width = params.d, params.width
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
        # vector-Jacobian products only
        self.s = np.empty((n, width))
        self.ones = np.ones(n)
        self.x = np.empty((n, d + 1))
        self.g_w1h = np.zeros((width, d))
        self.g_w1t = np.zeros(width)
        self.g_b1 = np.zeros(width)
        self.g2 = np.zeros((d, width + 1))
        self._s_sum = np.empty(width)
        self._g_w1h_step = np.empty_like(self.g_w1h)
        self._g2_step = np.empty_like(self.g2)

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

    def vjp(self, states, t, cotangents, out=None, d_params_out=None, value_out=None):
        """With z = w1 @ [h; t] + b1 and w1_h the block of w1 over h, a.T @ df/dh is
        w1_h.T @ ((w2.T @ a) * (1 - tanh(z)^2)); see :func:`vjp_batch` for the rest."""
        self.activate(states, t)
        if value_out is not None:
            np.matmul(self.u1, self.w2b_t, out=value_out)
        s = np.matmul(cotangents, self.w2, out=self.s)
        np.multiply(self.u, self.u, out=self.z)
        np.subtract(1.0, self.z, out=self.z)
        s *= self.z
        d_states = np.matmul(s, self.w1h_t.T, out=out)
        if d_params_out is not None:
            self._write_d_params(states, t, cotangents, d_params_out)
            return d_states, d_params_out
        self.g_w1h += np.matmul(s.T, states, out=self._g_w1h_step)
        s_sum = np.matmul(self.ones, s, out=self._s_sum)
        self.g_b1 += s_sum
        s_sum *= t
        self.g_w1t += s_sum
        self.g2 += np.matmul(cotangents.T, self.u1, out=self._g2_step)
        return d_states, None

    def _write_d_params(self, states, t, cotangents, out):
        """This stage's row-summed parameter gradient, written straight into the flat ``out``.

        np.dot because it writes each block into its contiguous slice of
        ``out`` and, unlike np.matmul, stays fast on the rank-1 products of
        an n=1 batch.
        """
        d, width = self.w2.shape
        n_w1 = width * (d + 1)
        self.x[:, :d] = states
        self.x[:, d] = t
        np.dot(self.s.T, self.x, out=out[:n_w1].reshape(width, d + 1))
        np.dot(self.ones, self.s, out=out[n_w1 : n_w1 + width])
        np.dot(cotangents.T, self.u, out=out[n_w1 + width : -d].reshape(d, width))
        np.dot(self.ones, cotangents, out=out[-d:])

    def d_params(self):
        """The summed parameter gradient as a flat vector in the documented order."""
        width = self.u.shape[1]
        g_w1 = np.concatenate([self.g_w1h, self.g_w1t[:, None]], axis=1)
        return np.concatenate([g_w1.ravel(), self.g_b1, self.g2[:, :width].ravel(), self.g2[:, width]])


class FieldWorkspace:
    """The workspace of a closed-form field: the calls a :class:`BatchWorkspace`
    answers, served by the field's own ``eval`` and ``vjp``."""

    def __init__(self, field):
        self.field = field
        self.g = np.zeros(field.n_params)

    def eval(self, states, t, out=None):
        return _into(out, self.field.eval(states, t))

    def vjp(self, states, t, cotangents, out=None, d_params_out=None, value_out=None):
        d_states, d_flat = self.field.vjp(states, t, cotangents)
        if value_out is not None:
            value_out[...] = self.field.eval(states, t)
        if d_params_out is None:
            self.g += d_flat
        else:
            d_params_out[...] = d_flat
        return _into(out, d_states), d_params_out

    def d_params(self):
        return self.g.copy()


def _into(out, value):
    if out is None:
        return value
    out[...] = value
    return out


def workspace(field, states, cotangents=None):
    """The workspace for repeated evaluations of ``field`` on batches shaped like ``states``.

    This is the one place the field kind is decided: :class:`DynamicsParams`
    gets a :class:`BatchWorkspace` once ``states`` (and ``cotangents``, when
    given) are checked to be (n, d) batches of its dimension, raising
    :class:`ShapeError` otherwise; any other field is closed-form and gets a
    :class:`FieldWorkspace`.
    """
    if not isinstance(field, DynamicsParams):
        return FieldWorkspace(field)
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
    given. Reverse passes pass the :func:`workspace` they built for this
    batch shape as ``work`` and no ``d_params_out``: the parameter gradient
    is then added to the workspace's running sum (read it with its
    ``d_params``) and d_flat is None. ``value_out`` also receives
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
