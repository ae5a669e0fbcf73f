"""The learnable vector field driving the continuous-depth block.

The hidden state evolves by dh/dt = f(h, t, params) where f is a two-layer
tanh MLP over the time-appended state:

    f(h, t) = w2 @ tanh(w1 @ [h; t] + b1) + b2

Appending t as one extra input coordinate is the simplest way to give f an
explicit time dependence; tanh keeps the field Lipschitz so explicit solvers
behave well. Besides forward evaluation this module provides the two
vector-Jacobian products the adjoint method consumes (a.T @ df/dh and
a.T @ df/dparams), both analytic.

Flat parameter order (a stable contract relied on by checkpoints and the
adjoint's gradient accumulator): w1 row-major, then b1, then w2 row-major,
then b2.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


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
        raise ShapeError(f"d and width must be >= 1, got d={d}, width={width}")
    if scale < 0:
        raise ValueError(f"scale must be >= 0, got {scale}")
    rng = np.random.default_rng(seed)
    lim1 = scale * np.sqrt(1.0 / (d + 1))
    lim2 = scale * np.sqrt(1.0 / width)
    w1 = rng.uniform(-lim1, lim1, size=(width, d + 1))
    b1 = rng.uniform(-lim1, lim1, size=width)
    w2 = rng.uniform(-lim2, lim2, size=(d, width))
    b2 = rng.uniform(-lim2, lim2, size=d)
    return DynamicsParams(w1, b1, w2, b2)


def _check_state(params, h):
    h = np.asarray(h, dtype=np.float64)
    if h.shape != (params.d,):
        raise ShapeError(f"state shape {h.shape} does not match field dimension ({params.d},)")
    return h


def eval_dynamics(params, h, t):
    """dh/dt at (h, t): w2 @ tanh(w1 @ [h; t] + b1) + b2."""
    h = _check_state(params, h)
    x = np.concatenate([h, [t]])
    z = params.w1 @ x + params.b1
    return params.w2 @ np.tanh(z) + params.b2


def vjp_state(params, h, t, a):
    """a.T @ df/dh, evaluated analytically.

    With z = w1 @ [h; t] + b1 and w1_h the weight block over h (w1 without
    its time column), this is w1_h.T @ (diag(1 - tanh(z)^2) @ (w2.T @ a)).
    """
    h = _check_state(params, h)
    a = _check_state(params, a)
    x = np.concatenate([h, [t]])
    u = np.tanh(params.w1 @ x + params.b1)
    s = (params.w2.T @ a) * (1.0 - u * u)
    return params.w1[:, :-1].T @ s


def vjp_params(params, h, t, a):
    """a.T @ df/dparams as a flat vector in the documented parameter order."""
    h = _check_state(params, h)
    a = _check_state(params, a)
    x = np.concatenate([h, [t]])
    u = np.tanh(params.w1 @ x + params.b1)
    s = (params.w2.T @ a) * (1.0 - u * u)
    d_w1 = np.outer(s, x)
    d_b1 = s
    d_w2 = np.outer(a, u)
    d_b2 = a
    return np.concatenate([d_w1.ravel(), d_b1, d_w2.ravel(), d_b2])


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
        self.y = np.empty((n, d))
        self.z = np.empty((n, width))
        self.u1 = np.empty((n, width + 1))
        self.u1[:, width] = 1.0
        self.u = self.u1[:, :width]
        # reverse pass only
        self.s = np.empty((n, width))
        self.ones = np.ones(n)
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

    def d_params(self):
        """The summed parameter gradient as a flat vector in the documented order."""
        width = self.u.shape[1]
        g_w1 = np.concatenate([self.g_w1h, self.g_w1t[:, None]], axis=1)
        return np.concatenate([g_w1.ravel(), self.g_b1, self.g2[:, :width].ravel(), self.g2[:, width]])


def check_batch(params, states, cotangents=None):
    """``states`` as a float64 (n, d) array; raises ShapeError on a bad batch shape."""
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2 or states.shape[1] != params.d:
        raise ShapeError(f"batch shape {states.shape} does not match field dimension {params.d}")
    if cotangents is not None and np.shape(cotangents) != states.shape:
        raise ShapeError(
            f"batch shapes {states.shape} and {np.shape(cotangents)} inconsistent with dimension {params.d}"
        )
    return states


def eval_dynamics_batch(params, states, t, out=None, work=None):
    """Row-wise field evaluation for a batch of states with shared time t.

    ``states`` has shape (n, d); the result matches. Equivalent to calling
    :func:`eval_dynamics` per row, vectorized for the training loop. Solvers
    pass a :class:`BatchWorkspace` built from ``params`` for this batch
    shape as ``work`` and the destination as ``out``, so repeated calls
    allocate nothing.
    """
    if work is None:
        states = check_batch(params, states)
        work = BatchWorkspace(params, states.shape[0])
    work.activate(states, t)
    return np.matmul(work.u1, work.w2b_t, out=out)


def vjp_batch(params, states, t, cotangents, out=None, work=None):
    """Batched VJPs for one stage: per-row state gradients plus summed parameter gradient.

    Returns (d_states, d_flat) where d_states[i] = vjp_state(params, states[i],
    t, cotangents[i]) and d_flat is the sum over rows of vjp_params. The sum
    is what batched reverse passes accumulate: given a :class:`BatchWorkspace`
    as ``work``, the parameter gradient is added to its running sum instead
    (read it with :meth:`BatchWorkspace.d_params`), ``d_flat`` is None and
    d_states is written to ``out``.
    """
    fresh = work is None
    if fresh:
        states = check_batch(params, states, cotangents)
        cotangents = np.asarray(cotangents, dtype=np.float64)
        work = BatchWorkspace(params, states.shape[0])
    work.activate(states, t)
    s = np.matmul(cotangents, work.w2, out=work.s)
    np.multiply(work.u, work.u, out=work.z)
    np.subtract(1.0, work.z, out=work.z)
    s *= work.z
    d_states = np.matmul(s, work.w1h_t.T, out=out)
    work.g_w1h += np.matmul(s.T, states, out=work._g_w1h_step)
    s_sum = np.matmul(work.ones, s, out=work._s_sum)
    work.g_b1 += s_sum
    s_sum *= t
    work.g_w1t += s_sum
    work.g2 += np.matmul(cotangents.T, work.u1, out=work._g2_step)
    return d_states, (work.d_params() if fresh else None)
