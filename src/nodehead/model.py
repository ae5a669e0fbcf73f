"""Classifier heads over frozen features.

A :class:`Head` is a final linear layer and the block in front of it:

* with ``dynamics`` set (the NODE head), the feature vector is evolved by
  the learnable ODE field over t in [0, 1] before the linear layer. With
  zero field parameters the evolution is the identity, so the head
  degenerates to the baseline exactly.
* with ``dynamics is None`` (the baseline), the block is the identity.

Every head takes one route on (n, d) batches: :func:`forward` runs the
block and the output layer ``hT @ w_out.T + b_out``, :func:`evaluate` adds
the loss, and :func:`train_step` adds the gradients. The gradient route
fixes the solver method through :func:`solver_config_for`.

The output layer runs class-major: the logits are formed as
``Z = w_out @ hT.T + b_out[:, None]``, of shape (classes, n), and one tail
turns ``Z`` in place into the loss, the correct count and, for
:func:`train_step` only, the logit gradient ``dZ``. Its per-sample
reductions (the softmax shift and normalizer) then run across contiguous
class rows instead of along a last axis a few classes wide: at n = 1000 and
10 classes, ``max`` takes 3-5 us that way against 44-57 us along the last
axis of the (n, classes) array, and ``sum`` 3-5 us against 24-29 us (one
process, best of 9). On the baseline head those reductions were most of an
:func:`evaluate`. The layout stays inside this module: :func:`forward`
returns (n, classes) logits (a transposed view), and the block's reverse
pass gets a row-major (n, d) cotangent ``dZ.T @ w_out``.

The tail reads the label logits at their flat positions
``labels * n + arange(n)``. It takes the correct count from the softmax
shift: after ``Z -= max``, a column's maxima are exactly 0, since
``x - m == 0`` only when ``x == m``. So when every column holds a single 0,
the label is predicted exactly when its shifted logit is 0. A tie holds
more than one 0 and falls back to ``Z.argmax(axis=0)`` on the shifted
logits, whose first 0 is the first maximal class. A NaN or infinite
column maximum (or a sum of the maxima that overflows) falls back to
``argmax`` on the raw logits before the shift, because the shift turns a
column with a NaN into NaN throughout. At n = 1000 and 10 classes,
``argmax(axis=0)`` takes 30-33 us, as it copies the array to make the
class axis last, against 5 us for ``count_nonzero(Z == 0)`` and 2 us for
the finiteness test (one process, best of 2000). :func:`evaluate` divides
only the label column by the normalizer (4 us against 11 us for all of
``Z``); :func:`train_step` divides all of ``Z``, which ``dZ`` needs.

A head's trainable parameters form one flat vector (see
:func:`head_to_flat`) in a fixed order that checkpoints reuse: the dynamics
parameters first, if any (their own documented order), then w_out
row-major, then b_out.

Checkpoint file layout (little-endian): magic ``NODC``, u32 version = 1,
u8 head kind (0 baseline, 1 node), u32 d, u32 width (0 for baseline),
u32 classes, then the flat parameters as float64.
"""

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .adjoint import adjoint_solve, backprop_rk4_batch
from .dynamics import DynamicsParams, init_params, unflatten
from .errors import ContractError, FormatError, ShapeError
from .seeding import subseed
from .solvers import SolveStats, SolverConfig, solve
# looked up here by the benchmark's span tracer (perfbench/spans.py)
from .solvers import rk4_terminal_batch, solve_adaptive, solve_fixed_batch  # noqa: F401

T_SPAN = (0.0, 1.0)
EPS_LOG = 1e-12  # floor inside the cross-entropy so log(0) never occurs
# the solver method each gradient route differentiates
_GRAD_METHODS = {"discrete": "rk4_fixed", "adjoint": "dopri5"}

CHECKPOINT_MAGIC = b"NODC"
CHECKPOINT_VERSION = 1
_KIND_BASELINE = 0
_KIND_NODE = 1


@dataclass
class Head:
    """Linear classifier behind an ODE block (state dim = feature dim), or
    behind the identity when ``dynamics is None`` (the baseline)."""

    w_out: np.ndarray
    b_out: np.ndarray
    dynamics: DynamicsParams | None = None

    def __post_init__(self):
        self.w_out = np.ascontiguousarray(self.w_out, dtype=np.float64)
        self.b_out = np.ascontiguousarray(self.b_out, dtype=np.float64)
        if self.w_out.ndim != 2:
            raise ShapeError(f"w_out must be 2-d, got shape {self.w_out.shape}")
        if self.dynamics is not None and self.w_out.shape[1] != self.dynamics.d:
            raise ShapeError(
                f"w_out shape {self.w_out.shape} inconsistent with state dimension {self.dynamics.d}"
            )
        if self.b_out.shape != (self.w_out.shape[0],):
            raise ShapeError(f"b_out shape {self.b_out.shape} inconsistent with w_out {self.w_out.shape}")

    @property
    def d(self):
        return self.w_out.shape[1]

    @property
    def classes(self):
        return self.w_out.shape[0]

    @property
    def n_params(self):
        block = 0 if self.dynamics is None else self.dynamics.n_params
        return block + self.w_out.size + self.b_out.size


def _init_out_layer(seed, d, classes):
    if d < 1 or classes < 1:
        raise ContractError(f"d and classes must be >= 1, got d={d}, classes={classes}")
    rng = np.random.default_rng(seed)
    lim = np.sqrt(1.0 / d)
    w_out = rng.uniform(-lim, lim, size=(classes, d))
    return w_out, np.zeros(classes)


def init_node_head(seed, d, classes, width=64, scale=0.1):
    """Seeded NODE head. The output layer uses the same sub-seed as
    :func:`init_baseline_head`, so both heads start from identical final
    layers - the comparison harness relies on that."""
    dynamics = init_params(subseed(seed, "dynamics"), d, width, scale)
    w_out, b_out = _init_out_layer(subseed(seed, "out"), d, classes)
    return Head(w_out, b_out, dynamics)


def init_baseline_head(seed, d, classes):
    return Head(*_init_out_layer(subseed(seed, "out"), d, classes))


def head_to_flat(head):
    """All trainable parameters as one float64 vector in the documented order."""
    block = [] if head.dynamics is None else [head.dynamics.flatten()]
    return np.concatenate(block + [head.w_out.ravel(), head.b_out])


def head_from_flat(template, flat):
    """Rebuild a head of the same shape as ``template`` from a flat vector.

    The output layer's ``w_out`` and ``b_out`` are views of ``flat``, so the
    head shares memory with it: a caller that writes into ``flat`` afterwards
    changes the head. The optimizers return a new vector on every step."""
    flat = np.asarray(flat, dtype=np.float64)
    if flat.shape != (template.n_params,):
        raise ShapeError(f"flat vector shape {flat.shape}, expected ({template.n_params},)")
    d, classes = template.d, template.classes
    p = flat.size - classes * (d + 1)  # the block's parameters come first
    w_out = flat[p : p + classes * d].reshape(classes, d)
    b_out = flat[p + classes * d :]
    if template.dynamics is None:
        return Head(w_out, b_out)
    return Head(w_out, b_out, unflatten(flat[:p], d, template.dynamics.width))


def _check_batch(head, features, labels=None):
    """The batch checks of every entry point; returns float64 (n, d) features
    and, when given, int64 labels, each in [0, classes)."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if features.shape[0] == 0:
        raise ContractError("empty batch")
    if features.ndim != 2 or features.shape[1] != head.d:
        raise ShapeError(f"feature shape {features.shape} does not match head dimension {head.d}")
    if labels is None:
        return features
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if features.shape[0] != labels.shape[0]:
        raise ShapeError(f"{features.shape[0]} feature rows vs {labels.shape[0]} labels")
    if labels.min() < 0 or labels.max() >= head.classes:
        i = int(np.argmax((labels < 0) | (labels >= head.classes)))
        raise ContractError(f"record {i} has label {labels[i]} outside [0, {head.classes})")
    return features, labels


def _evolve(head, features, config, keep_trajectory=False):
    """The head's block over ``T_SPAN``: (hT, SolveStats, Trajectory | None);
    the baseline's is the identity and does no solver work."""
    if head.dynamics is None:
        return features, SolveStats(), None
    return solve(head.dynamics, features, *T_SPAN, config, keep_trajectory)


def _block_grad(head, hT, dZ, traj, config, stats):
    """Loss gradient of the block's parameters, given the class-major logit
    gradient ``dZ``: none for the baseline's identity, the reverse pass over
    ``traj`` when there is one, otherwise the adjoint backward solve row by
    row (its cost merged into ``stats``)."""
    if head.dynamics is None:
        return np.empty(0)
    d_hT = dZ.T @ head.w_out
    if traj is not None:
        return backprop_rk4_batch(head.dynamics, traj, d_hT)[1]
    d_dyn = np.zeros(head.dynamics.n_params)
    for i in range(hT.shape[0]):
        res = adjoint_solve(head.dynamics, hT[i], d_hT[i], *T_SPAN, config)
        d_dyn += res.d_params
        stats.merge(res.stats)
    return d_dyn


def softmax(logits):
    """Softmax along the last axis, computed with max-subtraction.

    Components are positive and sum to 1 within 1e-12 for any finite input;
    the shift makes the exponentials overflow-safe.
    """
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def _logits(head, hT):
    """Class-major logits ``w_out @ hT.T + b_out``, shape (classes, n)."""
    Z = head.w_out @ hT.T
    Z += head.b_out[:, None]
    return Z


def _count_correct(Z, at, labels):
    """Subtract each column's maximum from ``Z`` in place and return how many
    columns have the label as their first maximal class. ``at`` holds the
    flat positions of the label logits."""
    top = np.maximum.reduce(Z, axis=0)
    if not math.isfinite(np.add.reduce(top)):
        # a NaN or infinite logit: argmax picks the first NaN, which the shift
        # would turn the whole column into, so count on the raw logits
        n_correct = np.count_nonzero(Z.argmax(axis=0) == labels)
        Z -= top
        return int(n_correct)
    Z -= top
    # x - m == 0 only when x == m, so every column now has a 0 at each maximum
    if np.count_nonzero(Z == 0) != Z.shape[1]:  # a tie: argmax keeps the first
        return int(np.count_nonzero(Z.argmax(axis=0) == labels))
    return int(np.count_nonzero(Z.reshape(-1)[at] == 0))


def _tail(Z, labels, with_grad):
    """Mean cross-entropy and correct count of the C-contiguous class-major
    logits ``Z``, and with ``with_grad`` their exact gradient ``dZ``; returns
    (loss, n_correct, dZ or None). ``Z`` is overwritten, and ``dZ`` is
    formed in its buffer.

    The prediction is the first maximal class, as with ``np.argmax``. The
    EPS_LOG floor inside the loss makes the analytic gradient
    coef * (p - onehot) with coef = p_label / (p_label + eps), scaled by 1/n;
    keeping the factor makes finite differences of the implemented loss agree
    to machine-level accuracy.
    """
    n = Z.shape[1]
    at = labels * n + np.arange(n)
    flat = Z.reshape(-1)
    n_correct = _count_correct(Z, at, labels)
    np.exp(Z, out=Z)
    s = np.add.reduce(Z, axis=0)
    if with_grad:
        Z /= s
        p_label = flat[at]
    else:
        p_label = flat[at] / s
    q = p_label + EPS_LOG
    loss = float(-np.add.reduce(np.log(q)) / n)
    if not with_grad:
        return loss, n_correct, None
    coef = (p_label / q) / n
    Z *= coef
    flat[at] -= coef
    return loss, n_correct, Z


def solver_config_for(grad_method, config=None):
    """``config`` (default: ``SolverConfig()``) with the solver method that
    ``grad_method`` differentiates; ``config`` itself when it already has
    that method, so a caller that resolves once pays nothing per step."""
    method = _GRAD_METHODS.get(grad_method)
    if method is None:
        raise ContractError(f"unknown grad_method {grad_method!r}")
    if config is None:
        return SolverConfig(method=method)
    return config if config.method == method else replace(config, method=method)


def forward(head, features, config=None):
    """Logits of an (n, d) batch, the block then the output layer; returns
    (logits, SolveStats). The NODE block solves by ``config.method``."""
    features = _check_batch(head, features)
    hT, stats, _ = _evolve(head, features, SolverConfig() if config is None else config)
    return _logits(head, hT).T, stats


def train_step(head, features, labels, grad_method="discrete", config=None):
    """Mean cross-entropy over a batch, gradients for every head parameter,
    and the batch correct-prediction count.

    ``grad_method`` selects the solver method and how gradients flow through
    the ODE block: "discrete" differentiates the stored fixed-step recursion
    (uses ``config.n_steps``), "adjoint" solves with dopri5 and runs the
    continuous backward solve at the config tolerances. Output-layer
    gradients are closed-form either way. Returns (loss, flat gradient
    vector, SolveStats, n_correct); the count lets the training loop report
    running accuracy without a second forward pass.
    """
    config = solver_config_for(grad_method, config)
    features, labels = _check_batch(head, features, labels)
    hT, stats, traj = _evolve(head, features, config, keep_trajectory=grad_method == "discrete")
    loss, n_correct, dZ = _tail(_logits(head, hT), labels, with_grad=True)
    # the three parts land in head_to_flat order: block, w_out, b_out
    classes = head.classes
    grads = np.empty(head.n_params)
    p = grads.size - classes * (head.d + 1)
    grads[:p] = _block_grad(head, hT, dZ, traj, config, stats)
    np.matmul(dZ, hT, out=grads[p:-classes].reshape(classes, head.d))
    np.add.reduce(dZ, axis=1, out=grads[-classes:])
    return loss, grads, stats, n_correct


def evaluate(head, features, labels, config=None):
    """Mean loss and accuracy: the route of :func:`forward`, then the loss
    without its gradient; returns (loss, accuracy, SolveStats)."""
    features, labels = _check_batch(head, features, labels)
    hT, stats, _ = _evolve(head, features, SolverConfig() if config is None else config)
    loss, n_correct, _ = _tail(_logits(head, hT), labels, with_grad=False)
    return loss, n_correct / labels.size, stats


def save_checkpoint(head, path):
    """Write ``head`` in the NODC binary layout (see module docstring)."""
    kind, width = (_KIND_BASELINE, 0) if head.dynamics is None else (_KIND_NODE, head.dynamics.width)
    header = CHECKPOINT_MAGIC + struct.pack(
        "<IBIII", CHECKPOINT_VERSION, kind, head.d, width, head.classes
    )
    payload = head_to_flat(head).astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header + payload)


def load_checkpoint(path):
    """Read a NODC checkpoint back into a :class:`Head`, with ``dynamics``
    set for kind 1 (node) and ``None`` for kind 0 (baseline).

    Raises :class:`FormatError`, naming the file, for a header that
    describes no usable head: d or classes of 0, a node of width 0, or a
    baseline with a width."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header_size = 4 + struct.calcsize("<IBIII")
    if len(blob) < header_size:
        raise FormatError(f"{path}: checkpoint truncated: {len(blob)} bytes is shorter than the header")
    if blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic {blob[:4]!r}, expected {CHECKPOINT_MAGIC!r}")
    version, kind, d, width, classes = struct.unpack("<IBIII", blob[4:header_size])
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    if kind not in (_KIND_BASELINE, _KIND_NODE):
        raise FormatError(f"{path}: unknown head kind {kind}")
    for field, value in (("d", d), ("classes", classes)):
        if value == 0:
            raise FormatError(f"{path}: checkpoint header field {field} is 0, expected >= 1")
    if kind == _KIND_NODE and width == 0:
        raise FormatError(f"{path}: checkpoint header field width is 0 for a node head, expected >= 1")
    if kind == _KIND_BASELINE and width != 0:
        raise FormatError(f"{path}: checkpoint header field width is {width} for a baseline head, expected 0")
    flat = np.frombuffer(blob[header_size:], dtype="<f8").astype(np.float64)
    n_dynamics = width * (d + 1) + width + d * width + d if kind == _KIND_NODE else 0
    expected = n_dynamics + classes * d + classes
    if flat.shape[0] != expected:
        raise FormatError(f"{path}: checkpoint length mismatch: {flat.shape[0]} parameters, expected {expected}")
    dynamics = unflatten(np.zeros(n_dynamics), d, width) if kind == _KIND_NODE else None
    return head_from_flat(Head(np.zeros((classes, d)), np.zeros(classes), dynamics), flat)
