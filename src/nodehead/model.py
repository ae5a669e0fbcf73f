"""Classifier heads over frozen features.

Two heads share an identical final linear layer; they differ only in what
sits in front of it:

* :class:`NodeHead` - the feature vector is evolved by the learnable ODE
  field over t in [0, 1] before the linear layer. With zero field
  parameters the evolution is the identity, so the head degenerates to the
  baseline exactly.
* :class:`BaselineHead` - the linear layer alone.

Both heads expose one flat trainable-parameter vector (see
:func:`head_to_flat`) in a fixed order that checkpoints reuse:
NodeHead packs the dynamics parameters first (their own documented order),
then w_out row-major, then b_out; BaselineHead packs w_out then b_out.

Checkpoint file layout (little-endian): magic ``NODC``, u32 version = 1,
u8 head kind (0 baseline, 1 node), u32 d, u32 width (0 for baseline),
u32 classes, then the flat parameters as float64.
"""

import struct
from dataclasses import dataclass

import numpy as np

from . import tensorops
from .adjoint import adjoint_solve, backprop_rk4_batch
from .dynamics import DynamicsParams, init_params, unflatten
from .errors import ContractError, FormatError, ShapeError
from .seeding import subseed
from .solvers import (
    SolveStats,
    SolverConfig,
    rk4_terminal_batch,
    solve,
    solve_adaptive,
    solve_fixed_batch,
)

T_SPAN = (0.0, 1.0)

CHECKPOINT_MAGIC = b"NODC"
CHECKPOINT_VERSION = 1
_KIND_BASELINE = 0
_KIND_NODE = 1


@dataclass
class NodeHead:
    """ODE block ahead of a linear classifier; state dim equals feature dim."""

    dynamics: DynamicsParams
    w_out: np.ndarray
    b_out: np.ndarray

    def __post_init__(self):
        self.w_out = np.ascontiguousarray(self.w_out, dtype=np.float64)
        self.b_out = np.ascontiguousarray(self.b_out, dtype=np.float64)
        if self.w_out.ndim != 2 or self.w_out.shape[1] != self.dynamics.d:
            raise ShapeError(
                f"w_out shape {self.w_out.shape} inconsistent with state dimension {self.dynamics.d}"
            )
        if self.b_out.shape != (self.w_out.shape[0],):
            raise ShapeError(f"b_out shape {self.b_out.shape} inconsistent with w_out {self.w_out.shape}")

    @property
    def d(self):
        return self.dynamics.d

    @property
    def classes(self):
        return self.w_out.shape[0]

    @property
    def n_params(self):
        return self.dynamics.n_params + self.w_out.size + self.b_out.size


@dataclass
class BaselineHead:
    """Plain fully-connected classifier over the frozen features."""

    w_out: np.ndarray
    b_out: np.ndarray

    def __post_init__(self):
        self.w_out = np.ascontiguousarray(self.w_out, dtype=np.float64)
        self.b_out = np.ascontiguousarray(self.b_out, dtype=np.float64)
        if self.w_out.ndim != 2:
            raise ShapeError(f"w_out must be 2-d, got shape {self.w_out.shape}")
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
        return self.w_out.size + self.b_out.size


def _init_out_layer(seed, d, classes):
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
    return NodeHead(dynamics, w_out, b_out)


def init_baseline_head(seed, d, classes):
    w_out, b_out = _init_out_layer(subseed(seed, "out"), d, classes)
    return BaselineHead(w_out, b_out)


def forward_baseline(head, features):
    """Logits ``w_out @ features + b_out``; accepts one row (d,) or a batch (n, d)."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape[-1] != head.d:
        raise ShapeError(f"feature shape {features.shape} does not match head dimension {head.d}")
    return features @ head.w_out.T + head.b_out


def forward_node(head, features, config):
    """Evolve the features through the ODE block over [0, 1], then the linear layer.

    Returns (logits, SolveStats); the solver method comes from ``config``.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.shape != (head.d,):
        raise ShapeError(f"feature shape {features.shape} does not match head dimension {head.d}")
    hT, stats = solve(head.dynamics, features, T_SPAN[0], T_SPAN[1], config)
    return head.w_out @ hT + head.b_out, stats


def head_to_flat(head):
    """All trainable parameters as one float64 vector in the documented order."""
    if isinstance(head, NodeHead):
        return np.concatenate([head.dynamics.flatten(), head.w_out.ravel(), head.b_out])
    return np.concatenate([head.w_out.ravel(), head.b_out])


def head_from_flat(template, flat):
    """Rebuild a head of the same shape as ``template`` from a flat vector."""
    flat = np.asarray(flat, dtype=np.float64)
    if flat.shape != (template.n_params,):
        raise ShapeError(f"flat vector shape {flat.shape}, expected ({template.n_params},)")
    d, classes = template.d, template.classes
    if isinstance(template, NodeHead):
        p = template.dynamics.n_params
        dynamics = unflatten(flat[:p], d, template.dynamics.width)
        w_out = flat[p : p + classes * d].reshape(classes, d).copy()
        b_out = flat[p + classes * d :].copy()
        return NodeHead(dynamics, w_out, b_out)
    w_out = flat[: classes * d].reshape(classes, d).copy()
    b_out = flat[classes * d :].copy()
    return BaselineHead(w_out, b_out)


def _loss_and_dlogits(logits, labels):
    """Mean cross-entropy and its exact logit gradient for one batch.

    The 1e-12 floor inside the loss makes the analytic gradient
    coef * (p - onehot) with coef = p_label / (p_label + eps), scaled by 1/n;
    keeping the factor makes finite differences of the implemented loss agree
    to machine-level accuracy.
    """
    n = logits.shape[0]
    probs = tensorops.softmax(logits)
    rows = np.arange(n)
    p_label = probs[rows, labels]
    q = p_label + tensorops.EPS_LOG
    loss = float(np.mean(-np.log(q)))
    coef = (p_label / q) / n
    d_logits = probs * coef[:, None]
    d_logits[rows, labels] -= coef
    return loss, probs, d_logits


def loss_and_grads(head, features, labels, grad_method="discrete", config=None):
    """Mean cross-entropy over a batch plus gradients for every head parameter.

    ``grad_method`` selects how gradients flow through the ODE block:
    "discrete" differentiates the stored fixed-step recursion (uses
    ``config.n_steps``), "adjoint" runs the continuous backward solve at the
    config tolerances. Output-layer gradients are closed-form either way.
    Returns (loss, flat gradient vector, SolveStats).
    """
    loss, grads, stats, _ = train_step(head, features, labels, grad_method, config)
    return loss, grads, stats


def train_step(head, features, labels, grad_method="discrete", config=None):
    """:func:`loss_and_grads` plus the batch correct-prediction count.

    The extra count lets the training loop report running accuracy without a
    second forward pass.
    """
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if features.shape[0] == 0:
        raise ContractError("empty batch")
    if features.shape[0] != labels.shape[0]:
        raise ShapeError(f"{features.shape[0]} feature rows vs {labels.shape[0]} labels")
    if config is None:
        config = SolverConfig()
    stats = SolveStats()
    n = features.shape[0]

    if isinstance(head, BaselineHead):
        logits = forward_baseline(head, features)
        loss, probs, d_logits = _loss_and_dlogits(logits, labels)
        n_correct = int(np.sum(np.argmax(probs, axis=1) == labels))
        d_w_out = d_logits.T @ features
        d_b_out = d_logits.sum(axis=0)
        return loss, np.concatenate([d_w_out.ravel(), d_b_out]), stats, n_correct

    if grad_method == "discrete":
        hT, traj = solve_fixed_batch(head.dynamics, features, *T_SPAN, config.n_steps)
        stats.n_feval += 4 * config.n_steps * n
        stats.n_accept += config.n_steps
        stats.retained_floats = max(stats.retained_floats, traj.n_retained_floats)
        logits = hT @ head.w_out.T + head.b_out
        loss, probs, d_logits = _loss_and_dlogits(logits, labels)
        d_hT = d_logits @ head.w_out
        _, d_dyn = backprop_rk4_batch(head.dynamics, traj, d_hT)
    elif grad_method == "adjoint":
        hT = np.empty_like(features)
        for i in range(n):
            hT[i], s = solve_adaptive(head.dynamics, features[i], *T_SPAN, config)
            stats.merge(s)
        logits = hT @ head.w_out.T + head.b_out
        loss, probs, d_logits = _loss_and_dlogits(logits, labels)
        d_hT = d_logits @ head.w_out
        d_dyn = np.zeros(head.dynamics.n_params)
        for i in range(n):
            res = adjoint_solve(head.dynamics, hT[i], d_hT[i], *T_SPAN, config)
            d_dyn += res.d_params
            stats.merge(res.stats)
    else:
        raise ContractError(f"unknown grad_method {grad_method!r}")

    n_correct = int(np.sum(np.argmax(probs, axis=1) == labels))
    d_w_out = d_logits.T @ hT
    d_b_out = d_logits.sum(axis=0)
    return loss, np.concatenate([d_dyn, d_w_out.ravel(), d_b_out]), stats, n_correct


def evaluate(head, features, labels, config=None):
    """Mean loss and accuracy of ``head`` on (features, labels).

    Returns (loss, accuracy, SolveStats). NODE heads integrate each row;
    the fixed method runs batched, the adaptive one per sample (its step
    control is per-trajectory by construction).
    """
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if features.shape[0] == 0:
        raise ContractError("empty evaluation set")
    if config is None:
        config = SolverConfig()
    stats = SolveStats()
    if isinstance(head, BaselineHead):
        logits = forward_baseline(head, features)
    elif config.method == "rk4_fixed":
        hT = rk4_terminal_batch(head.dynamics, features, *T_SPAN, config.n_steps)
        stats.n_feval += 4 * config.n_steps * features.shape[0]
        logits = hT @ head.w_out.T + head.b_out
    else:
        hT = np.empty_like(features)
        for i in range(features.shape[0]):
            hT[i], s = solve_adaptive(head.dynamics, features[i], *T_SPAN, config)
            stats.merge(s)
        logits = hT @ head.w_out.T + head.b_out
    loss, probs, _ = _loss_and_dlogits(logits, labels)
    accuracy = float(np.mean(np.argmax(probs, axis=1) == labels))
    return loss, accuracy, stats


def save_checkpoint(head, path):
    """Write ``head`` in the NODC binary layout (see module docstring)."""
    kind = _KIND_NODE if isinstance(head, NodeHead) else _KIND_BASELINE
    width = head.dynamics.width if isinstance(head, NodeHead) else 0
    header = CHECKPOINT_MAGIC + struct.pack(
        "<IBIII", CHECKPOINT_VERSION, kind, head.d, width, head.classes
    )
    payload = head_to_flat(head).astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header + payload)


def load_checkpoint(path):
    """Read a NODC checkpoint back into a NodeHead or BaselineHead."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header_size = 4 + struct.calcsize("<IBIII")
    if len(blob) < header_size:
        raise FormatError(f"checkpoint truncated: {len(blob)} bytes is shorter than the header")
    if blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic {blob[:4]!r}, expected {CHECKPOINT_MAGIC!r}")
    version, kind, d, width, classes = struct.unpack("<IBIII", blob[4:header_size])
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    if kind not in (_KIND_BASELINE, _KIND_NODE):
        raise FormatError(f"unknown head kind {kind}")
    flat = np.frombuffer(blob[header_size:], dtype="<f8").astype(np.float64)
    n_dynamics = width * (d + 1) + width + d * width + d if kind == _KIND_NODE else 0
    expected = n_dynamics + classes * d + classes
    if flat.shape[0] != expected:
        raise FormatError(f"checkpoint length mismatch: {flat.shape[0]} parameters, expected {expected}")
    out_layer = (np.zeros((classes, d)), np.zeros(classes))
    if kind == _KIND_NODE:
        template = NodeHead(unflatten(np.zeros(n_dynamics), d, width), *out_layer)
    else:
        template = BaselineHead(*out_layer)
    return head_from_flat(template, flat)
