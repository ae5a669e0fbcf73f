"""Optimizers, the training loop, and training-stability statistics.

The loop is fully deterministic for a fixed config: head init, the
train/val split, and every epoch's shuffle derive from the master seed
through named sub-seeds. Per-epoch telemetry lands in
:class:`MetricsRecord`; :func:`stability_stats` turns a metrics series into
the rolling-variability numbers the head comparison is judged on, and
:func:`stability_verdict` judges it: which seeds are decided, and in how
many of them the NODE head wins.

Metrics CSV layout (stable contract): a header naming the fields of
:class:`MetricsRecord` in order, then one row per epoch, int fields as
integers and float fields at 6 significant digits, newline-terminated.
"""

import csv
import math
import os
import time
from dataclasses import dataclass, field, fields
from decimal import Decimal

import numpy as np

from .data import split_train_val
from .errors import ContractError, FormatError, NumericError
from .model import evaluate, head_from_flat, head_to_flat, init_baseline_head, init_node_head
from .model import solver_config_for, train_step
from .seeding import subseed
from .solvers import SolverConfig


# the optimizers' fixed coefficients: Adam's from Kingma & Ba (2015), and SGD's classical momentum
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
SGD_MOMENTUM = 0.9


@dataclass
class _Optimizer:
    """An optimizer's one setting, its learning rate."""

    lr: float

    def __post_init__(self):
        # an infinite lr sends every parameter to inf
        if not 0 <= self.lr < math.inf:
            raise ContractError(f"lr must be a finite number >= 0, got {self.lr}")


@dataclass
class AdamConfig(_Optimizer):
    """Adam with bias correction, at ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``."""

    lr: float = 1e-3


@dataclass
class SgdConfig(_Optimizer):
    """Stochastic gradient descent with classical momentum ``SGD_MOMENTUM``."""

    lr: float = 1e-2


def adam_update(params, grads, state, cfg):
    """One Adam step. ``state`` is the (m, v, step) triple; step counts
    completed updates, so bias correction uses step + 1. Returns the new
    (params, state) pair without mutating the inputs."""
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape:
        raise ContractError(f"params shape {params.shape} vs grads shape {grads.shape}")
    m, v, step = state
    t = step + 1
    m2 = ADAM_BETA1 * m + (1 - ADAM_BETA1) * grads
    v2 = ADAM_BETA2 * v + (1 - ADAM_BETA2) * grads * grads
    m_hat = m2 / (1 - ADAM_BETA1 ** t)
    v_hat = v2 / (1 - ADAM_BETA2 ** t)
    new_params = params - cfg.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return new_params, (m2, v2, t)


def sgd_update(params, grads, velocity, cfg):
    """One momentum-SGD step: v <- momentum*v + g, p <- p - lr*v."""
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape:
        raise ContractError(f"params shape {params.shape} vs grads shape {grads.shape}")
    v2 = SGD_MOMENTUM * velocity + grads
    return params - cfg.lr * v2, v2


def require_fits(sizes):
    """Raise :class:`ContractError` for the first (what, n_floats) pair of
    ``sizes`` whose float64s need more bytes than the machine's physical
    memory; ``what`` names the settings that size them."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    for what, n_floats in sizes:
        if 8 * n_floats > memory:
            # a Decimal formats any int, where a float overflows past 1e308
            raise ContractError(f"{what}: {Decimal(8 * n_floats):.3g} bytes needed, more than the machine's "
                                f"{Decimal(memory):.3g} bytes of memory")


@dataclass
class TrainConfig:
    """Everything one training run depends on, seed included. ``solver``
    takes the method ``grad_method`` differentiates, for training steps and
    validation alike (see :func:`~nodehead.model.solver_config_for`). A run
    one row of which cannot fit in the machine's memory is refused: its
    dynamics parameters at d = 1 and, with ``grad_method="discrete"``, its
    step grid and its trajectory are sized (see :func:`require_fits`)."""

    optimizer: AdamConfig | SgdConfig = field(default_factory=AdamConfig)
    epochs: int = 1
    batch_size: int = 64
    seed: int = 0
    grad_method: str = "discrete"
    solver: SolverConfig = field(default_factory=SolverConfig)
    val_fraction: float = 0.1
    width: int = 64
    init_scale: float = 0.1

    def __post_init__(self):
        if self.epochs < 1:
            raise ContractError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ContractError(f"batch_size must be >= 1, got {self.batch_size}")
        self.solver = solver_config_for(self.grad_method, self.solver)
        if not 0 < self.val_fraction < 1:
            raise ContractError(f"val_fraction must be in (0, 1), got {self.val_fraction}")
        if self.width < 1:
            raise ContractError(f"width must be >= 1, got width={self.width}")
        if not 0 <= self.init_scale < math.inf:
            raise ContractError(f"init_scale must be finite and >= 0, got {self.init_scale}")
        sizes = [(f"width={self.width}", 4 * self.width + 1)]
        if self.grad_method == "discrete":
            n_steps = self.solver.n_steps
            sizes.append((f"n_steps={n_steps} and width={self.width}", n_steps + 1 + 4 * n_steps * self.width))
        require_fits(sizes)


@dataclass
class MetricsRecord:
    """Telemetry for one epoch; epochs are numbered from 1."""

    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float
    wall_ms: float
    n_feval: int


# one column per field; its type, int or float, also parses the column's cells
_METRICS_FIELDS = fields(MetricsRecord)
METRICS_HEADER = tuple(f.name for f in _METRICS_FIELDS)


@dataclass
class StabilityReport:
    """Rolling-variability view of a metrics series.

    Rolling standard deviations use the population convention (divisor =
    window); each series has len(metrics) - window + 1 entries.
    """

    window: int
    rolling_std_val_loss: np.ndarray
    rolling_std_val_acc: np.ndarray
    mean_rolling_std_val_loss: float
    max_epoch_to_epoch_jump: float


def train(head_kind, dataset, cfg):
    """Train a head of ``head_kind`` ("node" or "baseline") on ``dataset``.

    Splits off a validation part, initializes the head from the seed, and
    runs seeded-shuffle minibatch epochs. Returns (trained head, list of
    MetricsRecord). Identical configs produce identical metric series;
    wall_ms is the one wall-clock field. A non-finite batch loss or gradient
    raises :class:`NumericError` naming the epoch and batch, before the
    optimizer step could spread it into the parameters; a non-finite
    validation loss raises it naming the epoch, before the record is kept.
    A solver's :class:`NumericError`, a non-finite state or an exhausted
    step budget, is raised again with its ``where``, its message prefixed
    by the epoch and batch or by the validation's epoch.
    """
    if head_kind not in ("node", "baseline"):
        raise ContractError(f"unknown head kind {head_kind!r}")
    if len(dataset) == 0:
        raise ContractError("empty dataset")
    train_ds, val_ds = split_train_val(dataset, cfg.val_fraction, subseed(cfg.seed, "split"))
    classes = dataset.class_count
    if head_kind == "node":
        head = init_node_head(cfg.seed, dataset.d, classes, width=cfg.width, scale=cfg.init_scale)
    else:
        head = init_baseline_head(cfg.seed, dataset.d, classes)

    flat = head_to_flat(head)
    if isinstance(cfg.optimizer, AdamConfig):
        opt_state = (np.zeros_like(flat), np.zeros_like(flat), 0)
        step_fn = adam_update
    else:
        opt_state = np.zeros_like(flat)
        step_fn = sgd_update

    shuffle_rng = np.random.default_rng(subseed(cfg.seed, "shuffle"))
    n_train = len(train_ds)
    n_batches = math.ceil(n_train / cfg.batch_size)
    records = []
    for epoch in range(1, cfg.epochs + 1):
        tic = time.perf_counter()
        perm = shuffle_rng.permutation(n_train)
        loss_sum = 0.0
        n_correct = 0
        n_feval = 0
        for batch, start in enumerate(range(0, n_train, cfg.batch_size), start=1):
            idx = perm[start : start + cfg.batch_size]
            try:
                loss, grads, stats, correct = train_step(
                    head, train_ds.features[idx], train_ds.labels[idx], cfg.grad_method, cfg.solver
                )
            except NumericError as exc:
                raise exc.prefixed(f"at epoch {epoch}, batch {batch} of {n_batches}") from exc
            if not (math.isfinite(loss) and np.isfinite(grads).all()):
                what = "gradient" if math.isfinite(loss) else "loss"
                raise NumericError(f"non-finite {what} at epoch {epoch}, batch {batch} of {n_batches}")
            flat, opt_state = step_fn(flat, grads, opt_state, cfg.optimizer)
            head = head_from_flat(head, flat)
            loss_sum += loss * idx.size
            n_correct += correct
            n_feval += stats.n_feval
        try:
            val_loss, val_acc, val_stats = evaluate(head, val_ds.features, val_ds.labels, cfg.solver)
        except NumericError as exc:
            raise exc.prefixed(f"during validation at epoch {epoch}") from exc
        if not math.isfinite(val_loss):
            raise NumericError(f"non-finite validation loss at epoch {epoch}")
        n_feval += val_stats.n_feval
        records.append(
            MetricsRecord(
                epoch=epoch,
                train_loss=loss_sum / n_train,
                train_acc=n_correct / n_train,
                val_loss=val_loss,
                val_acc=val_acc,
                wall_ms=(time.perf_counter() - tic) * 1000.0,
                n_feval=n_feval,
            )
        )
    return head, records


def stability_stats(metrics, window):
    """Rolling population-std of validation loss/accuracy plus the largest
    epoch-to-epoch validation-loss jump."""
    if window < 2:
        raise ContractError(f"window must be >= 2, got {window}")
    if len(metrics) < window:
        raise ContractError(f"need at least {window} epochs for window {window}, got {len(metrics)}")
    val_loss = np.array([m.val_loss for m in metrics])
    val_acc = np.array([m.val_acc for m in metrics])
    std_loss = np.lib.stride_tricks.sliding_window_view(val_loss, window).std(axis=-1)
    std_acc = np.lib.stride_tricks.sliding_window_view(val_acc, window).std(axis=-1)
    return StabilityReport(
        window=window,
        rolling_std_val_loss=std_loss,
        rolling_std_val_acc=std_acc,
        mean_rolling_std_val_loss=float(std_loss.mean()),
        max_epoch_to_epoch_jump=float(np.max(np.abs(np.diff(val_loss)))),
    )


def stability_verdict(reports, seeds):
    """The head comparison's verdict: (decided seeds, NODE-head wins).

    ``reports`` maps (seed, head) to that run's :class:`StabilityReport`; a
    run that failed or fell short of a window has no entry, or None. A seed
    is decided when both its "baseline" and "node" runs have a report, and
    the node head wins it when its mean rolling std of validation loss is
    strictly lower, so a tie is no win. The decided seeds keep the order of
    ``seeds``.
    """
    std = {key: report.mean_rolling_std_val_loss for key, report in reports.items() if report is not None}
    decided = [seed for seed in seeds if (seed, "baseline") in std and (seed, "node") in std]
    return decided, sum(std[seed, "node"] < std[seed, "baseline"] for seed in decided)


def write_metrics_csv(records, path):
    """Write the metrics series in the documented CSV layout."""
    lines = [",".join(METRICS_HEADER)]
    for r in records:
        values = [(f.type, getattr(r, f.name)) for f in _METRICS_FIELDS]
        lines.append(",".join(str(v) if kind is int else f"{v:.6g}" for kind, v in values))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _excerpt(text, limit=40):
    """``repr(text)``, cut after ``limit`` characters with the cut marked by ``...``."""
    quoted = repr(text)
    return quoted if len(quoted) <= limit else quoted[:limit] + "..."


def read_metrics_csv(path):
    """Parse a metrics CSV back into records, naming the line of any defect
    and the column of any cell that is not a finite number of its type.
    A file that is not text or not CSV raises :class:`FormatError`."""
    try:
        with open(path, "r", newline="") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"{path}: not a text file: {exc}") from exc
    if not rows:
        raise FormatError(f"{path}: empty metrics file")
    if tuple(rows[0]) != METRICS_HEADER:
        raise FormatError(f"{path}: line 1: bad header {_excerpt(','.join(rows[0]))}")
    if len(rows) == 1:
        raise FormatError(f"{path}: no records after the header")
    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(METRICS_HEADER):
            raise FormatError(f"{path}: line {lineno}: expected {len(METRICS_HEADER)} fields, got {len(row)}")
        values = []
        for f, cell in zip(_METRICS_FIELDS, row):
            try:
                values.append(f.type(cell))
            except ValueError as exc:
                raise FormatError(f"{path}: line {lineno}: column {f.name}: "
                                  f"{_excerpt(cell)} is not a valid {f.type.__name__}") from exc
            if not math.isfinite(values[-1]):
                raise FormatError(f"{path}: line {lineno}: column {f.name}: non-finite value {_excerpt(cell)}")
        records.append(MetricsRecord(*values))
    return records
