"""Command-line entry point.

Subcommands: ``train`` (one head, one run), ``compare`` (baseline vs NODE
across seeds with stability statistics), ``gradcheck`` (pairwise gradient
agreement), ``sweep-tol`` (tolerance/cost/precision table), ``plot`` (SVG
curves from a metrics CSV), and ``rerun`` (re-execute a run from the
manifest that this version recorded).

Every command resolves its flags, writes a RunManifest into the output
directory before doing any work, and appends the finish timestamp when done.
Exit codes are a stable contract: 0 success, 1 usage or precondition
problems, 2 data/format problems, 3 numeric failures or threshold
violations.
"""

import argparse
import functools
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    CIFAR_PIXELS,
    FEATURE_MAGIC,
    FrozenExtractor,
    extract_features,
    load_cifar10_bin,
    load_feature_file,
    split_train_val,
)
from .errors import ContractError, FormatError, NumericError
from .model import (
    evaluate,
    forward,
    head_from_flat,
    head_to_flat,
    init_node_head,
    load_checkpoint,
    save_checkpoint,
    train_step,
)
from .solvers import SolverConfig
from .svgplot import plot_columns, plot_metrics_csv
from .train import (
    AdamConfig,
    SgdConfig,
    TrainConfig,
    read_metrics_csv,
    require_fits,
    stability_stats,
    stability_verdict,
    train,
    write_metrics_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# The exceptions a command may end with, and the exit code each one maps to. An allocation
# too large for the machine that no size check foresaw (say, a wide head on a huge dataset)
# is the flags' fault.
_EXIT_CODES = {FormatError: EXIT_DATA, OSError: EXIT_DATA, ContractError: EXIT_USAGE,
               MemoryError: EXIT_USAGE, NumericError: EXIT_NUMERIC}

_HEADS = ("baseline", "node")

# the optimizer each --grad route trains with, by name; its class default gives an unset --lr
_OPTIMIZERS = {"discrete": ("adam", AdamConfig), "adjoint": ("sgd", SgdConfig)}

# comparison.csv's columns, in order; each of compare's rows is a dict keyed by them
_COMPARISON_COLUMNS = ("seed", "head", "final_train_acc", "final_val_acc", "test_acc",
                       "mean_rolling_std_val_loss", "max_epoch_jump", "total_wall_s", "flag")


class _Parser(argparse.ArgumentParser):
    """argparse with the package's exit-code contract (usage errors exit 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# run manifests

def _utc_now():
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ")


def write_manifest(path, args):
    """Record every parsed flag of ``args`` before the run starts.

    Unset (None) flags are left out; list values are joined with commas.
    The directory of ``path`` is created only once every value is known to
    fit on its line.
    """
    lines = [
        f"command={args.command}",
        f"toolkit_version={__version__}",
        f"started_at={_utc_now()}",
    ]
    for name, value in vars(args).items():
        if name in ("func", "command") or value is None:
            continue
        key = name.replace("_", "-")
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        # read_manifest splits lines with str.splitlines, so no value may hold any of its breaks
        if "".join(text.splitlines()) != text:
            raise ContractError(f"manifest value for {key} contains a newline or other line break")
        lines.append(f"arg.{key}={text}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _start_run(args):
    """Reject an empty or repeated list flag, then write the manifest, creating
    the ``--out`` directory; returns (out, manifest path)."""
    for name, items in vars(args).items():
        if isinstance(items, list):
            flag = "--" + name.replace("_", "-")
            if not items:
                raise ContractError(f"{flag} must name at least one item")
            repeated = next((x for i, x in enumerate(items) if x in items[:i]), None)
            if repeated is not None:
                raise ContractError(f"{flag} names {repeated} twice")
    out = Path(args.out)
    manifest = out / "manifest.txt"
    write_manifest(manifest, args)
    return out, manifest


def finish_manifest(path):
    with open(path, "a") as fh:
        fh.write(f"finished_at={_utc_now()}\n")


def read_manifest(path):
    """Parse a manifest into (command, toolkit version or None, {arg: value}); a
    file that does not decode as text, or that repeats a key, raises
    :class:`FormatError`."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a text file: {exc}") from exc
    fields = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if "=" not in line:
            raise FormatError(f"{path}: line {lineno}: expected key=value")
        key, value = line.split("=", 1)
        if key in fields:
            raise FormatError(f"{path}: line {lineno}: {key} recorded twice")
        fields[key] = value
    if "command" not in fields:
        raise FormatError(f"{path}: no command recorded")
    args = {key[4:]: value for key, value in fields.items() if key.startswith("arg.")}
    return fields["command"], fields.get("toolkit_version"), args


# ---------------------------------------------------------------------------
# shared flag groups and resolution
#
# The parser is the one list of flags: manifests record the parsed namespace,
# and each ``compare`` run is a namespace of train's defaults plus compare's
# values. Each flag has one add_argument call: subcommands that share it go
# through the same helper, passing their own default.

def _add_seed_flag(p):
    p.add_argument("--seed", type=int, default=0)


def _add_train_flags(p, epochs, val_fraction=0.1):
    p.add_argument("--grad", choices=("discrete", "adjoint"), default="discrete")
    p.add_argument("--epochs", type=int, default=epochs)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--val-fraction", type=float, default=val_fraction)


def _add_data_flags(p):
    p.add_argument("--data", required=True, help="NODF feature file or CIFAR-10 binary batch file")
    p.add_argument("--feature-dim", type=int, default=64, help="extractor output dimension for image input")
    p.add_argument("--limit", type=int, default=0, help="keep only the first N rows (0 = all)")


def _add_model_flags(p, width=64, scale=0.1):
    p.add_argument("--width", type=int, default=width, help="hidden width of the dynamics MLP")
    p.add_argument("--scale", type=float, default=scale, help="init scale of the dynamics MLP")


def _add_solver_flags(p, tol=1e-5, n_steps=16):
    p.add_argument("--rtol", type=float, default=tol)
    p.add_argument("--atol", type=float, default=tol)
    p.add_argument("--n-steps", type=int, default=n_steps, help="fixed-step count for the discrete method")


def _add_run_flags(p):
    """The flags of a training run besides its head, schedule and seed (train, compare)."""
    _add_data_flags(p)
    _add_model_flags(p)
    _add_solver_flags(p)
    p.add_argument("--lr", type=float, default=None, help="defaults to " + " / ".join(
        f"{cls.lr:g} ({grad}, {name})" for grad, (name, cls) in _OPTIMIZERS.items()))


def _resolve_lr(args):
    """Fill in an unset ``--lr`` in place with the default of the ``--grad`` route's optimizer."""
    if args.lr is None:
        args.lr = _OPTIMIZERS[args.grad][1].lr


def _train_config(args):
    """A run's TrainConfig: the ``--grad`` route's optimizer at ``--lr``, and a
    solver from the solver flags, whose method TrainConfig sets from ``--grad``."""
    return TrainConfig(
        optimizer=_OPTIMIZERS[args.grad][1](lr=args.lr), epochs=args.epochs, batch_size=args.batch_size,
        seed=args.seed, grad_method=args.grad,
        solver=SolverConfig(rtol=args.rtol, atol=args.atol, n_steps=args.n_steps),
        val_fraction=args.val_fraction, width=args.width, init_scale=args.scale,
    )


def _lazy_extractor(args):
    """The command's frozen extractor, built on the first call and reused
    after it; a command whose inputs are all NODF files never builds one."""
    return functools.cache(lambda: FrozenExtractor(0, args.feature_dim))


def _load_dataset(path, extractor, limit, val_fraction=None):
    """Sniff the file kind by magic: NODF features, otherwise CIFAR binary
    through ``extractor()``. With ``val_fraction``, a dataset that cannot
    split at it is refused, named, before any run starts."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == FEATURE_MAGIC:
        ds = load_feature_file(path)
    else:
        images = load_cifar10_bin(path)
        ds = extract_features(extractor(), images)
    if limit:
        ds = ds.subset(np.arange(min(limit, len(ds))))
    if len(ds) == 0:
        raise FormatError(f"{path}: dataset is empty")
    if val_fraction is not None:
        try:  # any seed: which rows go where does not matter, only whether a side is empty
            split_train_val(ds, val_fraction, 0)
        except ContractError as exc:
            raise ContractError(f"{path}: {exc}") from exc
    return ds


def _check_data_flags(args):
    """Reject a bad ``--limit`` or ``--feature-dim`` before the run starts."""
    if args.limit < 0:
        raise ContractError(f"--limit must be >= 0 (0 = all rows), got {args.limit}")
    if not 1 <= args.feature_dim <= CIFAR_PIXELS:
        raise ContractError(f"--feature-dim must be in [1, {CIFAR_PIXELS}], got {args.feature_dim}")


def _run(func, args, *rest):
    """Run one command; an error of the exit-code contract becomes its exit code.
    numpy's warnings are off: a check names where each non-finite result arose."""
    try:
        with np.errstate(all="ignore"):
            return func(args, *rest)
    except tuple(_EXIT_CODES) as exc:
        print(f"nodehead {args.command}: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


# ---------------------------------------------------------------------------
# commands

def cmd_train(args, dataset=None):
    """Train one head; ``dataset`` stands in for loading ``--data`` when given."""
    _resolve_lr(args)
    config = _train_config(args)
    _check_data_flags(args)
    out, manifest = _start_run(args)
    if dataset is None:
        dataset = _load_dataset(args.data, _lazy_extractor(args), args.limit, args.val_fraction)
    head, records = train(args.head, dataset, config)
    write_metrics_csv(records, out / "metrics.csv")
    save_checkpoint(head, out / "head.nodc")
    finish_manifest(manifest)
    last = records[-1]
    print(
        f"{args.head}: epoch {last.epoch} train_loss={last.train_loss:.6g} "
        f"train_acc={last.train_acc:.4f} val_loss={last.val_loss:.6g} val_acc={last.val_acc:.4f}"
    )
    return EXIT_OK


def _stability_csv(report, path):
    lines = ["window_end_epoch,rolling_std_val_loss,rolling_std_val_acc"]
    for i, (sl, sa) in enumerate(zip(report.rolling_std_val_loss, report.rolling_std_val_acc)):
        lines.append(f"{report.window + i},{sl:.6g},{sa:.6g}")
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_compare(args):
    # stability_stats would reject it too, but only after the first run had trained
    if args.window < 2:
        raise ContractError(f"--window must be >= 2, got {args.window}")
    _resolve_lr(args)
    # a run's flags: train's defaults, overridden by every flag compare shares with train
    defaults = {a.dest: a.default for a in _commands()["train"]._actions
                if a.default is not argparse.SUPPRESS}
    shared = {name: getattr(args, name) for name in defaults if hasattr(args, name)}
    run_flags = {**defaults, **shared, "command": "train"}
    # the runs differ only in head and seed, so a bad configuration fails here, before any run
    config = _train_config(argparse.Namespace(**run_flags))
    _check_data_flags(args)
    out, manifest = _start_run(args)
    extractor = _lazy_extractor(args)
    dataset = _load_dataset(args.data, extractor, args.limit, args.val_fraction)
    test_ds = None
    if args.test_data:
        test_ds = _load_dataset(args.test_data, extractor, 0)
        if test_ds.d != dataset.d:
            raise FormatError(f"{args.test_data}: feature dimension {test_ds.d}, but --data has {dataset.d}")

    rows = []
    reports = {}  # (seed, head) -> the run's StabilityReport, for runs that have one
    for seed in args.seeds:
        for head_kind in _HEADS:
            run_dir = out / f"seed{seed}" / head_kind
            run = argparse.Namespace(**{**run_flags, "head": head_kind, "seed": seed, "out": str(run_dir)})
            code = _run(cmd_train, run, dataset)
            row = {"seed": seed, "head": head_kind, "flag": "ok" if code == EXIT_OK else f"failed-exit-{code}"}
            rows.append(row)
            if code != EXIT_OK:
                continue
            # the table reads the run's files back, so it holds the CSV's 6-digit values
            records = read_metrics_csv(run_dir / "metrics.csv")
            row["final_train_acc"] = records[-1].train_acc
            row["final_val_acc"] = records[-1].val_acc
            row["total_wall_s"] = sum(r.wall_ms for r in records) / 1000.0
            if test_ds is not None:
                head = load_checkpoint(run_dir / "head.nodc")
                _, test_acc, _ = evaluate(head, test_ds.features, test_ds.labels, config.solver)
                row["test_acc"] = test_acc
            if len(records) >= args.window:
                report = reports[seed, head_kind] = stability_stats(records, args.window)
                row["mean_rolling_std_val_loss"] = report.mean_rolling_std_val_loss
                row["max_epoch_jump"] = report.max_epoch_to_epoch_jump
                _stability_csv(report, run_dir / "stability.csv")
            else:
                row["flag"] = "insufficient-window"

    decided, node_wins = stability_verdict(reports, args.seeds)
    failed = sum(r["flag"].startswith("failed-exit-") for r in rows)

    def _cell(row, key, fmt="{:.6g}"):
        value = row.get(key, "")
        return fmt.format(value) if isinstance(value, float) else str(value)

    csv_lines = [",".join(_COMPARISON_COLUMNS)]
    csv_lines += [",".join(_cell(r, key) for key in _COMPARISON_COLUMNS) for r in rows]
    (out / "comparison.csv").write_text("\n".join(csv_lines) + "\n")

    col = "{:<6}{:<10}{:>12}{:>12}{:>10}{:>22}{:>14}  {}"
    summary = [
        f"baseline vs node stability comparison  (window={args.window}, grad={args.grad}, "
        f"optimizer={_OPTIMIZERS[args.grad][0]}, epochs={args.epochs}, n_steps={args.n_steps}, width={args.width})",
        col.format("seed", "head", "train_acc", "val_acc", "test_acc",
                   "mean_std(val_loss)", "wall_s", "flag"),
    ]
    for r in rows:
        summary.append(col.format(
            r["seed"], r["head"],
            _cell(r, "final_train_acc", "{:.4f}"), _cell(r, "final_val_acc", "{:.4f}"),
            _cell(r, "test_acc", "{:.4f}"), _cell(r, "mean_rolling_std_val_loss"),
            _cell(r, "total_wall_s", "{:.2f}"), r["flag"],
        ))
    verdict = (
        f"node head has lower mean rolling std(val loss) in {node_wins} of {len(decided)} decided seeds"
        if decided else
        "stability winner undecided: no seed produced a full rolling window for both heads"
    )
    if failed:
        verdict += f"; {failed} run(s) failed"
    summary.append(verdict)
    text = "\n".join(summary) + "\n"
    (out / "summary.txt").write_text(text)
    print(text, end="")
    finish_manifest(manifest)
    return EXIT_NUMERIC if failed else EXIT_OK


def _pairwise_deviation(a, b, max_abs, max_rel):
    """Per-component agreement check between two gradient vectors.

    A component passes when its absolute deviation is within ``max_abs`` or
    its relative deviation (against the larger magnitude) is within
    ``max_rel``. Returns (max_abs_dev, max_rel_dev, all_ok); the relative
    column is taken over components big enough for it to mean anything.
    """
    diff = np.abs(a - b)
    scale = np.maximum(np.abs(a), np.abs(b))
    ok = np.all((diff <= max_abs) | (diff <= max_rel * scale))
    meaningful = scale > max_abs
    max_rel_dev = float((diff[meaningful] / scale[meaningful]).max()) if meaningful.any() else 0.0
    return float(diff.max()), max_rel_dev, bool(ok)


def _fd_loss_grad(head, features, labels, n_steps, step):
    """Central finite differences of the discrete-forward loss over all head params."""
    flat0 = head_to_flat(head)
    cfg = SolverConfig(method="rk4_fixed", n_steps=n_steps)

    def loss_at(flat):
        return evaluate(head_from_flat(head, flat), features, labels, cfg)[0]

    grad = np.empty_like(flat0)
    for i in range(flat0.size):
        bump = np.zeros_like(flat0)
        bump[i] = step
        grad[i] = (loss_at(flat0 + bump) - loss_at(flat0 - bump)) / (2 * step)
    return grad


def cmd_gradcheck(args):
    if not 0 < args.fd_step < math.inf:
        raise ContractError(f"--fd-step must be a finite number > 0, got {args.fd_step}")
    if args.seed < 0:
        raise ContractError(f"--seed must be >= 0, got {args.seed}")
    # a NaN bound would make every comparison false and fall back to the other one
    for flag, bound in (("--max-rel", args.max_rel), ("--max-abs", args.max_abs)):
        if not bound >= 0:
            raise ContractError(f"{flag} must be a number >= 0, got {bound}")
    for flag, count in (("--batch", args.batch), ("--fd-n-steps", args.fd_n_steps)):
        if count < 1:
            raise ContractError(f"{flag} must be >= 1, got {count}")
    require_fits([
        (f"--batch={args.batch} and --d={args.d}", args.batch * args.d),
        (f"--n-steps={args.n_steps}, --batch={args.batch} and --width={args.width}",
         4 * args.n_steps * args.batch * args.width),
        (f"--fd-n-steps={args.fd_n_steps}", args.fd_n_steps + 1),
    ])
    head = init_node_head(args.seed, args.d, args.classes, width=args.width, scale=args.scale)
    cfg = SolverConfig(rtol=args.rtol, atol=args.atol, n_steps=args.n_steps)
    out, manifest = _start_run(args)

    rng = np.random.default_rng(args.seed)
    features = rng.standard_normal((args.batch, args.d))
    labels = rng.integers(0, args.classes, size=args.batch)

    _, g_discrete, _, _ = train_step(head, features, labels, "discrete", cfg)
    _, g_adjoint, _, _ = train_step(head, features, labels, "adjoint", cfg)
    g_fd = _fd_loss_grad(head, features, labels, args.fd_n_steps, args.fd_step)

    table = [
        ("fd-vs-discrete", *_pairwise_deviation(g_fd, g_discrete, args.max_abs, args.max_rel)),
        ("fd-vs-adjoint", *_pairwise_deviation(g_fd, g_adjoint, args.max_abs, args.max_rel)),
        ("discrete-vs-adjoint",
         *_pairwise_deviation(g_discrete, g_adjoint, args.max_abs, args.max_rel)),
    ]
    print(f"{'pair':<22}{'max_abs_dev':>14}{'max_rel_dev':>14}  status")
    for name, abs_dev, rel_dev, ok in table:
        print(f"{name:<22}{abs_dev:>14.3e}{rel_dev:>14.3e}  {'ok' if ok else 'FAIL'}")
    worst = next((name for name, *_, ok in table if not ok), None)
    finish_manifest(manifest)
    if worst is not None:
        print(f"gradcheck failed: {worst} exceeds max_abs={args.max_abs} and max_rel={args.max_rel}",
              file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_sweep_tol(args):
    """Solve one seeded, untrained NODE head on every row of ``--data`` with
    dopri5 at each tolerance. ``acc`` is the share of rows whose first maximal
    logit is the label; ``max_logit_drift`` is the largest |logit - logit at
    the tightest tolerance swept| over every row and class."""
    # the head's settings, as train checks them, and each tolerance fail here, before the run starts;
    # the adjoint's method is the sweep's dopri5, so no step grid is sized
    TrainConfig(seed=args.seed, grad_method="adjoint", width=args.width, init_scale=args.scale)
    solvers = {tol: SolverConfig(method="dopri5", rtol=tol, atol=tol) for tol in args.tols}
    _check_data_flags(args)
    out, manifest = _start_run(args)
    dataset = _load_dataset(args.data, _lazy_extractor(args), args.limit)
    head = init_node_head(args.seed, dataset.d, dataset.class_count, width=args.width, scale=args.scale)

    solves = {}  # tol -> (logits, SolveStats, wall_ms)
    for tol, solver in solvers.items():
        tic = time.perf_counter()
        logits, stats = forward(head, dataset.features, solver)
        solves[tol] = logits, stats, (time.perf_counter() - tic) * 1000.0
    reference = solves[min(solves)][0]
    lines = ["rtol,atol,n_feval,n_accept,n_reject,acc,max_logit_drift,wall_ms"]
    for tol, (logits, stats, wall_ms) in solves.items():
        acc = np.count_nonzero(logits.argmax(axis=1) == dataset.labels) / len(dataset)
        lines.append(f"{tol:g},{tol:g},{stats.n_feval},{stats.n_accept},{stats.n_reject},{acc:.6g},"
                     f"{np.abs(logits - reference).max():.6g},{wall_ms:.6g}")
    table = "\n".join(lines) + "\n"
    (out / "sweep.csv").write_text(table)
    print(table, end="")
    finish_manifest(manifest)
    return EXIT_OK


def cmd_plot(args):
    columns = plot_columns(args.columns)
    out, manifest = _start_run(args)
    for path in plot_metrics_csv(args.csv, out, columns):
        print(path)
    finish_manifest(manifest)
    return EXIT_OK


def cmd_rerun(args):
    """Re-execute a manifest's command into ``--out``.

    Only a manifest that this ``__version__`` recorded is replayed: another
    version's run may have taken other flags or rounded otherwise, so its
    outputs could not be reproduced byte for byte.
    """
    command, version, recorded = read_manifest(args.manifest)
    if version != __version__:
        raise ContractError(f"{args.manifest}: recorded by nodehead {version or '(no version)'}, but this is "
                            f"nodehead {__version__}, which replays only its own manifests")
    if command == "rerun":
        raise ContractError("cannot rerun a rerun manifest")
    commands = _commands()
    if command not in commands:
        raise ContractError(f"{args.manifest}: recorded command {command!r} no longer exists")
    for key, value in recorded.items():
        if f"--{key}" not in commands[command]._option_string_actions:
            raise ContractError(f"{args.manifest}: cannot replay --{key}={value}; {command} takes no --{key}")
    # one --key=value item per flag, so a value that starts with "-" is not read as a flag
    return main([command, *(f"--{key}={value}" for key, value in {**recorded, "out": args.out}.items())])


# ---------------------------------------------------------------------------
# parser wiring

def _comma_list(kind):
    """The argparse type of a comma-separated list of ``kind`` items; empty
    items are dropped, and :func:`_start_run` rejects an empty or repeated list."""
    def parse(text):
        return [kind(x) for x in text.split(",") if x != ""]

    parse.__name__ = f"{kind.__name__} list"  # argparse names it in "invalid ... value"
    return parse


def build_parser():
    parser = _Parser(prog="nodehead", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"nodehead {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one head and write metrics + checkpoint")
    p.add_argument("--head", choices=_HEADS, required=True)
    _add_train_flags(p, epochs=10)
    _add_seed_flag(p)
    _add_run_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare", help="baseline vs node across seeds with stability reports")
    p.add_argument("--seeds", type=_comma_list(int), required=True, help="comma-separated seed list")
    _add_train_flags(p, epochs=60, val_fraction=1 / 6)
    p.add_argument("--window", type=int, default=10)
    p.add_argument("--test-data", default=None)
    _add_run_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gradcheck", help="pairwise finite-difference/discrete/adjoint agreement")
    p.add_argument("--d", type=int, default=4)
    _add_model_flags(p, width=8, scale=0.5)
    _add_seed_flag(p)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--batch", type=int, default=3)
    _add_solver_flags(p, tol=1e-8, n_steps=500)
    p.add_argument("--fd-n-steps", type=int, default=100)
    p.add_argument("--fd-step", type=float, default=1e-5)
    p.add_argument("--max-rel", type=float, default=1e-3)
    p.add_argument("--max-abs", type=float, default=1e-6)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("sweep-tol", help="tolerance vs cost/accuracy/logit-drift trade-off table")
    p.add_argument("--tols", type=_comma_list(float), required=True)
    _add_seed_flag(p)
    _add_data_flags(p)
    _add_model_flags(p)
    p.set_defaults(func=cmd_sweep_tol)

    p = sub.add_parser("plot", help="SVG charts from a metrics CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--columns", type=_comma_list(str), default=None,
                   help="comma-separated metric columns (default: all)")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("rerun", help="re-execute a recorded run into a new directory")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_rerun)

    for p in sub.choices.values():
        p.add_argument("--out", required=True,
                       help="output directory; its manifest.txt is written before any work")
    return parser


def _commands():
    """The subcommand parsers of ``build_parser()``, by name."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return _run(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
