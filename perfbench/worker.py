"""Benchmark worker: drives nodehead in a fresh process.

Run by ``run.py``, never by hand. Subcommands:

* ``setup``   - time import + file ingestion + head init once, print JSON.
* ``cold``    - time the first (cold) FrozenExtractor init of a process.
* ``run``     - set up, then run the workload's jobs in a closed loop (one
                client: each job runs to completion before the next starts)
                for ``--seconds``; with ``--trace 1`` also run the fixed-shape
                layer probes and alternate untraced and traced jobs. Writes
                raw samples and outputs as JSON to ``--out``.
* ``golden``  - run one job on the given inputs and print its outputs (used
                to record ``reference.json``).

Only the standard library is imported at module level, so ``setup`` times
the whole ``import nodehead`` (numpy included).
"""

import argparse
import contextlib
import importlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
from workloads import D, N_STEPS, TOL, TRAIN_SEED, WIDTH, WORKLOADS

VAL_FRACTION = 0.1
COMPARE_VAL_FRACTION = 1 / 6
BATCH = 64
CLASSES = 10

perf_counter = time.perf_counter


class Program:
    """The nodehead modules, imported from a given source tree."""

    def __init__(self, src):
        src = Path(src).resolve()
        sys.path.insert(0, str(src))
        import nodehead

        if not Path(nodehead.__file__).resolve().is_relative_to(src):
            raise RuntimeError(f"nodehead imported from {nodehead.__file__}, not from {src}")
        for name in ("dynamics", "solvers", "adjoint", "model", "train", "data", "cli"):
            # attribute access would hit the re-exported train() function, not the module
            setattr(self, name, importlib.import_module(f"nodehead.{name}"))
        import numpy

        self.np = numpy


# ---------------------------------------------------------------------------
# set-up and jobs


def ingest(program, path):
    """Load one input file the way a user's pipeline would: NODF directly,
    CIFAR layout through the frozen extractor."""
    data = program.data
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == data.FEATURE_MAGIC:
        return data.load_feature_file(path)
    images = data.load_cifar10_bin(path)
    return data.extract_features(data.FrozenExtractor(0, D), images)


def set_up(program, spec, paths):
    """Everything before the first training step; returns (train_ds, test_ds).

    For compare only the test set is loaded: the compare command ingests its
    training data itself on every run.
    """
    test_ds = ingest(program, paths["test"])
    if spec["kind"] == "compare":
        return None, test_ds
    train_ds = ingest(program, paths["train"])
    if spec["head"] == "node":
        program.model.init_node_head(TRAIN_SEED, train_ds.d, CLASSES, width=WIDTH, scale=spec["scale"])
    else:
        program.model.init_baseline_head(TRAIN_SEED, train_ds.d, CLASSES)
    return train_ds, test_ds


def solver_config(program, spec):
    method = "rk4_fixed" if spec["grad"] == "discrete" else "dopri5"
    return program.solvers.SolverConfig(method=method, rtol=TOL, atol=TOL, n_steps=N_STEPS)


def train_config(program, spec):
    tr = program.train
    optimizer = tr.AdamConfig() if spec["optimizer"] == "adam" else tr.SgdConfig()
    return tr.TrainConfig(
        optimizer=optimizer, epochs=spec["epochs"], batch_size=BATCH, seed=TRAIN_SEED,
        grad_method=spec["grad"], solver=solver_config(program, spec),
        val_fraction=VAL_FRACTION, width=WIDTH, init_scale=spec["scale"],
    )


def _finite(values):
    return all(math.isfinite(v) for v in values)


def train_call(program, spec, train_ds):
    # train() is looked up at call time, so a traced run sees the patched attribute
    return lambda: program.train.train(spec["head"], train_ds, train_config(program, spec))


def train_collect(program, spec, result, out):
    """Outputs of a ``train()`` call: (heads, outputs, per-epoch ms)."""
    head, records = result
    series = [[r.train_loss, r.train_acc, r.val_loss, r.val_acc, r.n_feval] for r in records]
    if not _finite(v for row in series for v in row):
        raise ArithmeticError("non-finite value in the metrics series")
    return [head], {"series": series}, [r.wall_ms for r in records]


def compare_argv(spec, paths, out):
    return [
        "compare", "--seeds", ",".join(str(s) for s in spec["seeds"]),
        "--data", str(paths["train"]), "--test-data", str(paths["test"]), "--out", str(out),
        "--grad", spec["grad"], "--epochs", str(spec["epochs"]), "--window", str(spec["window"]),
        "--val-fraction", str(COMPARE_VAL_FRACTION), "--batch-size", str(BATCH),
        "--feature-dim", str(D), "--width", str(WIDTH), "--n-steps", str(N_STEPS),
        "--rtol", str(TOL), "--atol", str(TOL),
    ]


def compare_call(program, spec, paths, out):
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return program.cli.main(compare_argv(spec, paths, out))

    return call


def compare_collect(program, spec, code, out):
    """Outputs of one ``nodehead compare``: (heads, outputs, epoch ms).

    One compare epoch is one epoch of each head, so each seed's baseline and
    node epochs are summed pairwise.
    """
    outputs = {"exit_code": code}
    if code != 0:
        return [], outputs, []
    lines = (out / "comparison.csv").read_text().splitlines()
    wall_col = lines[0].split(",").index("total_wall_s")
    outputs["rows"] = [[c for j, c in enumerate(line.split(",")) if j != wall_col] for line in lines[1:]]
    outputs["verdict"] = (out / "summary.txt").read_text().splitlines()[-1]
    heads, epoch_ms, nfe = [], [], 0
    for seed in spec["seeds"]:
        per_head = []
        for kind in ("baseline", "node"):
            run_dir = out / f"seed{seed}" / kind
            heads.append(program.model.load_checkpoint(run_dir / "head.nodc"))
            records = program.train.read_metrics_csv(run_dir / "metrics.csv")
            per_head.append([r.wall_ms for r in records])
            nfe += sum(r.n_feval for r in records)
        epoch_ms += [sum(pair) for pair in zip(*per_head)]
    outputs["n_feval"] = nfe
    return heads, outputs, epoch_ms


def evaluate_heads(program, spec, heads, test_ds):
    """Time ``model.evaluate`` of each head on the held-out test set.

    Returns (seconds for all heads, [[loss, acc], ...])."""
    cfg = solver_config(program, spec)
    tic = perf_counter()
    results = [program.model.evaluate(h, test_ds.features, test_ds.labels, cfg)[:2] for h in heads]
    return perf_counter() - tic, [list(r) for r in results]


class Runner:
    """Runs jobs of one workload and collects their samples."""

    def __init__(self, program, spec, paths, scratch):
        self.program, self.spec, self.paths, self.scratch = program, spec, paths, scratch
        self.train_ds, self.test_ds = set_up(program, spec, paths)
        self.n = 0

    def measured_job(self, tracer=None):
        """One job plus its evaluations; never raises, records the error instead.

        Only the program call is timed; reading its outputs back is not.
        """
        self.n += 1
        out = self.scratch / f"job{self.n}"
        if self.spec["kind"] == "compare":
            call, collect = compare_call(self.program, self.spec, self.paths, out), compare_collect
        else:
            call, collect = train_call(self.program, self.spec, self.train_ds), train_collect
        if tracer is not None:
            call = tracer.span("bench.job", "bench", call)
        rec = {"ok": False, "error": None}
        try:
            tic = perf_counter()
            result = call()
            rec["wall_s"] = perf_counter() - tic
            heads, outputs, epoch_ms = collect(self.program, self.spec, result, out)
            rec.update(outputs=outputs, epoch_ms=epoch_ms, ok=outputs.get("exit_code", 0) == 0)
        except Exception as exc:  # a failed job is counted, not fatal
            rec["error"] = f"{type(exc).__name__}: {exc}"
            return rec
        if tracer is not None:
            return rec
        rec["evals"] = []
        for _ in range(self.spec["eval_repeats"]):
            try:
                secs, results = evaluate_heads(self.program, self.spec, heads, self.test_ds)
                ok = all(math.isfinite(loss) and 0.0 <= acc <= 1.0 for loss, acc in results)
                rec["evals"].append({"ok": ok, "s": secs, "results": results,
                                     "rows": len(heads) * len(self.test_ds)})
            except Exception as exc:  # counted as a failed evaluate
                rec["evals"].append({"ok": False, "error": f"{type(exc).__name__}: {exc}"})
        return rec


def _n_train_rows(program, spec):
    """Rows one epoch trains on, from the program's own split of the input size."""
    n, frac = spec["n_train"], COMPARE_VAL_FRACTION if spec["kind"] == "compare" else VAL_FRACTION
    dummy = program.data.Dataset(program.np.zeros((n, 1)), program.np.zeros(n))
    return len(program.data.split_train_val(dummy, frac, 0)[0])


def _retained_floats(program, spec, runner):
    """Largest solver buffer of one adjoint train step on the workload's data."""
    head = program.model.init_node_head(TRAIN_SEED, D, CLASSES, width=WIDTH, scale=spec["scale"])
    ds = runner.train_ds
    _, _, stats, _ = program.model.train_step(head, ds.features[:8], ds.labels[:8], "adjoint",
                                              solver_config(program, spec))
    return stats.retained_floats


# ---------------------------------------------------------------------------
# fixed-shape layer probes (traced runs)


def _timed(fn, reps, inner=1):
    """Median seconds per call of ``fn`` over ``reps`` samples of ``inner`` calls."""
    fn()
    samples = []
    for _ in range(reps):
        tic = perf_counter()
        for _ in range(inner):
            fn()
        samples.append((perf_counter() - tic) / inner)
    return statistics.median(samples)


def layer_probes(program, seed, probe_files):
    """Per-layer timings at n=64, d=64, width=64, 16 RK4 steps, plus exact counts."""
    np, dyn, sol, adj, mdl, tr, data = (program.np, program.dynamics, program.solvers, program.adjoint,
                                         program.model, program.train, program.data)
    rng = np.random.default_rng([seed, 11])
    n = 64
    H = np.tanh(rng.standard_normal((n, D)))
    A = rng.standard_normal((n, D)) / n
    H1000 = np.tanh(rng.standard_normal((1000, D)))
    labels = rng.integers(0, CLASSES, size=1000)
    p = dyn.init_params(int(rng.integers(2**31)), D, WIDTH, scale=0.1)
    p4 = dyn.init_params(int(rng.integers(2**31)), D, WIDTH, scale=4.0)
    rk4 = sol.SolverConfig(method="rk4_fixed", n_steps=N_STEPS)
    dopri = sol.SolverConfig(method="dopri5", rtol=TOL, atol=TOL)
    head = mdl.init_node_head(TRAIN_SEED, D, CLASSES, width=WIDTH, scale=0.1)
    head4 = mdl.init_node_head(TRAIN_SEED, D, CLASSES, width=WIDTH, scale=4.0)
    base = mdl.init_baseline_head(TRAIN_SEED, D, CLASSES)
    m = {}

    t = _timed(lambda: dyn.eval_dynamics_batch(p, H, 0.5), 15, 50)
    m["dynamics.eval_batch_us"] = t * 1e6
    # computed flops: two GEMMs, (n, d+1)x(d+1, w) and (n, w)x(w, d)
    m["dynamics.eval_batch_gflops"] = 2 * n * WIDTH * ((D + 1) + D) / t / 1e9
    m["dynamics.vjp_batch_us"] = _timed(lambda: dyn.vjp_batch(p, H, 0.5, A), 15, 20) * 1e6
    m["dynamics.eval_row_us"] = _timed(lambda: dyn.eval_dynamics(p, H[0], 0.5), 15, 200) * 1e6
    m["dynamics.vjp_row_us"] = _timed(
        lambda: (dyn.vjp_state(p, H[0], 0.5, A[0]), dyn.vjp_params(p, H[0], 0.5, A[0])), 15, 100) * 1e6

    m["solvers.rk4_forward_ms"] = _timed(lambda: sol.solve_fixed_batch(p, H, 0.0, 1.0, N_STEPS), 25) * 1e3
    _, traj = sol.solve_fixed_batch(p, H, 0.0, 1.0, N_STEPS)
    m["solvers.rk4_retained_bytes"] = traj.n_retained_floats * 8
    m["solvers.rk4_terminal_ms"] = _timed(lambda: sol.rk4_terminal_batch(p, H1000, 0.0, 1.0, N_STEPS), 9) * 1e3
    m["adjoint.rk4_reverse_ms"] = _timed(lambda: adj.backprop_rk4_batch(p, traj, A), 25) * 1e3

    rows = H[:16]
    fwd = [sol.solve_adaptive(p4, h, 0.0, 1.0, dopri) for h in rows]
    n_fwd = sum(s.n_feval for _, s in fwd)
    acc = sum(s.n_accept for _, s in fwd)
    att = acc + sum(s.n_reject for _, s in fwd)
    t = _timed(lambda: [sol.solve_adaptive(p4, h, 0.0, 1.0, dopri) for h in rows], 3) / len(rows)
    m["solvers.dopri5_row_ms"] = t * 1e3
    m["solvers.dopri5_step_us"] = t * len(rows) / att * 1e6
    m["solvers.dopri5_nfe"] = n_fwd
    m["solvers.dopri5_accept_ratio"] = acc / att
    hT = [h for h, _ in fwd]
    back = [adj.adjoint_solve(p4, h, a, 0.0, 1.0, dopri) for h, a in zip(hT, A[:16])]
    acc = sum(r.stats.n_accept for r in back)
    m["adjoint.adjoint_row_ms"] = _timed(
        lambda: [adj.adjoint_solve(p4, h, a, 0.0, 1.0, dopri) for h, a in zip(hT, A[:16])], 3) / 16 * 1e3
    m["adjoint.backward_nfe"] = sum(r.stats.n_feval for r in back)
    m["adjoint.backward_accept_ratio"] = acc / (acc + sum(r.stats.n_reject for r in back))
    m["adjoint.retained_floats"] = max(r.retained_floats for r in back)

    y = labels[:n]
    m["model.train_step_ms_discrete"] = _timed(lambda: mdl.train_step(head, H, y, "discrete", rk4), 15) * 1e3
    m["model.train_step_ms_adjoint_per_row"] = _timed(
        lambda: mdl.train_step(head4, H[:8], y[:8], "adjoint", dopri), 5) / 8 * 1e3
    m["model.train_step_us_baseline"] = _timed(lambda: mdl.train_step(base, H, y, "discrete", rk4), 15, 20) * 1e6
    m["model.evaluate_ms_rk4"] = _timed(lambda: mdl.evaluate(head, H1000, labels, rk4), 9) * 1e3
    m["model.evaluate_ms_dopri5_per_row"] = _timed(
        lambda: mdl.evaluate(head4, H[:16], y[:16], dopri), 3) / 16 * 1e3
    flat = mdl.head_to_flat(head)
    m["model.head_from_flat_us"] = _timed(lambda: mdl.head_from_flat(head, flat), 15, 50) * 1e6

    grads = rng.standard_normal(flat.size)
    state = (np.zeros_like(flat), np.zeros_like(flat), 0)
    m["train.adam_update_us"] = _timed(lambda: tr.adam_update(flat, grads, state, tr.AdamConfig()), 15, 50) * 1e6
    m["train.sgd_update_us"] = _timed(
        lambda: tr.sgd_update(flat, grads, np.zeros_like(flat), tr.SgdConfig()), 15, 50) * 1e6

    images = data.load_cifar10_bin(probe_files["cifar"])
    extractor = data.FrozenExtractor(0, D)
    m["data.load_cifar_ms"] = _timed(lambda: data.load_cifar10_bin(probe_files["cifar"]), 5) * 1e3
    m["data.extractor_init_warm_ms"] = _timed(lambda: data.FrozenExtractor(1, D), 5) * 1e3
    m["data.extract_features_ms"] = _timed(lambda: data.extract_features(extractor, images), 5) * 1e3
    m["data.load_nodf_ms"] = _timed(lambda: data.load_feature_file(probe_files["nodf"]), 9) * 1e3
    return m


# ---------------------------------------------------------------------------
# traced jobs


def trace_summary(tracer, jobs, spec):
    """Per-module self time and share per traced job, plus the cli counts."""
    recs = tracer.spans
    n_jobs = max(1, len(jobs))
    job_total = sum(end - start for name, _, start, end, _ in recs if name == "bench.job")
    by_module = spans.module_self_times(recs, tracer.leaves)
    out = {}
    for module in spans.MODULES:
        self_s = by_module.get(module, 0.0)
        out[f"trace.{module}.self_ms"] = self_s / n_jobs * 1e3
        out[f"trace.{module}.share"] = self_s / job_total if job_total else 0.0
    self_s = spans.self_times(recs, tracer.leaves)
    loop = sum(s for rec, s in zip(recs, self_s) if rec[0] == "train.train")
    n_epochs = sum(1 for rec in recs if rec[0] == "train.train") * spec["epochs"]
    out["train.loop_self_ms"] = loop / n_epochs * 1e3 if n_epochs else 0.0
    runs = [end - start for name, _, start, end, _ in recs if name == "cli.cmd_train"]
    loads = sum(1 for rec in recs if rec[0] in ("data.load_cifar10_bin", "data.load_feature_file"))
    out["cli.dataset_loads"] = loads / n_jobs
    out["cli.train_runs"] = len(runs) / n_jobs
    out["cli.run_s_p50"] = statistics.median(runs) if runs else 0.0
    out["cli.overlap_ratio"] = sum(runs) / job_total if runs and job_total else 0.0
    out["trace.bytes_read_per_job"] = tracer.bytes_read / n_jobs
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_setup(args):
    tic = perf_counter()
    set_up(Program(args.src), WORKLOADS[args.workload], _paths(args))
    print(json.dumps({"setup_s": perf_counter() - tic}))


def cmd_cold(args):
    program = Program(args.src)
    tic = perf_counter()
    program.data.FrozenExtractor(0, D)
    print(json.dumps({"cold_s": perf_counter() - tic}))


def _paths(args):
    return {"train": Path(args.train), "test": Path(args.test)}


def cmd_run(args):
    spec = WORKLOADS[args.workload]
    program = Program(args.src)
    scratch = Path(args.scratch)
    runner = Runner(program, spec, _paths(args), scratch)
    result = {"n_train_rows": _n_train_rows(program, spec), "jobs": [], "traced": []}
    result["warmup"] = runner.measured_job()
    if args.trace:
        result["probes"] = layer_probes(program, args.seed, {"cifar": args.probe_cifar,
                                                              "nodf": args.probe_nodf})
        tracer = spans.Tracer()
        deadline = perf_counter() + args.seconds
        while perf_counter() < deadline or len(result["traced"]) < 2:
            result["jobs"].append(runner.measured_job())
            tracer.install()
            try:
                result["traced"].append(runner.measured_job(tracer))
            finally:
                tracer.uninstall()
        result["trace"] = trace_summary(tracer, result["traced"], spec)
        tracer.write(args.trace_file)
    else:
        deadline = perf_counter() + args.seconds
        while perf_counter() < deadline or len(result["jobs"]) < 3:
            result["jobs"].append(runner.measured_job())
    if spec["grad"] == "adjoint":
        result["retained_floats"] = _retained_floats(program, spec, runner)
    golden = Runner(program, spec, {"train": Path(args.ref_train), "test": Path(args.ref_test)},
                    scratch / "golden")
    result["golden"] = golden.measured_job()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.out).write_text(json.dumps(result))


def cmd_golden(args):
    spec = WORKLOADS[args.workload]
    program = Program(args.src)
    rec = Runner(program, spec, _paths(args), Path(args.scratch)).measured_job()
    print(json.dumps({"ok": rec["ok"], "error": rec["error"], "outputs": rec.get("outputs")}))


def main(argv=None):
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("setup", cmd_setup), ("cold", cmd_cold), ("run", cmd_run), ("golden", cmd_golden)):
        p = sub.add_parser(name)
        p.set_defaults(func=fn)
        p.add_argument("--src", required=True)
        if name == "cold":
            continue
        p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
        p.add_argument("--train", required=True)
        p.add_argument("--test", required=True)
        if name in ("run", "golden"):
            p.add_argument("--scratch", required=True)
        if name == "run":
            p.add_argument("--seed", type=int, required=True)
            p.add_argument("--seconds", type=float, required=True)
            p.add_argument("--trace", type=int, choices=(0, 1), default=0)
            p.add_argument("--ref-train", required=True)
            p.add_argument("--ref-test", required=True)
            p.add_argument("--out", required=True)
            p.add_argument("--probe-cifar")
            p.add_argument("--probe-nodf")
            p.add_argument("--trace-file")
    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
