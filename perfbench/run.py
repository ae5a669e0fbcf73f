"""The nodehead benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``nodehead`` from
``./src`` and nowhere else, and exits 2 without a result if that is missing.

The run generates the workload's input files from ``--seed`` (untimed),
times set-up in fresh processes, then runs the workload in a worker process
as a closed loop with one client for ``--seconds``. It checks every output
and prints a table of every metric with its unit and sample count, then, as
the last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reports the per-layer metrics: fixed-shape layer probes plus a traced run
of the workload (spans are written to ``.bench_work/traces/``).

Scratch files live under ``.bench_work/`` in the checkout.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import gen
from workloads import D, REFERENCE_SEED, WIDTH, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 9
COLD_SAMPLES = 3
PROBE_IMAGES = 6000  # the ROADMAP's extraction baseline is quoted for 6000 images
SUBPROCESS_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "epoch_ms_p50": "ms",
    "eval_rows_per_s": "rows/s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "dynamics.eval_batch_us": "us",
    "dynamics.vjp_batch_us": "us",
    "dynamics.eval_row_us": "us",
    "dynamics.vjp_row_us": "us",
    "dynamics.eval_batch_gflops": "GFLOP/s",
    "solvers.rk4_forward_ms": "ms",
    "solvers.rk4_retained_bytes": "bytes",
    "solvers.rk4_terminal_ms": "ms",
    "solvers.dopri5_row_ms": "ms",
    "solvers.dopri5_step_us": "us",
    "solvers.dopri5_nfe": "count",
    "solvers.dopri5_accept_ratio": "ratio",
    "adjoint.rk4_reverse_ms": "ms",
    "adjoint.adjoint_row_ms": "ms",
    "adjoint.backward_nfe": "count",
    "adjoint.backward_accept_ratio": "ratio",
    "adjoint.retained_floats": "count",
    "model.train_step_ms_discrete": "ms",
    "model.train_step_ms_adjoint_per_row": "ms",
    "model.train_step_us_baseline": "us",
    "model.evaluate_ms_rk4": "ms",
    "model.evaluate_ms_dopri5_per_row": "ms",
    "model.head_from_flat_us": "us",
    "train.adam_update_us": "us",
    "train.sgd_update_us": "us",
    "train.loop_self_ms": "ms",
    "data.load_cifar_ms": "ms",
    "data.extractor_init_cold_ms": "ms",
    "data.extractor_init_warm_ms": "ms",
    "data.extract_features_ms": "ms",
    "data.load_nodf_ms": "ms",
    "data.bytes_read": "bytes",
    "cli.dataset_loads": "count",
    "cli.train_runs": "count",
    "cli.overlap_ratio": "ratio",
    "nfe_per_train_row": "count",
    "trace.dynamics.share": "ratio",
    "trace.solvers.share": "ratio",
    "trace.adjoint.share": "ratio",
    "trace.model.share": "ratio",
    "trace.train.share": "ratio",
    "trace.data.share": "ratio",
    "trace.cli.share": "ratio",
    "trace.model.self_ms": "ms",
    "trace.train.self_ms": "ms",
    "trace.data.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

# Reported in the table and the trace summary but not in the JSON line: on
# workloads that never reach the layer they are exactly 0.
TRACE_ONLY = {
    "trace.dynamics.self_ms": "ms",
    "trace.solvers.self_ms": "ms",
    "trace.adjoint.self_ms": "ms",
    "trace.cli.self_ms": "ms",
    "cli.run_s_p50": "s",
}

# ROADMAP item 1 baseline (best-of-N on a 2-vCPU host), for the cross-check column.
ROADMAP_BASELINE = {
    "solvers.rk4_forward_ms": "3.7-5.2",
    "adjoint.rk4_reverse_ms": "6.0",
    "model.train_step_ms_discrete": "9.9",
    "model.train_step_us_baseline": "50",
    "model.evaluate_ms_rk4": "50",
    "data.extract_features_ms": "144",
}


def machine_facts():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": " ".join([blas.get("name", "?"), blas.get("version", "?"),
                          *blas.get("openblas configuration", "").split()]),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def _worker(args, timeout=SUBPROCESS_TIMEOUT_S):
    """Run worker.py with ``args``; return its stdout, raising on failure."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def _median(values):
    return statistics.median(values) if values else float("nan")


def check_run(spec, result, reference):
    """Count every job, evaluate call and output check of a worker result."""
    tally = checks.Tally()
    n_train = result["n_train_rows"]
    n_val = spec["n_train"] - n_train
    jobs = [result["warmup"]] + result["jobs"] + result["traced"]
    first = result["warmup"].get("outputs")
    first_eval = None
    for i, job in enumerate(jobs):
        problems = [job["error"]] if job["error"] else []
        if not problems and spec["kind"] == "compare":
            problems = checks.compare_problems(job["outputs"])
        elif not problems and not job["ok"]:
            problems = ["job reported failure"]
        tally.op(f"job {i}", problems)
        if i > 0 and not job["error"]:
            same = job["outputs"] == first
            tally.op(f"job {i} repeats job 0 bitwise", [] if same else ["outputs differ from job 0"])
        for ev in job.get("evals", []):
            problems = [ev.get("error", "non-finite or out-of-range result")] if not ev["ok"] else []
            if ev["ok"]:
                first_eval = first_eval or ev["results"]
                if ev["results"] != first_eval:
                    problems = ["evaluate results differ between identical heads"]
            tally.op(f"job {i} evaluate", problems)

    golden = result["golden"]
    ref = reference["workloads"][spec["name"]]
    tol = reference["tolerance"][spec["name"]]
    if golden["error"]:
        problems = [golden["error"]]
    elif spec["kind"] == "compare":
        problems = checks.compare_problems(golden["outputs"], ref, tol)
    else:
        problems = checks.series_problems(golden["outputs"]["series"], ref["series"], tol, n_train, n_val)
    tally.op(f"reference seed {reference['reference_seed']} outputs", problems)

    if "retained_floats" in result:
        p = WIDTH * (D + 1) + WIDTH + D * WIDTH + D
        got = result["retained_floats"]
        tally.op("adjoint retained floats", [] if got == 2 * D + p else [f"{got} != 2d+p = {2 * D + p}"])
    return tally


def end_to_end(result, setup):
    jobs = [j for j in result["jobs"] if j["ok"]]
    epochs = [ms for j in jobs for ms in j["epoch_ms"]]
    evals = [ev["rows"] / ev["s"] for j in jobs for ev in j.get("evals", []) if ev["ok"]]
    values = {
        "setup_s": (_median(setup), len(setup)),
        "epoch_ms_p50": (_median(epochs), len(epochs)),
        "eval_rows_per_s": (_median(evals), len(evals)),
        "wall_s": (_median([j["wall_s"] for j in jobs]), len(jobs)),
        "peak_rss_mb": (result["maxrss_kb"] / 1024.0, 1),
    }
    return values


def per_layer(spec, result, cold, setup_bytes):
    m = dict(result["probes"])
    m.update(result["trace"])
    m["data.extractor_init_cold_ms"] = _median([c["cold_s"] for c in cold]) * 1e3
    # bytes nodehead's loaders read in set-up plus one job
    m["data.bytes_read"] = setup_bytes + m.pop("trace.bytes_read_per_job")
    untraced = _median([j["wall_s"] for j in result["jobs"] if j["ok"]])
    traced = _median([j["wall_s"] for j in result["traced"] if j["ok"]])
    m["trace.overhead_ratio"] = traced / untraced - 1.0
    jobs = [j for j in result["jobs"] if j["ok"]]
    if spec["kind"] == "compare":
        nfe = _median([j["outputs"]["n_feval"] for j in jobs])
        rows = result["n_train_rows"] * spec["epochs"] * len(spec["seeds"])  # node runs only
    else:
        nfe = _median([sum(row[4] for row in j["outputs"]["series"]) for j in jobs])
        rows = result["n_train_rows"] * spec["epochs"]
    m["nfe_per_train_row"] = nfe / rows
    return {k: (v, None) for k, v in m.items()}


def print_table(title, values, units):
    print(title)
    for name, (value, n) in values.items():
        unit = units.get(name, "")
        samples = f"  n={n}" if n is not None else ""
        mark = f"  (ROADMAP baseline {ROADMAP_BASELINE[name]})" if name in ROADMAP_BASELINE else ""
        print(f"  {name:<38}{value:>16.6g} {unit:<8}{samples}{mark}")


def run(args):
    root = Path.cwd()
    src = root / "src"
    if not (src / "nodehead" / "__init__.py").is_file():
        print(f"run.py: no nodehead sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    bench_dir = root / ".bench_work"
    work = bench_dir / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        paths = gen.generate(spec, args.seed, work / "inputs")
        ref_paths = gen.generate(spec, REFERENCE_SEED, work / "reference")
        common = ["--src", str(src), "--workload", args.workload,
                  "--train", str(paths["train"]), "--test", str(paths["test"])]
        setup = [json.loads(_worker(["setup", *common]).splitlines()[-1])["setup_s"]
                 for _ in range(SETUP_SAMPLES)]
        run_args = ["run", *common, "--scratch", str(work / "jobs"), "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--ref-train", str(ref_paths["train"]), "--ref-test", str(ref_paths["test"]),
                    "--out", str(work / "result.json")]
        cold = []
        if args.trace:
            probe = gen.generate_probe_files(args.seed, work / "probe", PROBE_IMAGES, D)
            traces = bench_dir / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            trace_file = traces / f"{args.workload}-seed{args.seed}.jsonl"
            run_args += ["--probe-cifar", str(probe["cifar"]), "--probe-nodf", str(probe["nodf"]),
                         "--trace-file", str(trace_file)]
            cold = [json.loads(_worker(["cold", "--src", str(src)]).splitlines()[-1])
                    for _ in range(COLD_SAMPLES)]
        _worker(run_args, timeout=args.seconds + SUBPROCESS_TIMEOUT_S)
        result = json.loads((work / "result.json").read_text())
        tally = check_run(spec, result, checks.load_reference())

        print(f"nodehead benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace}")
        facts = machine_facts()
        print("machine: " + json.dumps(facts))
        print(f"load: closed loop, 1 client; {len(result['jobs'])} measured jobs "
              f"(+1 warm-up, {len(result['traced'])} traced)")
        if args.trace:
            setup_files = [paths["test"]] if spec["kind"] == "compare" else [paths["train"], paths["test"]]
            values = per_layer(spec, result, cold, sum(os.path.getsize(p) for p in setup_files))
            print_table("per-layer metrics (probes at n=64, d=64, width=64; trace per job):",
                        values, {**PER_LAYER, **TRACE_ONLY})
            (traces / f"{args.workload}-seed{args.seed}.summary.json").write_text(json.dumps(
                {"machine": facts, "metrics": {k: v for k, (v, _) in values.items()}}, indent=1))
            names = PER_LAYER
        else:
            values = end_to_end(result, setup)
            print_table("end-to-end metrics (median, n = samples):", values, END_TO_END)
            names = END_TO_END
        print(f"checks: {tally.attempted - tally.failed}/{tally.attempted} operations passed")
        for problem in tally.problems[:20]:
            print(f"  FAILED {problem}")
        metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in names.items()}
        if not all(math.isfinite(m["value"]) for m in metrics.values()):
            print("run.py: no successful job to measure; no result", file=sys.stderr)
            return 1
        print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                          "failed": tally.failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit unwinds through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
