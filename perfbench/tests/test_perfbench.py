"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q

Run from the repository root.
"""

import copy
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# ---------------------------------------------------------------------------
# self-time arithmetic


def test_self_times_of_nested_spans():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9] with 1.5 s of leaves
    recs = [
        ["root", "train", 0.0, 10.0, spans.ROOT],
        ["a", "model", 1.0, 4.0, 0],
        ["b", "solvers", 2.0, 3.0, 1],
        ["c", "adjoint", 5.0, 9.0, 0],
    ]
    leaves = {(3, "vjp", "dynamics"): [3, 1.5]}
    assert spans.self_times(recs, leaves) == pytest.approx([3.0, 2.0, 1.0, 2.5])
    assert spans.module_self_times(recs, leaves) == pytest.approx(
        {"train": 3.0, "model": 2.0, "solvers": 1.0, "adjoint": 2.5, "dynamics": 1.5})


def test_self_time_counts_overlapping_children_once():
    recs = [["p", "cli", 0.0, 10.0, spans.ROOT],
            ["x", "train", 1.0, 6.0, 0],
            ["y", "train", 4.0, 8.0, 0]]
    assert spans.self_times(recs, {})[0] == pytest.approx(3.0)


def test_tracer_records_parents_and_leaves():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.leaf("dynamics.f", "dynamics", lambda: None)
    inner = tracer.span("solvers.solve", "solvers", lambda: [leaf(), leaf()])
    outer = tracer.span("model.step", "model", inner)
    outer()
    assert [(r[0], r[4]) for r in tracer.spans] == [("model.step", spans.ROOT), ("solvers.solve", 0)]
    assert tracer.leaves == {(1, "dynamics.f", "dynamics"): [2, 2.0]}
    # outer 0..7, inner 1..6 with leaves 2..3 and 4..5
    assert spans.self_times(tracer.spans, tracer.leaves) == pytest.approx([2.0, 3.0])


# ---------------------------------------------------------------------------
# generator


@pytest.mark.parametrize("name", ["discrete-train", "adjoint-train"])
def test_generator_is_deterministic_per_seed(tmp_path, name):
    spec = dict(WORKLOADS[name], n_train=40, n_test=12)

    def blobs(seed, sub):
        paths = gen.generate(spec, seed, tmp_path / sub)
        return {k: p.read_bytes() for k, p in paths.items()}

    first = blobs(3, "a")
    assert blobs(3, "b") == first
    assert blobs(4, "c") != first
    if spec["data"] == "cifar":
        assert len(first["train"]) == 40 * 3073
        assert max(first["train"][::3073]) <= 9
    else:
        assert first["train"][:4] == b"NODF"


# ---------------------------------------------------------------------------
# metric names and BENCHMARK.json


def test_metric_names_and_units_are_well_formed():
    names = {**run.END_TO_END, **run.PER_LAYER, **run.TRACE_ONLY}
    for name, unit in names.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert max(m["bound"] for m in spec["end_to_end"]) <= 0.25


# ---------------------------------------------------------------------------
# output checks

SERIES = [[2.2, 0.2, 2.1, 0.3, 100], [2.0, 0.4, 1.9, 0.6, 100]]
TOL = {"loss_rel": 1e-6, "acc_rows": 1}


def test_series_check_passes_the_reference_and_catches_corruption():
    assert checks.series_problems(SERIES, SERIES, TOL, 90, 10) == []
    bad = copy.deepcopy(SERIES)
    bad[1][2] *= 1 + 1e-4
    assert checks.series_problems(bad, SERIES, TOL, 90, 10)
    bad = copy.deepcopy(SERIES)
    bad[0][3] += 2 / 10
    assert checks.series_problems(bad, SERIES, TOL, 90, 10)
    assert checks.series_problems(SERIES[:1], SERIES, TOL, 90, 10)


def _compare_outputs(code=0, flag="ok", verdict="node head wins in 1 of 2 decided seeds"):
    return {"exit_code": code, "verdict": verdict,
            "rows": [["0", "baseline", "0.5", flag], ["0", "node", "0.6", "ok"]]}


def test_compare_check_catches_exit_code_flags_and_verdict():
    ref = _compare_outputs()
    tol = {"cell_rel": 2e-5}
    assert checks.compare_problems(_compare_outputs(), ref, tol) == []
    assert checks.compare_problems(_compare_outputs(code=3), ref, tol)
    assert checks.compare_problems(_compare_outputs(flag="failed-exit-3"))
    assert checks.compare_problems(_compare_outputs(verdict="node head wins in 2 of 2"), ref, tol)
    changed = _compare_outputs()
    changed["rows"][1][2] = "0.61"
    assert checks.compare_problems(changed, ref, tol)


def _result(series):
    job = {"ok": True, "error": None, "wall_s": 1.0, "epoch_ms": [1.0, 1.0],
           "outputs": {"series": series},
           "evals": [{"ok": True, "s": 0.1, "rows": 10, "results": [[1.0, 0.5]]}]}
    return {"n_train_rows": 90, "warmup": job, "jobs": [copy.deepcopy(job)], "traced": [],
            "golden": {"ok": True, "error": None, "outputs": {"series": copy.deepcopy(series)}}}


def test_check_run_counts_a_corrupted_job_and_reference():
    spec = dict(WORKLOADS["discrete-train"], n_train=100)
    reference = {"reference_seed": 0, "tolerance": {"discrete-train": TOL},
                 "workloads": {"discrete-train": {"series": SERIES}}}
    assert run.check_run(spec, _result(SERIES), reference).failed == 0

    corrupted = _result(SERIES)
    corrupted["jobs"][0]["outputs"]["series"] = [[9.9, 0.2, 2.1, 0.3, 100], SERIES[1]]
    assert run.check_run(spec, corrupted, reference).failed == 1

    corrupted = _result(SERIES)
    corrupted["golden"]["outputs"]["series"][0][0] = 2.3
    assert run.check_run(spec, corrupted, reference).failed == 1

    failed = _result(SERIES)
    failed["jobs"][0].update(ok=False, error="NumericError: boom")
    assert run.check_run(spec, failed, reference).failed == 1


# ---------------------------------------------------------------------------
# tracing leaves outputs unchanged


def test_tracing_leaves_outputs_bitwise_unchanged():
    program = worker.Program(ROOT / "src")
    rng = np.random.default_rng(0)
    ds = program.data.Dataset(np.tanh(rng.standard_normal((48, 6))), rng.integers(0, 10, 48))
    solvers = program.solvers
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _ in spans.SITES + spans.LEAF_SITES}

    def series(grad):
        cfg = program.train.TrainConfig(
            epochs=2, batch_size=16, grad_method=grad, width=5, init_scale=2.0,
            solver=solvers.SolverConfig(method="rk4_fixed" if grad == "discrete" else "dopri5", n_steps=4))
        head, records = program.train.train("node", ds, cfg)
        return program.model.head_to_flat(head).tobytes(), [
            (r.train_loss, r.train_acc, r.val_loss, r.val_acc, r.n_feval) for r in records]

    for grad in ("discrete", "adjoint"):
        plain = series(grad)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = series(grad)
        finally:
            tracer.uninstall()
        assert traced == plain
        assert any(r[0] == "solvers.integrate_adaptive" for r in tracer.spans) == (grad == "adjoint")
        assert tracer.leaves
    assert {(m, a): getattr(sys.modules[m], a) for m, a in originals} == originals
