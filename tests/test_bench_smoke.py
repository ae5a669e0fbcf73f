"""The benchmark harness runs end to end against the package in ``src``.

One short traced ``adjoint-train`` run reaches every layer probe (the
single-state dynamics calls, the dopri5 and adjoint solves) and the
adjoint reference check, which no other test exercises. One short traced
``discrete-train`` run checks the fixed-step RK4 kernel and its reverse
pass against the recorded reference series. A traced run patches every
tracer site, so either run also fails if a site no longer resolves. One
short untraced ``baseline-train`` run checks the linear head's output tail
and the optimizer loop against that workload's reference series. One short
untraced ``compare`` run checks the CLI's CIFAR ingest (``--data`` with
``--test-data``) against the recorded verdict and table.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def bench_run(workload, trace=1):
    """Last JSON line of a 1-second run of ``workload`` with seed 1, traced
    unless ``trace`` is 0."""
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.strip().splitlines()[-1]), result.stdout


def test_traced_adjoint_train_run_passes_its_checks():
    last, stdout = bench_run("adjoint-train")
    assert last["correct"] is True and last["failed"] == 0, stdout[-2000:]


def test_traced_discrete_train_run_passes_its_checks():
    last, stdout = bench_run("discrete-train")
    assert last["correct"] is True and last["failed"] == 0, stdout[-2000:]


def test_untraced_baseline_train_run_passes_its_checks():
    last, stdout = bench_run("baseline-train", trace=0)
    assert last["correct"] is True and last["failed"] == 0, stdout[-2000:]


def test_untraced_compare_run_passes_its_checks():
    last, stdout = bench_run("compare", trace=0)
    assert last["correct"] is True and last["failed"] == 0, stdout[-2000:]
