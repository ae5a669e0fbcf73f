"""The benchmark harness runs end to end against the package in ``src``.

One short traced ``adjoint-train`` run reaches every layer probe (the
single-state dynamics calls, the dopri5 and adjoint solves) and the
adjoint reference check, which no other test exercises.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_adjoint_train_run_passes_its_checks():
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adjoint-train", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, result.stdout[-2000:]
