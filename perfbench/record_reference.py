"""Record ``reference.json``: each workload's outputs at the reference seed.

    python3 perfbench/record_reference.py

Run from the root of a source checkout. Re-record only when a change is
meant to alter results beyond the tolerances below, and say so in the
change's description.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import gen
from workloads import REFERENCE_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent

# Tolerances later arithmetic-changing changes are held to. At the recording
# commit every series repeats bitwise across processes.
# - RK4 and baseline paths: float64 reassociation moves a 3-10 epoch loss
#   series by far less than 1e-9 relative; 1e-6 leaves room for that and
#   still catches any real change (those move losses by 1e-3 or more).
#   Accuracies may differ by one row of their split (a near-tie flipping).
# - Adjoint path: its gradients only agree with the discrete ones to the
#   solver tolerance, and the gradient-consistency checks allow 1e-3
#   relative (gradcheck --max-rel); a change of step control (e.g. a batched
#   shared-step solve) moves results within that. Two rows may flip.
# - Compare: comparison.csv prints 6 significant digits, so cells agree to
#   2e-5 relative; the stability verdict must match exactly.
TOLERANCE = {
    "discrete-train": {"loss_rel": 1e-6, "acc_rows": 1},
    "baseline-train": {"loss_rel": 1e-6, "acc_rows": 1},
    "adjoint-train": {"loss_rel": 1e-3, "acc_rows": 2},
    "compare": {"cell_rel": 2e-5},
}


def main():
    work = Path.cwd() / ".bench_work" / "record-reference"
    src = Path.cwd() / "src"
    out = {"reference_seed": REFERENCE_SEED, "tolerance": TOLERANCE, "workloads": {}}
    try:
        for name, spec in WORKLOADS.items():
            paths = gen.generate(spec, REFERENCE_SEED, work / name)
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "golden", "--src", str(src), "--workload", name,
                 "--train", str(paths["train"]), "--test", str(paths["test"]),
                 "--scratch", str(work / name / "jobs")],
                capture_output=True, text=True, check=True)
            rec = json.loads(proc.stdout.splitlines()[-1])
            if not rec["ok"]:
                raise SystemExit(f"{name}: reference job failed: {rec['error']}")
            outputs = rec["outputs"]
            if spec["kind"] == "compare":
                out["workloads"][name] = {"verdict": outputs["verdict"], "rows": outputs["rows"]}
            else:
                out["workloads"][name] = {"series": outputs["series"]}
            print(f"{name}: recorded")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks.REFERENCE.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
