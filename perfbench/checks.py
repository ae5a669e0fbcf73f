"""Output checks. Each returns a list of problems; an empty list is a pass.

Every job, every evaluate call and every check below is one attempted
operation; an operation fails if it raised, exited non-zero, returned a
non-finite value, or failed its check.
"""

import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def load_reference():
    return json.loads(REFERENCE.read_text())


def _rel_ok(got, ref, rel):
    return abs(got - ref) <= rel * abs(ref)


def series_problems(got, ref, tol, n_train_rows, n_val_rows):
    """Compare a per-epoch [train_loss, train_acc, val_loss, val_acc, n_feval]
    series with the reference.

    Losses must agree to ``tol["loss_rel"]`` relative; accuracies may differ
    by ``tol["acc_rows"]`` rows of their split. n_feval is not compared: it
    is reported as a metric, and step-control changes are meant to move it.
    """
    if len(got) != len(ref):
        return [f"{len(got)} epochs, reference has {len(ref)}"]
    problems = []
    acc_tol = {1: tol["acc_rows"] / n_train_rows, 3: tol["acc_rows"] / n_val_rows}
    names = ("train_loss", "train_acc", "val_loss", "val_acc")
    for epoch, (g, r) in enumerate(zip(got, ref), start=1):
        for i, name in enumerate(names):
            ok = _rel_ok(g[i], r[i], tol["loss_rel"]) if i in (0, 2) else abs(g[i] - r[i]) <= acc_tol[i] + 1e-12
            if not ok:
                problems.append(f"epoch {epoch} {name} {g[i]!r} vs reference {r[i]!r}")
    return problems


def compare_problems(outputs, ref=None, tol=None):
    """A compare run must exit 0 with every comparison.csv flag ``ok``; against a
    reference it must also give the recorded verdict and table."""
    if outputs.get("exit_code") != 0:
        return [f"compare exited {outputs.get('exit_code')}"]
    problems = [f"run flagged {row[-1]}: {row}" for row in outputs["rows"] if row[-1] != "ok"]
    if ref is None:
        return problems
    if outputs["verdict"] != ref["verdict"]:
        problems.append(f"verdict {outputs['verdict']!r} vs reference {ref['verdict']!r}")
    if len(outputs["rows"]) != len(ref["rows"]):
        return problems + [f"{len(outputs['rows'])} rows, reference has {len(ref['rows'])}"]
    for row, ref_row in zip(outputs["rows"], ref["rows"]):
        for cell, ref_cell in zip(row, ref_row):
            try:
                ok = _rel_ok(float(cell), float(ref_cell), tol["cell_rel"])
            except ValueError:
                ok = cell == ref_cell
            if not ok:
                problems.append(f"cell {cell!r} vs reference {ref_cell!r} in row {ref_row}")
    return problems


class Tally:
    """Counts attempted and failed operations and keeps the first problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:3])
