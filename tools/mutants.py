"""Apply a fixed list of small edits to copies of ``src`` and report which the tests catch.

Usage: ``python tools/mutants.py [NAME ...]`` from the root of a checkout
(default: every edit in ``EDITS``). It is not part of the test suite: one
edit costs a pytest run of a few seconds to about a minute.

For each edit the tool copies ``src`` to a temporary directory, replaces the
edit's ``old`` text, which must occur there exactly once, with ``new``, and
runs the tests mapped to the edited module (``TESTS``) against the copy with
``-x``. That run includes ``tests/test_golden.py`` except its hash test,
``test_outputs_match_the_golden_record``, so it is what the suite checks on
a host whose numpy/BLAS/CPU fingerprint differs from the record's. An edit
that run misses is then run against the hash test alone. The table, printed
as Markdown, says for each edit whether it was caught without the hashes and
with them, and names the first failing test. A survivor needs a direct test,
or a recorded reason why the edit is equivalent; dropping the edit from the
list hides it.

It first runs every mapped test on an unedited copy and stops if any fails.
Exits 1 if an edit's ``old`` text is not found exactly once, so a refactor
that moves a site shows here instead of as a survivor.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = "tests/test_golden.py"
HASH_TEST = f"{GOLDEN}::test_outputs_match_the_golden_record"

# the test files that exercise each edited module; every run adds the golden gate
TESTS = {
    "dynamics.py": ["tests/test_dynamics.py", "tests/test_solvers.py", "tests/test_adjoint.py", "tests/test_model.py"],
    "solvers.py": ["tests/test_solvers.py", "tests/test_adjoint.py", "tests/test_dynamics.py", "tests/test_model.py"],
    "model.py": ["tests/test_model.py", "tests/test_train.py", "tests/test_cli.py"],
    "train.py": ["tests/test_train.py", "tests/test_cli.py"],
    "cli.py": ["tests/test_cli.py"],
    "data.py": ["tests/test_data.py", "tests/test_cli.py"],
    "errors.py": ["tests/test_train.py", "tests/test_solvers.py"],
}

# (name, module, old, new): each a literal edit of one site in src/nodehead
EDITS = [
    ("budget-off-by-one", "solvers.py",
     "if attempts >= config.max_steps:", "if attempts > config.max_steps:"),
    ("max-factor-4", "solvers.py", "MAX_FACTOR = 5.0", "MAX_FACTOR = 4.0"),
    ("error-scale-new-state-only", "solvers.py",
     "np.maximum(np.abs(y), np.abs(y5))", "np.abs(y5)"),
    ("zero-error-no-growth", "solvers.py", "if e else MAX_FACTOR]", "if e else 1.0]"),
    ("rk4-grid-end-unpinned", "solvers.py", "    times[-1] = t1\n", ""),
    ("rk4-h0-unchecked", "solvers.py", "    require_finite(h0, t0)\n", ""),
    ("dopri5-y0-unchecked", "solvers.py", "    require_finite(y, t0)\n", ""),
    ("grid-scan-skipped", "solvers.py", "if not np.all(np.isfinite(hT)):", "if False:"),
    ("numeric-context-drops-where", "errors.py", "where=self.where)", "where=None)"),
    ("jump-as-mean", "train.py", "np.max(np.abs(np.diff(val_loss)))", "np.mean(np.abs(np.diff(val_loss)))"),
    ("eps-log-1e-11", "model.py", "EPS_LOG = 1e-12", "EPS_LOG = 1e-11"),
    ("rk4-weights-swapped", "dynamics.py",
     "RK4_B = np.array([1 / 6, 1 / 3, 1 / 3, 1 / 6])", "RK4_B = np.array([1 / 3, 1 / 6, 1 / 6, 1 / 3])"),
    ("reverse-grid-off-by-one", "dynamics.py",
     "range(len(times) - 2, -1, -1):\n            u = stages[i]",
     "range(len(times) - 2, 0, -1):\n            u = stages[i]"),
    ("field-reverse-grid-off-by-one", "dynamics.py",
     "range(len(times) - 2, -1, -1):\n            h, stages",
     "range(len(times) - 2, 0, -1):\n            h, stages"),
    ("terminal-state-drops-b2", "dynamics.py", "        out += span * self.w2b_t[width]\n", ""),
    ("reverse-sums-kept-across-passes", "dynamics.py",
     "g_M, g_m = np.zeros((width, width)), np.zeros(width)",
     'g_M, g_m = (self.__dict__.setdefault("_g_M", np.zeros((width, width))),\n'
     '                    self.__dict__.setdefault("_g_m", np.zeros(width)))'),
    ("vjp-buffers-built-by-rk4-solve", "dynamics.py",
     "        M, m = self._hidden\n        z = self.z\n",
     "        M, m = self._hidden\n        self._vjp_buffers\n        z = self.z\n"),
    ("numeric-error-exits-2", "cli.py", "NumericError: EXIT_NUMERIC}", "NumericError: EXIT_DATA}"),
    ("format-error-unmapped", "cli.py", "{FormatError: EXIT_DATA, OSError", "{OSError"),
    ("cli-fp-warnings-shown", "cli.py", 'np.errstate(all="ignore")', "np.errstate()"),
    ("feature-dim-unchecked", "cli.py", "if not 1 <= args.feature_dim <= CIFAR_PIXELS:", "if False:"),
    ("metrics-csv-decode-error-escapes", "train.py",
     "except (UnicodeDecodeError, csv.Error) as exc:", "except csv.Error as exc:"),
    ("nodf-d-0-accepted", "data.py", "if d == 0:", "if d < 0:"),
    ("nodf-version-2", "data.py", "FEATURE_VERSION = 1", "FEATURE_VERSION = 2"),
    ("header-short-unchecked", "data.py", "if len(blob) < size:", "if False:"),
    ("header-magic-unchecked", "data.py", "if blob[:4] != magic:", "if False:"),
    ("header-version-unchecked", "data.py", "if found != version:", "if False:"),
    ("metrics-csv-whole-header", "train.py", "bad header {_excerpt(','.join(rows[0]))}", "bad header {rows[0]!r}"),
    ("nodc-version-2", "model.py", "CHECKPOINT_VERSION = 1", "CHECKPOINT_VERSION = 2"),
]


def first_failure(src, args):
    """The id of the first test in ``args`` that fails with ``src`` first on the
    path, "collection" if pytest cannot collect them, or None if all pass."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider", *args]
    run = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    if run.returncode not in (0, 1, 2):
        raise RuntimeError(f"pytest exited {run.returncode} on {' '.join(args)}")
    if run.returncode == 0:
        return None
    failed = [line.split()[1] for line in run.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return failed[0] if failed else "collection"


def run_edit(module, old, new):
    """(first failure without the golden hash test, first failure with it) for
    one edit; with ``module`` None, the first failure of the unedited copy
    against every mapped test."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if module is None:
            return first_failure(src, sorted({f for files in TESTS.values() for f in files}) + [GOLDEN])
        path = src / "nodehead" / module
        text = path.read_text()
        if text.count(old) != 1:
            raise LookupError(f"{module}: expected one {old!r}, found {text.count(old)}")
        path.write_text(text.replace(old, new))
        direct = first_failure(src, TESTS[module] + [GOLDEN, "--deselect", HASH_TEST])
        return direct, direct or first_failure(src, [HASH_TEST])


def main(names):
    unknown = set(names) - {name for name, *_ in EDITS}
    if unknown:
        sys.exit(f"unknown edits: {', '.join(sorted(unknown))}")
    # a table made on a tree whose tests already fail says nothing
    failure = run_edit(None, None, None)
    if failure:
        sys.exit(f"the mapped tests fail on the unedited src: {failure}")
    print("| edit | module | without hashes | with hashes | first failing test | s |")
    print("|---|---|---|---|---|---|")
    missing = False
    for name, module, old, new in EDITS:
        if names and name not in names:
            continue
        tic = time.perf_counter()
        try:
            direct, hashed = run_edit(module, old, new)
        except LookupError as exc:
            print(f"| {name} | {module} | site not found | | {exc} | |")
            missing = True
            continue
        verdicts = ["caught" if direct else "SURVIVED", "caught" if hashed else "SURVIVED"]
        print(f"| {name} | {module} | {' | '.join(verdicts)} | {hashed or ''} "
              f"| {time.perf_counter() - tic:.0f} |", flush=True)
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
