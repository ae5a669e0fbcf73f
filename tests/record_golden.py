"""Record ``golden.json``: the hashes of a fixed command set's outputs.

    PYTHONPATH=src python3 tests/record_golden.py

Run from the root of a source checkout. ``tests/test_golden.py`` reruns the
same commands and compares every output with the record, so "outputs are
byte-identical" is checked, not claimed. Re-record only when a change is
meant to alter arithmetic; the script prints each entry that moved and, for
checkpoints, the largest absolute change of a parameter, which the change's
description should name. The record holds the ``nodehead.__version__`` it
was made at, and the script refuses to write moved entries under the
version the record already holds: a manifest recorded before the move would
no longer replay bitwise, so ``__version__`` is bumped first and ``rerun``
refuses the older manifests.

The commands run on a 300-row CIFAR-layout corpus at ``--feature-dim 16
--width 16``: a baseline, a discrete-node and an adjoint-node ``train``, a
2-seed ``compare`` with ``--test-data``, ``sweep-tol`` and ``gradcheck``.
Columns that hold wall-clock time are blanked or dropped before hashing.

Bitwise results hold only where numpy's and the BLAS's kernels round alike,
so the record keeps a measured fingerprint of them (:func:`fingerprint`). On
another fingerprint the test compares the checkpoints' parameters within
``FLOAT_RTOL``/``FLOAT_ATOL`` instead.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from conftest import make_class_corpus
from nodehead import __version__
from nodehead.cli import main
from nodehead.model import head_to_flat, load_checkpoint

GOLDEN = Path(__file__).resolve().parent / "golden.json"

# the parameter tolerance used when the fingerprint differs from the record's
FLOAT_RTOL = 1e-8
FLOAT_ATOL = 1e-11

_DIMS = ["--feature-dim", "16", "--width", "16"]
# (name, argv); {data}, {test} and {out} are filled in by run_commands
COMMANDS = [
    ("train-baseline", ["train", "--head", "baseline", "--epochs", "3", "--data", "{data}"] + _DIMS),
    ("train-discrete", ["train", "--head", "node", "--grad", "discrete", "--epochs", "3",
                        "--n-steps", "4", "--data", "{data}"] + _DIMS),
    ("train-adjoint", ["train", "--head", "node", "--grad", "adjoint", "--epochs", "2",
                       "--scale", "2.0", "--limit", "60", "--data", "{data}"] + _DIMS),
    ("compare", ["compare", "--seeds", "0,1", "--epochs", "6", "--window", "3", "--n-steps", "4",
                 "--data", "{data}", "--test-data", "{test}"] + _DIMS),
    ("sweep-tol", ["sweep-tol", "--tols", "1e-3,1e-5,1e-7", "--scale", "2.0", "--limit", "60",
                   "--data", "{data}"] + _DIMS),
    ("gradcheck", ["gradcheck"]),
]


def fingerprint():
    """The numpy version and the sha256 of a few fixed float64 results at the
    command set's shapes and operand layouts: the extractor's GEMM of a
    150-row block by the transposed (16, 3072) projection, the field's
    (64, 17) @ (17, 16) GEMM, and ``tanh``, ``exp`` and ``log`` of a (64, 16)
    batch.

    The kernels are measured rather than named: a BLAS built for several
    CPUs reports one build name whichever kernel it runs, so two hosts can
    share a name and still round apart.
    """
    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 16))
    results = {
        "gemm_extractor": rng.random((150, 3072)) @ rng.standard_normal((16, 3072)).T,
        "gemm_field": rng.standard_normal((64, 17)) @ rng.standard_normal((17, 16)),
        "tanh": np.tanh(x),
        "exp": np.exp(x),
        "log": np.log(np.abs(x)),
    }
    return {"numpy": np.__version__, **{name: _sha(r.tobytes()) for name, r in results.items()}}


def _drop_column(text, name):
    rows = [line.split(",") for line in text.splitlines()]
    i = rows[0].index(name)
    return "\n".join(",".join(r[:i] + r[i + 1:]) for r in rows) + "\n"


def _blank_column(text, name):
    rows = [line.split(",") for line in text.splitlines()]
    i = rows[0].index(name)
    for r in rows[1:]:
        r[i] = ""
    return "\n".join(",".join(r) for r in rows) + "\n"


def _blank_summary_wall(text):
    """``summary.txt`` with its fixed-width ``wall_s`` field blanked in each row."""
    lines = text.splitlines()
    header = lines[1]
    start = header.index("mean_std(val_loss)") + len("mean_std(val_loss)")
    end = header.index("wall_s") + len("wall_s")
    return "\n".join(lines[:2] + [ln[:start] + " " * (end - start) + ln[end:] for ln in lines[2:-1]]
                     + lines[-1:]) + "\n"


# text output file name -> the normalization applied before hashing; a
# head.nodc checkpoint is hashed as it is
_NORMALIZE = {
    "metrics.csv": lambda text: _blank_column(text, "wall_ms"),
    "stability.csv": lambda text: text,
    "comparison.csv": lambda text: _drop_column(text, "total_wall_s"),
    "summary.txt": _blank_summary_wall,
    "sweep.csv": lambda text: _drop_column(text, "wall_ms"),
}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def run_commands(root):
    """Run the command set under ``root``; returns (hashes, checkpoints).

    ``hashes`` maps each entry (``<command>/<relative path>``, and one
    ``gradcheck/<pair>`` entry per row of gradcheck's table) to the sha256
    of its normalized bytes; ``checkpoints`` maps each ``head.nodc`` entry
    to its flat parameters.
    """
    root = Path(root)
    data = make_class_corpus(root / "train.bin", 300, seed=3, noise=60.0)
    test = make_class_corpus(root / "test.bin", 100, seed=4, noise=60.0, template_seed=3)
    hashes, checkpoints = {}, {}
    for name, argv in COMMANDS:
        out = root / name
        args = [a.format(data=data, test=test, out=out) for a in argv] + ["--out", str(out)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(args)
        if code != 0:
            raise RuntimeError(f"{name} exited {code}: {' '.join(args)}")
        if name == "gradcheck":
            for row in stdout.getvalue().splitlines()[1:]:
                hashes[f"{name}/{row.split()[0]}"] = _sha(row.encode())
            continue
        for path in sorted(out.rglob("*")):
            key = f"{name}/{path.relative_to(out).as_posix()}"
            if path.name == "head.nodc":
                hashes[key] = _sha(path.read_bytes())
                checkpoints[key] = head_to_flat(load_checkpoint(path)).tolist()
            elif path.name in _NORMALIZE:
                hashes[key] = _sha(_NORMALIZE[path.name](path.read_text()).encode())
    return hashes, checkpoints


def load():
    return json.loads(GOLDEN.read_text())


def moved(hashes, checkpoints, record):
    """The entries whose hash differs from ``record``'s, each checkpoint with
    the largest absolute change of its parameters."""
    out = []
    for key, value in hashes.items():
        if record["hashes"].get(key) != value:
            if key in checkpoints and key in record["checkpoints"]:
                delta = np.abs(np.subtract(checkpoints[key], record["checkpoints"][key])).max()
                key += f" (largest |delta| {delta:.3e})"
            out.append(key)
    return out


def main_record():
    """Record the command set's outputs; returns 1, writing nothing, when an
    entry moved and the record already holds this ``__version__``."""
    with tempfile.TemporaryDirectory() as tmp:
        hashes, checkpoints = run_commands(tmp)
    if GOLDEN.exists():
        record = load()
        entries = moved(hashes, checkpoints, record)
        for entry in entries:
            print(f"moved: {entry}")
        if entries and record.get("version") == __version__:
            print(f"{len(entries)} entries moved under the recorded version {__version__}: bump "
                  f"nodehead.__version__ before re-recording", file=sys.stderr)
            return 1
    GOLDEN.write_text(json.dumps({"version": __version__, "fingerprint": fingerprint(), "hashes": hashes,
                                  "checkpoints": checkpoints}, indent=1) + "\n")
    print(f"recorded {len(hashes)} entries in {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main_record())
