"""The golden-output gate: a fixed command set reproduces its recorded outputs.

``tests/record_golden.py`` holds the commands, the output normalization and
the recorder. On the fingerprint the record was made on, every output must
hash as recorded. On another fingerprint (another numpy version, or a
measured kernel result that rounds differently), the checkpoints'
parameters are compared within the stated tolerance instead, and a warning
says so; the test never skips.
"""

import json
import warnings

import numpy as np
import pytest

import nodehead
import record_golden as rg


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return rg.run_commands(tmp_path_factory.mktemp("golden"))


def check(hashes, checkpoints, record, fingerprint):
    """The entries that do not match ``record``: by hash on the recorded
    fingerprint, by checkpoint parameters within the tolerance on another."""
    if fingerprint == record["fingerprint"]:
        assert set(hashes) == set(record["hashes"]), "the command set's outputs changed"
        return rg.moved(hashes, checkpoints, record)
    warnings.warn(
        f"fingerprint {fingerprint} differs from the record's {record['fingerprint']}: checkpoint "
        f"parameters compared within rtol={rg.FLOAT_RTOL}, atol={rg.FLOAT_ATOL}, text outputs not compared"
    )
    assert set(checkpoints) == set(record["checkpoints"]), "the command set's checkpoints changed"
    return [key for key, flat in checkpoints.items()
            if not np.allclose(flat, record["checkpoints"][key], rtol=rg.FLOAT_RTOL, atol=rg.FLOAT_ATOL)]


def test_outputs_match_the_golden_record(outputs):
    moved = check(*outputs, rg.load(), rg.fingerprint())
    assert not moved, ("outputs moved from tests/golden.json (re-record with tests/record_golden.py "
                       "only if the arithmetic was meant to change):\n" + "\n".join(moved))


def test_another_fingerprint_compares_checkpoint_floats(outputs, monkeypatch):
    record = rg.load()
    # a tanh that rounds one ulp up measures as another fingerprint
    here = rg.fingerprint()
    tanh = np.tanh
    monkeypatch.setattr(np, "tanh", lambda x: np.nextafter(tanh(x), np.inf))
    other = rg.fingerprint()
    monkeypatch.undo()
    assert {key for key in here if here[key] != other[key]} == {"tanh"}
    with pytest.warns(UserWarning, match="checkpoint parameters compared within"):
        assert check(*outputs, record, other) == []
    hashes, checkpoints = outputs
    key = next(iter(checkpoints))
    nudged = {**checkpoints, key: np.add(checkpoints[key], 1e-6).tolist()}
    with pytest.warns(UserWarning):
        assert check(hashes, nudged, record, other) == [key]


def test_the_record_is_of_this_version():
    # a moved hash comes with a version bump, so the record and the package move together
    assert rg.load()["version"] == nodehead.__version__


# the current version's case has a fixed id, so a version bump does not rename it
@pytest.mark.parametrize("version, code", [pytest.param(nodehead.__version__, 1, id="this-version"), ("0.0.0", 0)])
def test_moved_entries_are_recorded_only_under_a_new_version(version, code, tmp_path, monkeypatch, capsys):
    record = {"version": version, "fingerprint": rg.fingerprint(),
              "hashes": {"train/head.nodc": "0" * 64}, "checkpoints": {"train/head.nodc": [0.0]}}
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps(record))
    monkeypatch.setattr(rg, "GOLDEN", golden)
    monkeypatch.setattr(rg, "run_commands", lambda root: ({"train/head.nodc": "1" * 64}, {"train/head.nodc": [0.5]}))
    assert rg.main_record() == code
    assert "moved: train/head.nodc (largest |delta| 5.000e-01)" in capsys.readouterr().out
    assert (json.loads(golden.read_text()) == record) == (code == 1)
