"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. The desk-scale stability
reproduction (criterion 6) trains 2 heads x 5 seeds x 60 epochs and takes a
few minutes; everything else is seconds.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import reference as ref
from conftest import make_class_corpus
from nodehead.adjoint import adjoint_solve, backprop_rk4_batch
from nodehead.cli import main
from nodehead.data import Dataset, load_feature_file, save_feature_file
from nodehead.dynamics import init_params, unflatten
from nodehead.model import (
    forward,
    head_to_flat,
    init_baseline_head,
    init_node_head,
    load_checkpoint,
    save_checkpoint,
)
from nodehead.solvers import SolverConfig, integrate_adaptive, solve_fixed_batch
from nodehead.train import read_metrics_csv


@contextmanager
def criterion(num, title, budget_s):
    tic = time.monotonic()
    try:
        yield
    except Exception:
        print(f"\n[FAIL] criterion {num}: {title}")
        raise
    elapsed = time.monotonic() - tic
    print(f"\n[PASS] criterion {num}: {title} ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s runtime budget"


def agrees(a, b, rel=1e-4, abs_tol=1e-6):
    diff = np.abs(a - b)
    scale = np.maximum(np.abs(a), np.abs(b))
    return bool(np.all((diff <= abs_tol) | (diff <= rel * scale)))


# criterion 6/7 share one compare run; the corpus mimics CIFAR difficulty
# (template classes + heavy pixel noise + 10% label re-rolls -> val acc ~0.9)
COMPARE_FLAGS = [
    "--epochs", "60", "--val-fraction", str(1 / 6), "--batch-size", "64",
    "--window", "10", "--feature-dim", "64", "--width", "64", "--n-steps", "16",
    "--grad", "discrete",
]


@pytest.fixture(scope="module")
def desk_scale_compare(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    train_bin = make_class_corpus(root / "train6k.bin", 6000, seed=7, noise=120.0, label_noise=0.10)
    # held-out rows of the training classes: seed 8's rows around seed 7's templates
    test_bin = make_class_corpus(root / "test1k.bin", 1000, seed=8, noise=120.0, label_noise=0.10,
                                 template_seed=7)
    out = root / "compare"
    tic = time.monotonic()
    code = main(["compare", "--seeds", "0,1,2,3,4", "--data", str(train_bin),
                 "--test-data", str(test_bin), "--out", str(out)] + COMPARE_FLAGS)
    return out, code, time.monotonic() - tic


def test_criterion_1_gradient_consistency_triangle():
    """FD, discrete (n=2000), and adjoint (1e-8) gradients agree pairwise."""
    dims = [(2, 3), (3, 4), (4, 8), (2, 6), (3, 8), (4, 4), (2, 8), (3, 3), (4, 6), (2, 5)]
    with criterion(1, "gradient consistency triangle (10 instances)", budget_s=30):
        for seed, (d, width) in zip(range(10), dims):
            gen = np.random.default_rng(seed)
            params = init_params(seed, d, width, scale=0.8)
            h0 = gen.standard_normal(d)
            c = gen.standard_normal(d)

            hT, traj = solve_fixed_batch(params, h0[None], 0.0, 1.0, 2000)
            disc_h0, disc_params = backprop_rk4_batch(params, traj, c[None])
            adj = adjoint_solve(params, hT[0], c, 0.0, 1.0, SolverConfig(rtol=1e-8, atol=1e-8))

            # FD baseline over the n=200 discrete map (agrees with the n=2000
            # map far below the tolerance gate; see decisions ledger)
            def terminal(p, h):
                out, _ = solve_fixed_batch(p, h[None], 0.0, 1.0, 200)
                return float(c @ out[0])

            step = 1e-5
            fd_h0 = np.zeros(d)
            for i in range(d):
                e = np.zeros(d)
                e[i] = step
                fd_h0[i] = (terminal(params, h0 + e) - terminal(params, h0 - e)) / (2 * step)
            flat = params.flatten()
            fd_params = np.zeros_like(flat)
            for i in range(flat.size):
                e = np.zeros_like(flat)
                e[i] = step
                fd_params[i] = (
                    terminal(unflatten(flat + e, d, width), h0)
                    - terminal(unflatten(flat - e, d, width), h0)
                ) / (2 * step)

            for a, b in [
                (disc_h0[0], adj.d_h0), (disc_h0[0], fd_h0), (adj.d_h0, fd_h0),
                (disc_params, adj.d_params), (disc_params, fd_params),
                (adj.d_params, fd_params),
            ]:
                assert agrees(a, b), f"seed {seed} (d={d}, width={width}) disagrees"


def test_criterion_2_solver_oracles():
    """Closed-form decay/rotation accuracy and 4th-order RK4 convergence."""
    with criterion(2, "solver oracle accuracy", budget_s=5):
        cfg = SolverConfig(rtol=1e-5, atol=1e-5)
        (hT,), _ = integrate_adaptive(lambda h, t: -h, np.array([[1.0]]), 0.0, 1.0, cfg)
        assert abs(hT[0] - 0.3678794412) <= 1e-4

        rot = lambda h, t: np.stack([-h[:, 1], h[:, 0]], axis=1)
        (hT,), _ = integrate_adaptive(rot, np.array([[1.0, 0.0]]), 0.0, 2 * np.pi, cfg)
        assert np.linalg.norm(hT - np.array([1.0, 0.0])) <= 1e-4
        assert abs(np.linalg.norm(hT) - 1.0) <= 1e-4

        err = {}
        for n in (100, 200):
            out, _ = solve_fixed_batch(ref.LinearField(1.0), np.array([[1.0]]), 0.0, 1.0, n)
            err[n] = abs(out[0, 0] - np.e)
        assert 8.0 <= err[100] / err[200] <= 32.0


def test_criterion_3_tolerance_cost_tradeoff():
    """Tightening rtol=atol raises n_feval; logits stay consistent."""
    with criterion(3, "tolerance-cost trade-off", budget_s=10):
        head = init_node_head(0, 8, 3, width=16, scale=3.0)
        x = np.random.default_rng(1).standard_normal(8)
        fevals = []
        logits_by_tol = {}
        for tol in (1e-3, 1e-5, 1e-7, 1e-9):
            logits, stats = forward(head, x[None], SolverConfig(rtol=tol, atol=tol))
            fevals.append(stats.n_feval)
            logits_by_tol[tol] = logits
        swept = fevals[:3]
        assert swept[0] <= swept[1] <= swept[2], f"n_feval not monotone: {swept}"
        assert swept[2] > swept[0], f"no cost increase across tolerances: {swept}"
        assert np.abs(logits_by_tol[1e-5] - logits_by_tol[1e-9]).max() <= 1e-3


def test_criterion_4_node_identity_equivalence():
    """Zero dynamics parameters make the NODE head the baseline exactly."""
    with criterion(4, "NODE-identity equivalence (100 vectors)", budget_s=1):
        node = init_node_head(3, 6, 4, width=8, scale=0.0)
        base = init_baseline_head(3, 6, 4)
        gen = np.random.default_rng(42)
        cfg = SolverConfig()
        for _ in range(100):
            x = gen.standard_normal(6)
            a, _ = forward(node, x[None], cfg)
            b, _ = forward(base, x[None])
            assert np.abs(a - b).max() <= 1e-12


def test_criterion_5_adjoint_memory_contract():
    """Backward pass retains one augmented vector of size 2d + p."""
    with criterion(5, "adjoint O(1) memory contract", budget_s=5):
        params = init_params(5, 3, 4, scale=1.5)
        h0 = np.random.default_rng(7).standard_normal(3)
        expected = 2 * 3 + params.n_params
        sizes, fevals = [], []
        for tol in (1e-3, 1e-12):
            hT, _ = solve_fixed_batch(params, h0[None], 0.0, 1.0, 400)
            res = adjoint_solve(params, hT[0], np.ones(3), 0.0, 1.0, SolverConfig(rtol=tol, atol=tol))
            sizes.append(res.retained_floats)
            fevals.append(res.stats.n_feval)
        assert fevals[1] >= 10 * fevals[0], f"feval contrast too small: {fevals}"
        assert sizes[0] == sizes[1] == expected, f"retained buffer varies: {sizes}"


def test_criterion_6_desk_scale_stability(desk_scale_compare):
    """NODE head beats the baseline on rolling-std(val loss) in >= 3/5 seeds."""
    out, code, wall_s = desk_scale_compare
    with criterion(6, f"desk-scale stability reproduction (5 seeds x 60 epochs, {wall_s:.0f}s)",
                   budget_s=1800):
        assert wall_s < 1800, f"compare run took {wall_s:.0f}s, over the 30 min target"
        # the report must exist regardless of how the majority test goes
        assert code == 0, "cmd_compare did not complete"
        assert (out / "comparison.csv").exists() and (out / "summary.txt").exists()
        for seed in range(5):
            for head in ("baseline", "node"):
                assert (out / f"seed{seed}" / head / "stability.csv").exists(), (
                    f"missing per-seed stability report for seed {seed} {head}")

        rows = (out / "comparison.csv").read_text().strip().splitlines()[1:]
        stds = {}
        for row in rows:
            cells = row.split(",")
            assert cells[8] == "ok", f"run flagged: {row}"
            assert cells[4] != "", f"missing test accuracy: {row}"
            # the test rows share the training classes, so a trained head is far above chance (0.1)
            assert float(cells[4]) > 0.5, f"test accuracy at chance: {row}"
            stds[(int(cells[0]), cells[1])] = float(cells[5])
        wins = sum(stds[(s, "node")] < stds[(s, "baseline")] for s in range(5))
        summary = (out / "summary.txt").read_text()
        assert f"in {wins} of 5 decided seeds" in summary
        assert wins >= 3, f"node head more stable in only {wins}/5 seeds (flagged in {out}/summary.txt)"


def test_criterion_7_manifest_determinism(desk_scale_compare, tmp_path):
    """Re-running a manifest reproduces the metrics CSV byte-for-byte.

    wall_ms is the one wall-clock column and is masked, per the manifest
    contract's timestamps-aside clause (see decisions ledger)."""
    out, _, _ = desk_scale_compare
    with criterion(7, "manifest re-run determinism", budget_s=120):
        source = out / "seed0" / "baseline"  # the smallest of criterion 6's runs
        assert main(["rerun", str(source / "manifest.txt"), "--out", str(tmp_path / "redo")]) == 0
        original = (source / "metrics.csv").read_text()
        redone = (tmp_path / "redo" / "metrics.csv").read_text()

        def mask(text):
            rows = [line.split(",") for line in text.strip().splitlines()]
            for row in rows[1:]:
                row[5] = ""
            return "\n".join(",".join(r) for r in rows)

        assert mask(original) == mask(redone)
        # beyond the CSV: the trained checkpoint reproduces bitwise
        assert (source / "head.nodc").read_bytes() == (tmp_path / "redo" / "head.nodc").read_bytes()


def test_criterion_8_format_round_trips(tmp_path):
    """Feature files and checkpoints are bitwise save/load identities."""
    with criterion(8, "format round-trips (100 randomized trials)", budget_s=5):
        gen = np.random.default_rng(99)
        for trial in range(50):
            n = int(gen.integers(0, 20))
            d = int(gen.integers(1, 12))
            feats = gen.standard_normal((n, d)).astype(np.float32).astype(np.float64)
            ds = Dataset(feats, gen.integers(0, 10, n))
            path = tmp_path / f"f{trial}.nodf"
            save_feature_file(ds, path)
            loaded = load_feature_file(path)
            np.testing.assert_array_equal(loaded.features, ds.features)
            np.testing.assert_array_equal(loaded.labels, ds.labels)
            assert loaded.d == d
            save_feature_file(loaded, tmp_path / "again.nodf")
            assert (tmp_path / "again.nodf").read_bytes() == path.read_bytes()

        for trial in range(50):
            d = int(gen.integers(1, 10))
            classes = int(gen.integers(2, 11))
            if trial % 2 == 0:
                head = init_node_head(trial, d, classes, width=int(gen.integers(1, 12)),
                                      scale=float(gen.uniform(0, 1)))
            else:
                head = init_baseline_head(trial, d, classes)
            path = tmp_path / f"h{trial}.nodc"
            save_checkpoint(head, path)
            loaded = load_checkpoint(path)
            assert (loaded.dynamics is None) == (head.dynamics is None)
            np.testing.assert_array_equal(head_to_flat(loaded), head_to_flat(head))
            save_checkpoint(loaded, tmp_path / "again.nodc")
            assert (tmp_path / "again.nodc").read_bytes() == path.read_bytes()
