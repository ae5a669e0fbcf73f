import importlib
import re
import struct
from dataclasses import replace

import numpy as np
import pytest

import reference as ref
from nodehead.adjoint import backprop_rk4_batch
from nodehead.data import Dataset
from nodehead.dynamics import init_params
from nodehead.errors import ContractError, FormatError, ShapeError
from nodehead.model import (
    EPS_LOG,
    Head,
    _tail,
    evaluate,
    forward,
    head_from_flat,
    head_to_flat,
    init_baseline_head,
    init_node_head,
    load_checkpoint,
    save_checkpoint,
    softmax,
    solver_config_for,
    train_step,
)
from nodehead.solvers import SolveStats, SolverConfig, solve, solve_adaptive, solve_fixed_batch
from nodehead.train import TrainConfig, train


class TestForwardBaseline:
    def test_identity_weight_passes_features_through(self, rng):
        x = rng.standard_normal(4)
        head = Head(w_out=np.eye(4), b_out=np.zeros(4))
        np.testing.assert_array_equal(forward(head, x[None])[0][0], x)

    def test_zero_weight_gives_bias(self, rng):
        head = Head(w_out=np.zeros((3, 5)), b_out=np.array([0.1, -0.2, 0.3]))
        np.testing.assert_array_equal(forward(head, rng.standard_normal((1, 5)))[0][0], head.b_out)

    def test_matches_matmul_oracle(self, rng):
        head = init_baseline_head(2, 6, 4)
        x = rng.standard_normal(6)
        np.testing.assert_allclose(forward(head, x[None])[0][0], head.w_out @ x + head.b_out, atol=1e-14)

    def test_shape_mismatch(self):
        head = init_baseline_head(0, 4, 2)
        with pytest.raises(ShapeError):
            forward(head, np.zeros((1, 5)))


class TestForwardNode:
    def test_zero_dynamics_equals_baseline(self, rng):
        node = init_node_head(0, 5, 3, width=6, scale=0.0)
        base = init_baseline_head(0, 5, 3)
        np.testing.assert_array_equal(node.w_out, base.w_out)  # shared out-layer sub-seed
        for _ in range(20):
            x = rng.standard_normal(5)
            logits_node, _ = forward(node, x[None], SolverConfig())
            logits_base, _ = forward(base, x[None])
            np.testing.assert_allclose(logits_node, logits_base, atol=1e-12)

    def test_zero_features_zero_wout_gives_bias(self):
        node = Head(
            dynamics=init_params(0, 4, 5, scale=0.0),
            w_out=np.zeros((2, 4)),
            b_out=np.array([0.7, -0.4]),
        )
        logits, _ = forward(node, np.zeros((1, 4)), SolverConfig())
        np.testing.assert_array_equal(logits[0], node.b_out)

    def test_tolerance_controlled_consistency(self, rng):
        head = init_node_head(0, 6, 3, width=8, scale=1.0)
        x = rng.standard_normal(6)
        loose, _ = forward(head, x[None], SolverConfig(rtol=1e-5, atol=1e-5))
        tight, _ = forward(head, x[None], SolverConfig(rtol=1e-9, atol=1e-9))
        assert np.abs(loose - tight).max() <= 1e-3

    def test_solver_stats_returned(self, rng):
        head = init_node_head(1, 4, 2, width=4, scale=0.5)
        _, stats = forward(head, rng.standard_normal((1, 4)), SolverConfig())
        assert stats.n_feval > 0

    def test_fixed_method_dispatch(self, rng):
        head = init_node_head(1, 4, 2, width=4, scale=0.5)
        cfg = SolverConfig(method="rk4_fixed", n_steps=32)
        logits, stats = forward(head, rng.standard_normal((1, 4)), cfg)
        assert stats.n_feval == 4 * 32
        assert np.all(np.isfinite(logits))

    def test_logit_shift_leaves_argmax(self, rng):
        head = init_node_head(3, 5, 4, width=6, scale=0.4)
        x = rng.standard_normal(5)
        logits, _ = forward(head, x[None], SolverConfig())
        shifted = logits + 7.3
        assert np.argmax(softmax(logits)) == np.argmax(softmax(shifted))


class TestLossAndGrads:
    def test_perfectly_classified_sample_is_stationary(self):
        # a huge margin drives prob -> 1: loss ~ 0 and all gradients ~ 0
        head = Head(w_out=np.array([[50.0, 0.0], [-50.0, 0.0]]), b_out=np.zeros(2))
        loss, grads, _, _ = train_step(head, np.array([[1.0, 0.0]]), [0])
        assert loss <= 1e-10
        assert np.abs(grads).max() <= 1e-9

    def test_adjoint_and_discrete_agree_on_toy_batch(self, rng):
        head = init_node_head(2, 4, 3, width=5, scale=0.7)
        X = rng.standard_normal((5, 4))
        y = rng.integers(0, 3, 5)
        _, g_disc, _, _ = train_step(head, X, y, "discrete", SolverConfig(method="rk4_fixed", n_steps=400))
        _, g_adj, _, _ = train_step(head, X, y, "adjoint", SolverConfig(rtol=1e-9, atol=1e-9))
        diff = np.abs(g_disc - g_adj)
        scale = np.maximum(np.abs(g_disc), np.abs(g_adj))
        assert np.all((diff <= 1e-8) | (diff <= 1e-3 * scale))

    def test_matches_end_to_end_finite_differences(self):
        gen = np.random.default_rng(0)
        head = init_node_head(0, 2, 2, width=3, scale=0.8)
        X = gen.standard_normal((3, 2))
        y = gen.integers(0, 2, 3)
        cfg = SolverConfig(method="rk4_fixed", n_steps=60)
        _, grads, _, _ = train_step(head, X, y, "discrete", cfg)

        flat0 = head_to_flat(head)
        step = 1e-5
        fd = np.zeros_like(flat0)
        for i in range(flat0.size):
            e = np.zeros_like(flat0)
            e[i] = step
            up, _, _ = evaluate(head_from_flat(head, flat0 + e), X, y, cfg)
            dn, _, _ = evaluate(head_from_flat(head, flat0 - e), X, y, cfg)
            fd[i] = (up - dn) / (2 * step)
        np.testing.assert_allclose(grads, fd, atol=1e-4)

    def test_gradient_step_decreases_loss(self, rng):
        head = init_node_head(4, 3, 2, width=4, scale=0.5)
        X = rng.standard_normal((6, 3))
        y = rng.integers(0, 2, 6)
        cfg = SolverConfig(method="rk4_fixed", n_steps=12)
        loss0, grads, _, _ = train_step(head, X, y, "discrete", cfg)
        stepped = head_from_flat(head, head_to_flat(head) - 1e-3 * grads)
        loss1, _, _ = evaluate(stepped, X, y, cfg)
        assert loss1 < loss0

    def test_empty_batch_is_contract_error(self):
        head = init_baseline_head(0, 3, 2)
        with pytest.raises(ContractError):
            train_step(head, np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_unknown_method_rejected(self, rng):
        head = init_node_head(0, 3, 2, width=4)
        with pytest.raises(ContractError):
            train_step(head, rng.standard_normal((2, 3)), [0, 1], "symbolic")


class TestClassMajorTail:
    @staticmethod
    def logits_and_labels(n, classes, rng):
        """Random logits and labels, with a row of tied logits first and a row
        of alternating +-1e308 logits last; both rows are labelled 0, the
        first of their maximal classes."""
        logits = 3.0 * rng.standard_normal((n, classes))
        labels = rng.integers(0, classes, n)
        logits[0] = 0.7
        logits[-1] = np.where(np.arange(classes) % 2 == 0, 1e308, -1e308)
        labels[[0, -1]] = 0
        return logits, labels

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("classes", [1, 2, 10])
    @pytest.mark.parametrize("n", [1, 64, 1000])
    def test_matches_the_row_major_reference(self, n, classes, rng):
        logits, labels = self.logits_and_labels(n, classes, rng)
        want_loss, want_grad, want_correct = ref.softmax_cross_entropy(logits, labels, EPS_LOG)
        loss, n_correct, dZ = _tail(logits.T.copy(), labels, with_grad=True)
        assert loss == pytest.approx(want_loss, rel=1e-14, abs=0.0)
        assert n_correct == want_correct
        np.testing.assert_allclose(dZ.T, want_grad, rtol=0.0, atol=1e-15)
        assert _tail(logits.T.copy(), labels, with_grad=False) == (loss, n_correct, None)

    @pytest.mark.parametrize("kind", ["baseline", "node"])
    def test_flat_gradient_matches_the_row_major_concatenation(self, kind, rng):
        head = init_node_head(2, 5, 4, width=6, scale=0.6) if kind == "node" else init_baseline_head(2, 5, 4)
        X = rng.standard_normal((64, 5))
        y = rng.integers(0, 4, 64)
        cfg = SolverConfig(method="rk4_fixed", n_steps=5)
        loss, grads, _, n_correct = train_step(head, X, y, "discrete", cfg)

        block = []
        hT = X
        if kind == "node":
            hT, _, traj = solve(head.dynamics, X, 0.0, 1.0, cfg, keep_trajectory=True)
        want_loss, d_logits, want_correct = ref.softmax_cross_entropy(
            hT @ head.w_out.T + head.b_out, y, EPS_LOG)
        if kind == "node":
            block = [backprop_rk4_batch(head.dynamics, traj, d_logits @ head.w_out)[1]]
        want = np.concatenate(block + [(d_logits.T @ hT).ravel(), d_logits.sum(axis=0)])
        assert (loss, n_correct) == (pytest.approx(want_loss, rel=1e-14), want_correct)
        np.testing.assert_allclose(grads, want, rtol=1e-12, atol=1e-16)

    @staticmethod
    def assert_tail_matches_reference(logits, labels):
        """Both tail routes against the row-major reference; NaN matches NaN."""
        want_loss, want_grad, want_correct = ref.softmax_cross_entropy(logits, labels, EPS_LOG)
        loss, n_correct, dZ = _tail(logits.T.copy(), labels, with_grad=True)
        np.testing.assert_array_equal(loss, want_loss)
        assert n_correct == want_correct
        np.testing.assert_allclose(dZ.T, want_grad, rtol=0.0, atol=1e-15)
        eval_loss, eval_correct, _ = _tail(logits.T.copy(), labels, with_grad=False)
        np.testing.assert_array_equal(eval_loss, loss)
        assert eval_correct == n_correct

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("row, label, correct", [
        ([0.5, 2.0, 2.0, -1.0], 1, 1),  # a tie: the first maximal class wins
        ([0.5, 2.0, 2.0, -1.0], 2, 0),
        ([1.5, 1.5, 1.5, 1.5], 0, 1),  # all equal
        ([1.5, 1.5, 1.5, 1.5], 3, 0),
        ([0.0, 1.0, np.nan, 3.0], 2, 1),  # argmax picks the first NaN
        ([0.0, 1.0, np.nan, 3.0], 3, 0),
        ([0.0, np.inf, 1.0, np.inf], 1, 1),
        ([0.0, np.inf, 1.0, np.inf], 3, 0),
        ([-np.inf, 0.0, 1.0, -np.inf], 2, 1),
        ([-np.inf, -np.inf, -np.inf, -np.inf], 0, 1),
    ])
    def test_fallback_columns_keep_the_first_maximal_class(self, row, label, correct, rng):
        """One special column among ordinary ones, counted as np.argmax counts it."""
        logits = rng.standard_normal((8, 4))
        labels = logits.argmax(axis=1)
        logits[5], labels[5] = row, label
        assert ref.softmax_cross_entropy(logits, labels, EPS_LOG)[2] == 7 + correct
        self.assert_tail_matches_reference(logits, labels)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_nan_column_beside_a_tie_is_counted_on_the_raw_logits(self, rng):
        """A NaN column has no zero after the shift and a tied one has two, so
        the zero count alone reads one zero per column."""
        logits = rng.standard_normal((6, 3))
        labels = logits.argmax(axis=1)
        logits[1], labels[1] = [0.0, np.nan, 1.0], 1
        logits[4], labels[4] = [2.0, 2.0, 0.0], 0
        assert ref.softmax_cross_entropy(logits, labels, EPS_LOG)[2] == 6
        self.assert_tail_matches_reference(logits, labels)

    @pytest.mark.parametrize("kind", ["baseline", "node"])
    def test_evaluate_and_train_step_losses_are_bitwise_equal(self, kind, rng):
        """Over many batches, since a one-ulp change in a label probability
        seldom survives the log and the sum of one batch."""
        head = init_node_head(4, 6, 5, width=7, scale=0.5) if kind == "node" else init_baseline_head(4, 6, 5)
        cfg = SolverConfig(method="rk4_fixed", n_steps=6)
        for _ in range(40):
            X = rng.standard_normal((300, 6))
            y = rng.integers(0, 5, 300)
            loss, acc, _ = evaluate(head, X, y, cfg)
            step_loss, _, _, n_correct = train_step(head, X, y, "discrete", cfg)
            assert loss.hex() == step_loss.hex()
            assert acc == n_correct / 300

    @pytest.mark.parametrize("kind", ["baseline", "node"])
    @pytest.mark.parametrize("entry", ["evaluate", "train_step"])
    def test_labels_outside_the_classes_are_rejected(self, kind, entry, rng):
        classes = 3
        head = init_node_head(0, 4, classes, width=5) if kind == "node" else init_baseline_head(0, 4, classes)
        run = evaluate if entry == "evaluate" else train_step
        X = rng.standard_normal((4, 4))
        for bad in (-1, classes):
            with pytest.raises(ContractError, match=rf"record 2 has label {bad} outside \[0, 3\)"):
                run(head, X, [0, 1, bad, bad])
        run(head, X, [0, classes - 1, 0, classes - 1])


class TestOneRoute:
    def test_fixed_method_stats_agree_across_entry_points(self, rng):
        head = init_node_head(1, 4, 3, width=5, scale=0.5)
        X = rng.standard_normal((6, 4))
        y = rng.integers(0, 3, 6)
        cfg = SolverConfig(method="rk4_fixed", n_steps=9)
        _, s_fwd = forward(head, X, cfg)
        _, _, s_eval = evaluate(head, X, y, cfg)
        _, _, s_step, _ = train_step(head, X, y, "discrete", cfg)
        counts = [(s.n_feval, s.n_accept, s.n_reject) for s in (s_fwd, s_eval, s_step)]
        assert counts == [(4 * 9 * 6, 9, 0)] * 3

    def test_grad_method_picks_the_solver_method(self, rng):
        head = init_node_head(1, 4, 3, width=5, scale=0.5)
        X = rng.standard_normal((3, 4))
        y = rng.integers(0, 3, 3)
        dopri = SolverConfig(n_steps=9)
        fixed = SolverConfig(method="rk4_fixed", n_steps=9)
        a = train_step(head, X, y, "discrete", dopri)
        b = train_step(head, X, y, "discrete", fixed)
        assert a[0] == b[0] and a[2] == b[2]
        np.testing.assert_array_equal(a[1], b[1])

    def test_baseline_block_is_the_identity(self, rng):
        head = init_baseline_head(0, 4, 3)
        X = rng.standard_normal((5, 4))
        logits, stats = forward(head, X, SolverConfig(method="rk4_fixed"))
        np.testing.assert_array_equal(logits, X @ head.w_out.T + head.b_out)
        assert stats == SolveStats()

    def test_batch_checks(self, rng):
        head = init_node_head(0, 3, 2, width=4)
        with pytest.raises(ShapeError):
            evaluate(head, rng.standard_normal((3, 3)), [0, 1])
        with pytest.raises(ShapeError):
            train_step(head, rng.standard_normal((2, 4)), [0, 1])
        with pytest.raises(ContractError):
            forward(head, np.zeros((0, 3)))


class TestHead:
    def test_dimensions_come_from_the_output_layer(self):
        base = init_baseline_head(0, 5, 3)
        node = init_node_head(0, 5, 3, width=4)
        assert (base.d, base.classes, base.n_params) == (5, 3, 18)
        assert (node.d, node.classes, node.n_params) == (5, 3, 18 + node.dynamics.n_params)

    def test_inconsistent_shapes_rejected(self):
        with pytest.raises(ShapeError, match="state dimension 4"):
            Head(np.zeros((2, 3)), np.zeros(2), init_params(0, 4, 5))
        with pytest.raises(ShapeError, match="2-d"):
            Head(np.zeros(3), np.zeros(3))
        with pytest.raises(ShapeError, match="b_out"):
            Head(np.zeros((2, 3)), np.zeros(3))

    @pytest.mark.parametrize("kind, byte, width", [("baseline", 0, 0), ("node", 1, 6)])
    def test_checkpoint_kind_follows_the_block(self, kind, byte, width, tmp_path):
        head = init_node_head(0, 4, 3, width=6) if kind == "node" else init_baseline_head(0, 4, 3)
        save_checkpoint(head, tmp_path / "h.nodc")
        blob = (tmp_path / "h.nodc").read_bytes()
        assert blob[8] == byte  # after the magic and the u32 version
        assert int.from_bytes(blob[13:17], "little") == width
        assert (load_checkpoint(tmp_path / "h.nodc").dynamics is None) == (kind == "baseline")

    def test_solver_config_for_maps_once(self):
        fixed = SolverConfig(method="rk4_fixed", n_steps=9)
        assert solver_config_for("discrete", fixed) is fixed
        assert solver_config_for("adjoint", fixed) == SolverConfig(n_steps=9)
        assert solver_config_for("discrete").method == "rk4_fixed"
        with pytest.raises(ContractError, match="symbolic"):
            solver_config_for("symbolic")


class TestFlatPacking:
    @pytest.mark.parametrize("kind", ["node", "baseline"])
    def test_round_trip(self, kind, rng):
        head = (
            init_node_head(5, 4, 3, width=6, scale=0.3)
            if kind == "node"
            else init_baseline_head(5, 4, 3)
        )
        flat = head_to_flat(head)
        rebuilt = head_from_flat(head, flat)
        np.testing.assert_array_equal(head_to_flat(rebuilt), flat)
        x = rng.standard_normal((1, 4))
        a, _ = forward(head, x, SolverConfig())
        b, _ = forward(rebuilt, x, SolverConfig())
        np.testing.assert_array_equal(a, b)

    def test_rebuilt_output_layer_shares_the_flat_vector(self, monkeypatch):
        head = init_baseline_head(1, 4, 3)
        flat = head_to_flat(head) + 0.25
        rebuilt = head_from_flat(head, flat)
        assert np.shares_memory(rebuilt.w_out, flat) and np.shares_memory(rebuilt.b_out, flat)

        rng = np.random.default_rng(3)
        ds = Dataset(rng.standard_normal((90, 4)), rng.integers(0, 3, 90), 3)
        cfg = TrainConfig(epochs=3, batch_size=16, seed=2)
        viewed, viewed_records = train("baseline", ds, cfg)

        def copied(template, flat):
            h = head_from_flat(template, flat)
            return Head(h.w_out.copy(), h.b_out.copy(), h.dynamics)

        # the package re-exports train() over its module
        monkeypatch.setattr(importlib.import_module("nodehead.train"), "head_from_flat", copied)
        copied_head, copied_records = train("baseline", ds, cfg)
        assert head_to_flat(viewed).tobytes() == head_to_flat(copied_head).tobytes()
        strip = lambda records: [replace(r, wall_ms=0.0) for r in records]
        assert strip(viewed_records) == strip(copied_records)

    def test_wrong_length_rejected(self):
        head = init_baseline_head(0, 3, 2)
        with pytest.raises(ShapeError):
            head_from_flat(head, np.zeros(5))


class TestCheckpoints:
    @pytest.mark.parametrize("kind", ["node", "baseline"])
    def test_bitwise_round_trip(self, kind, tmp_path):
        head = (
            init_node_head(9, 6, 4, width=5, scale=0.4)
            if kind == "node"
            else init_baseline_head(9, 6, 4)
        )
        path = tmp_path / "head.nodc"
        save_checkpoint(head, path)
        loaded = load_checkpoint(path)
        assert (loaded.dynamics is None) == (head.dynamics is None)
        np.testing.assert_array_equal(head_to_flat(loaded), head_to_flat(head))
        # byte-level: saving the loaded head reproduces the file exactly
        save_checkpoint(loaded, tmp_path / "again.nodc")
        assert (tmp_path / "again.nodc").read_bytes() == path.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.nodc"
        path.write_bytes(b"XXXX" + bytes(40))
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.nodc"
        path.write_bytes(b"NODC\x01")
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        head = init_baseline_head(0, 2, 2)
        path = tmp_path / "v9.nodc"
        save_checkpoint(head, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(path)

    def test_length_mismatch(self, tmp_path):
        head = init_baseline_head(0, 2, 2)
        path = tmp_path / "trunc.nodc"
        save_checkpoint(head, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="length"):
            load_checkpoint(path)


    def test_node_length_mismatch_names_counts(self, tmp_path):
        head = init_node_head(0, 3, 2, width=4)
        path = tmp_path / "trunc.nodc"
        save_checkpoint(head, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(FormatError, match=rf"length mismatch: {head.n_params - 2} parameters, "
                                              rf"expected {head.n_params}$"):
            load_checkpoint(path)


    @pytest.mark.parametrize("kind, d, width, classes, field", [
        (1, 0, 4, 3, "d"),
        (0, 0, 0, 3, "d"),
        (1, 5, 4, 0, "classes"),
        (0, 5, 0, 0, "classes"),
        (1, 5, 0, 3, "width"),
        (0, 5, 7, 3, "width"),
    ], ids=["node-d-0", "baseline-d-0", "node-classes-0", "baseline-classes-0",
            "node-width-0", "baseline-width-7"])
    def test_header_without_a_usable_head_names_file_and_field(self, kind, d, width, classes, field,
                                                                tmp_path):
        n_params = (width * (d + 1) + width + d * width + d if kind == 1 else 0) + classes * (d + 1)
        path = tmp_path / "hdr.nodc"
        path.write_bytes(b"NODC" + struct.pack("<IBIII", 1, kind, d, width, classes) + bytes(8 * n_params))
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: .*field {field} "):
            load_checkpoint(path)


class TestEvaluate:
    def test_accuracy_on_separable_data(self, toy_feature_dataset):
        ds = toy_feature_dataset
        head = Head(
            w_out=np.vstack([-ds.features[ds.labels == 1].mean(axis=0),
                             ds.features[ds.labels == 1].mean(axis=0)]),
            b_out=np.zeros(2),
        )
        _, acc, _ = evaluate(head, ds.features, ds.labels)
        assert acc >= 0.9

    def test_empty_set_rejected(self):
        head = init_baseline_head(0, 3, 2)
        with pytest.raises(ContractError):
            evaluate(head, np.zeros((0, 3)), [])
