import numpy as np
import pytest

from nodehead.dynamics import init_params
from nodehead.errors import ContractError, FormatError, ShapeError
from nodehead.model import (
    BaselineHead,
    NodeHead,
    evaluate,
    forward_baseline,
    forward_node,
    head_from_flat,
    head_to_flat,
    init_baseline_head,
    init_node_head,
    load_checkpoint,
    loss_and_grads,
    save_checkpoint,
)
from nodehead.solvers import SolverConfig
from nodehead.tensorops import softmax


class TestForwardBaseline:
    def test_identity_weight_passes_features_through(self, rng):
        x = rng.standard_normal(4)
        head = BaselineHead(w_out=np.eye(4), b_out=np.zeros(4))
        np.testing.assert_array_equal(forward_baseline(head, x), x)

    def test_zero_weight_gives_bias(self, rng):
        head = BaselineHead(w_out=np.zeros((3, 5)), b_out=np.array([0.1, -0.2, 0.3]))
        np.testing.assert_array_equal(forward_baseline(head, rng.standard_normal(5)), head.b_out)

    def test_matches_matmul_oracle(self, rng):
        head = init_baseline_head(2, 6, 4)
        x = rng.standard_normal(6)
        np.testing.assert_allclose(forward_baseline(head, x), head.w_out @ x + head.b_out, atol=1e-14)

    def test_shape_mismatch(self):
        head = init_baseline_head(0, 4, 2)
        with pytest.raises(ShapeError):
            forward_baseline(head, np.zeros(5))


class TestForwardNode:
    def test_zero_dynamics_equals_baseline(self, rng):
        node = init_node_head(0, 5, 3, width=6, scale=0.0)
        base = init_baseline_head(0, 5, 3)
        np.testing.assert_array_equal(node.w_out, base.w_out)  # shared out-layer sub-seed
        for _ in range(20):
            x = rng.standard_normal(5)
            logits_node, _ = forward_node(node, x, SolverConfig())
            logits_base = forward_baseline(base, x)
            np.testing.assert_allclose(logits_node, logits_base, atol=1e-12)

    def test_zero_features_zero_wout_gives_bias(self):
        node = NodeHead(
            dynamics=init_params(0, 4, 5, scale=0.0),
            w_out=np.zeros((2, 4)),
            b_out=np.array([0.7, -0.4]),
        )
        logits, _ = forward_node(node, np.zeros(4), SolverConfig())
        np.testing.assert_array_equal(logits, node.b_out)

    def test_tolerance_controlled_consistency(self, rng):
        head = init_node_head(0, 6, 3, width=8, scale=1.0)
        x = rng.standard_normal(6)
        loose, _ = forward_node(head, x, SolverConfig(rtol=1e-5, atol=1e-5))
        tight, _ = forward_node(head, x, SolverConfig(rtol=1e-9, atol=1e-9))
        assert np.abs(loose - tight).max() <= 1e-3

    def test_solver_stats_returned(self, rng):
        head = init_node_head(1, 4, 2, width=4, scale=0.5)
        _, stats = forward_node(head, rng.standard_normal(4), SolverConfig())
        assert stats.n_feval > 0

    def test_fixed_method_dispatch(self, rng):
        head = init_node_head(1, 4, 2, width=4, scale=0.5)
        cfg = SolverConfig(method="rk4_fixed", n_steps=32)
        logits, stats = forward_node(head, rng.standard_normal(4), cfg)
        assert stats.n_feval == 4 * 32
        assert np.all(np.isfinite(logits))

    def test_logit_shift_leaves_argmax(self, rng):
        head = init_node_head(3, 5, 4, width=6, scale=0.4)
        x = rng.standard_normal(5)
        logits, _ = forward_node(head, x, SolverConfig())
        shifted = logits + 7.3
        assert np.argmax(softmax(logits)) == np.argmax(softmax(shifted))


class TestLossAndGrads:
    def test_perfectly_classified_sample_is_stationary(self):
        # a huge margin drives prob -> 1: loss ~ 0 and all gradients ~ 0
        head = BaselineHead(w_out=np.array([[50.0, 0.0], [-50.0, 0.0]]), b_out=np.zeros(2))
        loss, grads, _ = loss_and_grads(head, np.array([[1.0, 0.0]]), [0])
        assert loss <= 1e-10
        assert np.abs(grads).max() <= 1e-9

    def test_adjoint_and_discrete_agree_on_toy_batch(self, rng):
        head = init_node_head(2, 4, 3, width=5, scale=0.7)
        X = rng.standard_normal((5, 4))
        y = rng.integers(0, 3, 5)
        _, g_disc, _ = loss_and_grads(head, X, y, "discrete", SolverConfig(method="rk4_fixed", n_steps=400))
        _, g_adj, _ = loss_and_grads(head, X, y, "adjoint", SolverConfig(rtol=1e-9, atol=1e-9))
        diff = np.abs(g_disc - g_adj)
        scale = np.maximum(np.abs(g_disc), np.abs(g_adj))
        assert np.all((diff <= 1e-8) | (diff <= 1e-3 * scale))

    def test_matches_end_to_end_finite_differences(self):
        gen = np.random.default_rng(0)
        head = init_node_head(0, 2, 2, width=3, scale=0.8)
        X = gen.standard_normal((3, 2))
        y = gen.integers(0, 2, 3)
        cfg = SolverConfig(method="rk4_fixed", n_steps=60)
        _, grads, _ = loss_and_grads(head, X, y, "discrete", cfg)

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
        loss0, grads, _ = loss_and_grads(head, X, y, "discrete", cfg)
        stepped = head_from_flat(head, head_to_flat(head) - 1e-3 * grads)
        loss1, _, _ = evaluate(stepped, X, y, cfg)
        assert loss1 < loss0

    def test_empty_batch_is_contract_error(self):
        head = init_baseline_head(0, 3, 2)
        with pytest.raises(ContractError):
            loss_and_grads(head, np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_unknown_method_rejected(self, rng):
        head = init_node_head(0, 3, 2, width=4)
        with pytest.raises(ContractError):
            loss_and_grads(head, rng.standard_normal((2, 3)), [0, 1], "symbolic")


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
        x = rng.standard_normal(4)
        if kind == "node":
            a, _ = forward_node(head, x, SolverConfig())
            b, _ = forward_node(rebuilt, x, SolverConfig())
        else:
            a, b = forward_baseline(head, x), forward_baseline(rebuilt, x)
        np.testing.assert_array_equal(a, b)

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
        assert type(loaded) is type(head)
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


class TestEvaluate:
    def test_accuracy_on_separable_data(self, toy_feature_dataset):
        ds = toy_feature_dataset
        head = BaselineHead(
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
