import numpy as np
import pytest

from nodehead.dynamics import init_params
from nodehead.errors import ContractError, FormatError, NumericError, StepBudgetError
from nodehead.model import evaluate, head_to_flat, init_baseline_head
from nodehead.solvers import SolverConfig
from nodehead.train import (
    AdamConfig,
    MetricsRecord,
    SgdConfig,
    TrainConfig,
    adam_update,
    read_metrics_csv,
    sgd_update,
    stability_stats,
    train,
    write_metrics_csv,
)


def record(epoch, val_loss, val_acc=0.5):
    return MetricsRecord(epoch, 0.1, 0.9, val_loss, val_acc, 1.0, 10)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = np.array([1.0, -2.0])
        state = (np.zeros(2), np.zeros(2), 0)
        p2, (m, v, step) = adam_update(p, np.zeros(2), state, AdamConfig(lr=0.1))
        np.testing.assert_array_equal(p2, p)
        np.testing.assert_array_equal(m, np.zeros(2))
        np.testing.assert_array_equal(v, np.zeros(2))
        assert step == 1

    def test_first_step_is_bias_corrected_unit_step(self):
        # hand trace: m_hat = g, v_hat = g^2 -> step = lr * g/(|g|+eps) ~ lr
        p = np.array([0.0])
        p2, _ = adam_update(p, np.array([1.0]), (np.zeros(1), np.zeros(1), 0), AdamConfig(lr=0.1))
        assert abs(p2[0] + 0.1) <= 1e-8

    def test_repeated_unit_gradient_hand_trace(self):
        cfg = AdamConfig(lr=0.1)
        p = np.array([0.0])
        state = (np.zeros(1), np.zeros(1), 0)
        m = v = 0.0
        expected = 0.0
        for t in range(1, 4):
            m = cfg.beta1 * m + (1 - cfg.beta1) * 1.0
            v = cfg.beta2 * v + (1 - cfg.beta2) * 1.0
            m_hat = m / (1 - cfg.beta1 ** t)
            v_hat = v / (1 - cfg.beta2 ** t)
            expected -= cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
            p, state = adam_update(p, np.array([1.0]), state, cfg)
        assert abs(p[0] - expected) <= 1e-15

    def test_deterministic(self):
        p = np.array([0.3, -0.8])
        g = np.array([0.1, 0.2])
        state = (np.zeros(2), np.zeros(2), 0)
        a1 = adam_update(p, g, state, AdamConfig())
        a2 = adam_update(p, g, state, AdamConfig())
        np.testing.assert_array_equal(a1[0], a2[0])

    def test_invalid_config(self):
        with pytest.raises(ContractError):
            AdamConfig(beta1=1.0)
        with pytest.raises(ContractError):
            AdamConfig(eps=0.0)
        with pytest.raises(ContractError):
            AdamConfig(lr=-0.1)


class TestSgd:
    def test_plain_arithmetic(self):
        p2, v2 = sgd_update(np.array([1.0]), np.array([0.5]), np.zeros(1), SgdConfig(lr=0.1, momentum=0.0))
        assert p2[0] == pytest.approx(0.95)
        assert v2[0] == pytest.approx(0.5)

    def test_zero_gradient_zero_velocity_is_noop(self):
        p = np.array([2.0, -1.0])
        p2, v2 = sgd_update(p, np.zeros(2), np.zeros(2), SgdConfig())
        np.testing.assert_array_equal(p2, p)
        np.testing.assert_array_equal(v2, np.zeros(2))

    def test_two_steps_match_hand_recursion(self):
        cfg = SgdConfig(lr=0.1, momentum=0.9)
        g1, g2 = np.array([1.0]), np.array([-0.5])
        p, v = np.array([0.0]), np.zeros(1)
        p, v = sgd_update(p, g1, v, cfg)
        p, v = sgd_update(p, g2, v, cfg)
        # hand: v1 = 1.0, p1 = -0.1; v2 = 0.9 - 0.5 = 0.4, p2 = -0.1 - 0.04 = -0.14
        assert p[0] == pytest.approx(-0.14)
        assert v[0] == pytest.approx(0.4)

    def test_invalid_config(self):
        with pytest.raises(ContractError):
            SgdConfig(momentum=1.0)


class TestNanSettingsRejected:
    # a check written as `x <= 0` lets NaN through; each must reject it, naming the value
    @pytest.mark.parametrize("make", [
        lambda: AdamConfig(lr=float("nan")),
        lambda: AdamConfig(eps=float("nan")),
        lambda: SgdConfig(lr=float("nan")),
        lambda: init_params(0, 3, 4, scale=float("nan")),
    ], ids=["adam-lr", "adam-eps", "sgd-lr", "init-scale"])
    def test_nan_is_a_contract_error(self, make):
        with pytest.raises(ContractError, match="nan"):
            make()


class TestOptimizerConvergence:
    def test_both_optimizers_minimize_quadratic(self):
        # f(p) = ||p||^2, grad = 2p
        for name, cfg, update, state in (
            ("adam", AdamConfig(lr=0.05), adam_update, (np.zeros(4), np.zeros(4), 0)),
            ("sgd", SgdConfig(lr=0.1, momentum=0.9), sgd_update, np.zeros(4)),
        ):
            p = np.array([1.0, -2.0, 0.5, 3.0])
            values = [float(p @ p)]
            for _ in range(500):
                p, state = update(p, 2 * p, state, cfg)
                values.append(float(p @ p))
            assert values[-1] <= 1e-6, name
            # monotone decrease to the floor
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:])) or values[-1] <= 1e-6


class TestTrainLoop:
    def test_lr_zero_is_noop_and_metrics_match_initial_head(self, toy_feature_dataset):
        ds = toy_feature_dataset
        cfg = TrainConfig(optimizer=AdamConfig(lr=0.0), epochs=1, batch_size=16, seed=3,
                          val_fraction=0.2)
        head, records = train("baseline", ds, cfg)
        init = init_baseline_head(3, ds.d, ds.class_count)
        np.testing.assert_array_equal(head_to_flat(head), head_to_flat(init))
        from nodehead.data import split_train_val
        from nodehead.seeding import subseed

        train_ds, _ = split_train_val(ds, 0.2, subseed(3, "split"))
        loss, acc, _ = evaluate(init, train_ds.features, train_ds.labels, cfg.solver)
        assert records[0].train_loss == pytest.approx(loss, abs=1e-12)
        assert records[0].train_acc == pytest.approx(acc, abs=1e-12)

    def test_fixed_seed_runs_are_bitwise_identical(self, toy_feature_dataset):
        cfg = TrainConfig(optimizer=AdamConfig(lr=5e-3), epochs=4, batch_size=8, seed=11,
                          grad_method="discrete",
                          solver=SolverConfig(method="rk4_fixed", n_steps=6),
                          val_fraction=0.2, width=6)
        h1, r1 = train("node", toy_feature_dataset, cfg)
        h2, r2 = train("node", toy_feature_dataset, cfg)
        np.testing.assert_array_equal(head_to_flat(h1), head_to_flat(h2))
        for a, b in zip(r1, r2):
            assert (a.epoch, a.train_loss, a.train_acc, a.val_loss, a.val_acc, a.n_feval) == (
                b.epoch, b.train_loss, b.train_acc, b.val_loss, b.val_acc, b.n_feval)

    @pytest.mark.parametrize("kind", ["baseline", "node"])
    def test_separable_toy_reaches_95_percent(self, kind, toy_feature_dataset):
        cfg = TrainConfig(optimizer=AdamConfig(lr=5e-3), epochs=50, batch_size=16, seed=0,
                          grad_method="discrete",
                          solver=SolverConfig(method="rk4_fixed", n_steps=6),
                          val_fraction=0.2, width=8)
        _, records = train(kind, toy_feature_dataset, cfg)
        assert max(r.train_acc for r in records) >= 0.95

    @pytest.mark.parametrize("kind", ["baseline", "node"])
    @pytest.mark.parametrize("bad", ["loss", "gradient"])
    def test_non_finite_batch_raises_before_optimizer_step(self, kind, bad, toy_feature_dataset,
                                                           monkeypatch):
        import importlib

        tr = importlib.import_module("nodehead.train")  # the package re-exports train() over it
        real_step, real_update = tr.train_step, tr.adam_update
        calls = {"step": 0, "update": 0}

        def step(*args):
            loss, grads, stats, correct = real_step(*args)
            calls["step"] += 1
            if calls["step"] == 7:  # 80 train rows / 16 = 5 batches: epoch 2, batch 2
                if bad == "loss":
                    loss = float("nan")
                else:
                    grads = grads.copy()
                    grads[-1] = np.inf
            return loss, grads, stats, correct

        def update(*args):
            calls["update"] += 1
            return real_update(*args)

        monkeypatch.setattr(tr, "train_step", step)
        monkeypatch.setattr(tr, "adam_update", update)
        cfg = TrainConfig(epochs=3, batch_size=16, val_fraction=0.2, width=4,
                          solver=SolverConfig(method="rk4_fixed", n_steps=2))
        with pytest.raises(NumericError, match=f"non-finite {bad} at epoch 2, batch 2 of 5"):
            train(kind, toy_feature_dataset, cfg)
        assert calls["update"] == 6

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_non_finite_validation_loss_raises(self, toy_feature_dataset):
        # one batch per epoch: the single Adam step at lr=1e308 puts the weights
        # near the float64 limit, so only the validation logits overflow
        cfg = TrainConfig(optimizer=AdamConfig(lr=1e308), epochs=1, batch_size=128)
        with pytest.raises(NumericError, match="non-finite validation loss at epoch 1"):
            train("baseline", toy_feature_dataset, cfg)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("kind, cfg, where", [
        # the first SGD step at lr=1e300 makes the field overflow in the next solve
        (NumericError, dict(optimizer=SgdConfig(lr=1e300)), "at epoch 1, batch 2 of 5: "),
        (NumericError, dict(optimizer=SgdConfig(lr=1e300), batch_size=128),
         "during validation at epoch 1: "),
        (StepBudgetError, dict(grad_method="adjoint", init_scale=1.0,
                               solver=SolverConfig(max_steps=2)), "at epoch 1, batch 1 of 5: "),
    ], ids=["step", "validation", "step-budget"])
    def test_solver_failure_names_epoch_and_batch(self, kind, cfg, where, toy_feature_dataset):
        cfg = TrainConfig(**{"epochs": 2, "batch_size": 16, "val_fraction": 0.2, "width": 4, **cfg})
        with pytest.raises(kind) as info:
            train("node", toy_feature_dataset, cfg)
        cause = info.value.__cause__
        assert type(info.value) is type(cause) is kind
        assert str(info.value) == where + str(cause)
        assert info.value.where == cause.where is not None

    def test_unknown_head_kind(self, toy_feature_dataset):
        with pytest.raises(ContractError):
            train("resnet", toy_feature_dataset, TrainConfig())

    def test_invalid_train_config(self):
        with pytest.raises(ContractError):
            TrainConfig(epochs=0)
        with pytest.raises(ContractError):
            TrainConfig(batch_size=0)
        with pytest.raises(ContractError):
            TrainConfig(val_fraction=1.5)
        with pytest.raises(ContractError):
            TrainConfig(grad_method="forward")

    def test_default_config_validates_with_the_training_method(self, toy_feature_dataset):
        # steps and validation both run fixed-step RK4: 4 evaluations per step and row
        cfg = TrainConfig(epochs=1, width=8)
        _, records = train("node", toy_feature_dataset, cfg)
        assert cfg.solver.method == "rk4_fixed"
        assert records[0].n_feval == 4 * cfg.solver.n_steps * len(toy_feature_dataset)

    @pytest.mark.parametrize("grad, given, method", [
        ("discrete", "dopri5", "rk4_fixed"), ("discrete", "rk4_fixed", "rk4_fixed"),
        ("adjoint", "rk4_fixed", "dopri5"), ("adjoint", "dopri5", "dopri5"),
    ])
    def test_solver_method_follows_grad_method(self, grad, given, method):
        solver = SolverConfig(method=given, rtol=1e-4, n_steps=7)
        cfg = TrainConfig(grad_method=grad, solver=solver)
        assert cfg.solver == SolverConfig(method=method, rtol=1e-4, n_steps=7)


class TestStabilityStats:
    def test_constant_series_zero_std(self):
        metrics = [record(i, 0.7) for i in range(1, 13)]
        report = stability_stats(metrics, window=4)
        np.testing.assert_array_equal(report.rolling_std_val_loss, np.zeros(9))
        assert report.mean_rolling_std_val_loss == 0.0
        assert report.max_epoch_to_epoch_jump == 0.0

    def test_alternating_series_population_std(self):
        metrics = [record(i, float(i % 2)) for i in range(1, 9)]
        report = stability_stats(metrics, window=2)
        np.testing.assert_allclose(report.rolling_std_val_loss, np.full(7, 0.5), atol=1e-15)
        assert report.max_epoch_to_epoch_jump == 1.0

    def test_matches_direct_formula_oracle(self, rng):
        losses = rng.uniform(0.1, 2.0, size=25)
        accs = rng.uniform(0.0, 1.0, size=25)
        metrics = [record(i + 1, losses[i], accs[i]) for i in range(25)]
        window = 7
        report = stability_stats(metrics, window)
        assert len(report.rolling_std_val_loss) == 25 - window + 1
        for i in range(len(report.rolling_std_val_loss)):
            chunk = losses[i : i + window]
            direct = np.sqrt(np.mean((chunk - chunk.mean()) ** 2))  # population convention
            assert abs(report.rolling_std_val_loss[i] - direct) <= 1e-12
            chunk_a = accs[i : i + window]
            direct_a = np.sqrt(np.mean((chunk_a - chunk_a.mean()) ** 2))
            assert abs(report.rolling_std_val_acc[i] - direct_a) <= 1e-12
        assert report.mean_rolling_std_val_loss == pytest.approx(
            report.rolling_std_val_loss.mean(), abs=1e-15)

    def test_short_series_rejected(self):
        metrics = [record(i, 0.5) for i in range(1, 4)]
        with pytest.raises(ContractError):
            stability_stats(metrics, window=5)
        with pytest.raises(ContractError):
            stability_stats(metrics, window=1)


class TestMetricsCsv:
    def test_round_trip(self, tmp_path):
        records = [
            MetricsRecord(1, 0.69314718, 0.5, 0.7112345, 0.45, 123.456, 2400),
            MetricsRecord(2, 0.512345678, 0.75, 0.6012, 0.625, 98.7, 2400),
        ]
        path = tmp_path / "m.csv"
        write_metrics_csv(records, path)
        text = path.read_text()
        assert text.startswith("epoch,train_loss,train_acc,val_loss,val_acc,wall_ms,n_feval\n")
        assert text.endswith("\n")
        # 6 significant digits
        assert "0.693147" in text and "0.512346" in text
        back = read_metrics_csv(path)
        assert len(back) == 2
        assert back[0].epoch == 1 and back[0].n_feval == 2400
        assert back[1].train_acc == pytest.approx(0.75)

    def test_bad_header_names_line_one(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("epoch,loss\n1,0.5\n")
        with pytest.raises(FormatError, match="line 1"):
            read_metrics_csv(path)

    def test_bad_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("epoch,train_loss,train_acc,val_loss,val_acc,wall_ms,n_feval\n1,0.5\n")
        with pytest.raises(FormatError, match="line 2"):
            read_metrics_csv(path)

    def test_unparseable_value_names_line(self, tmp_path):
        path = tmp_path / "bad3.csv"
        path.write_text(
            "epoch,train_loss,train_acc,val_loss,val_acc,wall_ms,n_feval\n"
            "1,0.5,0.9,0.6,0.8,12.0,2400\n"
            "2,oops,0.9,0.6,0.8,12.0,2400\n"
        )
        with pytest.raises(FormatError, match="line 3"):
            read_metrics_csv(path)
