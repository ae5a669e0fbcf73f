import numpy as np
import pytest

from nodehead.dynamics import DynamicsParams, init_params
from nodehead.errors import ContractError, NumericError, ShapeError, StepBudgetError
from nodehead.solvers import (
    SolveStats,
    SolverConfig,
    integrate_adaptive,
    rk4_step,
    rk4_terminal_batch,
    solve_adaptive,
    solve_fixed,
    solve_fixed_batch,
)

ZERO_FIELD = lambda h, t: np.zeros_like(h)
DECAY = lambda h, t: -h
GROWTH = lambda h, t: h
ROTATION = lambda h, t: np.array([-h[1], h[0]])


def rk4_oracle(f, h, t, dt):
    """Independently coded classic Butcher tableau evaluation."""
    c = [0.0, 0.5, 0.5, 1.0]
    a = [[], [0.5], [0.0, 0.5], [0.0, 0.0, 1.0]]
    b = [1 / 6, 2 / 6, 2 / 6, 1 / 6]
    ks = []
    for i in range(4):
        yi = h.copy()
        for j, aij in enumerate(a[i]):
            yi = yi + dt * aij * ks[j]
        ks.append(f(yi, t + c[i] * dt))
    return h + dt * sum(bi * ki for bi, ki in zip(b, ks))


class TestSolverConfig:
    def test_defaults_match_documented_controller(self):
        cfg = SolverConfig()
        assert cfg.rtol == cfg.atol == 1e-5
        assert cfg.safety == 0.9 and cfg.min_factor == 0.2 and cfg.max_factor == 5.0
        assert cfg.max_steps == 100_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rtol": 0.0},
            {"atol": -1e-9},
            {"n_steps": 0},
            {"max_steps": 0},
            {"min_factor": 1.5},
            {"max_factor": 0.5},
            {"method": "euler"},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ContractError):
            SolverConfig(**kwargs)


class TestRk4Step:
    def test_zero_field_keeps_state(self, rng):
        h = rng.standard_normal(4)
        h_next, stages = rk4_step(ZERO_FIELD, h, 0.0, 0.25)
        np.testing.assert_array_equal(h_next, h)
        assert stages.shape == (4, 4)

    def test_exponential_local_accuracy(self):
        h_next, _ = rk4_step(GROWTH, np.array([1.0]), 0.0, 0.1)
        assert abs(h_next[0] - np.exp(0.1)) <= 1e-7

    def test_matches_independent_tableau_bitwise(self, rng):
        p = init_params(3, 3, 5, scale=0.8)
        from nodehead.dynamics import eval_dynamics

        f = lambda h, t: eval_dynamics(p, h, t)
        h = rng.standard_normal(3)
        ours, _ = rk4_step(p, h, 0.2, 0.05)
        np.testing.assert_array_equal(ours, rk4_oracle(f, h, 0.2, 0.05))

    def test_non_finite_state_raises_with_time(self):
        blow_up = lambda h, t: h * np.inf
        with pytest.raises(NumericError) as exc:
            rk4_step(blow_up, np.array([1.0]), 0.5, 0.1)
        assert exc.value.where == pytest.approx(0.6)


class TestSolveFixed:
    def test_zero_field_trajectory_constant(self, rng):
        h0 = rng.standard_normal(3)
        hT, traj = solve_fixed(ZERO_FIELD, h0, 0.0, 1.0, 7)
        np.testing.assert_array_equal(hT, h0)
        assert traj.states.shape == (8, 3)
        for state in traj.states:
            np.testing.assert_array_equal(state, h0)

    def test_exponential_growth_accuracy(self):
        hT, traj = solve_fixed(GROWTH, np.array([1.0]), 0.0, 1.0, 100)
        assert abs(hT[0] - np.e) <= 1e-7
        assert np.all(np.diff(traj.times) > 0)
        assert len(traj.times) == len(traj.states) == 101

    def test_fourth_order_convergence_ratio(self):
        err = {}
        for n in (100, 200):
            hT, _ = solve_fixed(GROWTH, np.array([1.0]), 0.0, 1.0, n)
            err[n] = abs(hT[0] - np.e)
        ratio = err[100] / err[200]
        assert 8.0 <= ratio <= 32.0

    def test_preconditions(self):
        with pytest.raises(ContractError):
            solve_fixed(ZERO_FIELD, np.zeros(2), 0.0, 1.0, 0)
        with pytest.raises(ContractError):
            solve_fixed(ZERO_FIELD, np.zeros(2), 1.0, 0.0, 4)

    def test_batch_agrees_with_single(self, rng):
        p = init_params(5, 3, 6, scale=0.7)
        states0 = rng.standard_normal((5, 3))
        hT_batch, traj_batch = solve_fixed_batch(p, states0, 0.0, 1.0, 12)
        for i in range(5):
            hT, traj = solve_fixed(p, states0[i], 0.0, 1.0, 12)
            np.testing.assert_allclose(hT_batch[i], hT, atol=1e-12)
            np.testing.assert_allclose(traj_batch.stages[:, :, i, :], traj.stages, atol=1e-12)

    def test_terminal_batch_matches_full_solve(self, rng):
        p = init_params(5, 4, 6, scale=0.7)
        states0 = rng.standard_normal((6, 4))
        hT_full, _ = solve_fixed_batch(p, states0, 0.0, 1.0, 9)
        hT_term = rk4_terminal_batch(p, states0, 0.0, 1.0, 9)
        np.testing.assert_array_equal(hT_full, hT_term)


class TestBatchKernel:
    @pytest.mark.parametrize("n, d, width", [(5, 3, 7), (1, 4, 2), (3, 1, 5)])
    def test_shapes_match_per_row_solves(self, n, d, width, rng):
        p = init_params(n + d + width, d, width, scale=0.9)
        states0 = rng.standard_normal((n, d))
        hT, traj = solve_fixed_batch(p, states0, 0.0, 1.0, 7)
        assert hT.shape == (n, d)
        assert traj.states.shape == (8, n, d) and traj.stages.shape == (7, 4, n, d)
        for i in range(n):
            hT_row, traj_row = solve_fixed(p, states0[i], 0.0, 1.0, 7)
            np.testing.assert_allclose(hT[i], hT_row, atol=1e-12)
            np.testing.assert_allclose(traj.states[:, i], traj_row.states, atol=1e-12)
            np.testing.assert_allclose(traj.stages[:, :, i], traj_row.stages, atol=1e-12)
        np.testing.assert_array_equal(rk4_terminal_batch(p, states0, 0.0, 1.0, 7), traj.states[-1])

    @pytest.mark.parametrize("keep", [True, False])
    def test_non_finite_state_raises_with_time(self, keep):
        # constant drift f = b2 = 1e308: the state overflows on the 4th step of dt = 0.5
        d, width = 2, 3
        p = DynamicsParams(np.zeros((width, d + 1)), np.zeros(width), np.zeros((d, width)),
                           np.full(d, 1e308))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError) as exc:
            solve_fixed_batch(p, np.zeros((2, d)), 0.0, 4.0, 8, keep_trajectory=keep)
        assert exc.value.where == pytest.approx(2.0)

    def test_outputs_not_aliased_and_inputs_untouched(self, rng):
        p = init_params(4, 3, 5, scale=0.8)
        states0 = rng.standard_normal((4, 3))
        before = states0.copy()
        hT, traj = solve_fixed_batch(p, states0, 0.0, 1.0, 5)
        term = rk4_terminal_batch(p, states0, 0.0, 1.0, 5)
        kept = [a.copy() for a in (hT, traj.states, traj.stages, term)]
        solve_fixed_batch(p, -states0, 0.0, 1.0, 5)
        rk4_terminal_batch(p, -states0, 0.0, 1.0, 5)
        for a, b in zip((hT, traj.states, traj.stages, term), kept):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(states0, before)

    def test_batch_shape_checked(self, rng):
        p = init_params(0, 3, 4)
        with pytest.raises(ShapeError):
            solve_fixed_batch(p, rng.standard_normal((2, 4)), 0.0, 1.0, 3)
        with pytest.raises(ShapeError):
            rk4_terminal_batch(p, rng.standard_normal(3), 0.0, 1.0, 3)


class TestSolveAdaptive:
    def test_zero_field_no_rejections(self, rng):
        h0 = rng.standard_normal(4)
        hT, stats = solve_adaptive(ZERO_FIELD, h0, 0.0, 1.0, SolverConfig())
        np.testing.assert_array_equal(hT, h0)
        assert stats.n_reject == 0

    def test_decay_closed_form(self):
        hT, _ = solve_adaptive(DECAY, np.array([1.0]), 0.0, 1.0, SolverConfig())
        assert abs(hT[0] - 0.3678794412) <= 1e-4

    def test_rotation_orbit_conservation(self):
        hT, _ = solve_adaptive(ROTATION, np.array([1.0, 0.0]), 0.0, 2 * np.pi, SolverConfig())
        assert np.linalg.norm(hT - np.array([1.0, 0.0])) <= 1e-4
        assert abs(np.linalg.norm(hT) - 1.0) <= 1e-4

    def test_norm_drift_within_tolerance_budget(self):
        cfg = SolverConfig(rtol=1e-6, atol=1e-6)
        hT, _ = solve_adaptive(ROTATION, np.array([1.0, 0.0]), 0.0, 2 * np.pi, cfg)
        assert abs(np.linalg.norm(hT) - 1.0) <= 10 * (cfg.atol + cfg.rtol)

    def test_feval_monotone_in_tolerance(self):
        # curved flow: tightening the tolerance must strictly raise the cost
        counts = []
        for tol in (1e-3, 1e-5, 1e-7):
            _, stats = solve_adaptive(
                ROTATION, np.array([1.0, 0.0]), 0.0, 2 * np.pi, SolverConfig(rtol=tol, atol=tol)
            )
            counts.append(stats.n_feval)
        assert counts[0] < counts[1] < counts[2]

    def test_feval_nondecreasing_on_mlp_flow(self):
        p = init_params(0, 4, 8, scale=1.0)
        h0 = np.random.default_rng(0).standard_normal(4)
        counts = []
        for tol in (1e-3, 1e-5, 1e-7):
            _, stats = solve_adaptive(p, h0, 0.0, 1.0, SolverConfig(rtol=tol, atol=tol))
            counts.append(stats.n_feval)
        assert counts[0] <= counts[1] <= counts[2]

    def test_agrees_with_fixed_at_high_accuracy(self, rng):
        p = init_params(2, 3, 6, scale=0.9)
        h0 = rng.standard_normal(3)
        h_fixed, _ = solve_fixed(p, h0, 0.0, 1.0, 10_000)
        h_adaptive, _ = solve_adaptive(p, h0, 0.0, 1.0, SolverConfig(rtol=1e-10, atol=1e-10))
        np.testing.assert_allclose(h_adaptive, h_fixed, atol=1e-6)

    def test_reversibility(self, rng):
        p = init_params(8, 3, 6, scale=0.9)
        h0 = rng.standard_normal(3)
        cfg = SolverConfig(rtol=1e-8, atol=1e-8)
        h1, _ = solve_adaptive(p, h0, 0.0, 1.0, cfg)
        h0_back, _ = solve_adaptive(p, h1, 1.0, 0.0, cfg)
        np.testing.assert_allclose(h0_back, h0, atol=1e-6)

    def test_fsal_feval_accounting(self):
        p = init_params(0, 4, 8, scale=1.0)
        h0 = np.random.default_rng(3).standard_normal(4)
        _, stats = solve_adaptive(p, h0, 0.0, 1.0, SolverConfig(rtol=1e-7, atol=1e-7))
        assert stats.n_feval >= 6 * stats.n_accept
        assert stats.n_feval == 1 + 6 * (stats.n_accept + stats.n_reject)

    def test_step_budget_error_reports_progress(self):
        cfg = SolverConfig(max_steps=3)
        with pytest.raises(StepBudgetError) as exc:
            solve_adaptive(lambda h, t: 100 * np.cos(100 * t) * h, np.array([1.0]), 0.0, 10.0, cfg)
        assert exc.value.where is not None
        assert 0.0 <= exc.value.where < 10.0

    def test_non_finite_raises_numeric_error(self):
        stiff_blowup = lambda h, t: h * h * 1e4
        with np.errstate(over="ignore"), pytest.raises((NumericError, StepBudgetError)):
            solve_adaptive(stiff_blowup, np.array([10.0]), 0.0, 5.0, SolverConfig(max_steps=200))

    def test_requires_distinct_endpoints(self):
        with pytest.raises(ContractError):
            solve_adaptive(ZERO_FIELD, np.zeros(2), 0.5, 0.5, SolverConfig())

    def test_stops_exactly_at_t1(self):
        seen = []
        def recording(h, t):
            seen.append(t)
            return -h
        hT, _ = solve_adaptive(recording, np.array([1.0]), 0.0, 0.7, SolverConfig())
        assert max(seen) <= 0.7 + 1e-12

    def test_against_scipy_reference(self, rng):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        p = init_params(4, 4, 8, scale=1.0)
        from nodehead.dynamics import eval_dynamics

        h0 = rng.standard_normal(4)
        ref = scipy_integrate.solve_ivp(
            lambda t, y: eval_dynamics(p, y, t), (0.0, 1.0), h0, rtol=1e-10, atol=1e-10
        ).y[:, -1]
        ours, _ = solve_adaptive(p, h0, 0.0, 1.0, SolverConfig(rtol=1e-8, atol=1e-8))
        np.testing.assert_allclose(ours, ref, atol=1e-6)


class TestSolveStats:
    def test_merge_accumulates(self):
        a = SolveStats(n_feval=5, n_accept=2, n_reject=1, retained_floats=10)
        b = SolveStats(n_feval=7, n_accept=3, n_reject=0, retained_floats=4)
        a.merge(b)
        assert (a.n_feval, a.n_accept, a.n_reject, a.retained_floats) == (12, 5, 1, 10)
