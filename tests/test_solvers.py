import numpy as np
import pytest

import reference as ref
from nodehead import solvers
from nodehead.dynamics import DynamicsParams, init_params
from nodehead.errors import ContractError, NumericError
from nodehead.solvers import (
    SolveStats,
    SolverConfig,
    integrate_adaptive,
    rk4_terminal_batch,
    solve,
    solve_adaptive,
    solve_fixed_batch,
)

ZERO_FIELD = lambda h, t: np.zeros_like(h)
DECAY = lambda h, t: -h
ROTATION = lambda h, t: np.stack([-h[:, 1], h[:, 0]], axis=1)
GROWTH = ref.LinearField(1.0)


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


def rk4_step(field, h, t, dt):
    """One RK4 step of the batch kernel on a single row; returns (h_next, stages (4, d))."""
    h_next, traj = solve_fixed_batch(field, np.asarray(h, dtype=np.float64)[None], t, t + dt, 1)
    return h_next[0], traj.stages[0, :, 0]


def stage_derivatives(params, traj):
    """The RK4 stage derivatives k = u @ w2.T + b2 rebuilt from the activations
    ``u`` that a solve of the two-layer field stores as its stages."""
    return traj.stages @ params.w2.T + params.b2


class TestSolverConfig:
    def test_defaults_match_documented_controller(self):
        cfg = SolverConfig()
        assert cfg.rtol == cfg.atol == 1e-5
        assert solvers.SAFETY == 0.9 and solvers.MIN_FACTOR == 0.2 and solvers.MAX_FACTOR == 5.0
        assert cfg.max_steps == 100_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rtol": 0.0},
            {"atol": -1e-9},
            {"n_steps": 0},
            {"max_steps": 0},
            {"atol": 0.0},
            {"rtol": -1e-3},
            {"method": "euler"},
            {"rtol": float("nan")},
            {"atol": float("nan")},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ContractError):
            SolverConfig(**kwargs)


class TestRk4Step:
    def test_zero_field_keeps_state(self, rng):
        h = rng.standard_normal(4)
        h_next, stages = rk4_step(ref.LinearField(0.0), h, 0.0, 0.25)
        np.testing.assert_array_equal(h_next, h)
        assert stages.shape == (4, 4)

    def test_exponential_local_accuracy(self):
        h_next, _ = rk4_step(GROWTH, np.array([1.0]), 0.0, 0.1)
        assert abs(h_next[0] - np.exp(0.1)) <= 1e-7

    def test_matches_independent_tableau(self, rng):
        p = init_params(3, 3, 5, scale=0.8)
        f = lambda h, t: ref.field(p, h, t)
        h = rng.standard_normal(3)
        ours, _ = rk4_step(p, h, 0.2, 0.05)
        np.testing.assert_allclose(ours, rk4_oracle(f, h, 0.2, 0.05), rtol=0, atol=1e-12)

    def test_non_finite_state_raises_with_time(self):
        with pytest.raises(NumericError) as exc:
            rk4_step(ref.LinearField(np.inf), np.array([1.0]), 0.5, 0.1)
        assert exc.value.where == pytest.approx(0.6)


class TestSolveFixed:
    def test_zero_field_trajectory_constant(self, rng):
        h0 = rng.standard_normal((1, 3))
        hT, traj = solve_fixed_batch(ref.LinearField(0.0), h0, 0.0, 1.0, 7)
        np.testing.assert_array_equal(hT, h0)
        assert traj.states.shape == (8, 1, 3)
        for state in traj.states:
            np.testing.assert_array_equal(state, h0)

    def test_exponential_growth_accuracy(self):
        hT, traj = solve_fixed_batch(GROWTH, np.array([[1.0]]), 0.0, 1.0, 100)
        assert abs(hT[0, 0] - np.e) <= 1e-7
        assert np.all(np.diff(traj.times) > 0)
        assert len(traj.times) == len(traj.states) == 101

    def test_fourth_order_convergence_ratio(self):
        err = {}
        for n in (100, 200):
            hT, _ = solve_fixed_batch(GROWTH, np.array([[1.0]]), 0.0, 1.0, n)
            err[n] = abs(hT[0, 0] - np.e)
        ratio = err[100] / err[200]
        assert 8.0 <= ratio <= 32.0

    def test_grid_ends_exactly_at_t1(self):
        # 0.2 + 0.7 * 5 / 5 rounds to 1.1e-16 below 0.9
        _, traj = solve_fixed_batch(GROWTH, np.array([[1.0]]), 0.2, 0.9, 5)
        assert traj.times[0] == 0.2 and traj.times[-1] == 0.9

    def test_preconditions(self):
        with pytest.raises(ContractError):
            solve_fixed_batch(GROWTH, np.zeros((1, 2)), 0.0, 1.0, 0)
        with pytest.raises(ContractError):
            solve_fixed_batch(GROWTH, np.zeros((1, 2)), 1.0, 0.0, 4)

    def test_batch_agrees_with_single(self, rng):
        p = init_params(5, 3, 6, scale=0.7)
        states0 = rng.standard_normal((5, 3))
        hT_batch, traj_batch = solve_fixed_batch(p, states0, 0.0, 1.0, 12)
        for i in range(5):
            hT, _, _, stages = ref.rk4_solve(lambda h, t: ref.field(p, h, t), states0[i], 0.0, 1.0, 12)
            np.testing.assert_allclose(hT_batch[i], hT, atol=1e-12)
            np.testing.assert_allclose(stage_derivatives(p, traj_batch)[:, :, i, :], stages, atol=1e-12)

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
        assert traj.states.shape == (8, n, d) and traj.stages.shape == (7, 4, n, width)
        for i in range(n):
            hT_row, _, states_row, stages_row = ref.rk4_solve(
                lambda h, t: ref.field(p, h, t), states0[i], 0.0, 1.0, 7)
            np.testing.assert_allclose(hT[i], hT_row, atol=1e-12)
            np.testing.assert_allclose(traj.states[:, i], states_row, atol=1e-12)
            np.testing.assert_allclose(stage_derivatives(p, traj)[:, :, i], stages_row, atol=1e-12)
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

    @pytest.mark.parametrize("keep", [True, False])
    def test_saturated_carry_with_finite_states_is_no_failure(self, keep):
        # w1[0, 0] * 2 overflows the first pre-activation to inf, so the carry stays
        # inf, yet its tanh is exactly 1 and every grid state is finite
        d, width = 2, 3
        w1 = np.zeros((width, d + 1))
        w1[0, 0], w1[1, 1], w1[2, 2] = 1e308, 0.7, -0.4
        p = DynamicsParams(w1, np.zeros(width), np.full((d, width), 0.5), np.array([0.1, -0.2]))
        h0 = np.array([[2.0, 0.3]])
        with np.errstate(over="ignore"):
            hT, traj = solve_fixed_batch(p, h0, 0.0, 1.0, 4, keep_trajectory=keep)
            hT_ref, _, states_ref, _ = ref.rk4_solve(lambda h, t: ref.field(p, h, t), h0[0], 0.0, 1.0, 4)
        np.testing.assert_array_equal(hT[0], hT_ref)
        if keep:
            np.testing.assert_array_equal(traj.states[:, 0], states_ref)

    @pytest.mark.parametrize("keep", [True, False])
    @pytest.mark.parametrize("where", ["h0", "w1"])
    def test_nan_input_raises_after_the_first_step(self, where, keep, rng):
        """A NaN weight shows after the first step, at t = 0.5; a NaN in h0 is
        reported before it, at t0 = 0.3."""
        p = init_params(4, 3, 5, scale=0.8)
        states0 = rng.standard_normal((4, 3))
        if where == "h0":
            states0[2, 1] = np.nan
        else:
            w1 = p.w1.copy()
            w1[3, 0] = np.nan
            p = DynamicsParams(w1, p.b1, p.w2, p.b2)
        with np.errstate(invalid="ignore"), pytest.raises(NumericError) as exc:
            solve_fixed_batch(p, states0, 0.3, 1.1, 4, keep_trajectory=keep)
        assert exc.value.where == (0.3 if where == "h0" else pytest.approx(0.5))

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
        with pytest.raises(ContractError, match=r"batch shape \(2, 4\) does not match field dimension 3"):
            solve_fixed_batch(p, rng.standard_normal((2, 4)), 0.0, 1.0, 3)
        with pytest.raises(ContractError, match=r"batch shape \(3,\) does not match field dimension 3"):
            rk4_terminal_batch(p, rng.standard_normal(3), 0.0, 1.0, 3)


class TestNonFiniteInitialState:
    """A non-finite row of h0 is reported at t0, before any step is taken."""

    @staticmethod
    def field_and_h0(kind, bad, rng):
        field = init_params(4, 3, 5, scale=0.8) if kind == "two-layer" else ref.LinearField(0.5)
        h0 = rng.standard_normal((4, 3))
        h0[2, 1] = bad
        return field, h0

    @pytest.mark.parametrize("keep", [True, False])
    @pytest.mark.parametrize("n_steps", [1, 4])
    @pytest.mark.parametrize("kind", ["two-layer", "closed-form"])
    def test_rk4_names_t0(self, kind, n_steps, keep, rng):
        field, h0 = self.field_and_h0(kind, np.nan, rng)
        with np.errstate(invalid="ignore"), pytest.raises(NumericError) as exc:
            solve_fixed_batch(field, h0, 0.25, 1.25, n_steps, keep_trajectory=keep)
        assert exc.value.where == 0.25

    def test_rk4_evaluates_no_field(self, rng):
        # the scan of the grid states would name t0 too, but only after every step
        field, h0 = self.field_and_h0("closed-form", np.nan, rng)
        field.eval = lambda states, t: pytest.fail("the field was evaluated")
        with pytest.raises(NumericError):
            solve_fixed_batch(field, h0, 0.25, 1.25, 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("kind", ["two-layer", "closed-form"])
    def test_dopri5_names_t0(self, kind, bad, rng):
        field, h0 = self.field_and_h0(kind, bad, rng)
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(NumericError) as exc:
            solve(field, h0, 0.25, 1.25, SolverConfig())
        assert exc.value.where == 0.25

    @pytest.mark.parametrize("t0, t1", [(0.0, 1.0), (1.0, 0.0)])
    def test_integrate_adaptive_names_t0_in_either_direction(self, t0, t1):
        with pytest.raises(NumericError) as exc:
            integrate_adaptive(ZERO_FIELD, np.array([[1.0], [np.nan]]), t0, t1, SolverConfig())
        assert exc.value.where == t0


class TestSolveAdaptive:
    def test_zero_field_no_rejections(self, rng):
        # steps of 0.1, 0.5 and the last 0.4 per row: an error of 0 takes the
        # largest growth, MAX_FACTOR
        h0 = rng.standard_normal((2, 4))
        hT, stats = integrate_adaptive(ZERO_FIELD, h0, 0.0, 1.0, SolverConfig())
        np.testing.assert_array_equal(hT, h0)
        assert (stats.n_accept, stats.n_reject) == (6, 0)

    def test_decay_closed_form(self):
        (hT,), _ = integrate_adaptive(DECAY, np.array([[1.0]]), 0.0, 1.0, SolverConfig())
        assert abs(hT[0] - 0.3678794412) <= 1e-4

    def test_rotation_orbit_conservation(self):
        (hT,), _ = integrate_adaptive(ROTATION, np.array([[1.0, 0.0]]), 0.0, 2 * np.pi, SolverConfig())
        assert np.linalg.norm(hT - np.array([1.0, 0.0])) <= 1e-4
        assert abs(np.linalg.norm(hT) - 1.0) <= 1e-4

    def test_norm_drift_within_tolerance_budget(self):
        cfg = SolverConfig(rtol=1e-6, atol=1e-6)
        (hT,), _ = integrate_adaptive(ROTATION, np.array([[1.0, 0.0]]), 0.0, 2 * np.pi, cfg)
        assert abs(np.linalg.norm(hT) - 1.0) <= 10 * (cfg.atol + cfg.rtol)

    def test_feval_monotone_in_tolerance(self):
        # curved flow: tightening the tolerance must strictly raise the cost
        counts = []
        for tol in (1e-3, 1e-5, 1e-7):
            _, stats = integrate_adaptive(
                ROTATION, np.array([[1.0, 0.0]]), 0.0, 2 * np.pi, SolverConfig(rtol=tol, atol=tol)
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
        h_fixed, _ = solve_fixed_batch(p, h0[None], 0.0, 1.0, 10_000)
        h_adaptive, _ = solve_adaptive(p, h0, 0.0, 1.0, SolverConfig(rtol=1e-10, atol=1e-10))
        np.testing.assert_allclose(h_adaptive, h_fixed[0], atol=1e-6)

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
        with pytest.raises(NumericError, match="step budget 3 exhausted at t=") as exc:
            integrate_adaptive(lambda h, t: 100 * np.cos(100 * t) * h, np.array([[1.0]]), 0.0, 10.0, cfg)
        assert exc.value.where is not None
        assert 0.0 <= exc.value.where < 10.0

    def test_non_finite_raises_numeric_error(self):
        # h' = h^2 from 1e200 overflows within the first step, of length 0.5
        square = lambda h, t: h * h
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match="^solver state became non-finite at t="):
            integrate_adaptive(square, np.array([[1e200]]), 0.0, 5.0, SolverConfig(max_steps=200))

    def test_requires_a_batch_of_rows(self):
        with pytest.raises(ContractError, match=r"takes an \(n, m\) batch of rows, got shape \(1,\)"):
            integrate_adaptive(DECAY, np.array([1.0]), 0.0, 1.0, SolverConfig())

    def test_requires_distinct_endpoints(self):
        with pytest.raises(ContractError, match=r"requires t1 != t0"):
            integrate_adaptive(ZERO_FIELD, np.zeros((1, 2)), 0.5, 0.5, SolverConfig())

    def test_stops_exactly_at_t1(self):
        seen = []
        def recording(h, t):
            seen.extend(t[:, 0])
            return -h
        hT, _ = integrate_adaptive(recording, np.array([[1.0]]), 0.0, 0.7, SolverConfig())
        assert max(seen) <= 0.7 + 1e-12

    def test_against_scipy_reference(self, rng):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        p = init_params(4, 4, 8, scale=1.0)
        h0 = rng.standard_normal(4)
        expected = scipy_integrate.solve_ivp(
            lambda t, y: ref.field(p, y, t), (0.0, 1.0), h0, rtol=1e-10, atol=1e-10
        ).y[:, -1]
        ours, _ = solve_adaptive(p, h0, 0.0, 1.0, SolverConfig(rtol=1e-8, atol=1e-8))
        np.testing.assert_allclose(ours, expected, atol=1e-6)


def rate_decay(h, t):
    """dx/dt = -lam * x with each row's own rate lam carried, constant, in its last column."""
    return np.concatenate([-h[:, -1:] * h[:, :-1], np.zeros_like(h[:, -1:])], axis=1)


def pulse(h, t):
    """dx/dt = 200 x cos(200 t) inside a narrow window around each row's own
    centre c (the last column, constant) and 0 elsewhere: a row needs short
    steps only near its c."""
    c = h[:, -1:]
    near = np.abs(t - c) < 0.05
    return np.concatenate([np.where(near, 200 * np.cos(200 * t) * h[:, :-1], 0.0), np.zeros_like(c)], axis=1)


def counts(stats):
    return stats.n_feval, stats.n_accept, stats.n_reject


class TestPerRowStepControl:
    """Each row of an adaptive batch is stepped as if it were solved alone."""

    def test_rows_of_different_stiffness_keep_their_own_counts(self):
        rates = [0.5, 5.0, 40.0, 300.0]
        y0 = np.array([[1.0, 2.0, lam] for lam in rates])
        cfg = SolverConfig(rtol=1e-6, atol=1e-6)
        calls = {}

        def tallied(h, t):
            for lam in h[:, -1]:
                calls[lam] = calls.get(lam, 0) + 1
            return rate_decay(h, t)

        hT, stats = integrate_adaptive(tallied, y0, 0.0, 1.0, cfg)
        alone = [integrate_adaptive(rate_decay, y0[i : i + 1], 0.0, 1.0, cfg) for i in range(4)]
        summed = SolveStats()
        for i, (row, s) in enumerate(alone):
            np.testing.assert_array_equal(hT[i], row[0])
            # row by row: the NFE the field saw for the row, and what the batch
            # spends on the row, as the difference with the batch without it
            assert calls[rates[i]] == s.n_feval
            _, rest = integrate_adaptive(rate_decay, np.delete(y0, i, axis=0), 0.0, 1.0, cfg)
            assert tuple(np.subtract(counts(stats), counts(rest))) == counts(s)
            summed.merge(s)
        assert counts(stats) == counts(summed)
        # the stiffer rows really do take more steps
        assert len({counts(s) for _, s in alone}) == 4

    @pytest.mark.parametrize("tol", [1e-3, 1e-6])
    def test_each_row_steps_as_the_reference_controller(self, tol):
        """Each row's accepted and rejected steps and its result, against the
        per-row reference controller. On a decaying field |y5| < |y|, so the
        error scale's max(|y|, |y5|) is |y|; a growing field would not tell
        it from |y5|."""
        y0 = np.array([[1.0, -2.0, lam] for lam in (0.5, 5.0, 40.0)])
        cfg = SolverConfig(rtol=tol, atol=tol)
        hT, stats = integrate_adaptive(rate_decay, y0, 0.0, 1.0, cfg)
        expected = [ref.dopri5_solve(lambda y, t: rate_decay(y[None], t)[0], row, 0.0, 1.0, tol, tol)
                     for row in y0]
        for i, (yT, n_accept, n_reject) in enumerate(expected):
            _, alone = integrate_adaptive(rate_decay, y0[i : i + 1], 0.0, 1.0, cfg)
            assert (alone.n_accept, alone.n_reject) == (n_accept, n_reject)
            # the reference takes the error as y5 - y4, which rounds unlike the
            # package's error weights, so the step sizes differ in their last bits
            np.testing.assert_allclose(hT[i], yT, rtol=1e-12, atol=1e-15)
        assert (stats.n_accept, stats.n_reject) == tuple(np.sum([e[1:] for e in expected], axis=0))

    def test_step_budget_counts_per_trajectory(self):
        y0 = np.array([[1.0, 0.25], [1.0, 0.75]])
        cfg = SolverConfig(rtol=1e-6, atol=1e-6)
        alone = [integrate_adaptive(pulse, y0[i : i + 1], 0.0, 1.0, cfg)[1] for i in range(2)]
        budget = max(s.n_accept + s.n_reject for s in alone)
        _, stats = integrate_adaptive(pulse, y0, 0.0, 1.0, SolverConfig(rtol=1e-6, atol=1e-6, max_steps=budget))
        assert counts(stats) == tuple(np.add(counts(alone[0]), counts(alone[1])))
        with pytest.raises(NumericError, match=f"step budget {budget - 1} exhausted"):
            integrate_adaptive(pulse, y0, 0.0, 1.0, SolverConfig(rtol=1e-6, atol=1e-6, max_steps=budget - 1))

    @pytest.mark.parametrize("max_steps, failure", [
        (10_000, "solver state became non-finite at t="), (30, "step budget 30 exhausted at t="),
    ], ids=["10000", "30"])
    def test_a_diverging_row_is_named_by_its_own_time(self, max_steps, failure):
        # x' = c x^2 blows up at t = 1 / (c x0) = 0.25 for the row with c = 4 only
        blowup = lambda h, t: np.concatenate([h[:, -1:] * h[:, :-1] ** 2, np.zeros_like(h[:, -1:])], axis=1)
        y0 = np.array([[1.0, 0.5], [1.0, 4.0], [0.5, 0.1]])
        cfg = SolverConfig(max_steps=max_steps)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match=failure) as alone:
                integrate_adaptive(blowup, y0[1:2], 0.0, 1.0, cfg)
            with pytest.raises(NumericError, match=failure) as batch:
                integrate_adaptive(blowup, y0, 0.0, 1.0, cfg)
        assert batch.value.where == alone.value.where
        assert 0.2 < batch.value.where < 0.3


class TestSolveDispatch:
    def test_dopri5_batch_is_the_per_row_solves(self, rng):
        """The batched solve against each row solved alone: the same counts, and
        states within 1e-12 (a GEMM over n rows rounds unlike one over 1 row)."""
        p = init_params(2, 3, 5, scale=1.0)
        states0 = rng.standard_normal((4, 3))
        cfg = SolverConfig(rtol=1e-6, atol=1e-6)
        hT, stats, traj = solve(p, states0, 0.0, 1.0, cfg)
        assert traj is None
        summed = SolveStats()
        for i in range(4):
            row, s = solve_adaptive(p, states0[i], 0.0, 1.0, cfg)
            np.testing.assert_allclose(hT[i], row, rtol=0, atol=1e-12)
            summed.merge(s)
        assert counts(stats) == counts(summed)
        assert stats.retained_floats == states0.size

    @pytest.mark.parametrize("keep", [False, True])
    def test_rk4_batch_is_one_fixed_solve(self, keep, rng):
        p = init_params(2, 3, 5, scale=1.0)
        states0 = rng.standard_normal((4, 3))
        hT, stats, traj = solve(p, states0, 0.0, 1.0, SolverConfig(method="rk4_fixed", n_steps=7), keep)
        ref_hT, ref_traj = solve_fixed_batch(p, states0, 0.0, 1.0, 7)
        np.testing.assert_array_equal(hT, ref_hT)
        assert (stats.n_feval, stats.n_accept, stats.n_reject) == (4 * 7 * 4, 7 * 4, 0)
        if keep:
            np.testing.assert_array_equal(traj.states, ref_traj.states)
            assert stats.retained_floats == ref_traj.n_retained_floats
        else:
            assert traj is None and stats.retained_floats == states0.size


class TestSolveStats:
    def test_merge_accumulates(self):
        a = SolveStats(n_feval=5, n_accept=2, n_reject=1, retained_floats=10)
        b = SolveStats(n_feval=7, n_accept=3, n_reject=0, retained_floats=4)
        a.merge(b)
        assert (a.n_feval, a.n_accept, a.n_reject, a.retained_floats) == (12, 5, 1, 10)
