import numpy as np
import pytest

import reference as ref
from nodehead.adjoint import adjoint_solve, backprop_rk4_batch
from nodehead.dynamics import init_params, unflatten
from nodehead.errors import ContractError
from nodehead.solvers import SolverConfig, Trajectory, solve_fixed_batch


def solve_row(params, h0, n_steps):
    """Discrete forward solve of one state; returns (hT, trajectory of the n=1 batch)."""
    hT, traj = solve_fixed_batch(params, np.asarray(h0)[None], 0.0, 1.0, n_steps)
    return hT[0], traj


def backprop_row(params, traj, d_hT):
    """Discrete reverse pass of one state; returns (d_h0, d_params)."""
    d_h0, d_params = backprop_rk4_batch(params, traj, np.asarray(d_hT)[None])
    return d_h0[0], d_params


def reference_rows(params, states0, cots, n_steps):
    """Per-row reference reverse passes; returns (d_h0 rows, d_params summed over rows)."""
    f = lambda h, t: ref.field(params, h, t)
    d_h0 = np.empty_like(states0)
    flat_sum = np.zeros(params.n_params)
    for i in range(len(states0)):
        _, times, states, stages = ref.rk4_solve(f, states0[i], 0.0, 1.0, n_steps)
        d_h0[i], d_params = ref.rk4_backprop(params, times, states, stages, cots[i])
        flat_sum += d_params
    return d_h0, flat_sum


def fd_discrete_grads(params, h0, c, n_steps, step=1e-6):
    """Finite differences of c.T hT through the discrete fixed-step map."""
    def terminal(p, h):
        return float(c @ solve_row(p, h, n_steps)[0])

    d_h0 = np.zeros_like(h0)
    for i in range(h0.size):
        e = np.zeros_like(h0)
        e[i] = step
        d_h0[i] = (terminal(params, h0 + e) - terminal(params, h0 - e)) / (2 * step)
    flat = params.flatten()
    d_params = np.zeros_like(flat)
    for i in range(flat.size):
        e = np.zeros_like(flat)
        e[i] = step
        up = unflatten(flat + e, params.d, params.width)
        dn = unflatten(flat - e, params.d, params.width)
        d_params[i] = (terminal(up, h0) - terminal(dn, h0)) / (2 * step)
    return d_h0, d_params


class TestHiddenSpaceKernel:
    """The RK4 step of the two-layer field, taken through its activations, against
    the per-row state-space reference loop and its reverse recursion."""

    @pytest.mark.parametrize("n", [1, 7])
    @pytest.mark.parametrize("d, width", [(5, 3), (3, 5), (4, 16), (1, 4)])
    def test_forward_and_reverse_match_reference(self, d, width, n, rng):
        p = init_params(10 * d + width, d, width, scale=1.5)
        states0, cots = rng.standard_normal((n, d)), rng.standard_normal((n, d))
        hT, traj = solve_fixed_batch(p, states0, 0.3, 1.1, 6)
        assert traj.stages.shape == (6, 4, n, width)
        f = lambda h, t: ref.field(p, h, t)
        for i in range(n):
            hT_row, times, states_row, stages_row = ref.rk4_solve(f, states0[i], 0.3, 1.1, 6)
            np.testing.assert_allclose(hT[i], hT_row, rtol=0, atol=1e-12)
            np.testing.assert_allclose(traj.states[:, i], states_row, rtol=0, atol=1e-12)
            # each stored activation u rebuilds its stage derivative u @ w2.T + b2
            np.testing.assert_allclose(traj.stages[:, :, i] @ p.w2.T + p.b2, stages_row,
                                       rtol=0, atol=1e-12)
        d_h0, d_params = backprop_rk4_batch(p, traj, cots)
        want_h0 = np.empty_like(states0)
        want_params = np.zeros(p.n_params)
        for i in range(n):
            _, times, states_row, stages_row = ref.rk4_solve(f, states0[i], 0.3, 1.1, 6)
            want_h0[i], row_params = ref.rk4_backprop(p, times, states_row, stages_row, cots[i])
            want_params += row_params
        np.testing.assert_allclose(d_h0, want_h0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(d_params, want_params, rtol=0, atol=1e-12)

    def test_long_solve_and_reverse_match_reference(self, rng):
        # the gradcheck default: 500 steps, d = 4, width = 8; the carried
        # pre-activation must not drift from the state-space recursion
        p = init_params(7, 4, 8, scale=1.5)
        states0, cots = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        hT, traj = solve_fixed_batch(p, states0, 0.0, 1.0, 500)
        np.testing.assert_array_equal(traj.states[-1], hT)
        d_h0, d_params = backprop_rk4_batch(p, traj, cots)
        f = lambda h, t: ref.field(p, h, t)
        want_params = np.zeros(p.n_params)
        for i in range(3):
            hT_row, times, states_row, stages_row = ref.rk4_solve(f, states0[i], 0.0, 1.0, 500)
            np.testing.assert_allclose(hT[i], hT_row, rtol=0, atol=1e-10)
            np.testing.assert_allclose(traj.states[:, i], states_row, rtol=0, atol=1e-10)
            want_h0, row_params = ref.rk4_backprop(p, times, states_row, stages_row, cots[i])
            np.testing.assert_allclose(d_h0[i], want_h0, rtol=0, atol=1e-10)
            want_params += row_params
        np.testing.assert_allclose(d_params, want_params, rtol=0, atol=1e-10)

    def test_retains_the_initial_batch_and_the_activations(self, rng):
        p = init_params(3, 4, 6, scale=1.0)
        _, traj = solve_fixed_batch(p, rng.standard_normal((5, 4)), 0.0, 1.0, 9)
        assert traj.stages.shape == (9, 4, 5, 6)
        assert traj.n_retained_floats == traj.h0.size + traj.stages.size == 5 * 4 + 9 * 4 * 5 * 6

    def test_zero_field_keeps_states_bitwise(self, rng):
        p = init_params(0, 4, 6, scale=0.0)
        states0 = rng.standard_normal((7, 4))
        hT, traj = solve_fixed_batch(p, states0, 0.0, 1.0, 5)
        np.testing.assert_array_equal(hT, states0)
        for state in traj.states:
            np.testing.assert_array_equal(state, states0)


class TestBackpropThroughSolver:
    def test_zero_cotangent_gives_zero_gradients(self, rng):
        p = init_params(0, 3, 4, scale=0.8)
        _, traj = solve_row(p, rng.standard_normal(3), 10)
        d_h0, d_params = backprop_row(p, traj, np.zeros(3))
        np.testing.assert_array_equal(d_h0, np.zeros(3))
        np.testing.assert_array_equal(d_params, np.zeros(p.n_params))

    def test_zero_field_passes_cotangent_through_exactly(self, rng):
        p = init_params(0, 3, 4, scale=0.0)
        _, traj = solve_row(p, rng.standard_normal(3), 25)
        d_hT = rng.standard_normal(3)
        d_h0, d_params = backprop_row(p, traj, d_hT)
        np.testing.assert_array_equal(d_h0, d_hT)
        # f == b2 when all weights vanish, so d/d_b2 integrates the cotangent
        # over [0, 1]: the RK4 quadrature of a constant is exact
        np.testing.assert_allclose(d_params[-3:], d_hT, atol=1e-12)

    def test_matches_finite_differences_of_discrete_map(self):
        gen = np.random.default_rng(2)
        p = init_params(2, 3, 4, scale=0.8)
        h0 = gen.standard_normal(3)
        c = gen.standard_normal(3)
        _, traj = solve_row(p, h0, 20)
        d_h0, d_params = backprop_row(p, traj, c)
        fd_h0, fd_params = fd_discrete_grads(p, h0, c, 20)
        np.testing.assert_allclose(d_h0, fd_h0, atol=1e-6)
        np.testing.assert_allclose(d_params, fd_params, atol=1e-6)

    def test_missing_stages_is_contract_error(self, rng):
        p = init_params(0, 2, 3)
        traj = Trajectory(times=np.array([0.0, 1.0]), h0=rng.standard_normal((1, 2)), stages=None)
        with pytest.raises(ContractError):
            backprop_rk4_batch(p, traj, np.zeros((1, 2)))

    def test_linear_in_cotangent(self, rng):
        p = init_params(4, 3, 5, scale=0.7)
        _, traj = solve_row(p, rng.standard_normal(3), 15)
        v1, v2 = rng.standard_normal(3), rng.standard_normal(3)
        alpha = -2.3
        combined = backprop_row(p, traj, alpha * v1 + v2)
        r1 = backprop_row(p, traj, v1)
        r2 = backprop_row(p, traj, v2)
        for k in range(2):
            np.testing.assert_allclose(combined[k], alpha * r1[k] + r2[k], atol=1e-12)

    def test_retained_floats_grow_with_step_count(self, rng):
        p = init_params(0, 3, 4, scale=0.5)
        h0 = rng.standard_normal(3)
        sizes = [solve_row(p, h0, n)[1].n_retained_floats for n in (10, 100)]
        assert sizes[1] > 9 * sizes[0]

    def test_batch_reverse_matches_singles(self, rng):
        p = init_params(9, 3, 4, scale=0.8)
        states0 = rng.standard_normal((5, 3))
        cots = rng.standard_normal((5, 3))
        _, traj_b = solve_fixed_batch(p, states0, 0.0, 1.0, 12)
        d_h0_b, d_flat_b = backprop_rk4_batch(p, traj_b, cots)
        d_h0, flat_sum = reference_rows(p, states0, cots, 12)
        np.testing.assert_allclose(d_h0_b, d_h0, atol=1e-12)
        np.testing.assert_allclose(d_flat_b, flat_sum, atol=1e-11)


class TestBatchReverse:
    @pytest.mark.parametrize("n, d, width", [(5, 3, 7), (1, 2, 5)])
    def test_shapes_match_per_row_reverse(self, n, d, width, rng):
        p = init_params(n * d + width, d, width, scale=0.9)
        states0 = rng.standard_normal((n, d))
        cots = rng.standard_normal((n, d))
        _, traj_b = solve_fixed_batch(p, states0, 0.0, 1.0, 9)
        d_h0_b, d_flat_b = backprop_rk4_batch(p, traj_b, cots)
        assert d_h0_b.shape == (n, d) and d_flat_b.shape == (p.n_params,)
        d_h0, flat_sum = reference_rows(p, states0, cots, 9)
        np.testing.assert_allclose(d_h0_b, d_h0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(d_flat_b, flat_sum, rtol=0, atol=1e-12)

    def test_outputs_not_aliased_and_inputs_untouched(self, rng):
        p = init_params(2, 3, 4, scale=0.8)
        _, traj = solve_fixed_batch(p, rng.standard_normal((4, 3)), 0.0, 1.0, 6)
        traj_before = (traj.states.copy(), traj.stages.copy())
        cots = rng.standard_normal((4, 3))
        cots_before = cots.copy()
        d_h0, d_flat = backprop_rk4_batch(p, traj, cots)
        kept = (d_h0.copy(), d_flat.copy())
        backprop_rk4_batch(p, traj, -cots)
        np.testing.assert_array_equal(d_h0, kept[0])
        np.testing.assert_array_equal(d_flat, kept[1])
        np.testing.assert_array_equal(cots, cots_before)
        np.testing.assert_array_equal(traj.states, traj_before[0])
        np.testing.assert_array_equal(traj.stages, traj_before[1])

    def test_closed_form_field_matches_rk4_stability_polynomial(self, rng):
        # dh/dt = lam h: one RK4 step multiplies by R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24
        # with z = lam dt, so hT = R^N h0 and dL/dlam = dt R'(z) N R^(N-1) (c . h0)
        lam, n_steps = -0.7, 8
        dt = 1.0 / n_steps
        z = lam * dt
        r = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
        dr = 1 + z + z**2 / 2 + z**3 / 6
        states0, cots = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
        field = ref.LinearField(lam)
        _, traj = solve_fixed_batch(field, states0, 0.0, 1.0, n_steps)
        d_h0, d_lam = backprop_rk4_batch(field, traj, cots)
        np.testing.assert_allclose(d_h0, r**n_steps * cots, rtol=1e-13)
        expected = dt * dr * n_steps * r ** (n_steps - 1) * np.sum(cots * states0)
        np.testing.assert_allclose(d_lam, [expected], rtol=1e-12)

    def test_cotangent_shape_checked(self, rng):
        p = init_params(0, 3, 4)
        _, traj = solve_fixed_batch(p, rng.standard_normal((4, 3)), 0.0, 1.0, 3)
        with pytest.raises(ContractError, match=r"cotangent shape \(3, 3\) does not match batch shape \(4, 3\)"):
            backprop_rk4_batch(p, traj, np.zeros((3, 3)))

    def test_field_of_another_solve_is_contract_error(self, rng):
        # same shape, different draw: the trajectory's stages were written by p
        p, other = init_params(0, 3, 4, scale=0.8), init_params(1, 3, 4, scale=0.8)
        _, traj = solve_fixed_batch(p, rng.standard_normal((4, 3)), 0.0, 1.0, 5)
        with pytest.raises(ContractError, match="not written by this field"):
            backprop_rk4_batch(other, traj, rng.standard_normal((4, 3)))

    def test_reversing_twice_is_bitwise_repeatable(self, rng):
        p = init_params(3, 3, 4, scale=0.8)
        _, traj = solve_fixed_batch(p, rng.standard_normal((4, 3)), 0.0, 1.0, 6)
        cots = rng.standard_normal((4, 3))
        first = backprop_rk4_batch(p, traj, cots)
        second = backprop_rk4_batch(p, traj, cots)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)


class TestAdjointSolve:
    def test_zero_cotangent_gives_zero_gradients(self, rng):
        p = init_params(1, 3, 4, scale=0.8)
        cfg = SolverConfig(rtol=1e-8, atol=1e-8)
        hT, _ = solve_row(p, rng.standard_normal(3), 50)
        res = adjoint_solve(p, hT, np.zeros(3), 0.0, 1.0, cfg)
        np.testing.assert_allclose(res.d_h0, np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(res.d_params, np.zeros(p.n_params), atol=1e-12)

    def test_linear_flow_closed_form(self):
        # dh/dt = -h: dL/dh0 = e^{-1} d_hT and dL/dlam = e^{-1} h0 for L = d_hT.h(1)
        field = ref.LinearField(-1.0)
        cfg = SolverConfig(rtol=1e-10, atol=1e-10)
        hT = np.array([np.exp(-1.0)])
        res = adjoint_solve(field, hT, np.array([1.0]), 0.0, 1.0, cfg)
        assert abs(res.d_h0[0] - 0.3678794) <= 1e-6
        assert abs(res.d_params[0] - np.exp(-1.0)) <= 1e-8

    def test_agrees_with_discrete_method(self):
        gen = np.random.default_rng(6)
        p = init_params(6, 3, 5, scale=0.9)
        h0 = gen.standard_normal(3)
        c = gen.standard_normal(3)
        hT, traj = solve_row(p, h0, 2000)
        disc_h0, disc_params = backprop_row(p, traj, c)
        adj = adjoint_solve(p, hT, c, 0.0, 1.0, SolverConfig(rtol=1e-8, atol=1e-8))
        np.testing.assert_allclose(adj.d_h0, disc_h0, rtol=1e-4, atol=1e-10)
        np.testing.assert_allclose(adj.d_params, disc_params, rtol=1e-4, atol=1e-10)

    def test_linear_in_cotangent(self, rng):
        # the continuous adjoint is linear in d_hT; numerically the adaptive
        # step sequence shifts with the cotangent scale (atol is absolute),
        # so exactness needs tight tolerances
        p = init_params(3, 2, 4, scale=0.8)
        cfg = SolverConfig(rtol=1e-11, atol=1e-11)
        hT, _ = solve_row(p, rng.standard_normal(2), 100)
        v = rng.standard_normal(2)
        r1 = adjoint_solve(p, hT, v, 0.0, 1.0, cfg)
        r2 = adjoint_solve(p, hT, 3.0 * v, 0.0, 1.0, cfg)
        np.testing.assert_allclose(r2.d_h0, 3.0 * r1.d_h0, atol=5e-12)
        np.testing.assert_allclose(r2.d_params, 3.0 * r1.d_params, atol=5e-12)

    def test_retained_state_is_one_augmented_vector(self, rng):
        # O(1) memory contract: the backward pass carries 2d + p floats no
        # matter how many steps the solver takes
        p = init_params(5, 3, 4, scale=1.5)
        h0 = rng.standard_normal(3)
        expected = 2 * 3 + p.n_params
        sizes, fevals = [], []
        for tol in (1e-3, 1e-12):
            cfg = SolverConfig(rtol=tol, atol=tol)
            hT, _ = solve_row(p, h0, 800)
            res = adjoint_solve(p, hT, np.ones(3), 0.0, 1.0, cfg)
            sizes.append(res.retained_floats)
            fevals.append(res.stats.n_feval)
        assert fevals[1] >= 10 * fevals[0]
        assert sizes[0] == sizes[1] == expected

    def test_shape_mismatch_raises(self, rng):
        p = init_params(0, 3, 4)
        with pytest.raises(ContractError):
            adjoint_solve(p, rng.standard_normal(3), rng.standard_normal(4), 0.0, 1.0, SolverConfig())


class TestGradientConsistencyTriangle:
    @pytest.mark.parametrize("seed", range(4))
    def test_fd_discrete_adjoint_agree_pairwise(self, seed):
        gen = np.random.default_rng(seed)
        d = int(gen.integers(2, 5))
        width = int(gen.integers(2, 9))
        p = init_params(seed, d, width, scale=0.8)
        h0 = gen.standard_normal(d)
        c = gen.standard_normal(d)
        n = 400
        hT, traj = solve_row(p, h0, n)
        disc_h0, disc_params = backprop_row(p, traj, c)
        adj = adjoint_solve(p, hT, c, 0.0, 1.0, SolverConfig(rtol=1e-8, atol=1e-8))
        fd_h0, fd_params = fd_discrete_grads(p, h0, c, n)
        for a, b in [
            (disc_h0, adj.d_h0),
            (disc_h0, fd_h0),
            (adj.d_h0, fd_h0),
            (disc_params, adj.d_params),
            (disc_params, fd_params),
            (adj.d_params, fd_params),
        ]:
            diff = np.abs(a - b)
            scale = np.maximum(np.abs(a), np.abs(b))
            assert np.all((diff <= 1e-6) | (diff <= 1e-4 * scale))
