import numpy as np
import pytest

from nodehead.adjoint import adjoint_solve, backprop_rk4_batch, backprop_through_solver
from nodehead.dynamics import init_params, unflatten
from nodehead.errors import ContractError, ShapeError
from nodehead.solvers import SolverConfig, Trajectory, solve_fixed, solve_fixed_batch


class LinearField:
    """dh/dt = lam * h with one parameter (lam); all derivatives closed-form."""

    n_params = 1

    def __init__(self, lam=-1.0):
        self.lam = lam

    def eval(self, h, t):
        return self.lam * h

    def vjp_state(self, h, t, a):
        return self.lam * a

    def vjp_params(self, h, t, a):
        return np.array([float(a @ h)])


def fd_discrete_grads(params, h0, c, n_steps, step=1e-6):
    """Finite differences of c.T hT through the discrete fixed-step map."""
    def terminal(p, h):
        hT, _ = solve_fixed(p, h, 0.0, 1.0, n_steps)
        return float(c @ hT)

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


class TestBackpropThroughSolver:
    def test_zero_cotangent_gives_zero_gradients(self, rng):
        p = init_params(0, 3, 4, scale=0.8)
        _, traj = solve_fixed(p, rng.standard_normal(3), 0.0, 1.0, 10)
        res = backprop_through_solver(p, traj, np.zeros(3))
        np.testing.assert_array_equal(res.d_h0, np.zeros(3))
        np.testing.assert_array_equal(res.d_params, np.zeros(p.n_params))

    def test_zero_field_passes_cotangent_through_exactly(self, rng):
        p = init_params(0, 3, 4, scale=0.0)
        _, traj = solve_fixed(p, rng.standard_normal(3), 0.0, 1.0, 25)
        d_hT = rng.standard_normal(3)
        res = backprop_through_solver(p, traj, d_hT)
        np.testing.assert_array_equal(res.d_h0, d_hT)
        # f == b2 when all weights vanish, so d/d_b2 integrates the cotangent
        # over [0, 1]: the RK4 quadrature of a constant is exact
        np.testing.assert_allclose(res.d_params[-3:], d_hT, atol=1e-12)

    def test_matches_finite_differences_of_discrete_map(self):
        gen = np.random.default_rng(2)
        p = init_params(2, 3, 4, scale=0.8)
        h0 = gen.standard_normal(3)
        c = gen.standard_normal(3)
        _, traj = solve_fixed(p, h0, 0.0, 1.0, 20)
        res = backprop_through_solver(p, traj, c)
        fd_h0, fd_params = fd_discrete_grads(p, h0, c, 20)
        np.testing.assert_allclose(res.d_h0, fd_h0, atol=1e-6)
        np.testing.assert_allclose(res.d_params, fd_params, atol=1e-6)

    def test_missing_stages_is_contract_error(self, rng):
        p = init_params(0, 2, 3)
        traj = Trajectory(times=np.array([0.0, 1.0]), states=rng.standard_normal((2, 2)), stages=None)
        with pytest.raises(ContractError):
            backprop_through_solver(p, traj, np.zeros(2))

    def test_linear_in_cotangent(self, rng):
        p = init_params(4, 3, 5, scale=0.7)
        _, traj = solve_fixed(p, rng.standard_normal(3), 0.0, 1.0, 15)
        v1, v2 = rng.standard_normal(3), rng.standard_normal(3)
        alpha = -2.3
        combined = backprop_through_solver(p, traj, alpha * v1 + v2)
        r1 = backprop_through_solver(p, traj, v1)
        r2 = backprop_through_solver(p, traj, v2)
        np.testing.assert_allclose(combined.d_h0, alpha * r1.d_h0 + r2.d_h0, atol=1e-12)
        np.testing.assert_allclose(combined.d_params, alpha * r1.d_params + r2.d_params, atol=1e-12)

    def test_retained_floats_grow_with_step_count(self, rng):
        p = init_params(0, 3, 4, scale=0.5)
        h0 = rng.standard_normal(3)
        sizes = []
        for n in (10, 100):
            _, traj = solve_fixed(p, h0, 0.0, 1.0, n)
            sizes.append(backprop_through_solver(p, traj, np.ones(3)).retained_floats)
        assert sizes[1] > 9 * sizes[0]

    def test_batch_reverse_matches_singles(self, rng):
        p = init_params(9, 3, 4, scale=0.8)
        states0 = rng.standard_normal((5, 3))
        cots = rng.standard_normal((5, 3))
        _, traj_b = solve_fixed_batch(p, states0, 0.0, 1.0, 12)
        d_h0_b, d_flat_b = backprop_rk4_batch(p, traj_b, cots)
        flat_sum = np.zeros(p.n_params)
        for i in range(5):
            _, traj = solve_fixed(p, states0[i], 0.0, 1.0, 12)
            res = backprop_through_solver(p, traj, cots[i])
            np.testing.assert_allclose(d_h0_b[i], res.d_h0, atol=1e-12)
            flat_sum += res.d_params
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
        flat_sum = np.zeros(p.n_params)
        for i in range(n):
            _, traj = solve_fixed(p, states0[i], 0.0, 1.0, 9)
            res = backprop_through_solver(p, traj, cots[i])
            np.testing.assert_allclose(d_h0_b[i], res.d_h0, rtol=0, atol=1e-12)
            flat_sum += res.d_params
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

    def test_cotangent_shape_checked(self, rng):
        p = init_params(0, 3, 4)
        _, traj = solve_fixed_batch(p, rng.standard_normal((4, 3)), 0.0, 1.0, 3)
        with pytest.raises(ShapeError):
            backprop_rk4_batch(p, traj, np.zeros((3, 3)))


class TestAdjointSolve:
    def test_zero_cotangent_gives_zero_gradients(self, rng):
        p = init_params(1, 3, 4, scale=0.8)
        cfg = SolverConfig(rtol=1e-8, atol=1e-8)
        hT, _ = solve_fixed(p, rng.standard_normal(3), 0.0, 1.0, 50)
        res = adjoint_solve(p, hT, np.zeros(3), 0.0, 1.0, cfg)
        np.testing.assert_allclose(res.d_h0, np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(res.d_params, np.zeros(p.n_params), atol=1e-12)

    def test_linear_flow_closed_form(self):
        # dh/dt = -h: dL/dh0 = e^{-1} d_hT and dL/dlam = e^{-1} h0 for L = d_hT.h(1)
        field = LinearField(lam=-1.0)
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
        hT, traj = solve_fixed(p, h0, 0.0, 1.0, 2000)
        disc = backprop_through_solver(p, traj, c)
        adj = adjoint_solve(p, hT, c, 0.0, 1.0, SolverConfig(rtol=1e-8, atol=1e-8))
        np.testing.assert_allclose(adj.d_h0, disc.d_h0, rtol=1e-4, atol=1e-10)
        np.testing.assert_allclose(adj.d_params, disc.d_params, rtol=1e-4, atol=1e-10)

    def test_linear_in_cotangent(self, rng):
        # the continuous adjoint is linear in d_hT; numerically the adaptive
        # step sequence shifts with the cotangent scale (atol is absolute),
        # so exactness needs tight tolerances
        p = init_params(3, 2, 4, scale=0.8)
        cfg = SolverConfig(rtol=1e-11, atol=1e-11)
        hT, _ = solve_fixed(p, rng.standard_normal(2), 0.0, 1.0, 100)
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
            hT, _ = solve_fixed(p, h0, 0.0, 1.0, 800)
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
        hT, traj = solve_fixed(p, h0, 0.0, 1.0, n)
        disc = backprop_through_solver(p, traj, c)
        adj = adjoint_solve(p, hT, c, 0.0, 1.0, SolverConfig(rtol=1e-8, atol=1e-8))
        fd_h0, fd_params = fd_discrete_grads(p, h0, c, n)
        for a, b in [
            (disc.d_h0, adj.d_h0),
            (disc.d_h0, fd_h0),
            (adj.d_h0, fd_h0),
            (disc.d_params, adj.d_params),
            (disc.d_params, fd_params),
            (adj.d_params, fd_params),
        ]:
            diff = np.abs(a - b)
            scale = np.maximum(np.abs(a), np.abs(b))
            assert np.all((diff <= 1e-6) | (diff <= 1e-4 * scale))
