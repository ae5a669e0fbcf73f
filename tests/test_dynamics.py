import numpy as np
import pytest

import reference as ref
from nodehead.adjoint import backprop_rk4_batch
from nodehead.dynamics import (
    BatchWorkspace,
    DynamicsParams,
    eval_dynamics,
    eval_dynamics_batch,
    init_params,
    unflatten,
    vjp_batch,
    vjp_params,
    vjp_state,
)
from nodehead.errors import ContractError
from nodehead.solvers import solve_fixed_batch


def fd_state_grad(params, h, t, a, step=1e-6):
    """Central finite differences of a.T f(h, t) over h."""
    grad = np.zeros_like(h)
    for i in range(h.size):
        e = np.zeros_like(h)
        e[i] = step
        grad[i] = (a @ eval_dynamics(params, h + e, t) - a @ eval_dynamics(params, h - e, t)) / (2 * step)
    return grad


def fd_param_grad(params, h, t, a, step=1e-6):
    """Central finite differences of a.T f(h, t) over every flat parameter."""
    flat = params.flatten()
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        e = np.zeros_like(flat)
        e[i] = step
        up = unflatten(flat + e, params.d, params.width)
        dn = unflatten(flat - e, params.d, params.width)
        grad[i] = (a @ eval_dynamics(up, h, t) - a @ eval_dynamics(dn, h, t)) / (2 * step)
    return grad


class TestInitParams:
    def test_same_seed_bitwise_identical(self):
        p1 = init_params(0, 4, 8, scale=0.1)
        p2 = init_params(0, 4, 8, scale=0.1)
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(p1, name), getattr(p2, name))

    def test_zero_scale_gives_zero_field(self, rng):
        p = init_params(0, 3, 5, scale=0.0)
        assert p.flatten().sum() == 0.0
        h = rng.standard_normal(3)
        np.testing.assert_array_equal(eval_dynamics(p, h, 0.7), np.zeros(3))

    def test_seed_sensitivity(self):
        assert not np.array_equal(init_params(0, 4, 8).flatten(), init_params(1, 4, 8).flatten())

    def test_entries_within_layer_bounds(self):
        p = init_params(3, 4, 8, scale=0.2)
        lim1 = 0.2 * np.sqrt(1 / 5)
        lim2 = 0.2 * np.sqrt(1 / 8)
        assert np.all(np.abs(p.w1) <= lim1) and np.all(np.abs(p.b1) <= lim1)
        assert np.all(np.abs(p.w2) <= lim2) and np.all(np.abs(p.b2) <= lim2)


class TestEvalDynamics:
    def test_zero_params_zero_output(self, rng):
        p = init_params(0, 4, 6, scale=0.0)
        np.testing.assert_array_equal(eval_dynamics(p, rng.standard_normal(4), 0.3), np.zeros(4))

    def test_hand_evaluated_two_layer_formula(self):
        p = DynamicsParams(
            w1=np.array([[1.0, 0.0]]), b1=np.array([0.0]),
            w2=np.array([[1.0]]), b2=np.array([0.0]),
        )
        out = eval_dynamics(p, np.array([0.5]), 0.0)
        assert abs(out[0] - 0.4621171573) <= 1e-10

    def test_time_dependence_through_time_column(self):
        p = DynamicsParams(
            w1=np.array([[0.5, 2.0]]), b1=np.array([0.1]),
            w2=np.array([[1.5]]), b2=np.array([0.0]),
        )
        h = np.array([0.3])
        assert eval_dynamics(p, h, 0.0)[0] != eval_dynamics(p, h, 1.0)[0]

    def test_shape_mismatch(self):
        p = init_params(0, 3, 4)
        with pytest.raises(ContractError, match=r"batch shape \(1, 5\) does not match field dimension 3"):
            eval_dynamics(p, np.zeros(5), 0.0)

    def test_output_norm_bounded_by_tanh_saturation(self, rng):
        p = init_params(9, 5, 7, scale=2.0)
        bound = np.linalg.norm(p.w2) * np.sqrt(p.width) + np.linalg.norm(p.b2)
        for _ in range(25):
            h = rng.standard_normal(5) * rng.uniform(0.1, 50)
            assert np.linalg.norm(eval_dynamics(p, h, rng.uniform(-2, 2))) <= bound + 1e-12

    def test_batch_matches_per_row(self, rng):
        p = init_params(4, 3, 6, scale=0.8)
        states = rng.standard_normal((9, 3))
        batched = eval_dynamics_batch(p, states, 0.4)
        for i in range(9):
            want = ref.field(p, states[i], 0.4)
            np.testing.assert_allclose(batched[i], want, atol=1e-14)
            np.testing.assert_allclose(eval_dynamics(p, states[i], 0.4), want, atol=1e-14)


class TestVjps:
    def test_zero_cotangent(self, rng):
        p = init_params(2, 3, 5, scale=0.7)
        h = rng.standard_normal(3)
        np.testing.assert_array_equal(vjp_state(p, h, 0.1, np.zeros(3)), np.zeros(3))
        np.testing.assert_array_equal(vjp_params(p, h, 0.1, np.zeros(3)), np.zeros(p.n_params))

    def test_zero_params_constant_field(self, rng):
        p = init_params(0, 3, 5, scale=0.0)
        a = rng.standard_normal(3)
        np.testing.assert_array_equal(vjp_state(p, rng.standard_normal(3), 0.2, a), np.zeros(3))

    def test_b2_gradient_is_cotangent_exactly(self, rng):
        p = init_params(7, 3, 5, scale=0.9)
        a = rng.standard_normal(3)
        g = vjp_params(p, rng.standard_normal(3), 0.6, a)
        np.testing.assert_array_equal(g[-3:], a)

    def test_vjp_state_matches_finite_differences(self):
        p = init_params(7, 3, 5, scale=0.8)
        gen = np.random.default_rng(7)
        h = gen.standard_normal(3)
        a = gen.standard_normal(3)
        np.testing.assert_allclose(vjp_state(p, h, 0.3, a), fd_state_grad(p, h, 0.3, a), atol=1e-6)

    def test_vjp_params_matches_finite_differences_everywhere(self):
        p = init_params(11, 2, 4, scale=0.8)
        gen = np.random.default_rng(11)
        h = gen.standard_normal(2)
        a = gen.standard_normal(2)
        np.testing.assert_allclose(vjp_params(p, h, 0.5, a), fd_param_grad(p, h, 0.5, a), atol=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_fd_agreement_property_small_instances(self, seed):
        gen = np.random.default_rng(seed)
        d = int(gen.integers(1, 5))
        width = int(gen.integers(1, 9))
        p = init_params(seed, d, width, scale=float(gen.uniform(0.2, 1.2)))
        h = gen.standard_normal(d)
        a = gen.standard_normal(d)
        t = float(gen.uniform(-1, 1))
        for got, want in (
            (vjp_state(p, h, t, a), fd_state_grad(p, h, t, a)),
            (vjp_params(p, h, t, a), fd_param_grad(p, h, t, a)),
        ):
            np.testing.assert_allclose(got, want, atol=1e-6, rtol=1e-4)

    def test_linearity_in_cotangent(self, rng):
        p = init_params(3, 4, 6, scale=0.9)
        h = rng.standard_normal(4)
        a1, a2 = rng.standard_normal(4), rng.standard_normal(4)
        alpha = 1.7
        for vjp, dim in ((vjp_state, 4), (vjp_params, p.n_params)):
            combined = vjp(p, h, 0.2, alpha * a1 + a2)
            separate = alpha * vjp(p, h, 0.2, a1) + vjp(p, h, 0.2, a2)
            np.testing.assert_allclose(combined, separate, atol=1e-12)

    def test_vjp_batch_matches_singles(self, rng):
        p = init_params(5, 3, 4, scale=0.8)
        states = rng.standard_normal((6, 3))
        cots = rng.standard_normal((6, 3))
        d_states, d_flat = vjp_batch(p, states, 0.25, cots)
        flat_sum = np.zeros(p.n_params)
        for i in range(6):
            want = ref.vjp_state(p, states[i], 0.25, cots[i])
            np.testing.assert_allclose(d_states[i], want, atol=1e-13)
            np.testing.assert_allclose(vjp_state(p, states[i], 0.25, cots[i]), want, atol=1e-13)
            flat_sum += ref.vjp_params(p, states[i], 0.25, cots[i])
            np.testing.assert_allclose(vjp_params(p, states[i], 0.25, cots[i]),
                                       ref.vjp_params(p, states[i], 0.25, cots[i]), atol=1e-13)
        np.testing.assert_allclose(d_flat, flat_sum, atol=1e-12)


class TestBatchWorkspace:
    def test_eval_with_workspace_matches_fresh_call(self, rng):
        p = init_params(6, 3, 7, scale=0.9)
        work = BatchWorkspace(p, 5)
        out = np.empty((5, 3))
        for t in (0.0, 0.3, 1.0):
            states = rng.standard_normal((5, 3))
            got = eval_dynamics_batch(p, states, t, out=out, work=work)
            assert got is out
            np.testing.assert_array_equal(got, eval_dynamics_batch(p, states, t))

    def test_vjp_with_workspace_matches_fresh_call(self, rng):
        p = init_params(8, 3, 7, scale=0.9)
        work = BatchWorkspace(p, 5)
        out, flat = np.empty((5, 3)), np.empty(p.n_params)
        for t in (0.0, 0.5, 1.0):
            states, cots = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
            d_states, d_flat = vjp_batch(p, states, t, cots, out=out, work=work, d_params_out=flat)
            assert d_states is out and d_flat is flat
            fresh_states, fresh_flat = vjp_batch(p, states, t, cots)
            np.testing.assert_array_equal(d_states, fresh_states)
            np.testing.assert_array_equal(d_flat, fresh_flat)

    def test_each_use_builds_only_its_own_buffers(self, rng):
        p = init_params(8, 3, 7, scale=0.9)
        states, cots = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
        # what a use leaves on a workspace beyond what its constructor built
        built = lambda work: set(vars(work)) - set(vars(BatchWorkspace(p, 5)))
        work = BatchWorkspace(p, 5)
        eval_dynamics_batch(p, states, 0.5, work=work)
        assert built(work) == set()
        vjp_batch(p, states, 0.5, cots, work=work)
        assert built(work) == {"_vjp_buffers"}
        # an RK4 solve forms M and m and nothing else, so a dopri5 or adjoint
        # workspace never does; its reverse pass leaves no sums behind
        _, traj = solve_fixed_batch(p, states, 0.0, 1.0, 3)
        assert built(traj.work) == {"_hidden"}
        backprop_rk4_batch(p, traj, cots)
        assert built(traj.work) == {"_hidden"}

    def test_value_out_shares_the_activation(self, rng):
        p = init_params(8, 3, 7, scale=0.9)
        states, cots = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        value = np.empty((4, 3))
        d_states, d_flat = vjp_batch(p, states, 0.3, cots, value_out=value)
        np.testing.assert_array_equal(value, eval_dynamics_batch(p, states, 0.3))
        fresh_states, fresh_flat = vjp_batch(p, states, 0.3, cots)
        np.testing.assert_array_equal(d_states, fresh_states)
        np.testing.assert_array_equal(d_flat, fresh_flat)

    def test_batch_shapes_checked(self, rng):
        p = init_params(0, 3, 4)
        with pytest.raises(ContractError, match=r"batch shape \(2, 4\) does not match field dimension 3"):
            eval_dynamics_batch(p, rng.standard_normal((2, 4)), 0.0)
        with pytest.raises(ContractError, match=r"batch shapes \(2, 3\) and \(3, 3\) inconsistent"):
            vjp_batch(p, rng.standard_normal((2, 3)), 0.0, rng.standard_normal((3, 3)))


class TestFlattenRoundTrip:
    def test_exact_round_trip(self):
        p = init_params(13, 5, 9, scale=0.4)
        q = unflatten(p.flatten(), 5, 9)
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(p, name), getattr(q, name))

    def test_flat_order_is_w1_b1_w2_b2(self):
        p = init_params(2, 2, 3, scale=0.5)
        flat = p.flatten()
        np.testing.assert_array_equal(flat[: 3 * 3], p.w1.ravel())
        np.testing.assert_array_equal(flat[9:12], p.b1)
        np.testing.assert_array_equal(flat[12:18], p.w2.ravel())
        np.testing.assert_array_equal(flat[18:], p.b2)

    def test_bad_length_raises(self):
        with pytest.raises(ContractError, match=r"flat parameter vector has shape \(7,\), expected \(20,\)"):
            unflatten(np.zeros(7), 2, 3)

    def test_inconsistent_shapes_raise(self):
        with pytest.raises(ContractError, match=r"w2 shape \(2, 3\) inconsistent with w1 \(3, 4\)"):
            DynamicsParams(
                w1=np.zeros((3, 4)), b1=np.zeros(3), w2=np.zeros((2, 3)), b2=np.zeros(2)
            )  # w1 implies d=3 but w2 implies d=2

    def test_params_are_frozen(self):
        p = init_params(0, 2, 3)
        with pytest.raises(ValueError):
            p.w1[0, 0] = 1.0
