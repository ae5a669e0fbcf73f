import mpmath
import numpy as np
import pytest

from nodehead.tensorops import softmax


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_shift_invariance_no_overflow(self):
        out = softmax([1000.0, 1000.0, 1000.0])
        np.testing.assert_allclose(out, [1 / 3] * 3, atol=1e-15)
        assert np.all(np.isfinite(out))

    def test_against_extended_precision_oracle(self):
        with mpmath.workdps(50):
            exps = [mpmath.exp(v) for v in (1, 2, 3)]
            total = sum(exps)
            expected = np.array([float(e / total) for e in exps])
        np.testing.assert_allclose(softmax([1.0, 2.0, 3.0]), expected, atol=1e-15)

    @pytest.mark.parametrize("trial", range(20))
    def test_sums_to_one_property(self, trial):
        gen = np.random.default_rng(trial)
        logits = gen.standard_normal(gen.integers(1, 12)) * gen.uniform(0.1, 100)
        p = softmax(logits)
        assert np.all(p > 0)
        assert abs(p.sum() - 1.0) <= 1e-12
