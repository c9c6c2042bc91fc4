import math

import numpy as np
import numpy.testing as npt
import pytest

from botclf import numerics
from botclf.errors import ShapeError
from oracles import sigmoid


class TestActivations:
    def test_sigmoid_zero(self):
        assert sigmoid(np.array(0.0)) == 0.5

    def test_sigmoid_symmetry(self):
        x = numerics.make_rng(1).normal(size=50) * 5
        npt.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)

    def test_sigmoid_value(self):
        # direct evaluation of 1 / (1 + e^-2)
        npt.assert_allclose(sigmoid(np.array(2.0)), 0.8807970779778823,
                            rtol=1e-15)

    def test_sigmoid_saturates_without_nan(self):
        out = sigmoid(np.array([-1e4, -50.0, 50.0, 1e4]))
        assert np.isfinite(out).all()
        assert ((out >= 0) & (out <= 1)).all()

    def test_sigmoid_matches_exp_form(self):
        x = numerics.make_rng(5).normal(size=200) * 20
        t = np.exp(-np.abs(x))
        expect = np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))
        npt.assert_allclose(sigmoid(x), expect, rtol=0, atol=4.5e-16)  # 2 ulp of 1.0

    def test_tanh_sigmoid_identity(self):
        x = numerics.make_rng(3).normal(size=100) * 4
        npt.assert_allclose(np.tanh(x), 2.0 * sigmoid(2.0 * x) - 1.0,
                            atol=1e-12)


class TestSoftmax:
    def test_uniform_inputs(self):
        npt.assert_allclose(numerics.softmax(np.zeros(6)), np.full(6, 1 / 6), rtol=1e-15)

    def test_shift_invariance(self):
        x = numerics.make_rng(6).normal(size=6)
        npt.assert_allclose(numerics.softmax(x), numerics.softmax(x + 123.456), atol=1e-12)

    def test_known_value(self):
        npt.assert_allclose(numerics.softmax(np.array([1.0, 2.0, 3.0])),
                            [0.09003057317038046, 0.24472847105479767, 0.6652409557748219],
                            rtol=1e-12)

    def test_one_class_is_certain(self):
        npt.assert_array_equal(numerics.softmax(np.array([[3.0], [-2.0]])), [[1.0], [1.0]])
        with pytest.raises(ShapeError, match="at least one element"):
            numerics.softmax(np.zeros((2, 0)))

    def test_rows_sum_to_one(self):
        x = numerics.make_rng(7).normal(size=(40, 6)) * 30
        sums = numerics.softmax(x).sum(axis=1)
        npt.assert_allclose(sums, 1.0, atol=1e-9)
        assert (numerics.softmax(x) > 0).all()


class TestInitializers:
    def test_truncated_normal_bound(self):
        rng = numerics.make_rng(8)
        v = numerics.init_truncated_normal((10_000,), 0.05, rng)
        assert np.abs(v).max() <= 2 * 0.05
        assert np.isfinite(v).all()

    def test_truncated_normal_mean(self):
        rng = numerics.make_rng(9)
        v = numerics.init_truncated_normal((100_000,), 0.05, rng)
        assert abs(v.mean()) < 0.02 * 0.05

    def test_truncated_normal_deterministic(self):
        a = numerics.init_truncated_normal((64,), 0.05, numerics.make_rng(10))
        b = numerics.init_truncated_normal((64,), 0.05, numerics.make_rng(10))
        npt.assert_array_equal(a, b)

    def test_he_uniform_bounds(self):
        v6 = numerics.init_he_uniform((5_000,), 6, numerics.make_rng(11))
        assert np.abs(v6).max() <= 1.0
        v3 = numerics.init_he_uniform((5_000,), 3, numerics.make_rng(12))
        assert np.abs(v3).max() <= math.sqrt(2.0)
        assert np.abs(v3).max() > 1.0  # actually uses the sqrt(6/3) range

    def test_he_uniform_deterministic(self):
        a = numerics.init_he_uniform((64,), 9, numerics.make_rng(13))
        b = numerics.init_he_uniform((64,), 9, numerics.make_rng(13))
        npt.assert_array_equal(a, b)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            numerics.init_truncated_normal((4,), 0.0, numerics.make_rng(0))
        with pytest.raises(ValueError):
            numerics.init_he_uniform((4,), 0, numerics.make_rng(0))


class TestRngStreams:
    def test_same_seed_same_sequence(self):
        a = numerics.make_rng(123).random(16)
        b = numerics.make_rng(123).random(16)
        npt.assert_array_equal(a, b)

    def test_substreams_independent_of_each_other(self):
        conv1 = numerics.substream(5, "conv").random(8)
        numerics.substream(5, "gru").random(100)  # interleaved draws elsewhere
        conv2 = numerics.substream(5, "conv").random(8)
        npt.assert_array_equal(conv1, conv2)
        assert not np.array_equal(conv1, numerics.substream(5, "gru").random(8))

    def test_precision_resolution(self):
        assert numerics.resolve_dtype("double") == np.float64
        assert numerics.resolve_dtype("single") == np.float32
        with pytest.raises(ValueError):
            numerics.resolve_dtype("half")
