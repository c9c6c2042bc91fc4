import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest

from botclf import layers
from botclf.errors import CacheReusedError, ShapeError
from botclf.numerics import make_rng
from oracles import (batchnorm_backward, batchnorm_forward, check_grads, conv1d_backward,
                     conv1d_forward, conv_oracle, global_max_pool, global_max_pool_backward,
                     gru_oracle, gru_stepwise_backward, gru_stepwise_forward,
                     random_gru_params, sigmoid)

RNG = make_rng(20240517)


# --------------------------------------------------------------------------
# Conv1D


class TestConv1D:
    def test_same_padding_output_length(self):
        p = layers.Conv1DParams(kernels=RNG.normal(size=(3, 1, 128)),
                                bias=RNG.normal(size=128))
        for t in (1, 2, 5, 16):
            y, _ = conv1d_forward(RNG.normal(size=(2, t, 1)), p)
            assert y.shape == (2, t, 128)

    def test_identity_kernel(self):
        p = layers.Conv1DParams(kernels=np.array([0.0, 1.0, 0.0]).reshape(3, 1, 1),
                                bias=np.zeros(1))
        x = RNG.normal(size=(3, 16, 1))
        y, _ = conv1d_forward(x, p)
        npt.assert_allclose(y, x, atol=1e-15)

    def test_against_sliding_window_oracle(self):
        p = layers.Conv1DParams(kernels=RNG.normal(size=(3, 2, 4)),
                                bias=RNG.normal(size=4))
        x = RNG.normal(size=(2, 7, 2))
        y, _ = conv1d_forward(x, p)
        npt.assert_allclose(y, conv_oracle(x, p.kernels, p.bias), atol=1e-12)

    def test_channel_mismatch(self):
        p = layers.Conv1DParams(kernels=np.zeros((3, 2, 4)), bias=np.zeros(4))
        with pytest.raises(ShapeError):
            conv1d_forward(np.zeros((1, 5, 1)), p)

    def test_backward_finite_differences(self):
        rng = make_rng(101)
        p = layers.Conv1DParams(kernels=rng.normal(size=(3, 2, 5)),
                                bias=rng.normal(size=5))
        x = rng.normal(size=(2, 6, 2))
        upstream = rng.normal(size=(2, 6, 5))

        def loss():
            y, _ = conv1d_forward(x, p)
            return float((y * upstream).sum())

        y, cache = conv1d_forward(x, p)
        dx, grads = conv1d_backward(cache, upstream)
        check_grads(grads["kernels"], loss, p.kernels, rng)
        check_grads(grads["bias"], loss, p.bias, rng)
        check_grads(dx, loss, x, rng)

    def test_zero_upstream_gives_zero_grads(self):
        p = layers.Conv1DParams(kernels=RNG.normal(size=(3, 1, 4)), bias=RNG.normal(size=4))
        x = RNG.normal(size=(2, 5, 1))
        _, cache = conv1d_forward(x, p)
        dx, grads = conv1d_backward(cache, np.zeros((2, 5, 4)))
        assert not dx.any() and not grads["kernels"].any() and not grads["bias"].any()


# --------------------------------------------------------------------------
# BatchNorm


def make_bn(c, eps=1e-3, momentum=0.99, rng=None):
    rng = rng or make_rng(7)
    return layers.BatchNormParams(
        gamma=rng.uniform(0.5, 1.5, size=c), beta=rng.normal(size=c),
        moving_mean=rng.normal(size=c), moving_var=rng.uniform(0.5, 2.0, size=c),
        epsilon=eps, momentum=momentum)


class TestBatchNorm:
    def test_train_normalizes(self):
        p = layers.BatchNormParams(gamma=np.ones(4), beta=np.zeros(4),
                                   moving_mean=np.zeros(4), moving_var=np.ones(4))
        x = make_rng(1).normal(loc=3.0, scale=2.0, size=(8, 6, 4))
        y, _ = batchnorm_forward(x, p, training=True)
        npt.assert_allclose(y.mean(axis=(0, 1)), 0.0, atol=1e-12)
        npt.assert_allclose(y.var(axis=(0, 1)), 1.0, atol=2e-3)  # epsilon effect

    def test_affine_contract(self):
        p = layers.BatchNormParams(gamma=np.full(3, 2.0), beta=np.full(3, 3.0),
                                   moving_mean=np.zeros(3), moving_var=np.ones(3))
        x = make_rng(2).normal(size=(10, 8, 3))
        y, _ = batchnorm_forward(x, p, training=True)
        npt.assert_allclose(y.mean(axis=(0, 1)), 3.0, atol=1e-12)
        npt.assert_allclose(y.std(axis=(0, 1)), 2.0, atol=4e-3)

    def test_infer_matches_scalar_oracle(self):
        p = make_bn(3)
        x = make_rng(3).normal(size=(2, 4, 3))
        y, _ = batchnorm_forward(x, p, training=False)
        expect = np.zeros_like(x)
        for b in range(2):
            for t in range(4):
                for c in range(3):
                    xhat = (x[b, t, c] - p.moving_mean[c]) / math.sqrt(
                        p.moving_var[c] + p.epsilon)
                    expect[b, t, c] = p.gamma[c] * xhat + p.beta[c]
        npt.assert_allclose(y, expect, atol=1e-12)

    def test_infer_deterministic(self):
        p = make_bn(5)
        x = make_rng(4).normal(size=(3, 4, 5))
        y1, _ = batchnorm_forward(x, p, training=False)
        y2, _ = batchnorm_forward(x, p, training=False)
        npt.assert_array_equal(y1, y2)

    def test_moving_stats_update(self):
        p = make_bn(2, momentum=0.9)
        mm, mv = p.moving_mean.copy(), p.moving_var.copy()
        x = make_rng(5).normal(size=(4, 3, 2))
        batchnorm_forward(x, p, training=True)
        npt.assert_allclose(p.moving_mean, 0.9 * mm + 0.1 * x.mean(axis=(0, 1)), atol=1e-12)
        npt.assert_allclose(p.moving_var, 0.9 * mv + 0.1 * x.var(axis=(0, 1)), atol=1e-12)

    def test_zero_variance_input_is_finite(self):
        p = layers.BatchNormParams(gamma=np.ones(2), beta=np.zeros(2),
                                   moving_mean=np.zeros(2), moving_var=np.ones(2))
        y, _ = batchnorm_forward(np.full((3, 4, 2), 7.0), p, training=True)
        assert np.isfinite(y).all()

    def test_train_requires_two_positions(self):
        p = make_bn(2)
        with pytest.raises(ShapeError):
            batchnorm_forward(np.zeros((1, 1, 2)), p, training=True)

    @pytest.mark.parametrize("training", [True, False])
    def test_backward_finite_differences(self, training):
        rng = make_rng(106 + training)
        p = make_bn(3, rng=rng)
        x = rng.normal(size=(3, 5, 3))
        upstream = rng.normal(size=(3, 5, 3))

        def loss():
            y, _ = batchnorm_forward(x, p, training=training)
            return float((y * upstream).sum())

        _, cache = batchnorm_forward(x, p, training=training)
        dx, grads = batchnorm_backward(cache, upstream)
        check_grads(grads["gamma"], loss, p.gamma, rng)
        check_grads(grads["beta"], loss, p.beta, rng)
        check_grads(dx, loss, x, rng)


# --------------------------------------------------------------------------
# GRU


class TestGRU:
    def test_zero_weights_zero_state(self):
        p = layers.GRUParams(*[np.zeros(s) for s in
                               [(1, 4), (1, 4), (1, 4), (4, 4), (4, 4), (4, 4),
                                4, 4, 4, 4, 4, 4]])
        x = make_rng(10).normal(size=(2, 6, 1))
        h_seq, _ = layers.gru_forward(x, p)
        npt.assert_array_equal(h_seq, np.zeros((2, 6, 4)))

    def test_saturated_update_gate_passes_candidate(self):
        rng = make_rng(11)
        p = random_gru_params(rng, 1, 3, scale=0.3)
        p.b_z[:] = 50.0  # force z ~= 1
        x = rng.normal(size=(1, 2, 1))
        h_seq, _ = layers.gru_forward(x, p)
        h1 = h_seq[0, 0]  # the state the second step starts from
        assert np.abs(h1).min() > 1e-3
        r = sigmoid(x[0, 1] @ p.w_r + h1 @ p.u_r + p.b_r + p.rb_r)
        cand = np.tanh(x[0, 1] @ p.w_h + p.b_h + r * (h1 @ p.u_h + p.rb_h))
        npt.assert_allclose(h_seq[0, 1], cand, atol=1e-9)

    def test_matches_scalar_oracle(self):
        rng = make_rng(12)
        for _ in range(10):
            t = int(rng.integers(1, 9))
            units = int(rng.integers(1, 7))
            d = int(rng.integers(1, 3))
            p = random_gru_params(rng, d, units)
            x = rng.normal(size=(2, t, d))
            h_seq, _ = layers.gru_forward(x, p)
            npt.assert_allclose(h_seq, gru_oracle(x, p), atol=1e-10)

    def test_hidden_states_bounded(self):
        rng = make_rng(13)
        p = random_gru_params(rng, 1, 5, scale=2.0)
        x = rng.normal(size=(3, 16, 1)) * 4
        h_seq, _ = layers.gru_forward(x, p)
        # every step after the first starts from the state the one before left
        assert np.abs(h_seq[:, :-1]).max() > 0.5
        assert (np.abs(h_seq) < 1.0).all()

    def test_backward_finite_differences(self):
        rng = make_rng(14)
        p = random_gru_params(rng, 2, 4)
        x = rng.normal(size=(3, 5, 2))
        upstream = rng.normal(size=(3, 5, 4))

        def loss():
            h_seq, _ = layers.gru_forward(x, p)
            return float((h_seq * upstream).sum())

        _, cache = layers.gru_forward(x, p)
        grads = layers.gru_backward(cache, upstream)
        for name in layers.GRU_FIELDS:
            check_grads(grads[name], loss, getattr(p, name), rng)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("b", [1, 10, 37, 512])
    def test_forward_without_cache_gives_same_states(self, b, dtype):
        rng = make_rng(17)
        p = random_gru_params(rng, 1, 10)
        p = dataclasses.replace(p, **{name: getattr(p, name).astype(dtype)
                                      for name in layers.GRU_FIELDS})
        x = rng.normal(size=(b, 16, 1)).astype(dtype)
        out = np.empty((b, 16, 10), dtype)
        h_seq, cache = layers.gru_forward(x, p, out=out)
        assert cache is None and h_seq is out
        npt.assert_array_equal(h_seq, layers.gru_forward(x, p)[0])

    def test_backward_same_for_strided_upstream(self):
        # network.backward hands over a reshaped column slice of its
        # concatenated gradient; a contiguous copy must give the same bits.
        rng = make_rng(18)
        b, t, units, pooled = 10, 16, 10, 7
        p = random_gru_params(rng, 1, units)
        x = rng.normal(size=(b, t, 1))
        d_concat = rng.normal(size=(b, pooled + t * units))
        strided = d_concat[:, pooled:].reshape(b, t, units)
        assert not strided.flags["C_CONTIGUOUS"]
        results = [layers.gru_backward(layers.gru_forward(x, p)[1], dh_seq)
                   for dh_seq in (strided, np.ascontiguousarray(strided))]
        grads, ref_grads = results
        for name in layers.GRU_FIELDS:
            npt.assert_array_equal(grads[name], ref_grads[name], err_msg=name)

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("warm_start", [False, True])
    @pytest.mark.parametrize("b,t,c,units", [(1, 1, 1, 1), (3, 7, 2, 4), (4, 5, 3, 6),
                                             (10, 16, 1, 10), (33, 16, 1, 10),
                                             (512, 16, 1, 10)])
    def test_fused_matches_stepwise(self, b, t, c, units, warm_start, dtype, tol):
        # The fused path reorders the floating-point sums. In double precision
        # each array must agree with the stepwise reference within 1e-12; in
        # single precision within 1e-5 times its largest entry (at least 1),
        # as the summed gradients grow with the batch. With warm_start a step is
        # prepended, so the t compared steps begin from the nonzero state it
        # leaves; the stepwise reference restarted from that state must
        # reproduce them.
        rng = make_rng(16)
        p = random_gru_params(rng, c, units)
        p = dataclasses.replace(p, **{name: getattr(p, name).astype(dtype)
                                      for name in layers.GRU_FIELDS})
        x = rng.normal(size=(b, t + warm_start, c)).astype(dtype)
        upstream = rng.normal(size=(b, t + warm_start, units)).astype(dtype)

        h_seq, cache = layers.gru_forward(x, p)
        grads = layers.gru_backward(cache, upstream)
        ref_h, steps = gru_stepwise_forward(x, p)
        _, ref_grads, _ = gru_stepwise_backward(steps, p, upstream)

        pairs = [("h_seq", h_seq, ref_h)]
        if warm_start:
            assert np.abs(h_seq[:, 0]).min() > 0
            window_h, _ = gru_stepwise_forward(x[:, 1:], p, h0=h_seq[:, 0])
            pairs.append(("h_seq after the warm step", h_seq[:, 1:], window_h))
        pairs += [(name, grads[name], ref_grads[name]) for name in layers.GRU_FIELDS]
        for name, got, ref in pairs:
            assert got.shape == ref.shape and got.dtype == dtype, name
            bound = tol if dtype == np.float64 else tol * max(1.0, float(np.abs(ref).max()))
            npt.assert_allclose(got, ref, rtol=0, atol=bound, err_msg=name)


# --------------------------------------------------------------------------
# pooling


class TestPooling:
    def test_constant_input(self):
        y, _ = global_max_pool(np.full((2, 5, 3), 4.2))
        npt.assert_array_equal(y, np.full((2, 3), 4.2))

    def test_shape_contract(self):
        y, _ = global_max_pool(RNG.normal(size=(2, 16, 128)))
        assert y.shape == (2, 128)

    def test_matches_scalar_max(self):
        x = RNG.normal(size=(3, 7, 4))
        y, _ = global_max_pool(x)
        for b in range(3):
            for c in range(4):
                assert y[b, c] == max(x[b, t, c] for t in range(7))

    def test_backward_routes_to_first_argmax(self):
        x = np.zeros((1, 4, 2))
        x[0, 1, 0] = 5.0
        x[0, 3, 0] = 5.0  # tie: first occurrence wins
        x[0, 2, 1] = 1.0
        _, cache = global_max_pool(x)
        dx, _ = global_max_pool_backward(cache, np.array([[2.0, 3.0]]))
        expect = np.zeros((1, 4, 2))
        expect[0, 1, 0] = 2.0
        expect[0, 2, 1] = 3.0
        npt.assert_array_equal(dx, expect)


# --------------------------------------------------------------------------
# Dense


class TestDense:
    def test_zero_weights_gives_bias(self):
        p = layers.DenseParams(weights=np.zeros((4, 3)), bias=np.array([1.0, 2.0, 3.0]))
        y, _ = layers.dense_forward(RNG.normal(size=(5, 4)), p, "relu")
        npt.assert_array_equal(y, np.tile([1.0, 2.0, 3.0], (5, 1)))

    def test_matches_scalar_dot_product(self):
        rng = make_rng(18)
        p = layers.DenseParams(weights=rng.normal(size=(6, 4)), bias=rng.normal(size=4))
        x = rng.normal(size=(3, 6))
        y, _ = layers.dense_forward(x, p, "relu")
        for b in range(3):
            for o in range(4):
                expect = p.bias[o] + sum(x[b, i] * p.weights[i, o] for i in range(6))
                npt.assert_allclose(y[b, o], max(expect, 0.0), atol=1e-12)

    def test_shape_mismatch(self):
        p = layers.DenseParams(weights=np.zeros((6, 4)), bias=np.zeros(4))
        with pytest.raises(ShapeError):
            layers.dense_forward(np.zeros((2, 5)), p, "relu")

    @pytest.mark.parametrize("activation", ["relu", "softmax"])
    def test_backward_finite_differences(self, activation):
        rng = make_rng(19)
        p = layers.DenseParams(weights=rng.normal(size=(5, 4)), bias=rng.normal(size=4))
        x = rng.normal(size=(3, 5))
        upstream = rng.normal(size=(3, 4))

        def loss():
            y, _ = layers.dense_forward(x, p, activation)
            return float((y * upstream).sum())

        y, cache = layers.dense_forward(x, p, activation)
        dy = upstream
        if activation == "softmax":
            # a softmax layer's backward takes the gradient w.r.t. its logits
            dy = y * (upstream - (upstream * y).sum(axis=1, keepdims=True))
        dx, grads = layers.dense_backward(cache, dy)
        check_grads(grads["weights"], loss, p.weights, rng)
        check_grads(grads["bias"], loss, p.bias, rng)
        check_grads(dx, loss, x, rng)


# --------------------------------------------------------------------------
# cache contract


def test_cache_reuse_rejected():
    p = layers.Conv1DParams(kernels=RNG.normal(size=(3, 1, 2)), bias=np.zeros(2))
    x = RNG.normal(size=(1, 4, 1))
    _, cache = layers.conv_branch_forward(x, p, make_bn(2))
    layers.conv_branch_backward(cache, np.zeros((1, 2)))
    with pytest.raises(CacheReusedError):
        layers.conv_branch_backward(cache, np.zeros((1, 2)))
