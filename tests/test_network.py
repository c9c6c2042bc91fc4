import math

import numpy as np
import numpy.testing as npt
import pytest

from botclf import layers, network, synth, training
from botclf.errors import NumericError, ShapeError, WeightFormatError
from botclf.network import Architecture
from botclf.numerics import make_rng
from oracles import check_grads


def test_param_count_default():
    p = network.build(0)
    assert network.param_count(p) == (4370, 4114, 256)


def test_param_count_any_seed():
    for seed in (1, 99, 2**40):
        assert network.param_count(network.build(seed))[0] == 4370


def test_component_counts():
    p = network.build(3)
    assert p.gru.count == 390
    assert p.dense_out.count == 66
    assert p.dense_hidden.count == 2890
    assert p.conv.count == 512
    assert p.bn.count == 512


def test_build_deterministic():
    a = network.build(77)
    b = network.build(77)
    for (name_a, arr_a), (name_b, arr_b) in zip(a.named_arrays(), b.named_arrays()):
        assert name_a == name_b
        npt.assert_array_equal(arr_a, arr_b)


def test_conv_kernels_within_he_bound():
    p = network.build(5)
    assert np.abs(p.conv.kernels).max() <= math.sqrt(6.0 / 3.0)


def test_gru_weights_truncated():
    p = network.build(6)
    for name in ("w_z", "w_r", "w_h", "u_z", "u_r", "u_h"):
        assert np.abs(getattr(p.gru, name)).max() <= 2 * 0.05


def test_biases_start_zero():
    p = network.build(8)
    for name in ("b_z", "b_r", "b_h", "rb_z", "rb_r", "rb_h"):
        assert not getattr(p.gru, name).any()
    assert not p.conv.bias.any()
    assert not p.dense_hidden.bias.any()
    assert not p.dense_out.bias.any()


class TestForward:
    def test_output_shape_and_normalization(self):
        p = network.build(1)
        x = make_rng(2).uniform(0, 1, size=(7, 16, 1))
        probs, _ = network.forward(p, x, mode="infer")
        assert probs.shape == (7, 6)
        npt.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert (probs >= 0).all()

    def test_zero_input_finite_and_deterministic(self):
        p = network.build(4)
        x = np.zeros((2, 16, 1))
        a, _ = network.forward(p, x, mode="infer")
        b, _ = network.forward(p, x, mode="infer")
        assert np.isfinite(a).all()
        npt.assert_array_equal(a, b)
        npt.assert_allclose(a.sum(axis=1), 1.0, atol=1e-9)

    def test_wrong_length_cites_expected(self):
        p = network.build(0)
        with pytest.raises(ShapeError, match="16"):
            network.forward(p, np.zeros((2, 12, 1)), mode="infer")
        with pytest.raises(ShapeError, match="16"):
            network.predict_proba(p, np.zeros((2, 12, 1)))

    def test_composition_oracle(self):
        # forward must equal applying the individual layer ops by hand
        p = network.build(21)
        x = make_rng(22).uniform(0, 1, size=(3, 16, 1))
        probs, _ = network.forward(p, x, mode="infer")

        conv_y, _ = layers.conv1d_forward(x, p.conv)
        bn_y, _ = layers.batchnorm_forward(conv_y, p.bn, training=False)
        act_y, _ = layers.activation_forward(bn_y)
        pool_y, _ = layers.global_max_pool(act_y)
        gru_y, _ = layers.gru_forward(x, p.gru)
        flat_y, _ = layers.flatten(gru_y)
        concat_y, _ = layers.concatenate(pool_y, flat_y)
        hidden_y, _ = layers.dense_forward(concat_y, p.dense_hidden, "relu")
        expect, _ = layers.dense_forward(hidden_y, p.dense_out, "softmax")
        npt.assert_allclose(probs, expect, atol=1e-12)

    def test_single_precision_run(self):
        p = network.build(1, dtype=np.float32)
        probs, _ = network.forward(p, np.random.default_rng(0).uniform(
            0, 1, size=(4, 16, 1)).astype(np.float32), mode="infer")
        assert probs.dtype == np.float32
        npt.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-5)


def _briefly_trained(dtype):
    """Parameters after one short epoch, so the batchnorm moving statistics
    are far from their initial values, with a third of the gammas negated."""
    p = network.build(31, dtype=dtype)
    training.fit(p, synth.make_dataset(300, seed=32, noise=0.1),
                 training.TrainConfig(epochs=1, seed=33))
    p.bn.gamma[::3] *= -1.0
    return p


class TestPredictProba:
    @pytest.fixture(scope="class")
    def trained(self):
        return {dtype: _briefly_trained(dtype) for dtype in (np.float64, np.float32)}

    @pytest.mark.parametrize("n", [1, 511, 512, 513, 1100])
    def test_matches_reference_forward(self, trained, n):
        x = make_rng(n).uniform(0, 1, size=(n, 16, 1))
        for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-5)):
            p = trained[dtype]
            assert not np.allclose(p.bn.moving_var, 1.0)
            expect, _ = network.forward(p, x.astype(dtype), mode="infer")
            got = network.predict_proba(p, x.astype(dtype))
            assert got.shape == (n, 6) and got.dtype == dtype
            assert np.abs(got - expect).max() <= tol
            if dtype == np.float64:
                npt.assert_array_equal(got.argmax(axis=1), expect.argmax(axis=1))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_non_finite_output_raises(self):
        p = network.build(35)
        p.dense_hidden.bias[:] = 1e308   # finite weights whose logits overflow
        p.dense_out.weights[:] = 1e308
        x = make_rng(36).uniform(0, 1, size=(600, 16, 1))
        with pytest.raises(NumericError, match="non-finite"):
            network.predict_proba(p, x)


class TestSummary:
    def test_rows(self):
        s = network.summary(network.build(0))
        rows = {r.name: r for r in s.rows}
        assert len(s.rows) == 10
        assert rows["Conv1D"].output_shape == (None, 16, 128)
        assert rows["Conv1D"].params == 512
        assert rows["BatchNormalization"].params == 512
        assert rows["GRU"].output_shape == (None, 16, 10)
        assert rows["GRU"].params == 390
        assert rows["Flatten"].output_shape == (None, 160)
        assert rows["GlobalMaxPooling1D"].output_shape == (None, 128)
        assert rows["Concatenate"].output_shape == (None, 288)
        assert rows["Concatenate"].params == 0
        assert rows["dense (Dense)"].params == 2890
        assert rows["dense_1 (Dense)"].params == 66
        assert (s.total, s.trainable, s.non_trainable) == (4370, 4114, 256)

    def test_recomputed_totals_for_custom_units(self):
        arch = Architecture(gru_units=8)
        s = network.summary(network.build(0, arch))
        gru_expect = 3 * 8 * (1 + 8 + 2)
        concat = 128 + 16 * 8
        dense_expect = concat * 10 + 10
        assert {r.name: r.params for r in s.rows}["GRU"] == gru_expect
        assert {r.name: r.params for r in s.rows}["dense (Dense)"] == dense_expect
        assert s.total == 512 + 512 + gru_expect + dense_expect + 66


class TestEndToEndGradients:
    def test_spot_check_against_finite_differences(self):
        from botclf import training
        p = network.build(31)
        report = training.gradient_check(p, probes=55, tolerance=1e-5, seed=5)
        assert report.passed, report.render()
        touched = {probe.tensor.split(".")[0] for probe in report.probes}
        assert touched == {"conv", "bn", "gru", "dense_hidden", "dense_out"}


class TestWeightsIO:
    def test_round_trip_bit_exact(self, tmp_path):
        p = network.build(12)
        # make the moving stats non-trivial before saving
        network.forward(p, make_rng(1).uniform(0, 1, (4, 16, 1)), mode="train")
        path = tmp_path / "w.weights"
        network.save_weights(p, path)
        q = network.load_weights(path)
        for (name_a, arr_a), (name_b, arr_b) in zip(p.named_arrays(), q.named_arrays()):
            assert name_a == name_b
            npt.assert_array_equal(arr_a, arr_b)
        assert q.arch == p.arch

    def test_single_precision_round_trip(self, tmp_path):
        p = network.build(13, dtype=np.float32)
        path = tmp_path / "w32.weights"
        network.save_weights(p, path)
        q = network.load_weights(path)
        assert q.dtype == np.float32
        for (_, arr_a), (_, arr_b) in zip(p.named_arrays(), q.named_arrays()):
            npt.assert_array_equal(arr_a, arr_b)

    def test_truncated_file_reports_byte_offset(self, tmp_path):
        p = network.build(14)
        path = tmp_path / "w.weights"
        network.save_weights(p, path)
        data = path.read_bytes()
        (tmp_path / "cut.weights").write_bytes(data[: len(data) // 2])
        with pytest.raises(WeightFormatError, match="byte"):
            network.load_weights(tmp_path / "cut.weights")

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "w.weights"
        path.write_text("botclf-weights 99\n")
        with pytest.raises(WeightFormatError, match="version"):
            network.load_weights(path)

    @pytest.mark.parametrize("header", ["botclf-weights x", "botclf-weights 1.0"])
    def test_unparsable_version_rejected(self, tmp_path, header):
        path = tmp_path / "w.weights"
        path.write_text(header + "\n")
        with pytest.raises(WeightFormatError, match=r"version .*\(at byte 0\)"):
            network.load_weights(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected_at_its_line(self, tmp_path, token):
        p = network.build(19)
        path = tmp_path / "w.weights"
        network.save_weights(p, path)
        text = path.read_text()
        start = text.index("\n", text.index("tensor dense_out.bias")) + 1
        bad = tmp_path / "nan.weights"
        bad.write_text(text[:start] + token + text[text.index(" ", start):])
        with pytest.raises(WeightFormatError,
                           match=rf"non-finite value in tensor dense_out.bias \(at byte {start}\)"):
            network.load_weights(bad)

    def test_not_a_manifest(self, tmp_path):
        path = tmp_path / "junk.weights"
        path.write_text("hello world\n")
        with pytest.raises(WeightFormatError):
            network.load_weights(path)

    def test_reordered_file_loads_by_name(self, tmp_path):
        p = network.build(15)
        path = tmp_path / "w.weights"
        network.save_weights(p, path)
        lines = path.read_text().splitlines(keepends=True)
        header, body = lines[0], lines[1:]
        # split into blocks at 'meta'/'tensor' boundaries, then reverse
        blocks = []
        for line in body:
            if line.startswith(("meta ", "tensor ")):
                blocks.append([line])
            else:
                blocks[-1].append(line)
        reordered = tmp_path / "r.weights"
        reordered.write_text(header + "".join("".join(b) for b in reversed(blocks)))
        q = network.load_weights(reordered)
        for (_, arr_a), (_, arr_b) in zip(p.named_arrays(), q.named_arrays()):
            npt.assert_array_equal(arr_a, arr_b)

    def test_missing_tensor_rejected(self, tmp_path):
        p = network.build(16)
        path = tmp_path / "w.weights"
        network.save_weights(p, path)
        text = path.read_text()
        marker = "tensor conv.bias"
        start = text.index(marker)
        end = text.index("tensor ", start + 1)
        (tmp_path / "m.weights").write_text(text[:start] + text[end:])
        with pytest.raises(WeightFormatError, match="conv.bias"):
            network.load_weights(tmp_path / "m.weights")

    def test_shape_mismatch_against_architecture(self, tmp_path):
        p = network.build(17, Architecture(gru_units=4))
        path = tmp_path / "w.weights"
        network.save_weights(p, path)
        # claim 10 units in the metadata while tensors carry 4
        text = path.read_text().replace("meta gru_units 4", "meta gru_units 10")
        bad = tmp_path / "bad.weights"
        bad.write_text(text)
        with pytest.raises(WeightFormatError, match="shape"):
            network.load_weights(bad)

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "w.weights"
        network.save_weights(network.build(0), path)
        previous = path.read_bytes()
        # the weight tensors are written before the extra fails
        with pytest.raises(AttributeError):
            network.save_weights(network.build(1), path, extras={"broken": object()})
        assert path.read_bytes() == previous
        assert [p.name for p in tmp_path.iterdir()] == ["w.weights"]

    @pytest.mark.parametrize("key,value", [("filters", "abc"), ("gru_units", "1.5"),
                                           ("bn_epsilon", "tiny"), ("precision", "quad")])
    def test_unparsable_meta_names_the_key(self, tmp_path, key, value):
        path = tmp_path / "w.weights"
        network.save_weights(network.build(0), path)
        text = path.read_text()
        start = text.index(f"meta {key} ")
        end = text.index("\n", start)
        path.write_text(text[:start] + f"meta {key} {value}" + text[end:])
        with pytest.raises(WeightFormatError, match=f"meta {key}"):
            network.load_weights(path)

    def test_extras_survive(self, tmp_path):
        p = network.build(18)
        path = tmp_path / "w.weights"
        extras = {"norm.min": np.arange(16.0), "norm.max": np.arange(16.0) + 2}
        network.save_weights(p, path, extras=extras, meta={"feature_names": "a,b"})
        tensors, meta = network.load_manifest(path)
        npt.assert_array_equal(tensors["norm.min"], extras["norm.min"])
        npt.assert_array_equal(tensors["norm.max"], extras["norm.max"])
        assert meta["feature_names"] == "a,b"



# --------------------------------------------------------------------------
# train mode: the fused conv branch against the layer-by-layer composition


def _randomized(seed, arch=Architecture(), dtype=np.float64):
    """Built parameters with random biases and batchnorm affine maps, a third
    of the gammas negative, so that no term of the train-mode gradient is 0."""
    p = network.build(seed, arch, dtype=dtype)
    rng = make_rng(seed + 1)
    for arr in (p.conv.bias, p.bn.beta, p.dense_hidden.bias, p.dense_out.bias):
        arr[:] = rng.normal(scale=0.5, size=arr.shape)
    p.bn.gamma[:] = rng.uniform(0.5, 1.5, size=p.bn.gamma.shape) * np.resize([1, 1, -1],
                                                                            p.bn.gamma.size)
    p.bn.moving_mean[:] = rng.normal(size=p.bn.moving_mean.shape)
    p.bn.moving_var[:] = rng.uniform(0.5, 2.0, size=p.bn.moving_var.shape)
    return p


def _layerwise_train(p, x, targets):
    """`network.forward(mode="train")` then `network.backward`, composed one
    layer at a time, the conv branch by conv1d -> batchnorm(training=True) ->
    activation -> global max pool. Returns (probs, dlogits, grads, dx)."""
    conv_y, c_conv = layers.conv1d_forward(x, p.conv)
    bn_y, c_bn = layers.batchnorm_forward(conv_y, p.bn, training=True)
    act_y, c_act = layers.activation_forward(bn_y)
    pool_y, c_pool = layers.global_max_pool(act_y)
    gru_y, c_gru = layers.gru_forward(x, p.gru)
    flat_y, c_flat = layers.flatten(gru_y)
    concat_y, c_concat = layers.concatenate(pool_y, flat_y)
    hidden_y, c_hidden = layers.dense_forward(concat_y, p.dense_hidden, "relu")
    probs, c_out = layers.dense_forward(hidden_y, p.dense_out, "softmax")
    _, dlogits = training.cross_entropy(probs, targets)

    d_hidden, g_out = layers.dense_backward(c_out, dlogits)
    d_concat, g_hidden = layers.dense_backward(c_hidden, d_hidden)
    (d_pool, d_flat), _ = layers.concatenate_backward(c_concat, d_concat)
    d_act, _ = layers.global_max_pool_backward(c_pool, d_pool)
    d_bn, _ = layers.activation_backward(c_act, d_act)
    d_conv, g_bn = layers.batchnorm_backward(c_bn, d_bn)
    dx_a, g_conv = layers.conv1d_backward(c_conv, d_conv)
    d_seq, _ = layers.flatten_backward(c_flat, d_flat)
    dx_b, g_gru, _ = layers.gru_backward(c_gru, d_seq)
    grads = {}
    for prefix, group in (("conv", g_conv), ("bn", g_bn), ("gru", g_gru),
                          ("dense_hidden", g_hidden), ("dense_out", g_out)):
        grads.update({f"{prefix}.{k}": v for k, v in group.items()})
    return probs, dlogits, grads, dx_a + dx_b


def _compare_train_step(p, x, labels, tol):
    """Check the fused train-mode forward and backward of `p` on x against
    `_layerwise_train` run on the same weights widened to extended precision,
    so that the bound measures the fused path's rounding, not the
    reference's. Every compared value must lie within tol * max(1, |ref|)."""
    assert np.finfo(np.longdouble).eps < np.finfo(np.float64).eps, \
        "the reference needs a long double wider than double (x86-64 or aarch64 Linux)"
    wide = network._assemble({n: a.astype(np.longdouble) for n, a in p.named_arrays()},
                             p.arch)
    targets = np.eye(p.arch.classes)[labels]
    ref_probs, ref_dlogits, ref_grads, ref_dx = _layerwise_train(
        wide, x.astype(np.longdouble), targets)
    probs, caches = network.forward(p, x, mode="train")
    grads, dx = network.backward(p, caches, ref_dlogits.astype(p.dtype))

    pairs = [("probs", probs, ref_probs), ("dx", dx, ref_dx),
             ("bn.moving_mean", p.bn.moving_mean, wide.bn.moving_mean),
             ("bn.moving_var", p.bn.moving_var, wide.bn.moving_var)]
    pairs += [(name, grads[name], ref_grads[name]) for name, _ in p.trainable_arrays()]
    assert len(pairs) == 24
    for name, got, ref in pairs:
        assert got.shape == ref.shape and got.dtype == p.dtype, name
        excess = np.abs(got - ref) - tol * np.maximum(1.0, np.abs(ref))
        assert excess.max() <= 0, f"{name}: off by up to {float(np.abs(got - ref).max()):.3e}"
    # train-mode batchnorm subtracts the batch mean, which absorbs the conv bias
    assert not grads["conv.bias"].any()


class TestFusedTrainStep:
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("seq_len", [16, 7])
    @pytest.mark.parametrize("b", [2, 10, 37, 512])
    def test_matches_layerwise(self, b, seq_len, dtype, tol):
        p = _randomized(b + seq_len, Architecture(seq_len=seq_len), dtype)
        rng = make_rng(b * seq_len)
        x = rng.uniform(0.0, 1.0, size=(b, seq_len, 1)).astype(dtype)
        _compare_train_step(p, x, rng.integers(0, 6, size=b), tol)

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_exact_ties_pick_the_first_time_step(self, dtype, tol):
        # Constant rows give equal interior windows, gamma = 0 makes every
        # step of a filter tie, and a negative gamma turns the max into a min.
        # A different pick among tied steps moves the input gradient (and, at
        # gamma = 0, the gamma gradient), which the comparison would catch.
        p = _randomized(3, dtype=dtype)
        p.bn.gamma[::4] = 0.0
        p.bn.beta[::4] = np.abs(p.bn.beta[::4]) + 0.1  # so those filters stay active
        rng = make_rng(4)
        x = rng.uniform(0.0, 1.0, size=(10, 16, 1))
        x[:4] = rng.uniform(0.0, 1.0, size=(4, 1, 1))
        x[4] = 0.0
        _compare_train_step(p, x.astype(dtype), rng.integers(0, 6, size=10), tol)

    def test_train_mode_gradients_against_finite_differences(self):
        # gradient_check runs the batchnorm in infer mode; this probes the
        # train-mode backward, whose output does not read the moving statistics
        p = _randomized(41)
        rng = make_rng(42)
        # GRU weights at the layer tests' scale: at the 0.05 of `build`, many GRU
        # gradients sit below what central differences at step 1e-6 resolve
        for name in layers.GRU_FIELDS:
            arr = getattr(p.gru, name)
            arr[...] = rng.normal(scale=0.6, size=arr.shape)
        x = rng.uniform(0.0, 1.0, size=(6, 16, 1))
        targets = np.eye(6)[rng.integers(0, 6, size=6)]

        def loss():
            probs, _ = network.forward(p, x, mode="train")
            return training.cross_entropy(probs, targets)[0]

        probs, caches = network.forward(p, x, mode="train")
        grads, _ = network.backward(p, caches, training.cross_entropy(probs, targets)[1])
        for name, arr in p.trainable_arrays():
            check_grads(grads[name], loss, arr, rng, n=6)


class TestTrainableBuffer:
    def _assert_views_flat(self, p):
        offset = 0
        for name, arr in p.trainable_arrays():
            assert arr.base is p.flat, name
            assert np.shares_memory(arr, p.flat[offset:offset + arr.size]), name
            offset += arr.size
        assert offset == p.flat.size == network.param_count(p)[1]
        for arr in (p.bn.moving_mean, p.bn.moving_var):
            assert not np.shares_memory(arr, p.flat)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_build_and_load_share_one_buffer(self, tmp_path, dtype):
        p = network.build(5, Architecture(filters=8, gru_units=3), dtype=dtype)
        self._assert_views_flat(p)
        assert p.flat.dtype == dtype
        path = tmp_path / "w.weights"
        network.save_weights(p, path)
        q = network.load_weights(path)
        self._assert_views_flat(q)
        npt.assert_array_equal(q.flat, p.flat)
        self._assert_views_flat(network.params_from_manifest(*network.load_manifest(path)))
