import math

import numpy as np
import numpy.testing as npt
import pytest

from botclf import layers, network, synth, training
from botclf.errors import NumericError, ShapeError, WeightFormatError
from botclf.network import Architecture
from botclf.numerics import make_rng


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
        act_y, _ = layers.activation_forward(bn_y, "relu")
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

    def test_avg_pooling_switch(self):
        arch = Architecture(pooling="avg")
        p = network.build(2, arch)
        probs, caches = network.forward(p, np.zeros((2, 16, 1)), mode="infer")
        npt.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        rows = [r.name for r in network.summary(p).rows]
        assert "GlobalAveragePooling1D" in rows


def _briefly_trained(dtype, arch=Architecture()):
    """Parameters after one short epoch, so the batchnorm moving statistics
    are far from their initial values, with a third of the gammas negated."""
    p = network.build(31, arch, dtype=dtype)
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

    @pytest.mark.parametrize("pooling, activation",
                             [("avg", "relu"), ("max", "tanh"), ("avg", "linear")])
    def test_other_pooling_and_activation(self, pooling, activation):
        p = _briefly_trained(np.float64, Architecture(pooling=pooling,
                                                      conv_activation=activation))
        x = make_rng(34).uniform(0, 1, size=(600, 16, 1))
        expect, _ = network.forward(p, x, mode="infer")
        assert np.abs(network.predict_proba(p, x) - expect).max() <= 1e-12

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

    def test_extras_survive(self, tmp_path):
        p = network.build(18)
        path = tmp_path / "w.weights"
        extras = {"norm.min": np.arange(16.0), "norm.max": np.arange(16.0) + 2}
        network.save_weights(p, path, extras=extras, meta={"feature_names": "a,b"})
        tensors, meta = network.load_manifest(path)
        npt.assert_array_equal(tensors["norm.min"], extras["norm.min"])
        npt.assert_array_equal(tensors["norm.max"], extras["norm.max"])
        assert meta["feature_names"] == "a,b"
