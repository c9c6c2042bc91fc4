import math
import tracemalloc
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from botclf import layers, network, synth, training
from botclf.dataio import DEFAULT_LABEL_MAP, FeatureSpec
from botclf.errors import NumericError, ShapeError, WeightFormatError
from botclf.network import Architecture
from botclf.numerics import make_rng
from oracles import (batchnorm_backward, batchnorm_forward, check_grads, conv1d_backward,
                     conv1d_forward, global_max_pool, global_max_pool_backward)


def test_param_count_default():
    p = network.build(0)
    assert network.param_count(p.arch) == (4370, 4114, 256)


def test_param_count_any_seed():
    for seed in (1, 99, 2**40):
        assert network.param_count(network.build(seed).arch)[0] == 4370


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
            network.forward(p, np.zeros((2, 12, 1)), mode="train")

    def test_unknown_mode_is_refused(self):
        with pytest.raises(ValueError, match="^mode must be 'train' or 'infer', got 'eval'$"):
            network.forward(network.build(0), np.zeros((2, 16, 1)), mode="eval")

    def test_composition_oracle(self):
        # forward must equal applying the individual layer ops by hand
        p = network.build(21)
        x = make_rng(22).uniform(0, 1, size=(3, 16, 1))
        probs, _ = network.forward(p, x, mode="infer")
        expect, _ = _layerwise_forward(p, x, "infer")
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


def _assert_fresh(results, work):
    """No result shares memory with another result or with a work buffer."""
    for i, probs in enumerate(results):
        for other in results[:i] + list(work.values()):
            assert not np.shares_memory(probs, other)


def _fresh_probs(p, x):
    """Infer-mode probs of the same weights with no work buffers kept yet."""
    return network.forward(replace(p, work={}), x, mode="infer")[0]


class TestInferMode:
    @pytest.fixture(scope="class")
    def trained(self):
        return {dtype: _briefly_trained(dtype) for dtype in (np.float64, np.float32)}

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 511, 512, 513, 1100])
    def test_matches_reference_forward(self, trained, n):
        # n crosses both the engine's PASS_ROWS boundaries and the reader's
        # CHUNK_ROWS boundaries
        x = make_rng(n).uniform(0, 1, size=(n, 16, 1))
        for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-5)):
            p = trained[dtype]
            assert not np.allclose(p.bn.moving_var, 1.0)
            expect, _ = _layerwise_forward(p, x.astype(dtype), "infer")
            got, caches = network.forward(p, x.astype(dtype), mode="infer")
            assert caches is None
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
            network.forward(p, x, mode="infer")

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_kept_work_matches_a_fresh_model(self, trained, dtype):
        p, results = trained[dtype], []
        for i, n in enumerate([512, 512, 37, 512]):
            x = make_rng(50 + i).uniform(0, 1, size=(n, 16, 1)).astype(dtype)
            probs, _ = network.forward(p, x, mode="infer")
            assert probs.tobytes() == _fresh_probs(p, x).tobytes()
            results.append(probs)
        _assert_fresh(results, p.work)

    def test_single_precision_scores_the_cast_input(self, trained):
        # eval hands float64 chunks to a float32 model: the engine casts them
        # first instead of computing in mixed precision
        p = trained[np.float32]
        x = make_rng(55).uniform(0, 1, size=(600, 16, 1))
        probs, _ = network.forward(p, x, mode="infer")
        assert probs.dtype == np.float32
        assert probs.tobytes() == network.forward(p, x.astype(np.float32),
                                                  mode="infer")[0].tobytes()

    def test_work_stays_valid_after_a_training_step(self):
        p = _randomized(55)
        x = make_rng(56).uniform(0, 1, size=(600, 16, 1))
        before, _ = network.forward(p, x, mode="infer")
        probs, caches = network.forward(p, x[:10], mode="train")
        _, dlogits = training.cross_entropy(probs, np.arange(10) % 6)
        training.rmsprop_step(p, network.backward(p, caches, dlogits),
                              np.zeros_like(p.flat), 1e-2)
        after, _ = network.forward(p, x, mode="infer")
        assert after.tobytes() != before.tobytes()
        assert after.tobytes() == _fresh_probs(p, x).tobytes()

    def test_work_holds_the_concatenation_and_one_stage(self, trained):
        # the conv's padded input and accumulators are dead before the GRU
        # cuts its states, pre-activations and diff, so both run in one
        # stage buffer sized for the larger of the two; every array but a
        # buffer's last starts the next one on a 64-byte boundary. A 512-row
        # call scores in passes of PASS_ROWS rows, which size the buffers.
        p, rows, item = replace(trained[np.float64], work={}), network.PASS_ROWS, 8
        a = p.arch
        network.forward(p, make_rng(61).uniform(0, 1, size=(512, 16, 1)), mode="infer")

        def cut(*sizes):
            *padded, last = (n * item for n in sizes)
            return sum(-(-n // 64) * 64 for n in padded) + last

        concat = cut(rows * a.concat_width)
        conv = cut(rows * (a.seq_len + a.kernel_size - 1) * a.in_channels,
                   rows * a.filters, rows * a.filters)
        gru = cut((a.seq_len + 1) * (a.gru_units + a.in_channels + 1) * rows,
                  4 * a.gru_units * rows, a.gru_units * rows)
        assert len(p.work) == 2
        assert sum(buf.nbytes for buf in p.work.values()) == concat + max(conv, gru)

    def test_cold_pass_peaks_at_its_two_buffers(self):
        # a first 512-row call scores two 256-row passes in the 1.15 MB of
        # work buffers it makes in double, and the dense head's temporaries
        # stay small beside them; it peaked at 1.36 MB, where one buffer per
        # work array peaked at 1.88 MB and 512-row passes at 2.5 MB
        p = _randomized(57)
        assert p.work == {}
        x = make_rng(58).uniform(0, 1, size=(512, 16, 1))
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            network.forward(p, x, mode="infer")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= 1_500_000

    def test_second_call_allocates_little(self):
        # tracemalloc sees numpy's data buffers: a model's first 512-row call
        # peaks at about 1.36 MB, 1.15 MB of it the work buffers it keeps
        p = _randomized(57)
        x = make_rng(58).uniform(0, 1, size=(512, 16, 1))
        network.forward(p, x, mode="infer")
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            network.forward(p, x, mode="infer")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 256 * 1024

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_partial_chunk_reuses_the_buffers(self, trained, dtype):
        # the short last pass of a 392-row chunk runs in the front of the
        # work buffers a full pass made: no second pair (0.61 MB in double
        # for its 136 rows) is made
        p = replace(trained[dtype], work={})
        network.forward(p, make_rng(59).uniform(0, 1, size=(512, 16, 1)), mode="infer")
        x = make_rng(60).uniform(0, 1, size=(392, 16, 1)).astype(dtype)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            probs, _ = network.forward(p, x, mode="infer")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 256 * 1024
        assert probs.tobytes() == _fresh_probs(p, x).tobytes()


class TestSummary:
    def test_rows(self):
        s = network.summary(network.build(0).arch)
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
        s = network.summary(network.build(0, arch).arch)
        gru_expect = 3 * 8 * (1 + 8 + 2)
        concat = 128 + 16 * 8
        dense_expect = concat * 10 + 10
        assert {r.name: r.params for r in s.rows}["GRU"] == gru_expect
        assert {r.name: r.params for r in s.rows}["dense (Dense)"] == dense_expect
        assert s.total == 512 + 512 + gru_expect + dense_expect + 66


    @pytest.mark.parametrize("arch", [
        Architecture(),
        Architecture(filters=8, gru_units=4, seq_len=5, classes=3),
        Architecture(filters=1, gru_units=1, seq_len=1, classes=1),
        Architecture(filters=3, gru_units=7, seq_len=20, classes=2),
    ], ids=["default", "small", "unit", "long"])
    def test_counts_from_shapes_match_built_arrays(self, arch):
        p = network.build(0, arch)
        total = sum(arr.size for _, arr in p.named_arrays())
        trainable = sum(arr.size for _, arr in p.trainable_arrays())
        assert network.param_count(arch) == (total, trainable, total - trainable)
        layer_rows = {"conv": "Conv1D", "bn": "BatchNormalization", "gru": "GRU",
                      "dense_hidden": "dense (Dense)", "dense_out": "dense_1 (Dense)"}
        built = {row: 0 for row in layer_rows.values()}
        for name, arr in p.named_arrays():
            built[layer_rows[name.split(".")[0]]] += arr.size
        s = network.summary(arch)
        counted = {r.name: r.params for r in s.rows}
        assert {row: counted[row] for row in built} == built
        assert sum(counted.values()) == s.total == total
        assert (s.trainable, s.non_trainable) == (trainable, total - trainable)


class TestEndToEndGradients:
    def test_spot_check_against_finite_differences(self):
        from botclf import training
        p = network.build(31)
        report = training.gradient_check(p, probes=55, tolerance=1e-5, seed=5)
        assert report.passed, report.render()
        touched = {probe.tensor.split(".")[0] for probe in report.probes}
        assert touched == {"conv", "bn", "gru", "dense_hidden", "dense_out"}


def _save_bundle(params, path):
    """Write `params` as a bundle with a unit normalizer and the default class
    map; the weights read back as `_load_params(path)`."""
    network.save_weights(params, path, FeatureSpec(mins=np.zeros(16), maxs=np.ones(16)),
                         DEFAULT_LABEL_MAP)


def _load_params(path):
    return network.load_bundle(path)[0]


class TestWeightsIO:
    def test_round_trip_bit_exact(self, tmp_path):
        p = network.build(12)
        # make the moving stats non-trivial before saving
        network.forward(p, make_rng(1).uniform(0, 1, (4, 16, 1)), mode="train")
        path = tmp_path / "w.weights"
        _save_bundle(p, path)
        q = _load_params(path)
        for (name_a, arr_a), (name_b, arr_b) in zip(p.named_arrays(), q.named_arrays()):
            assert name_a == name_b
            npt.assert_array_equal(arr_a, arr_b)
        assert q.arch == p.arch

    def test_single_precision_round_trip(self, tmp_path):
        p = network.build(13, dtype=np.float32)
        path = tmp_path / "w32.weights"
        _save_bundle(p, path)
        q = _load_params(path)
        assert q.dtype == np.float32
        for (_, arr_a), (_, arr_b) in zip(p.named_arrays(), q.named_arrays()):
            npt.assert_array_equal(arr_a, arr_b)

    def test_truncated_file_reports_byte_offset(self, tmp_path):
        p = network.build(14)
        path = tmp_path / "w.weights"
        _save_bundle(p, path)
        data = path.read_bytes()
        (tmp_path / "cut.weights").write_bytes(data[: len(data) // 2])
        with pytest.raises(WeightFormatError, match="byte"):
            _load_params(tmp_path / "cut.weights")

    def test_short_tensor_is_reported_where_it_closes(self, tmp_path):
        path = tmp_path / "w.weights"
        _save_bundle(network.build(14), path)
        text = path.read_text()
        end = text.index("tensor conv.bias")
        # drop conv.kernels' last value, then spoil a line of the next tensor
        cut = text.rindex(" ", 0, end)
        spoiled = text.index("\n", end) + 1
        bad = tmp_path / "short.weights"
        bad.write_text(text[:cut] + "\n" + text[end:spoiled] + "abc\n" + text[spoiled:])
        at = len((text[:cut] + "\n").encode())
        with pytest.raises(WeightFormatError, match=rf"tensor conv.kernels needs 384 values, "
                                                    rf"got 383 \(at byte {at}\)$"):
            _load_params(bad)

    def test_truncated_last_tensor_is_reported_at_the_file_size(self, tmp_path):
        path = tmp_path / "w.weights"
        _save_bundle(network.build(14), path)
        data = path.read_bytes()
        # drop the last value of norm.max, the last tensor
        cut = data[:data.rindex(b" ")] + b"\n"
        (tmp_path / "cut.weights").write_bytes(cut)
        with pytest.raises(WeightFormatError, match=rf"tensor norm.max needs 16 values, "
                                                    rf"got 15 \(at byte {len(cut)}\)$"):
            _load_params(tmp_path / "cut.weights")

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "w.weights"
        path.write_text("botclf-weights 99\n")
        with pytest.raises(WeightFormatError, match="version"):
            _load_params(path)

    @pytest.mark.parametrize("header", ["botclf-weights x", "botclf-weights 1.0"])
    def test_unparsable_version_rejected(self, tmp_path, header):
        path = tmp_path / "w.weights"
        path.write_text(header + "\n")
        with pytest.raises(WeightFormatError, match=r"version .*\(at byte 0\)"):
            _load_params(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected_at_its_line(self, tmp_path, token):
        p = network.build(19)
        path = tmp_path / "w.weights"
        _save_bundle(p, path)
        text = path.read_text()
        start = text.index("\n", text.index("tensor dense_out.bias")) + 1
        bad = tmp_path / "nan.weights"
        bad.write_text(text[:start] + token + text[text.index(" ", start):])
        with pytest.raises(WeightFormatError,
                           match=rf"non-finite value in tensor dense_out.bias \(at byte {start}\)"):
            _load_params(bad)

    def test_not_a_manifest(self, tmp_path):
        path = tmp_path / "junk.weights"
        path.write_text("hello world\n")
        with pytest.raises(WeightFormatError):
            _load_params(path)

    def test_reordered_file_loads_by_name(self, tmp_path):
        p = network.build(15)
        path = tmp_path / "w.weights"
        _save_bundle(p, path)
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
        q = _load_params(reordered)
        for (_, arr_a), (_, arr_b) in zip(p.named_arrays(), q.named_arrays()):
            npt.assert_array_equal(arr_a, arr_b)

    def test_missing_tensor_rejected(self, tmp_path):
        p = network.build(16)
        path = tmp_path / "w.weights"
        _save_bundle(p, path)
        text = path.read_text()
        marker = "tensor conv.bias"
        start = text.index(marker)
        end = text.index("tensor ", start + 1)
        (tmp_path / "m.weights").write_text(text[:start] + text[end:])
        with pytest.raises(WeightFormatError, match="conv.bias"):
            _load_params(tmp_path / "m.weights")

    def test_shape_mismatch_against_architecture(self, tmp_path):
        p = network.build(17, Architecture(gru_units=4))
        path = tmp_path / "w.weights"
        _save_bundle(p, path)
        # claim 10 units in the metadata while tensors carry 4
        text = path.read_text().replace("meta gru_units 4", "meta gru_units 10")
        bad = tmp_path / "bad.weights"
        bad.write_text(text)
        with pytest.raises(WeightFormatError, match="shape"):
            _load_params(bad)

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "w.weights"
        _save_bundle(network.build(0), path)
        previous = path.read_bytes()
        # the weight tensors and norm.min are written before norm.max fails
        with pytest.raises(AttributeError):
            network.save_weights(network.build(1), path,
                                 FeatureSpec(mins=np.zeros(16), maxs=object()), DEFAULT_LABEL_MAP)
        assert path.read_bytes() == previous
        assert [p.name for p in tmp_path.iterdir()] == ["w.weights"]

    @pytest.mark.parametrize("key,value", [("filters", "abc"), ("gru_units", "1.5"),
                                           ("bn_epsilon", "tiny"), ("precision", "quad")])
    def test_unparsable_meta_names_the_key(self, tmp_path, key, value):
        path = tmp_path / "w.weights"
        _save_bundle(network.build(0), path)
        text = path.read_text()
        start = text.index(f"meta {key} ")
        end = text.index("\n", start)
        path.write_text(text[:start] + f"meta {key} {value}" + text[end:])
        with pytest.raises(WeightFormatError, match=f"meta {key}"):
            _load_params(path)

    def test_scalar_and_empty_tensors_load(self, tmp_path):
        # a tensor line without dims holds one value, and a 0 dim no value
        path = tmp_path / "w.weights"
        _save_bundle(network.build(18), path)
        with open(path, "a") as fh:
            fh.write("tensor extra.scalar\n2.5\ntensor extra.empty 0\ntensor extra.none 3 0\n")
        tensors, _ = network.load_manifest(path)
        assert tensors["extra.scalar"].shape == () and tensors["extra.scalar"] == 2.5
        assert tensors["extra.empty"].shape == (0,)
        assert tensors["extra.none"].shape == (3, 0)



# --------------------------------------------------------------------------
# the fused forward of both modes, and the train-mode backward, against the
# layer-by-layer composition


def _randomized(seed, arch=Architecture(), dtype=np.float64):
    """Built parameters with random biases, batchnorm affine maps and moving
    statistics, a third of the gammas negative, so that no term of the
    gradient is 0."""
    p = network.build(seed, arch, dtype=dtype)
    rng = make_rng(seed + 1)
    for arr in (p.conv.bias, p.bn.beta, p.dense_hidden.bias, p.dense_out.bias):
        arr[:] = rng.normal(scale=0.5, size=arr.shape)
    p.bn.gamma[:] = rng.uniform(0.5, 1.5, size=p.bn.gamma.shape) * np.resize([1, 1, -1],
                                                                            p.bn.gamma.size)
    p.bn.moving_mean[:] = rng.normal(size=p.bn.moving_mean.shape)
    p.bn.moving_var[:] = rng.uniform(0.5, 2.0, size=p.bn.moving_var.shape)
    return p


def _layerwise_forward(p, x, mode):
    """`network.forward(p, x, mode=mode)` composed one layer at a time from
    `tests/oracles.py`: conv1d -> batchnorm -> ReLU -> global max pool, then
    the GRU and the dense layers. Returns (probs, caches)."""
    conv_y, c_conv = conv1d_forward(x, p.conv)
    bn_y, c_bn = batchnorm_forward(conv_y, p.bn, training=mode == "train")
    pool_y, c_pool = global_max_pool(np.maximum(bn_y, 0.0))
    gru_y, c_gru = layers.gru_forward(x, p.gru)
    concat_y = np.concatenate([pool_y, gru_y.reshape(len(x), -1)], axis=1)
    hidden_y, c_hidden = layers.dense_forward(concat_y, p.dense_hidden, "relu")
    probs, c_out = layers.dense_forward(hidden_y, p.dense_out, "softmax")
    return probs, (c_conv, c_bn, bn_y > 0, c_pool, c_gru, c_hidden, c_out)


def _layerwise(p, x, labels):
    """`network.forward(mode="train")` then `network.backward`, composed one
    layer at a time by `_layerwise_forward` and the backwards of
    `tests/oracles.py`. Returns (probs, dlogits, grads)."""
    probs, (c_conv, c_bn, active, c_pool, c_gru, c_hidden, c_out) = \
        _layerwise_forward(p, x, "train")
    _, dlogits = training.cross_entropy(probs, labels)

    d_hidden, g_out = layers.dense_backward(c_out, dlogits)
    d_concat, g_hidden = layers.dense_backward(c_hidden, d_hidden)
    filters = p.arch.filters
    d_act, _ = global_max_pool_backward(c_pool, d_concat[:, :filters])
    d_conv, g_bn = batchnorm_backward(c_bn, d_act * active)
    _, g_conv = conv1d_backward(c_conv, d_conv)
    g_gru = layers.gru_backward(c_gru, d_concat[:, filters:].reshape(len(x), -1, p.gru.units))
    grads = {}
    for prefix, group in (("conv", g_conv), ("bn", g_bn), ("gru", g_gru),
                          ("dense_hidden", g_hidden), ("dense_out", g_out)):
        grads.update({f"{prefix}.{k}": v for k, v in group.items()})
    return probs, dlogits, grads


# The reference's precision: long double where it is wider than double
# (x86-64 and aarch64 Linux), else double (arm64 macOS, MSVC).
WIDE = np.longdouble if np.finfo(np.longdouble).eps < np.finfo(np.float64).eps else np.float64


def _compare_step(p, x, labels, tol, mode):
    """Check the fused forward of `p` on x in `mode`, and in train mode its
    backward, against the layer-by-layer reference run on the same weights
    widened to WIDE, so that the bound measures the fused path's rounding
    more than the reference's. Every compared value must lie within
    tol * max(1, |ref|)."""
    wide = network._assemble({n: a.astype(WIDE) for n, a in p.named_arrays()}, p.arch)
    moving = p.bn.moving_mean.copy(), p.bn.moving_var.copy()
    probs, caches = network.forward(p, x, mode=mode)
    if mode == "train":
        ref_probs, ref_dlogits, ref_grads = _layerwise(wide, x.astype(WIDE), labels)
        grads = p.trainable_views(network.backward(p, caches, ref_dlogits.astype(p.dtype)))
    else:
        ref_probs, _ = _layerwise_forward(wide, x.astype(WIDE), mode)
        grads = {}

    pairs = [("probs", probs, ref_probs),
             ("bn.moving_mean", p.bn.moving_mean, wide.bn.moving_mean),
             ("bn.moving_var", p.bn.moving_var, wide.bn.moving_var)]
    pairs += [(name, grads[name], ref_grads[name]) for name in grads]
    assert len(pairs) == (23 if mode == "train" else 3)
    for name, got, ref in pairs:
        assert got.shape == ref.shape and got.dtype == p.dtype, name
        excess = np.abs(got - ref) - tol * np.maximum(1.0, np.abs(ref))
        assert excess.max() <= 0, f"{name}: off by up to {float(np.abs(got - ref).max()):.3e}"
    if mode == "train":
        # batchnorm subtracts the batch mean, which absorbs the conv bias
        assert not grads["conv.bias"].any()
    else:
        for before, after in zip(moving, (p.bn.moving_mean, p.bn.moving_var)):
            npt.assert_array_equal(after, before)


class TestFusedStep:
    @pytest.mark.parametrize("mode", ["train", "infer"])
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("seq_len", [16, 7])
    @pytest.mark.parametrize("b", [2, 10, 37, 512])
    def test_matches_layerwise(self, b, seq_len, dtype, tol, mode):
        p = _randomized(b + seq_len, Architecture(seq_len=seq_len), dtype)
        rng = make_rng(b * seq_len)
        x = rng.uniform(0.0, 1.0, size=(b, seq_len, 1)).astype(dtype)
        _compare_step(p, x, rng.integers(0, 6, size=b), tol, mode)

    @pytest.mark.parametrize("mode", ["train", "infer"])
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_exact_ties_pick_the_first_time_step(self, dtype, tol, mode):
        # Constant rows give equal interior windows, gamma = 0 makes every
        # step of a filter tie, and a negative gamma turns the max into a min.
        # At gamma = 0 the tied steps include the padded edges, whose windows
        # differ, so a different pick moves the gamma gradient, which the
        # comparison would catch.
        p = _randomized(3, dtype=dtype)
        p.bn.gamma[::4] = 0.0
        p.bn.beta[::4] = np.abs(p.bn.beta[::4]) + 0.1  # so those filters stay active
        rng = make_rng(4)
        x = rng.uniform(0.0, 1.0, size=(10, 16, 1))
        x[:4] = rng.uniform(0.0, 1.0, size=(4, 1, 1))
        x[4] = 0.0
        _compare_step(p, x.astype(dtype), rng.integers(0, 6, size=10), tol, mode)

    def test_train_mode_gradients_against_finite_differences(self):
        # gradient_check probes the train-mode backward at `build`'s init;
        # this probes it with randomized batchnorm weights and moving statistics
        p = _randomized(41)
        rng = make_rng(42)
        # GRU weights at the layer tests' scale: at the 0.05 of `build`, many GRU
        # gradients sit below what central differences at step 1e-6 resolve
        for name in layers.GRU_FIELDS:
            arr = getattr(p.gru, name)
            arr[...] = rng.normal(scale=0.6, size=arr.shape)
        x = rng.uniform(0.0, 1.0, size=(6, 16, 1))
        labels = rng.integers(0, 6, size=6)

        def loss():
            probs, _ = network.forward(p, x, mode="train")
            return training.cross_entropy(probs, labels)[0]

        probs, caches = network.forward(p, x, mode="train")
        grads = p.trainable_views(
            network.backward(p, caches, training.cross_entropy(probs, labels)[1]))
        for name, arr in p.trainable_arrays():
            check_grads(grads[name], loss, arr, rng, n=6)


class TestTrainableBuffer:
    def _assert_views_flat(self, p):
        offset = 0
        for name, arr in p.trainable_arrays():
            assert arr.base is p.flat, name
            assert np.shares_memory(arr, p.flat[offset:offset + arr.size]), name
            offset += arr.size
        assert offset == p.flat.size == network.param_count(p.arch)[1]
        for arr in (p.bn.moving_mean, p.bn.moving_var):
            assert not np.shares_memory(arr, p.flat)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_build_and_load_share_one_buffer(self, tmp_path, dtype):
        p = network.build(5, Architecture(filters=8, gru_units=3), dtype=dtype)
        self._assert_views_flat(p)
        assert p.flat.dtype == dtype
        path = tmp_path / "w.weights"
        _save_bundle(p, path)
        q = _load_params(path)
        self._assert_views_flat(q)
        npt.assert_array_equal(q.flat, p.flat)
        self._assert_views_flat(network.params_from_manifest(*network.load_manifest(path)))
