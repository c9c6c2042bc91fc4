"""The weights bundle: `network.save_weights` / `network.load_bundle`."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from botclf import network
from botclf.dataio import DEFAULT_FEATURES, DEFAULT_LABEL_MAP, FeatureSpec, LabelMap
from botclf.errors import WeightFormatError
from botclf.network import Architecture
from botclf.numerics import make_rng


def _save_small_bundle(path):
    """A bundle of a small model (the 16 default features, 6 classes)."""
    params = network.build(40, Architecture(filters=4, gru_units=2))
    spec = FeatureSpec(mins=-np.arange(16.0), maxs=np.arange(16.0) + 1.5)
    network.save_weights(params, path, spec, DEFAULT_LABEL_MAP)
    return params, spec


class TestBundle:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "b.weights"
        params, spec = _save_small_bundle(path)
        got, got_spec, label_map = network.load_bundle(path)
        for (name, a), (_, b) in zip(params.named_arrays(), got.named_arrays()):
            npt.assert_array_equal(a, b, err_msg=name)
        assert got.arch == params.arch
        assert got_spec.names == spec.names
        npt.assert_array_equal(got_spec.mins, spec.mins)
        npt.assert_array_equal(got_spec.maxs, spec.maxs)
        assert label_map == DEFAULT_LABEL_MAP

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_one_save_round_trips_weights_normalizer_and_class_map(self, tmp_path, dtype):
        path = tmp_path / "b.weights"
        params = network.build(42, Architecture(filters=4, gru_units=2, classes=2), dtype=dtype)
        # make the moving stats non-trivial before saving
        network.forward(params, make_rng(1).uniform(0, 1, (4, 16, 1)).astype(dtype),
                        mode="train")
        rng = make_rng(2)
        mins = rng.normal(size=16)
        spec = FeatureSpec(mins=mins, maxs=mins + rng.uniform(0, 3, size=16))
        label_map = LabelMap(pairs=(("Normal", "Normal"), ("DoS", "HTTP")),
                             names=("Normal", "DoS-HTTP"))
        network.save_weights(params, path, spec, label_map)
        got, got_spec, got_map = network.load_bundle(path)
        assert got.dtype == dtype and got.arch == params.arch
        for (name, a), (_, b) in zip(params.named_arrays(), got.named_arrays()):
            assert a.tobytes() == b.tobytes(), name
        assert got_spec.names == spec.names
        assert got_spec.mins.tobytes() == spec.mins.tobytes()
        assert got_spec.maxs.tobytes() == spec.maxs.tobytes()
        assert got_map == label_map
        again = tmp_path / "again.weights"
        network.save_weights(got, again, got_spec, got_map)
        assert again.read_bytes() == path.read_bytes()

    def test_no_normalizer_is_rejected(self, tmp_path):
        path = tmp_path / "w.weights"
        _save_small_bundle(path)
        # norm.min and norm.max are the last two tensor blocks
        text = path.read_text()
        path.write_text(text[:text.index("tensor norm.min ")])
        with pytest.raises(WeightFormatError, match="no normalizer state"):
            network.load_bundle(path)

    def test_duplicate_feature_names_are_rejected(self, tmp_path):
        path = tmp_path / "b.weights"
        _save_small_bundle(path)
        path.write_text(path.read_text().replace("sbytes,dbytes", "dbytes,dbytes"))
        with pytest.raises(WeightFormatError, match="feature_names: feature names must be "
                                                    "unique"):
            network.load_bundle(path)

    def test_normalizer_min_above_max_is_rejected(self, tmp_path):
        # a constant feature (min == max) loads, but one whose min is above its
        # max would scale every row of that feature to 0.0
        path = tmp_path / "b.weights"
        params = network.build(40, Architecture(filters=4, gru_units=2))
        mins, maxs = np.zeros(16), np.ones(16)
        maxs[0] = 0.0
        network.save_weights(params, path, FeatureSpec(mins=mins, maxs=maxs), DEFAULT_LABEL_MAP)
        network.load_bundle(path)
        mins[[3, 9]] = 2.5
        network.save_weights(params, path, FeatureSpec(mins=mins, maxs=maxs), DEFAULT_LABEL_MAP)
        with pytest.raises(WeightFormatError, match="normalizer of feature 'dur' has norm.min "
                                                    "2.5 above norm.max 1.0$"):
            network.load_bundle(path)

    def test_class_names_and_pairs_must_agree(self, tmp_path):
        path = tmp_path / "b.weights"
        _save_small_bundle(path)
        path.write_text(path.read_text().replace(",Data-Exfiltration\n", "\n"))
        with pytest.raises(WeightFormatError, match="do not form one class map"):
            network.load_bundle(path)

    def test_one_error_names_every_missing_model_key(self, tmp_path):
        # no default stands in for a fact of the model; the keys of the fixed
        # topology's constants may be absent
        path = tmp_path / "b.weights"
        _save_small_bundle(path)
        keys = ("precision", "seq_len", "filters", "gru_units", "classes", "feature_names",
                "class_names", "class_pairs", "bn_epsilon", "kernel_size")
        lines = path.read_text().splitlines(keepends=True)
        kept = [line for line in lines
                if not line.startswith(tuple(f"meta {key} " for key in keys))]
        assert len(lines) - len(kept) == len(keys)
        path.write_text("".join(kept))
        with pytest.raises(WeightFormatError, match="^manifest is missing meta: class_names, "
                                                    "class_pairs, classes, feature_names, "
                                                    "filters, gru_units, precision, seq_len$"):
            network.load_bundle(path)

    def test_class_pair_splits_at_its_first_comma(self, tmp_path):
        # a category holds no comma, so one in a subcategory is part of it
        path = tmp_path / "b.weights"
        label_map = LabelMap(pairs=(("Normal", "Normal"), ("DoS", "HTTP,slow")),
                             names=("Normal", "DoS-slow"))
        network.save_weights(network.build(41, Architecture(filters=4, gru_units=2, classes=2)),
                             path, FeatureSpec(mins=np.zeros(16), maxs=np.ones(16)), label_map)
        assert network.load_bundle(path)[2] == label_map

    def test_feature_names_must_number_meta_seq_len(self, tmp_path):
        path = tmp_path / "b.weights"
        params = network.build(40, Architecture(filters=4, gru_units=2))
        spec = FeatureSpec(names=DEFAULT_FEATURES[:15], mins=np.zeros(15), maxs=np.ones(15))
        network.save_weights(params, path, spec, DEFAULT_LABEL_MAP)
        with pytest.raises(WeightFormatError, match="manifest meta seq_len 16 does not "
                                                    "match the 15 feature names$"):
            network.load_bundle(path)

    def test_negative_tensor_dims_are_rejected(self, tmp_path):
        # -2 x -2 has the 4 values conv.bias holds, but is no shape
        path = tmp_path / "w.weights"
        _save_small_bundle(path)
        path.write_text(path.read_text().replace("tensor conv.bias 4\n",
                                                 "tensor conv.bias -2 -2\n"))
        with pytest.raises(WeightFormatError, match="bad tensor dims for conv.bias"):
            network.load_bundle(path)

    def test_repeated_tensor_is_rejected(self, tmp_path):
        # a second block of a tensor would otherwise replace the first
        path = tmp_path / "b.weights"
        _save_small_bundle(path)
        text = path.read_bytes()
        path.write_bytes(text + b"tensor dense_out.bias 6\n" + b"50.0 " * 5 + b"50.0\n")
        with pytest.raises(WeightFormatError, match=f"tensor dense_out.bias given twice "
                                                    f"\\(at byte {len(text)}\\)$"):
            network.load_bundle(path)

    def test_repeated_meta_key_is_rejected(self, tmp_path):
        # a second class_names line, here with classes 0 and 1 swapped, would
        # otherwise relabel the model's outputs
        path = tmp_path / "b.weights"
        _save_small_bundle(path)
        text = path.read_bytes()
        line = next(line for line in text.splitlines(keepends=True)
                    if line.startswith(b"meta class_names "))
        at = text.index(line) + len(line)
        swapped = line.replace(b"Normal,DDoS-TCP,", b"DDoS-TCP,Normal,")
        assert swapped != line
        path.write_bytes(text[:at] + swapped + text[at:])
        with pytest.raises(WeightFormatError, match=f"meta class_names given twice "
                                                    f"\\(at byte {at}\\)$"):
            network.load_bundle(path)

    @pytest.fixture(scope="class")
    def bundle_lines(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("bundle") / "b.weights"
        _save_small_bundle(path)
        return path.read_bytes().splitlines(keepends=True)

    # derandomized with a bounded example count, so every run checks the same
    # mutations; tmp_path is shared by the examples, each rewriting one file
    @settings(max_examples=300, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_bundle_loads_or_is_rejected(self, tmp_path, bundle_lines, data):
        lines = list(bundle_lines)
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            kind = data.draw(st.sampled_from(["flip", "delete", "duplicate", "swap"]))
            i = data.draw(st.integers(0, len(lines) - 1), label="line")
            if kind == "flip":
                line = bytearray(lines[i])
                at = data.draw(st.integers(0, len(line) - 1), label="byte")
                line[at] ^= data.draw(st.integers(1, 255), label="xor")
                lines[i] = bytes(line)
            elif kind == "delete":
                if len(lines) > 1:
                    del lines[i]
            elif kind == "duplicate":
                lines.insert(i, lines[i])
            else:
                # a token of a meta or tensor line swapped with any token of the file
                heads = [k for k, ln in enumerate(lines)
                         if ln.startswith((b"meta ", b"tensor ")) and len(ln.split()) > 1]
                if not heads:
                    continue
                k = data.draw(st.sampled_from(heads), label="head line")
                j = data.draw(st.integers(0, len(lines) - 1), label="other line")
                a = lines[k].split()
                b = a if j == k else lines[j].split()
                if not b:
                    continue
                ta = data.draw(st.integers(1, len(a) - 1), label="head token")
                tb = data.draw(st.integers(0, len(b) - 1), label="other token")
                a[ta], b[tb] = b[tb], a[ta]
                lines[k] = b" ".join(a) + b"\n"
                if j != k:
                    lines[j] = b" ".join(b) + b"\n"
        path = tmp_path / "mutated.weights"
        path.write_bytes(b"".join(lines))
        try:
            network.load_bundle(path)
        except WeightFormatError:
            pass
