import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from botclf import dataio, synth
from botclf.dataio import (CsvSchema, FeatureSpec, FlowRecord, LabelMap,
                           DEFAULT_FEATURES, DEFAULT_LABEL_MAP)
from botclf.errors import DataError, NotFittedError, SchemaError
from botclf.numerics import make_rng

FEATURES_4 = ("f0", "f1", "f2", "f3")


def write_csv(path, rows, header=None, label_cols=True):
    cols = list(header or FEATURES_4)
    if label_cols:
        cols += ["category", "subcategory"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


@pytest.fixture
def fixture_csv(tmp_path):
    path = tmp_path / "flows.csv"
    write_csv(path, [
        [1.0, 2.0, 3.0, 4.0, "Normal", "Normal"],
        [5.0, 6.0, 7.0, 8.0, "DDoS", "TCP"],
        [9.0, 10.0, 11.0, 12.0, "DDoS", "UDP"],
    ])
    return path


class TestStreamCsv:
    def test_three_row_fixture(self, fixture_csv):
        stream = dataio.stream_csv(fixture_csv, CsvSchema(),
                                   FeatureSpec(names=FEATURES_4), DEFAULT_LABEL_MAP)
        records = list(stream)
        assert len(records) == 3
        npt.assert_array_equal(records[0].features, [1.0, 2.0, 3.0, 4.0])
        assert [r.label for r in records] == [0, 1, 2]
        assert stream.read == 3
        assert stream.skipped == 0

    def test_corrupt_row_skip_policy(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, [
            [1.0, 2.0, 3.0, 4.0, "Normal", "Normal"],
            [1.0, "oops", 3.0, 4.0, "Normal", "Normal"],
            [5.0, 6.0, 7.0, 8.0, "DDoS", "TCP"],
        ])
        stream = dataio.stream_csv(path, CsvSchema(), FeatureSpec(names=FEATURES_4),
                                   DEFAULT_LABEL_MAP, policy="skip")
        records = list(stream)
        assert len(records) == 2
        assert stream.skipped == 1

    def test_corrupt_row_fail_policy(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, [[1.0, "oops", 3.0, 4.0, "Normal", "Normal"]])
        stream = dataio.stream_csv(path, CsvSchema(), FeatureSpec(names=FEATURES_4),
                                   DEFAULT_LABEL_MAP, policy="fail")
        with pytest.raises(DataError):
            list(stream)

    def test_non_finite_value_is_malformed(self, tmp_path):
        path = tmp_path / "inf.csv"
        write_csv(path, [[1.0, "inf", 3.0, 4.0, "Normal", "Normal"]])
        stream = dataio.stream_csv(path, CsvSchema(), FeatureSpec(names=FEATURES_4),
                                   DEFAULT_LABEL_MAP)
        assert list(stream) == []
        assert stream.skipped == 1

    def test_missing_column_is_fatal(self, tmp_path):
        path = tmp_path / "short.csv"
        write_csv(path, [[1.0, 2.0, 3.0, "Normal", "Normal"]],
                  header=["f0", "f1", "f2"])
        stream = dataio.stream_csv(path, CsvSchema(), FeatureSpec(names=FEATURES_4),
                                   DEFAULT_LABEL_MAP)
        with pytest.raises(SchemaError, match="f3"):
            list(stream)

    def test_unlabeled_stream(self, tmp_path):
        path = tmp_path / "plain.csv"
        write_csv(path, [[1.0, 2.0, 3.0, 4.0]], label_cols=False)
        records = list(dataio.stream_csv(path, CsvSchema(),
                                         FeatureSpec(names=FEATURES_4), None))
        assert records[0].label is None

    def test_unknown_policy(self):
        with pytest.raises(DataError):
            dataio.stream_csv("x.csv", policy="explode")

    def test_constant_memory_streaming(self, tmp_path):
        # peak memory while consuming must not grow with file length
        def peak_for(n_rows):
            path = tmp_path / f"gen{n_rows}.csv"
            synth.write_csv(path, n_rows, seed=1)
            stream = dataio.stream_csv(path, CsvSchema(), FeatureSpec(),
                                       DEFAULT_LABEL_MAP)
            tracemalloc.start()
            count = sum(1 for _ in stream)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert count == n_rows
            return peak

        small = peak_for(2_000)
        large = peak_for(20_000)
        assert large < small * 1.5 + 1_000_000


class TestLabelMap:
    def test_default_encoding(self):
        m = DEFAULT_LABEL_MAP
        assert m.encode("Normal", "Normal") == 0
        assert m.encode("DDoS", "TCP") == 1
        assert m.encode("DDoS", "UDP") == 2
        assert m.encode("DoS", "HTTP") == 3
        assert m.encode("Reconnaissance", "OS_Fingerprint") == 4
        assert m.encode("Theft", "Data_Exfiltration") == 5

    def test_unmapped_pair_names_the_pair(self):
        with pytest.raises(DataError, match="Keylogging"):
            DEFAULT_LABEL_MAP.encode("Theft", "Keylogging")

    def test_custom_map(self):
        m = LabelMap(pairs=(("a", "x"), ("b", "y")), names=("A", "B"))
        assert m.encode("b", "y") == 1
        assert m.num_classes == 2


class TestNormalizer:
    def test_midpoint(self):
        spec = FeatureSpec(names=("f",))
        fitted = dataio.fit_normalizer(
            [FlowRecord(np.array([2.0])), FlowRecord(np.array([10.0]))], spec)
        assert fitted.normalize(np.array([6.0]))[0] == 0.5

    def test_constant_column_maps_to_zero(self, caplog):
        spec = FeatureSpec(names=("f", "g"))
        with caplog.at_level("WARNING"):
            fitted = dataio.fit_normalizer(
                [FlowRecord(np.array([3.0, 1.0])), FlowRecord(np.array([3.0, 2.0]))],
                spec)
        assert "constant" in caplog.text
        out = fitted.normalize(np.array([3.0, 1.5]))
        assert out[0] == 0.0
        assert out[1] == 0.5

    def test_out_of_range_clamped(self):
        spec = FeatureSpec(names=("f",))
        fitted = dataio.fit_normalizer(
            [FlowRecord(np.array([0.0])), FlowRecord(np.array([10.0]))], spec)
        assert fitted.normalize(np.array([-5.0]))[0] == 0.0
        assert fitted.normalize(np.array([25.0]))[0] == 1.0

    def test_unfitted_spec_cannot_transform(self):
        with pytest.raises(NotFittedError):
            FeatureSpec(names=("f",)).normalize(np.array([1.0]))

    def test_empty_stream_rejected(self):
        with pytest.raises(DataError):
            dataio.fit_normalizer([], FeatureSpec(names=("f",)))

    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError):
            FeatureSpec(names=("a", "a"))

    def test_default_spec_has_16_unique_features(self):
        assert len(DEFAULT_FEATURES) == 16
        assert len(set(DEFAULT_FEATURES)) == 16


class TestDatasetAndBatches:
    def make_dataset(self, n=25):
        rng = np.random.default_rng(3)
        return dataio.Dataset(features=rng.uniform(0, 1, size=(n, 16)),
                              labels=rng.integers(0, 6, size=n))

    def test_partition_sizes(self):
        ds = self.make_dataset(25)
        sizes = [b.features.shape[0] for b in dataio.batches(ds, 10)]
        assert sizes == [10, 10, 5]

    def test_batch_shapes_and_one_hot(self):
        ds = self.make_dataset(12)
        batch = next(dataio.batches(ds, 12))
        assert batch.features.shape == (12, 16, 1)
        assert batch.targets.shape == (12, 6)
        npt.assert_array_equal(batch.targets.sum(axis=1), 1.0)
        npt.assert_array_equal(batch.targets.argmax(axis=1), batch.labels)

    def test_union_of_batches_is_input(self):
        ds = self.make_dataset(23)
        got = np.concatenate([b.features[:, :, 0]
                              for b in dataio.batches(ds, 7, seed=5, shuffle=True)])
        assert got.shape == ds.features.shape
        npt.assert_allclose(np.sort(got.sum(axis=1)), np.sort(ds.features.sum(axis=1)))

    def test_no_shuffle_preserves_order(self):
        ds = self.make_dataset(9)
        got = np.concatenate([b.features[:, :, 0] for b in dataio.batches(ds, 4)])
        npt.assert_array_equal(got, ds.features)

    def test_shuffle_deterministic(self):
        ds = self.make_dataset(30)
        a = [b.labels.tolist() for b in dataio.batches(ds, 8, seed=11, shuffle=True)]
        b = [b.labels.tolist() for b in dataio.batches(ds, 8, seed=11, shuffle=True)]
        assert a == b
        c = [b.labels.tolist() for b in dataio.batches(ds, 8, seed=12, shuffle=True)]
        assert a != c

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            list(dataio.batches(self.make_dataset(5), 0))

    def test_class_distribution_sums_to_count(self):
        ds = self.make_dataset(40)
        dist = ds.class_distribution()
        assert dist.sum() == 40
        assert len(dist) == 6

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_to_dataset_equals_per_row_normalize(self, dtype):
        # column 2 is constant on the fitted range; rows reach outside it
        spec = FeatureSpec(names=FEATURES_4, mins=np.array([0.0, -1.0, 3.0, 1e-3]),
                           maxs=np.array([1.0, 7.5, 3.0, 2e6]))
        rows = make_rng(5).uniform(-4.0, 4e6, size=(300, 4))
        rows[::7, 2] = 3.0
        records = [FlowRecord(features=r, label=i % 6) for i, r in enumerate(rows)]
        ds = dataio.to_dataset(records, spec, dtype=dtype)
        expect = np.asarray([spec.normalize(r) for r in rows], dtype=dtype)
        assert ds.features.dtype == dtype
        assert np.array_equal(ds.features, expect)
        assert (ds.features == 0.0).any() and (ds.features == 1.0).any()
        assert not ds.features[:, 2].any()

    def test_to_dataset_requires_fitted_spec(self, fixture_csv):
        spec = FeatureSpec(names=FEATURES_4)
        records = list(dataio.stream_csv(fixture_csv, CsvSchema(), spec,
                                         DEFAULT_LABEL_MAP))
        with pytest.raises(NotFittedError):
            dataio.to_dataset(records, spec)
        fitted = dataio.fit_normalizer(records, spec)
        ds = dataio.to_dataset(records, fitted)
        assert len(ds) == 3
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
        npt.assert_array_equal(ds.labels, [0, 1, 2])

    def test_every_record_has_all_features(self, fixture_csv):
        spec = FeatureSpec(names=FEATURES_4)
        for rec in dataio.stream_csv(fixture_csv, CsvSchema(), spec, DEFAULT_LABEL_MAP):
            assert rec.features.shape == (4,)


class TestSynth:
    def test_balancedish_and_bounded(self):
        ds = synth.make_dataset(1200, seed=4)
        assert len(ds) == 1200
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
        dist = ds.class_distribution()
        assert (dist > 100).all()

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "synth.csv"
        written = synth.write_csv(path, 50, seed=9)
        stream = dataio.stream_csv(path, CsvSchema(), FeatureSpec(), DEFAULT_LABEL_MAP)
        records = list(stream)
        assert len(records) == 50
        npt.assert_allclose(np.array([r.features for r in records]), written.features,
                            atol=1e-15)
        npt.assert_array_equal(np.array([r.label for r in records]), written.labels)
