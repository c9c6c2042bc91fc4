import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from botclf import dataio, synth
from botclf.dataio import (CsvSchema, FeatureSpec, LabelMap,
                           DEFAULT_FEATURES, DEFAULT_LABEL_MAP)
from botclf.errors import DataError, NotFittedError, SchemaError
from botclf.numerics import make_rng
from oracles import CsvStreamOracle

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

    @pytest.mark.parametrize("cells", [["1e308", "1e308", "-1e308", "1e308"],
                                       ["inf", "-inf", "3.0", "4.0"]],
                             ids=["overflowing-sum", "nan-sum"])
    def test_finiteness_is_checked_per_value_not_on_the_sum(self, tmp_path, cells):
        path = tmp_path / "sum.csv"
        write_csv(path, [cells + ["Normal", "Normal"]])
        stream = dataio.stream_csv(path, CsvSchema(), FeatureSpec(names=FEATURES_4),
                                   DEFAULT_LABEL_MAP)
        values = [float(c) for c in cells]
        kept = [list(r.features) for r in stream]
        assert kept == ([values] if np.isfinite(values).all() else [])
        assert stream.skipped == 1 - len(kept)

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


class TestChunks:
    def test_chunks_hold_chunk_rows_kept_rows(self, tmp_path):
        # 1100 valid rows with malformed ones spread through them
        path = tmp_path / "flows.csv"
        synth.write_csv(path, 1100, seed=2)
        lines = path.read_text().splitlines(keepends=True)
        for at in (900, 500, 3):
            lines.insert(at, lines[at].replace(",", ",x1,", 1))
        path.write_text("".join(lines))
        stream = dataio.stream_csv(path, label_map=DEFAULT_LABEL_MAP)
        sizes = [(len(x), len(y)) for x, y in stream.chunks()]
        assert sizes == [(512, 512), (512, 512), (76, 76)]
        assert (stream.read, stream.skipped) == (1100, 3)

    def test_row_numbers_count_records(self, tmp_path):
        # blank lines are no records; a quoted line break stays in its record
        path = tmp_path / "rows.csv"
        path.write_text('f0,f1,f2,f3,category,subcategory,note\n'
                        '\n'
                        '1,2,3,4,Normal,Normal,"two\nlines"\n'
                        '\r\n'
                        '1,2,3,4,Normal,Normal,\n'
                        '1,2,oops,4,Normal,Normal,\n')
        stream = dataio.stream_csv(path, CsvSchema(), FeatureSpec(names=FEATURES_4),
                                   DEFAULT_LABEL_MAP, policy="fail")
        with pytest.raises(DataError, match=r"rows\.csv:4: could not convert string "
                                            r"to float: 'oops'$"):
            list(stream.chunks())

    def test_fail_names_the_first_bad_row_of_a_chunk(self, tmp_path):
        # a non-finite row before a non-numeric one in the same chunk
        path = tmp_path / "bad.csv"
        write_csv(path, [[1.0, 2.0, 3.0, 4.0, "Normal", "Normal"],
                         [1.0, "inf", 3.0, 4.0, "Normal", "Normal"],
                         [1.0, "oops", 3.0, 4.0, "Normal", "Normal"]])
        stream = dataio.stream_csv(path, CsvSchema(), FeatureSpec(names=FEATURES_4),
                                   DEFAULT_LABEL_MAP, policy="fail")
        with pytest.raises(DataError, match=r"bad\.csv:3: non-finite feature value$"):
            list(stream.chunks())

    @pytest.mark.parametrize("policy,error", [
        ("fail", r"late\.csv:3: could not convert string to float: 'oops'$"),
        ("skip", r"late\.csv: not UTF-8 text \(byte 0xff: invalid start byte\)$")])
    def test_bad_row_before_a_later_undecodable_byte(self, tmp_path, policy, error):
        # the byte is in the bad row's chunk, but more than one decoder read
        # (8 KiB) further on, so a per-row reader reaches the row first
        good = "1.25,2.5,3.75,4.0,Normal,Normal\n"
        path = tmp_path / "late.csv"
        path.write_bytes(("f0,f1,f2,f3,category,subcategory\n" + good
                          + "1,oops,3,4,Normal,Normal\n" + good * 400).encode()
                         + b"\xff" + good.encode())
        stream = dataio.stream_csv(path, CsvSchema(), FeatureSpec(names=FEATURES_4),
                                   DEFAULT_LABEL_MAP, policy=policy)
        with pytest.raises(DataError, match=error):
            list(stream.chunks())

    def test_duplicate_header_reads_the_last_column(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("f0,f1,f0,f2,f3\n1,2,3,4,5\n")
        x, labels = next(dataio.stream_csv(path, CsvSchema(),
                                           FeatureSpec(names=FEATURES_4)).chunks())
        npt.assert_array_equal(x, [[3.0, 2.0, 4.0, 5.0]])
        assert labels is None


# Differential test of the chunked reader against the per-row reader it
# replaced (tests/oracles.py), on generated CSV text.
ORACLE_FEATURES = ("f0", "f1", "f2")
ORACLE_LABELS = LabelMap(pairs=(("a", "x"), ("b", "y"), ("a", "y"), ("c", "x")),
                         names=("A", "B", "A2", "C"))
_COLUMNS = ORACLE_FEATURES + ("category", "subcategory", "note")
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["0", "-0.0", "0.0", " 7 ", "1_0"]))
_BAD_NUMBER = st.sampled_from(["nan", "inf", "-inf", "NaN", "1e400", "x1", "", "0x10", "1,5"])
_CELL = {
    "category": st.sampled_from(["a", "b", "c", "a", "b", "z", ""]),
    "subcategory": st.sampled_from(["x", "y", "x", "y", "w"]),
    "note": st.text(alphabet='ab,"\n\r ', max_size=5),
}


def _quoted(cell):
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def _csv_files(draw):
    """CSV text with quoted fields, CRLF endings, blank lines, short and long
    rows, duplicate header names, non-finite and non-numeric cells and
    unmapped label pairs; some files run past two chunks."""
    header = list(draw(st.permutations(_COLUMNS)))
    for name in draw(st.lists(st.sampled_from(_COLUMNS), max_size=2)):
        header.insert(draw(st.integers(0, len(header))), name)
    drop = draw(st.sampled_from([None] * 8 + ["f1", "subcategory"]))
    header = [name for name in header if name != drop]
    # a tidy file has well-formed rows, bar at most one in its base rows
    tidy = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        cells = []
        for name in header:
            if name in ORACLE_FEATURES:
                cells.append(draw(_NUMBER if tidy else st.one_of(*[_NUMBER] * 7, _BAD_NUMBER)))
            elif tidy and name in ("category", "subcategory"):
                cells.append(draw(st.sampled_from("abc" if name == "category" else "x")))
            else:
                cells.append(draw(_CELL[name]))
        length = len(cells)
        if not tidy:
            length += draw(st.sampled_from([0] * 8 + [-1, -3, 1]))
        cells = (cells + ["9"])[:max(length, 0)]
        quote = draw(st.sampled_from(["all", "needed"] if tidy
                                     else ["none", "none", "all", "needed"]))
        if quote == "all":
            cells = [_quoted(c) for c in cells]
        elif quote == "needed":
            cells = [_quoted(c) if set(c) & set(',"\r\n') else c for c in cells]
        rows.append(",".join(cells))
    if tidy and rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))),
                    draw(st.sampled_from(["1,nan,2,a,x,", "x1", "1,2", ""])))
    if rows and draw(st.sampled_from([False, False, True])):
        rows *= -(-1100 // len(rows))   # past two chunks
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(header)] + rows
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", "", " "])))
    raw = end.join(lines).encode("utf-8") + end.encode()
    if draw(st.sampled_from([False, False, False, True])):   # a byte that is not UTF-8
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + b"\xff" + raw[at:]
    return raw


def _oracle_outcome(path, spec, label_map, policy):
    stream = CsvStreamOracle(path, CsvSchema(), spec, label_map, policy)
    try:
        records = list(stream)
    except DataError as exc:
        return type(exc), str(exc)
    x = np.array([values for values, _ in records]).reshape(len(records), len(spec.names))
    labels = None if label_map is None else [label for _, label in records]
    return x.tobytes(), labels, stream.read, stream.skipped


def _chunked_outcome(path, spec, label_map, policy):
    stream = dataio.CsvStream(path, CsvSchema(), spec, label_map, policy)
    try:
        chunks = list(stream.chunks())
    except DataError as exc:
        return type(exc), str(exc)
    assert all(len(x) == dataio.CHUNK_ROWS for x, _ in chunks[:-1])
    assert all(0 < len(x) <= dataio.CHUNK_ROWS for x, _ in chunks)
    x = np.concatenate([x for x, _ in chunks] or [np.empty((0, len(spec.names)))])
    assert x.dtype == np.float64
    labels = None
    if label_map is not None:
        assert all(y.dtype == np.int64 for _, y in chunks)
        labels = [label for _, y in chunks for label in y.tolist()]
    view = [(rec.features.tobytes(), rec.label)
            for rec in dataio.CsvStream(path, CsvSchema(), spec, label_map, policy)]
    assert view == [(row.tobytes(), None if labels is None else labels[i])
                    for i, row in enumerate(x)]
    if len(x):
        fitted = dataio.fit_normalizer(chunks, spec)
        mins, maxs = x[0].copy(), x[0].copy()
        for row in x[1:]:
            np.minimum(mins, row, out=mins)
            np.maximum(maxs, row, out=maxs)
        assert (fitted.mins.tobytes(), fitted.maxs.tobytes()) == (mins.tobytes(),
                                                                  maxs.tobytes())
    return x.tobytes(), labels, stream.read, stream.skipped


class TestReaderMatchesOracle:
    # derandomized with a bounded example count, so every run checks the same
    # files; tmp_path is shared by the examples, each rewriting one file
    @settings(max_examples=200, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(raw=_csv_files(), labeled=st.booleans())
    def test_same_rows_counts_and_errors(self, tmp_path, raw, labeled):
        path = tmp_path / "gen.csv"
        path.write_bytes(raw)
        spec = FeatureSpec(names=ORACLE_FEATURES)
        label_map = ORACLE_LABELS if labeled else None
        for policy in ("skip", "fail"):
            assert (_chunked_outcome(path, spec, label_map, policy)
                    == _oracle_outcome(path, spec, label_map, policy)), policy


class TestLabelMap:
    def test_default_encoding(self):
        assert DEFAULT_LABEL_MAP.codes == {
            ("Normal", "Normal"): 0, ("DDoS", "TCP"): 1, ("DDoS", "UDP"): 2,
            ("DoS", "HTTP"): 3, ("Reconnaissance", "OS_Fingerprint"): 4,
            ("Theft", "Data_Exfiltration"): 5}

    def test_unmapped_pair_names_the_pair(self, tmp_path):
        path = tmp_path / "unmapped.csv"
        write_csv(path, [[1.0, 2.0, 3.0, 4.0, "Normal", "Normal"],
                         [1.0, 2.0, 3.0, 4.0, "Theft", "Keylogging"]])
        stream = dataio.stream_csv(path, CsvSchema(), FeatureSpec(names=FEATURES_4),
                                   DEFAULT_LABEL_MAP, policy="fail")
        with pytest.raises(DataError) as err:
            list(stream)
        assert str(err.value) == (f"{path}:3: no class mapping for "
                                  "(category='Theft', subcategory='Keylogging')")

    def test_custom_map(self):
        m = LabelMap(pairs=(("a", "x"), ("b", "y")), names=("A", "B"))
        assert m.codes[("b", "y")] == 1
        assert m.num_classes == 2


class TestNormalizer:
    def test_midpoint(self):
        spec = FeatureSpec(names=("f",))
        fitted = dataio.fit_normalizer(
            [(np.array([[2.0]]), None), (np.array([[10.0]]), None)], spec)
        assert fitted.normalize(np.array([6.0]))[0] == 0.5

    def test_constant_column_maps_to_zero(self, caplog):
        spec = FeatureSpec(names=("f", "g"))
        with caplog.at_level("WARNING"):
            fitted = dataio.fit_normalizer(
                [(np.array([[3.0, 1.0], [3.0, 2.0]]), None)], spec)
        assert "constant" in caplog.text
        out = fitted.normalize(np.array([3.0, 1.5]))
        assert out[0] == 0.0
        assert out[1] == 0.5

    def test_out_of_range_clamped(self):
        spec = FeatureSpec(names=("f",))
        fitted = dataio.fit_normalizer(
            [(np.array([[0.0]]), None), (np.array([[10.0]]), None)], spec)
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
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_to_dataset_equals_per_row_normalize(self, dtype):
        # column 2 is constant on the fitted range; rows reach outside it
        spec = FeatureSpec(names=FEATURES_4, mins=np.array([0.0, -1.0, 3.0, 1e-3]),
                           maxs=np.array([1.0, 7.5, 3.0, 2e6]))
        rows = make_rng(5).uniform(-4.0, 4e6, size=(300, 4))
        rows[::7, 2] = 3.0
        labels = np.arange(len(rows)) % 6
        chunks = [(rows[i:i + 128], labels[i:i + 128]) for i in range(0, len(rows), 128)]
        ds = dataio.to_dataset(chunks, spec, dtype=dtype)
        expect = np.asarray([spec.normalize(r) for r in rows], dtype=dtype)
        assert ds.features.dtype == dtype
        assert np.array_equal(ds.features, expect)
        assert (ds.features == 0.0).any() and (ds.features == 1.0).any()
        assert not ds.features[:, 2].any()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_to_dataset_copies_each_row_once(self, dtype):
        # the peak grows per added row by at most that row's features in
        # `dtype` and its int64 label, plus 8 B: no whole-set temporary
        spec = FeatureSpec(mins=np.zeros(16), maxs=np.ones(16))
        rng = make_rng(9)

        def peak(n_chunks):
            chunks = [(rng.uniform(-0.5, 1.5, size=(dataio.CHUNK_ROWS, 16)),
                       rng.integers(0, 6, size=dataio.CHUNK_ROWS))
                      for _ in range(n_chunks)]
            tracemalloc.start()
            try:
                start, _ = tracemalloc.get_traced_memory()
                ds = dataio.to_dataset(chunks, spec, dtype=dtype)
                _, top = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(ds) == n_chunks * dataio.CHUNK_ROWS
            return top - start

        per_row = 16 * np.dtype(dtype).itemsize + 8 + 8
        assert peak(40) - peak(10) <= 30 * dataio.CHUNK_ROWS * per_row

    def test_to_dataset_requires_fitted_spec(self, fixture_csv):
        spec = FeatureSpec(names=FEATURES_4)
        chunks = list(dataio.stream_csv(fixture_csv, CsvSchema(), spec,
                                        DEFAULT_LABEL_MAP).chunks())
        with pytest.raises(NotFittedError):
            dataio.to_dataset(chunks, spec)
        fitted = dataio.fit_normalizer(chunks, spec)
        ds = dataio.to_dataset(chunks, fitted)
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
        dist = np.bincount(ds.labels, minlength=6)
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
