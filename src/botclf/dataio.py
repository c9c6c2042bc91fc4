"""Flow-record CSV ingestion, feature selection, normalization.

Ingestion is single-pass and constant-memory: `CsvStream.chunks()` parses
the file with one `csv.reader` and yields its rows as arrays of CHUNK_ROWS
raw (un-normalized) rows, never loading the file. Normalization is min-max
to [0, 1], fitted on training data only; a spec that has not been fitted
refuses to transform.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, replace
from functools import cached_property
from operator import itemgetter

import numpy as np

from .errors import DataError, NotFittedError, SchemaError
from .numerics import DOUBLE

log = logging.getLogger(__name__)

# Numeric flow columns of the Bot-IoT style CSV schema; exactly 16, in a
# fixed order. Overridable via the features config file.
DEFAULT_FEATURES = (
    "pkts", "bytes", "seq", "dur", "mean", "stddev", "sum", "min",
    "max", "spkts", "dpkts", "sbytes", "dbytes", "rate", "srate", "drate",
)

NUM_CLASSES = 6

# Kept rows per chunk of `CsvStream.chunks()`: one array and one finiteness
# check per chunk instead of per row. A multiple of network.INFER_CHUNK, so
# `predict` scores the same batches as `eval`.
CHUNK_ROWS = 512


@dataclass(frozen=True)
class FeatureSpec:
    """The 16 feature columns plus, once fitted, per-feature min/max."""

    names: tuple = DEFAULT_FEATURES
    mins: np.ndarray | None = None
    maxs: np.ndarray | None = None

    def __post_init__(self):
        if len(self.names) != len(set(self.names)):
            raise DataError("feature names must be unique")
        if len(self.names) == 0:
            raise DataError("feature spec needs at least one column")

    @property
    def fitted(self) -> bool:
        return self.mins is not None

    def normalize(self, values: np.ndarray) -> np.ndarray:
        """Min-max scale to [0, 1]; out-of-range values are clamped.

        Constant features (min == max on the training data) map to 0.0.
        """
        if not self.fitted:
            raise NotFittedError("feature spec must be fitted on training data first")
        span = self.maxs - self.mins
        safe = np.where(span > 0, span, 1.0)
        out = (values - self.mins) / safe
        out = np.where(span > 0, out, 0.0)
        return np.clip(out, 0.0, 1.0)


@dataclass(frozen=True)
class CsvSchema:
    delimiter: str = ","
    category_column: str = "category"
    subcategory_column: str = "subcategory"


def _unmapped(category, subcategory) -> DataError:
    return DataError(f"no class mapping for (category={category!r}, "
                     f"subcategory={subcategory!r})")


@dataclass(frozen=True)
class LabelMap:
    """(category, subcategory) text pairs -> class indices, plus display names."""

    pairs: tuple   # ((category, subcategory), ...) indexed by class
    names: tuple   # display name per class

    def encode(self, category: str, subcategory: str) -> int:
        try:
            return self.codes[(category, subcategory)]
        except KeyError:
            raise _unmapped(category, subcategory) from None

    @cached_property
    def codes(self) -> dict:
        """{(category, subcategory): class index}; a pair listed twice keeps
        its first index."""
        codes = {}
        for idx, pair in enumerate(self.pairs):
            codes.setdefault(pair, idx)
        return codes

    @property
    def num_classes(self) -> int:
        return len(self.pairs)


DEFAULT_LABEL_MAP = LabelMap(
    pairs=(("Normal", "Normal"),
           ("DDoS", "TCP"),
           ("DDoS", "UDP"),
           ("DoS", "HTTP"),
           ("Reconnaissance", "OS_Fingerprint"),
           ("Theft", "Data_Exfiltration")),
    names=("Normal", "DDoS-TCP", "DDoS-UDP", "DoS-HTTP",
           "OS-Fingerprint", "Data-Exfiltration"),
)


@dataclass
class FlowRecord:
    features: np.ndarray      # raw (un-normalized) values, one per feature column
    label: int | None = None  # class index, None for inference-only rows


class CsvStream:
    """Read a flow CSV in chunks of CHUNK_ROWS kept rows without loading the file.

    `chunks()` yields (features [n, F] float64, labels int64 [n] or None);
    n is CHUNK_ROWS in every chunk but the last. Each feature cell is parsed
    by `float()`. Malformed rows (a non-numeric, missing or non-finite
    feature cell, an unmapped label) are skipped and counted under the
    default policy ("skip"); policy "fail" raises on the first bad row in
    file order. Row numbers count CSV records, the header being row 1, so
    blank lines and line breaks inside quoted fields do not shift them. A
    header name given twice reads its last column, and a row shorter than
    the header lacks its last cells. A missing feature or label column,
    bytes that are not UTF-8 and a record the `csv` module cannot read (a
    cell over its field size limit) are always fatal.
    """

    def __init__(self, path, schema: CsvSchema = CsvSchema(),
                 feature_spec: FeatureSpec = FeatureSpec(),
                 label_map: LabelMap | None = None, policy: str = "skip"):
        if policy not in ("skip", "fail"):
            raise DataError(f"unknown malformed-row policy {policy!r}")
        self.path = path
        self.schema = schema
        self.feature_spec = feature_spec
        self.label_map = label_map
        self.policy = policy
        self.read = 0
        self.skipped = 0

    def __iter__(self):
        """One FlowRecord per kept row, a per-record view of `chunks()`."""
        for features, labels in self.chunks():
            labels = [None] * len(features) if labels is None else labels.tolist()
            for values, label in zip(features, labels):
                yield FlowRecord(features=values, label=label)

    def chunks(self):
        try:
            yield from self._chunks()
        except UnicodeDecodeError as exc:
            raise DataError(f"{self.path}: not UTF-8 text "
                            f"(byte 0x{exc.object[exc.start]:02x}: {exc.reason})") from None

    def _chunks(self):
        names = self.feature_spec.names
        labeled = self.label_map is not None
        with open(self.path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh, delimiter=self.schema.delimiter)
            header = next(reader, [])
            column = {name: i for i, name in enumerate(header)}  # last duplicate wins
            label_columns = ((self.schema.category_column, self.schema.subcategory_column)
                             if labeled else ())
            missing = [c for c in (*names, *label_columns) if c not in column]
            if missing:
                raise SchemaError(f"{self.path}: header is missing columns: "
                                  f"{', '.join(missing)}")
            cols = [column[c] for c in names]
            pick = itemgetter(*cols) if len(cols) > 1 else lambda cells: (cells[cols[0]],)
            if labeled:
                pick_label = itemgetter(*(column[c] for c in label_columns))
                codes = self.label_map.codes
            width = len(header)
            number = 1                # row number of the last record read

            def read_block(want):
                """(features, labels, at_end) of the rows kept among the next
                `want` records; bad rows are counted, or raised under "fail"."""
                nonlocal number
                rows, pairs, numbers = [], [], []
                bad = []              # (row number, reason)
                at_end = False
                stop = None           # a read error, raised once the rows before it are checked
                try:
                    for cells in reader:
                        if not cells:
                            continue  # a blank line is no record
                        number += 1
                        want -= 1
                        if len(cells) < width:
                            cells += [None] * (width - len(cells))
                        try:
                            rows.append(list(map(float, pick(cells))))
                        except (TypeError, ValueError) as exc:
                            bad.append((number, str(exc)))
                        else:
                            numbers.append(number)
                            if labeled:
                                pairs.append(pick_label(cells))
                        if not want:
                            break
                    else:
                        at_end = True
                except UnicodeDecodeError as exc:
                    stop = exc
                except csv.Error as exc:  # e.g. a cell over the field size limit
                    stop = DataError(f"{self.path}:{number + 1}: {exc}")
                x = np.array(rows, dtype=np.float64).reshape(len(rows), len(names))
                y = (np.array([codes.get(pair, -1) for pair in pairs], dtype=np.int64)
                     if labeled else None)
                finite = np.isfinite(x).all(axis=1)
                keep = finite & (y >= 0) if labeled else finite
                if not keep.all():
                    for i in np.flatnonzero(~keep).tolist():
                        reason = ("non-finite feature value" if not finite[i]
                                  else str(_unmapped(*pairs[i])))
                        bad.append((numbers[i], reason))
                    x = x[keep]
                    y = y[keep] if labeled else None
                if bad:
                    bad.sort()
                    if self.policy == "fail":
                        raise DataError(f"{self.path}:{bad[0][0]}: {bad[0][1]}")
                    self.skipped += len(bad)
                    for row_number, reason in bad:
                        log.debug("skipping row %d of %s: %s", row_number, self.path, reason)
                if stop is not None:
                    raise stop
                self.read += len(x)
                return x, y, at_end

            # Each block reads the records that would fill the chunk if all
            # were kept, so a chunk never overflows.
            held, count, at_end = [], 0, False
            while not at_end:
                x, y, at_end = read_block(CHUNK_ROWS - count)
                held.append((x, y))
                count += len(x)
                if count == CHUNK_ROWS or (at_end and count):
                    yield (np.concatenate([h[0] for h in held]),
                           np.concatenate([h[1] for h in held]) if labeled else None)
                    held, count = [], 0
        if self.skipped:
            log.warning("%s: skipped %d malformed row(s), kept %d",
                        self.path, self.skipped, self.read)


def stream_csv(path, schema: CsvSchema = CsvSchema(),
               feature_spec: FeatureSpec = FeatureSpec(),
               label_map: LabelMap | None = None, policy: str = "skip") -> CsvStream:
    return CsvStream(path, schema, feature_spec, label_map, policy)


def fit_normalizer(chunks, feature_spec: FeatureSpec) -> FeatureSpec:
    """Per-feature min/max over (features, labels) chunks of training rows,
    as `CsvStream.chunks()` yields them.

    Single pass, constant memory. Constant columns are reported; they will
    normalize to 0.0.
    """
    mins = None
    maxs = None
    for x, _ in chunks:
        if mins is None:
            mins = x.min(axis=0)
            maxs = x.max(axis=0)
        else:
            np.minimum(mins, x.min(axis=0), out=mins)
            np.maximum(maxs, x.max(axis=0), out=maxs)
    if mins is None:
        raise DataError("cannot fit normalizer: no records")
    constant = np.flatnonzero(mins == maxs)
    for idx in constant:
        log.warning("feature %r is constant on the training data; it will "
                    "normalize to 0.0", feature_spec.names[idx])
    return replace(feature_spec, mins=mins, maxs=maxs)


@dataclass
class Dataset:
    """Materialized, normalized features plus (optionally) integer labels."""

    features: np.ndarray            # [N, num_features], in [0, 1]
    labels: np.ndarray | None = None

    def __len__(self) -> int:
        return self.features.shape[0]

    def class_distribution(self, num_classes: int = NUM_CLASSES) -> np.ndarray:
        if self.labels is None:
            raise DataError("dataset has no labels")
        return np.bincount(self.labels, minlength=num_classes)


def to_dataset(chunks, feature_spec: FeatureSpec, dtype=DOUBLE) -> Dataset:
    """Normalize (features, labels) chunks into one Dataset; labels are kept
    when every chunk has them."""
    xs = []
    ys = []
    for x, y in chunks:
        xs.append(x)
        ys.append(y)
    if not xs:
        raise DataError("no records to materialize")
    features = feature_spec.normalize(np.concatenate(xs)).astype(dtype, copy=False)
    if any(y is None for y in ys):
        return Dataset(features=features, labels=None)
    return Dataset(features=features, labels=np.concatenate(ys).astype(np.int64, copy=False))
