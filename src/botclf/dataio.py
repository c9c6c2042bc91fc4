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
from math import isfinite
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

# Kept rows per chunk of `CsvStream.chunks()`, one array per chunk instead of
# per row. The inference engine scores each chunk in passes of
# network.PASS_ROWS rows, which divides it.
CHUNK_ROWS = 512

# The malformed-row policies of `CsvStream`, the default first.
POLICIES = ("skip", "fail")


@dataclass(frozen=True)
class FeatureSpec:
    """The feature columns plus, once fitted, per-feature min/max."""

    names: tuple = DEFAULT_FEATURES
    mins: np.ndarray | None = None
    maxs: np.ndarray | None = None

    def __post_init__(self):
        if len(self.names) != len(set(self.names)):
            raise DataError("feature names must be unique")
        if len(self.names) == 0:
            raise DataError("feature spec needs at least one column")

    def normalize(self, values: np.ndarray) -> np.ndarray:
        """Min-max scale to [0, 1]; out-of-range values are clamped.

        Constant features (min == max on the training data) map to 0.0.
        """
        if self.mins is None:
            raise NotFittedError("feature spec must be fitted on training data first")
        span = self.maxs - self.mins
        safe = np.where(span > 0, span, 1.0)
        out = (values - self.mins) / safe
        out = np.where(span > 0, out, 0.0)
        return np.clip(out, 0.0, 1.0)


@dataclass(frozen=True)
class CsvSchema:
    category_column: str = "category"
    subcategory_column: str = "subcategory"


@dataclass(frozen=True)
class LabelMap:
    """(category, subcategory) text pairs -> class indices, plus display names."""

    pairs: tuple   # ((category, subcategory), ...) indexed by class
    names: tuple   # display name per class

    def __post_init__(self):
        for idx, pair in enumerate(self.pairs):
            if pair in self.pairs[:idx]:
                raise DataError(f"class map lists the (category, subcategory) pair "
                                f"{pair!r} twice")

    @cached_property
    def codes(self) -> dict:
        """{(category, subcategory): class index}."""
        return {pair: idx for idx, pair in enumerate(self.pairs)}

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
    cell over its field size limit), the header included, are always fatal.
    """

    def __init__(self, path, schema: CsvSchema = CsvSchema(),
                 feature_spec: FeatureSpec = FeatureSpec(),
                 label_map: LabelMap | None = None, policy: str = POLICIES[0]):
        if policy not in POLICIES:
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
        names = self.feature_spec.names
        labeled = self.label_map is not None
        number = 0                    # row number of the last record read
        with open(self.path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, [])
                number = 1
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
                rows, labels = [], []
                for cells in reader:
                    if not cells:
                        continue  # a blank line is no record
                    number += 1
                    if len(cells) < width:
                        cells += [None] * (width - len(cells))
                    try:
                        values = list(map(float, pick(cells)))
                    except (TypeError, ValueError) as exc:
                        reason = str(exc)
                    else:
                        # a finite sum has only finite terms; an overflowing
                        # sum of finite values falls through to the per-value check
                        if not (isfinite(sum(values)) or all(map(isfinite, values))):
                            reason = "non-finite feature value"
                        elif labeled and (pair := pick_label(cells)) not in codes:
                            reason = (f"no class mapping for (category={pair[0]!r}, "
                                      f"subcategory={pair[1]!r})")
                        else:
                            rows.append(values)
                            if labeled:
                                labels.append(codes[pair])
                            if len(rows) == CHUNK_ROWS:
                                yield self._chunk(rows, labels)
                                rows, labels = [], []
                            continue
                    if self.policy == "fail":
                        raise DataError(f"{self.path}:{number}: {reason}")
                    self.skipped += 1
                    log.debug("skipping row %d of %s: %s", number, self.path, reason)
            except csv.Error as exc:  # e.g. a cell over the field size limit
                raise DataError(f"{self.path}:{number + 1}: {exc}") from None
            except UnicodeDecodeError as exc:
                raise DataError(f"{self.path}: not UTF-8 text "
                                f"(byte 0x{exc.object[exc.start]:02x}: {exc.reason})") from None
            if rows:
                yield self._chunk(rows, labels)
        if self.skipped:
            log.warning("%s: skipped %d malformed row(s), kept %d",
                        self.path, self.skipped, self.read)

    def _chunk(self, rows, labels):
        """(features [n, F] float64, labels int64 [n] or None) of n kept rows."""
        self.read += len(rows)
        return (np.array(rows, dtype=np.float64),
                np.array(labels, dtype=np.int64) if self.label_map is not None else None)


stream_csv = CsvStream


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
    """Materialized, normalized features plus integer labels."""

    features: np.ndarray            # [N, num_features], in [0, 1]
    labels: np.ndarray              # [N]

    def __len__(self) -> int:
        return self.features.shape[0]


def to_dataset(chunks, feature_spec: FeatureSpec, dtype=DOUBLE) -> Dataset:
    """Normalize one or more labeled (features, labels) chunks into one Dataset.

    The features, in `dtype`, and the int64 labels are allocated once at their
    full length, and each chunk is normalized into its own slice: the rows are
    copied once, into the result."""
    chunks = list(chunks)  # read twice: for the length, then for the rows
    n = sum(len(y) for _, y in chunks)
    features = np.empty((n, len(feature_spec.names)), dtype=dtype)
    labels = np.empty(n, dtype=np.int64)
    stop = 0
    for x, y in chunks:
        start, stop = stop, stop + len(y)
        features[start:stop] = feature_spec.normalize(x)
        labels[start:stop] = y
    return Dataset(features=features, labels=labels)
