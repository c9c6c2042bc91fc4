"""Flow-record CSV ingestion, feature selection, normalization.

Ingestion is single-pass and constant-memory: `CsvStream` yields one raw
FlowRecord at a time and never loads the file. Normalization is min-max
to [0, 1], fitted on training data only; a spec that has not been fitted
refuses to transform.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, replace

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


@dataclass(frozen=True)
class LabelMap:
    """(category, subcategory) text pairs -> class indices, plus display names."""

    pairs: tuple   # ((category, subcategory), ...) indexed by class
    names: tuple   # display name per class

    def encode(self, category: str, subcategory: str) -> int:
        key = (category, subcategory)
        for idx, pair in enumerate(self.pairs):
            if pair == key:
                return idx
        raise DataError(f"no class mapping for (category={category!r}, "
                        f"subcategory={subcategory!r})")

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
    """Iterate FlowRecords out of a flow CSV without loading the file.

    Malformed rows (non-numeric feature cells, unmappable labels) are
    skipped and counted under the default policy ("skip"); policy "fail"
    raises on the first bad row. A missing feature or label column, or
    bytes that are not UTF-8, are always fatal.
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
        try:
            yield from self._records()
        except UnicodeDecodeError as exc:
            raise DataError(f"{self.path}: not UTF-8 text "
                            f"(byte 0x{exc.object[exc.start]:02x}: {exc.reason})") from None

    def _records(self):
        with open(self.path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh, delimiter=self.schema.delimiter)
            header = reader.fieldnames or []
            missing = [c for c in self.feature_spec.names if c not in header]
            if self.label_map is not None:
                missing += [c for c in (self.schema.category_column,
                                        self.schema.subcategory_column)
                            if c not in header]
            if missing:
                raise SchemaError(f"{self.path}: header is missing columns: "
                                  f"{', '.join(missing)}")
            names = self.feature_spec.names
            for row_number, row in enumerate(reader, start=2):
                try:
                    values = np.array([float(row[c]) for c in names])
                    if not np.isfinite(values).all():
                        raise ValueError("non-finite feature value")
                    label = None
                    if self.label_map is not None:
                        label = self.label_map.encode(
                            row[self.schema.category_column],
                            row[self.schema.subcategory_column])
                except (TypeError, ValueError, DataError) as exc:
                    if self.policy == "fail":
                        raise DataError(f"{self.path}:{row_number}: {exc}") from exc
                    self.skipped += 1
                    log.debug("skipping row %d of %s: %s", row_number, self.path, exc)
                    continue
                self.read += 1
                yield FlowRecord(features=values, label=label)
        if self.skipped:
            log.warning("%s: skipped %d malformed row(s), kept %d",
                        self.path, self.skipped, self.read)


def stream_csv(path, schema: CsvSchema = CsvSchema(),
               feature_spec: FeatureSpec = FeatureSpec(),
               label_map: LabelMap | None = None, policy: str = "skip") -> CsvStream:
    return CsvStream(path, schema, feature_spec, label_map, policy)


def fit_normalizer(records, feature_spec: FeatureSpec) -> FeatureSpec:
    """Per-feature min/max from a stream of training records.

    Single pass, constant memory. Constant columns are reported; they will
    normalize to 0.0.
    """
    mins = None
    maxs = None
    for rec in records:
        v = rec.features
        if mins is None:
            mins = v.copy()
            maxs = v.copy()
        else:
            np.minimum(mins, v, out=mins)
            np.maximum(maxs, v, out=maxs)
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


def to_dataset(records, feature_spec: FeatureSpec, dtype=DOUBLE) -> Dataset:
    """Normalize a record iterable into arrays; labels kept when all present."""
    raw = []
    labels = []
    for rec in records:
        raw.append(rec.features)
        labels.append(rec.label)
    if not raw:
        raise DataError("no records to materialize")
    features = feature_spec.normalize(np.array(raw)).astype(dtype, copy=False)
    if any(lb is None for lb in labels):
        return Dataset(features=features, labels=None)
    return Dataset(features=features, labels=np.asarray(labels, dtype=np.int64))

