"""Multi-class confusion-matrix statistics.

Per class, the matrix is binarized (one-vs-rest) against the full
population N, and the usual derived statistics are computed from the
resulting TP/FP/FN/TN cells. Metrics whose defining ratio has a zero
denominator are reported as an explicit undefined state (None), never as
NaN. Overall statistics cover accuracy with a 95% normal-approximation
confidence interval, macro F1, Cohen's kappa, hamming loss, and relative
classifier information (normalized mutual information between actual and
predicted labels).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class BinaryCells:
    """One-vs-rest cells for a single class; tp+fp+fn+tn is the population."""

    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


class ConfusionMatrix:
    """K x K counts; entry [i][j] = samples of actual class i predicted as j."""

    def __init__(self, counts):
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise DataError(f"confusion matrix must be square, got shape {counts.shape}")
        if (counts < 0).any():
            raise DataError("confusion matrix counts must be nonnegative")
        if counts.sum() <= 0:
            raise DataError("confusion matrix population must be positive")
        self.counts = counts

    @classmethod
    def from_labels(cls, actual, predicted, num_classes: int) -> "ConfusionMatrix":
        actual = np.asarray(actual, dtype=np.int64)
        predicted = np.asarray(predicted, dtype=np.int64)
        if actual.shape != predicted.shape:
            raise DataError("actual and predicted label arrays differ in length")
        counts = np.zeros((num_classes, num_classes), dtype=np.int64)
        np.add.at(counts, (actual, predicted), 1)
        return cls(counts)

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def accuracy(self) -> float:
        return float(np.trace(self.counts)) / self.n

    def binarize(self, c: int) -> BinaryCells:
        if not 0 <= c < self.num_classes:
            raise DataError(f"class index {c} out of range for {self.num_classes} classes")
        tp = int(self.counts[c, c])
        fn = int(self.counts[c, :].sum()) - tp
        fp = int(self.counts[:, c].sum()) - tp
        tn = self.n - tp - fn - fp
        return BinaryCells(tp, fp, fn, tn)


@dataclass(frozen=True)
class ClassStats:
    """Per-class statistics; fields are None where the metric is undefined."""

    tp: int
    fp: int
    fn: int
    tn: int
    acc: float
    err: float
    tpr: float | None        # recall / sensitivity
    tnr: float | None        # specificity
    precision: float | None
    f1: float | None
    agf: float | None        # adjusted F-score
    agm: float | None        # adjusted geometric mean
    auc: float | None        # single-threshold (TPR + TNR) / 2
    auci: str | None         # qualitative AUC band
    youden: float | None
    dind: float | None       # distance index
    sind: float | None       # similarity index


def auci_band(auc: float) -> str:
    """Qualitative interpretation band for an AUC in [0, 1]."""
    if not 0.0 <= auc <= 1.0:
        raise DataError(f"AUC must lie in [0, 1], got {auc}")
    if auc < 0.6:
        return "Poor"
    if auc < 0.7:
        return "Fair"
    if auc < 0.8:
        return "Good"
    if auc < 0.9:
        return "Very Good"
    return "Excellent"


def _fbeta(precision: float, recall: float, beta: float) -> float:
    b2 = beta * beta
    denom = b2 * precision + recall
    if denom == 0.0:
        return 0.0
    return (1.0 + b2) * precision * recall / denom


def stats_from_cells(cells: BinaryCells) -> ClassStats:
    """All per-class statistics from explicit one-vs-rest cells."""
    tp, fp, fn, tn = cells.tp, cells.fp, cells.fn, cells.tn
    n = cells.n
    if n <= 0:
        raise DataError("cells describe an empty population")
    acc = (tp + tn) / n
    err = 1.0 - acc
    tpr = tp / (tp + fn) if tp + fn > 0 else None
    tnr = tn / (tn + fp) if tn + fp > 0 else None
    precision = tp / (tp + fp) if tp + fp > 0 else None

    if tpr is None and precision is None:
        f1 = None
    elif tp == 0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * tpr / (precision + tpr)

    if tpr is None or tnr is None:
        auc = youden = dind = sind = agm = agf = None
        band = None
    else:
        auc = (tpr + tnr) / 2.0
        band = auci_band(auc)
        youden = tpr + tnr - 1.0
        dind = math.hypot(1.0 - tpr, 1.0 - tnr)
        sind = 1.0 - dind / math.sqrt(2.0)
        if tpr > 0.0:
            nn = (tn + fp) / n
            agm = (math.sqrt(tpr * tnr) + tnr * nn) / (1.0 + nn)
        else:
            agm = 0.0
        if tp == 0:
            agf = 0.0
        else:
            f2 = _fbeta(precision, tpr, 2.0)
            # F0.5 on the label-swapped cells: TP<->TN, FP<->FN
            sw_precision = tn / (tn + fn) if tn + fn > 0 else 0.0
            sw_recall = tn / (tn + fp)
            inv_f05 = _fbeta(sw_precision, sw_recall, 0.5)
            agf = math.sqrt(f2 * inv_f05)

    return ClassStats(tp=tp, fp=fp, fn=fn, tn=tn, acc=acc, err=err, tpr=tpr,
                      tnr=tnr, precision=precision, f1=f1, agf=agf, agm=agm,
                      auc=auc, auci=band, youden=youden, dind=dind, sind=sind)


def class_stats(cm: ConfusionMatrix, c: int) -> ClassStats:
    return stats_from_cells(cm.binarize(c))


@dataclass(frozen=True)
class OverallStats:
    accuracy: float
    error_rate: float
    ci_low: float
    ci_high: float
    macro_f1: float | None
    kappa: float
    hamming_loss: float
    rci: float


def accuracy_ci(accuracy: float, n: int, z: float = 1.96):
    """Normal-approximation confidence interval for an accuracy estimate."""
    if n <= 0:
        raise DataError("population must be positive")
    half = z * math.sqrt(accuracy * (1.0 - accuracy) / n)
    return accuracy - half, accuracy + half


def cohen_kappa(observed_accuracy: float, actual_counts, predicted_counts) -> float:
    """Chance-corrected agreement from marginal counts.

    p_e = sum(actual_i * predicted_i) / N^2 is the expected agreement of
    independent raters with the given marginals, where N is the sum of the
    actual marginals. The two vectors must have one nonnegative count per
    class (DataError otherwise), but their totals may differ: a published
    table can drop rows from the predicted side (acceptance criterion 4's
    reference marginals differ by 40 of 731,867 rows), and p_e is still
    normalised by the actual total squared. Degenerate p_e = 1 maps to 1.0
    for perfect agreement and 0.0 otherwise.
    """
    actual = np.asarray(actual_counts, dtype=np.float64)
    predicted = np.asarray(predicted_counts, dtype=np.float64)
    if actual.ndim != 1 or actual.shape != predicted.shape:
        raise DataError(f"actual and predicted marginals must be vectors of one length, "
                        f"got shapes {actual.shape} and {predicted.shape}")
    if (actual < 0).any() or (predicted < 0).any():
        raise DataError("marginal counts must be nonnegative")
    n = actual.sum()
    if n <= 0:
        raise DataError("population must be positive")
    p_e = float((actual * predicted).sum()) / float(n * n)
    if p_e >= 1.0:
        return 1.0 if observed_accuracy >= 1.0 else 0.0
    return float(observed_accuracy - p_e) / (1.0 - p_e)


def relative_classifier_information(cm: ConfusionMatrix) -> float:
    """I(actual; predicted) / H(actual) over the joint count distribution."""
    joint = cm.counts.astype(np.float64) / cm.n
    p_actual = joint.sum(axis=1)
    p_pred = joint.sum(axis=0)
    h_actual = -sum(p * math.log(p) for p in p_actual if p > 0.0)
    if h_actual == 0.0:
        return 0.0
    mi = 0.0
    for i in range(cm.num_classes):
        for j in range(cm.num_classes):
            pij = joint[i, j]
            if pij > 0.0:
                mi += pij * math.log(pij / (p_actual[i] * p_pred[j]))
    return mi / h_actual


def overall_stats(cm: ConfusionMatrix) -> OverallStats:
    acc = cm.accuracy()
    ci_low, ci_high = accuracy_ci(acc, cm.n)
    f1s = [class_stats(cm, c).f1 for c in range(cm.num_classes)]
    defined = [f for f in f1s if f is not None]
    macro_f1 = sum(defined) / len(defined) if defined else None
    kappa = cohen_kappa(acc, cm.counts.sum(axis=1), cm.counts.sum(axis=0))
    hamming = 1.0 - acc  # mismatch fraction for single-label predictions
    rci = relative_classifier_information(cm)
    return OverallStats(accuracy=acc, error_rate=1.0 - acc, ci_low=ci_low,
                        ci_high=ci_high, macro_f1=macro_f1, kappa=kappa,
                        hamming_loss=hamming, rci=rci)


# --------------------------------------------------------------------------
# bundled report

_TABLE_ROWS = (
    ("ACC", "acc"), ("AGF", "agf"), ("AGM", "agm"), ("AUC", "auc"),
    ("AUCI", "auci"), ("ERR", "err"), ("F1-Score", "f1"),
    ("Precision", "precision"), ("Recall", "tpr"), ("Specificity", "tnr"),
    ("False Negative", "fn"), ("False Positive", "fp"),
    ("True Positive", "tp"), ("True Negative", "tn"),
    ("Youden", "youden"), ("dInd", "dind"), ("sInd", "sind"),
)


@dataclass(frozen=True)
class MetricsReport:
    overall: OverallStats
    classes: tuple

    def to_dict(self) -> dict:
        return {"overall": asdict(self.overall),
                "classes": [asdict(c) for c in self.classes]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def render_class_table(self) -> str:
        """Flat per-class table: one statistic per row, one column per class."""
        k = len(self.classes)
        header = f"{'':<16}" + "".join(f"{'Class ' + str(c):>14}" for c in range(k))
        lines = [header, "-" * (16 + 14 * k)]
        for label, attr in _TABLE_ROWS:
            cells = []
            for stats in self.classes:
                v = getattr(stats, attr)
                if v is None:
                    cells.append(f"{'None':>14}")
                elif isinstance(v, int):
                    cells.append(f"{v:>14}")
                elif isinstance(v, str):
                    cells.append(f"{v:>14}")
                else:
                    cells.append(f"{v:>14.5f}")
            lines.append(f"{label:<16}" + "".join(cells))
        return "\n".join(lines)

    def render_overall(self) -> str:
        o = self.overall
        lines = [
            f"Accuracy       {o.accuracy:.5f}",
            f"Error rate     {o.error_rate:.5f}",
            f"95% CI         ({o.ci_low:.5f}, {o.ci_high:.5f})",
            "Macro F1       " + ("None" if o.macro_f1 is None else f"{o.macro_f1:.5f}"),
            f"Kappa          {o.kappa:.5f}",
            f"Hamming loss   {o.hamming_loss:.5f}",
            f"RCI            {o.rci:.5f}",
        ]
        return "\n".join(lines)


def report(cm: ConfusionMatrix) -> MetricsReport:
    """OverallStats plus ClassStats for every class, ready to serialize."""
    classes = tuple(class_stats(cm, c) for c in range(cm.num_classes))
    return MetricsReport(overall=overall_stats(cm), classes=classes)
