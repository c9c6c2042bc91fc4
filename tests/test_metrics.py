import json
import math

import numpy as np
import pytest

from botclf import metrics
from botclf.errors import DataError
from botclf.metrics import ConfusionMatrix
from botclf.numerics import make_rng
from oracles import REFERENCE_CELLS, REFERENCE_N, REFERENCE_STATS

PRINT_PRECISION = 5e-5


@pytest.mark.parametrize("cls", sorted(REFERENCE_CELLS))
def test_reference_class_statistics(cls):
    cells = REFERENCE_CELLS[cls]
    assert cells.n == REFERENCE_N
    stats = metrics.stats_from_cells(cells)
    expected = REFERENCE_STATS[cls]
    for name, want in expected.items():
        got = getattr(stats, name)
        if want is None:
            assert got is None, f"{name} should be undefined"
        elif isinstance(want, str):
            assert got == want, f"{name}: {got} != {want}"
        else:
            assert got == pytest.approx(want, abs=PRINT_PRECISION), f"{name}"


def test_class2_spot_values():
    s = metrics.stats_from_cells(REFERENCE_CELLS[2])
    assert s.precision == pytest.approx(0.34615, abs=5e-5)
    assert s.f1 == pytest.approx(0.41423, abs=5e-5)
    assert s.auc == pytest.approx(0.75543, abs=5e-5)
    assert s.agm == pytest.approx(0.85544, abs=5e-5)
    assert s.youden == pytest.approx(0.51085, abs=5e-5)
    assert s.sind == pytest.approx(0.65749, abs=5e-5)


def test_class5_undefined_precision():
    s = metrics.stats_from_cells(REFERENCE_CELLS[5])
    assert s.precision is None
    assert s.f1 == 0.0
    assert s.auc == 0.5
    assert s.youden == 0.0
    assert s.dind == 1.0
    assert s.sind == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-12)


class TestAuciBand:
    @pytest.mark.parametrize("auc,band", [
        (0.75543, "Good"), (0.86312, "Very Good"), (0.5, "Poor"),
        (0.3, "Poor"), (0.65, "Fair"), (0.9, "Excellent"), (1.0, "Excellent"),
        (0.6, "Fair"), (0.7, "Good"), (0.8, "Very Good"),
    ])
    def test_bands(self, auc, band):
        assert metrics.auci_band(auc) == band

    def test_out_of_range(self):
        with pytest.raises(DataError):
            metrics.auci_band(1.2)
        with pytest.raises(DataError):
            metrics.auci_band(-0.1)


class TestConfusionMatrix:
    def test_from_labels_and_binarize(self):
        cm = ConfusionMatrix.from_labels([0, 0, 1, 2, 2, 2], [0, 1, 1, 2, 0, 2], 3)
        assert cm.n == 6
        cells = cm.binarize(2)
        assert (cells.tp, cells.fp, cells.fn, cells.tn) == (2, 0, 1, 3)
        assert cells.n == 6

    def test_cells_sum_to_population(self):
        rng = make_rng(1)
        counts = rng.integers(0, 50, size=(6, 6))
        counts[0, 0] += 1
        cm = ConfusionMatrix(counts)
        for c in range(6):
            assert cm.binarize(c).n == cm.n

    def test_rejects_bad_input(self):
        with pytest.raises(DataError):
            ConfusionMatrix(np.zeros((2, 3)))
        with pytest.raises(DataError):
            ConfusionMatrix(np.zeros((3, 3)))
        with pytest.raises(DataError):
            ConfusionMatrix([[1, -1], [0, 2]])

    def test_class_index_range(self):
        cm = ConfusionMatrix(np.eye(3, dtype=int))
        with pytest.raises(DataError):
            cm.binarize(3)


class TestPerClassInvariants:
    def test_acc_plus_err_is_one(self):
        rng = make_rng(2)
        for _ in range(50):
            counts = rng.integers(0, 30, size=(4, 4))
            counts[0, 0] += 1
            cm = ConfusionMatrix(counts)
            for c in range(4):
                s = metrics.stats_from_cells(cm.binarize(c))
                assert s.acc + s.err == 1.0

    def test_f1_matches_harmonic_mean(self):
        rng = make_rng(3)
        for _ in range(50):
            counts = rng.integers(1, 30, size=(3, 3))
            cm = ConfusionMatrix(counts)
            for c in range(3):
                s = metrics.stats_from_cells(cm.binarize(c))
                if s.precision is not None and s.tpr is not None and s.tp > 0:
                    expect = 2 * s.precision * s.tpr / (s.precision + s.tpr)
                    assert abs(s.f1 - expect) <= 1e-12

    def test_sind_and_youden_identities(self):
        rng = make_rng(4)
        for _ in range(50):
            counts = rng.integers(1, 30, size=(3, 3))
            cm = ConfusionMatrix(counts)
            for c in range(3):
                s = metrics.stats_from_cells(cm.binarize(c))
                assert s.sind == 1 - s.dind / math.sqrt(2)
                assert abs(s.youden - (2 * s.auc - 1)) < 1e-12

    def test_absent_class_is_undefined_not_nan(self):
        # class 2 never occurs and is never predicted
        cm = ConfusionMatrix([[5, 1, 0], [2, 7, 0], [0, 0, 0]])
        s = metrics.stats_from_cells(cm.binarize(2))
        assert s.tpr is None and s.precision is None
        for name in ("f1", "auc", "auci", "youden", "dind", "sind", "agf", "agm"):
            assert getattr(s, name) is None
        assert s.acc == 1.0  # binarized: everything is a true negative


class TestOverallStats:
    def test_confidence_interval_reference(self):
        low, high = metrics.accuracy_ci(0.99259, REFERENCE_N)
        assert round(low, 5) == 0.99239
        assert round(high, 5) == 0.99279

    def test_ci_contains_point_estimate(self):
        rng = make_rng(5)
        for _ in range(20):
            acc = rng.uniform(0.01, 0.99)
            n = int(rng.integers(10, 10**6))
            low, high = metrics.accuracy_ci(acc, n)
            assert low <= acc <= high

    def test_identity_matrix_perfect_agreement(self):
        cm = ConfusionMatrix(np.eye(6, dtype=int) * 10)
        o = metrics.overall_stats(cm)
        assert o.accuracy == 1.0
        assert o.kappa == 1.0
        assert o.hamming_loss == 0.0
        assert o.rci == pytest.approx(1.0, abs=1e-12)

    def test_single_class_predictions_chance_agreement(self):
        # balanced 2-class set, everything predicted class 0
        cm = ConfusionMatrix([[10, 0], [10, 0]])
        o = metrics.overall_stats(cm)
        assert o.kappa == pytest.approx(0.0, abs=1e-12)
        assert o.rci == pytest.approx(0.0, abs=1e-12)

    def test_hamming_equals_one_minus_accuracy(self):
        rng = make_rng(6)
        for _ in range(1000):
            k = int(rng.integers(2, 7))
            counts = rng.integers(0, 40, size=(k, k))
            if counts.sum() == 0:
                counts[0, 0] = 1
            cm = ConfusionMatrix(counts)
            o = metrics.overall_stats(cm)
            assert o.hamming_loss == 1.0 - o.accuracy

    def test_kappa_bounds_and_perfect_condition(self):
        rng = make_rng(7)
        for _ in range(200):
            counts = rng.integers(0, 20, size=(4, 4))
            counts += np.diag(rng.integers(1, 40, size=4))
            cm = ConfusionMatrix(counts)
            o = metrics.overall_stats(cm)
            marg = (cm.counts.sum(axis=1) * cm.counts.sum(axis=0)).sum() / cm.n**2
            if o.accuracy >= marg:
                assert -1e-12 <= o.kappa <= 1.0 + 1e-12
            off_diag = cm.counts.sum() - np.trace(cm.counts)
            assert (o.kappa == 1.0) == (off_diag == 0)

    def test_kappa_from_marginals(self):
        # independent oracle: full p_e expansion in plain floats
        actual = [30, 50, 20]
        predicted = [40, 40, 20]
        n = 100
        p_e = sum(a * p for a, p in zip(actual, predicted)) / n**2
        expect = (0.8 - p_e) / (1 - p_e)
        assert metrics.cohen_kappa(0.8, actual, predicted) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("predicted", [[100], [40, 40], [40, 40, 20, 0]])
    def test_kappa_rejects_marginals_of_another_length(self, predicted):
        with pytest.raises(DataError, match="one length"):
            metrics.cohen_kappa(0.9, [30, 50, 20], predicted)

    def test_kappa_rejects_negative_counts(self):
        with pytest.raises(DataError, match="nonnegative"):
            metrics.cohen_kappa(0.9, [30, 50, 20], [60, 50, -10])
        with pytest.raises(DataError, match="nonnegative"):
            metrics.cohen_kappa(0.9, [-30, 110, 20], [40, 40, 20])

    def test_rci_half_informative(self):
        # predictions carry no information about the actual class
        cm = ConfusionMatrix([[25, 25], [25, 25]])
        assert metrics.overall_stats(cm).rci == pytest.approx(0.0, abs=1e-12)


class TestReport:
    def test_shape(self):
        cm = ConfusionMatrix(np.eye(6, dtype=int) + 1)
        rep = metrics.report(cm)
        assert len(rep.classes) == 6
        assert rep.overall.accuracy == cm.accuracy()

    def test_none_rendered_as_literal_token(self):
        cm = ConfusionMatrix([[5, 0, 0], [1, 4, 0], [0, 2, 0]])  # class 2 never predicted
        rep = metrics.report(cm)
        table = rep.render_class_table()
        assert "None" in table

    def test_table_has_all_statistic_rows(self):
        cm = ConfusionMatrix(np.eye(6, dtype=int) + 2)
        table = metrics.report(cm).render_class_table()
        for label in ("ACC", "AGF", "AGM", "AUC", "AUCI", "ERR", "F1-Score",
                      "Precision", "Recall", "Specificity", "False Negative",
                      "False Positive", "True Positive", "True Negative",
                      "Youden", "dInd", "sInd"):
            assert label in table
        assert len(table.splitlines()) >= 2 + 16

    def test_json_round_trip(self):
        cm = ConfusionMatrix([[50, 2, 1], [3, 40, 0], [1, 1, 30]])
        rep = metrics.report(cm)
        assert json.loads(rep.to_json()) == rep.to_dict()

    def test_permuted_labels_permute_class_stats(self):
        rng = make_rng(8)
        counts = rng.integers(1, 30, size=(4, 4))
        cm = ConfusionMatrix(counts)
        perm = np.array([2, 0, 3, 1])
        permuted = ConfusionMatrix(counts[np.ix_(perm, perm)])
        rep = metrics.report(cm)
        rep_p = metrics.report(permuted)
        for new_idx, old_idx in enumerate(perm):
            assert rep_p.classes[new_idx] == rep.classes[old_idx]
        assert rep_p.overall.accuracy == rep.overall.accuracy
