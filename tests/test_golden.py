"""Golden outputs of the fixed model: the seeded initial weights, the
`summary` text, the weights bundle a fresh model writes, the `gradcheck`
text, the `.stats` lines of a short `train` run, and the `predict` and
`eval` outputs of the models it trains.

The first three are built from PCG64 draws, integer arithmetic and `repr` of
floats, with no BLAS call, so the bytes are the same on every platform. The
`gradcheck` and double-precision `.stats` texts print few enough digits that
BLAS summation order does not reach them; the single-precision `.stats`
losses are compared within a float32 bound stated below. The trained
manifest does depend on summation order, so it is checked against a
same-process rerun instead of a checked-in digest, and the
`predict` probabilities of the trained model against checked-in values
within 1e-12 relative. The `eval` stdout and report print counts, metrics
of counts and the mean loss to six digits, and are checked byte for byte. A
change that alters any of them changes the product and must say so.
"""

import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from botclf import cli, network, synth
from botclf.dataio import DEFAULT_LABEL_MAP, FeatureSpec


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("seed,digest", [
    (0, "578f63d0044b9e6c2cd9c89fb69b049afcd1acb4ea8d29dcf081d899a4819d3f"),
    (7, "39c7e958229e35874ad70835a83069c1405deccf552d067431ef5f971cb3453e"),
])
def test_initial_weights(seed, digest):
    assert _sha256(network.build(seed).flat.tobytes()) == digest


SUMMARY = """\
Layer (type)            Output Shape         Param #
----------------------------------------------------
InputLayer              (None, 16, 1)              0
Conv1D                  (None, 16, 128)          512
BatchNormalization      (None, 16, 128)          512
GRU                     (None, 16, 10)           390
Activation              (None, 16, 128)            0
Flatten                 (None, 160)                0
GlobalMaxPooling1D      (None, 128)                0
Concatenate             (None, 288)                0
dense (Dense)           (None, 10)              2890
dense_1 (Dense)         (None, 6)                 66
----------------------------------------------------
Total params: 4370
Trainable params: 4114
Non-trainable params: 256"""


def test_summary_text():
    assert network.summary(network.build(0).arch).render() == SUMMARY


def test_fresh_bundle_bytes(tmp_path):
    path = tmp_path / "fresh.weights"
    network.save_weights(network.build(0), path,
                         FeatureSpec(mins=np.zeros(16), maxs=np.ones(16)), DEFAULT_LABEL_MAP)
    assert _sha256(path.read_bytes()) == (
        "f1aee6b2fdbe31701753fa3341c7909bb6e1cc3cd654fc8470e3047e2321bfa4")


# The `gradcheck` text pins the probe draws, the verdicts and the printed
# digits of the worst probe, whose differences are taken in long double.
GRADCHECK = {
    0: "gradient check: 100 probes, tolerance 1e-05\n"
       "worst probe: gru.u_r[4, 2] rel_error=2.423e-07 "
       "(analytic -1.202980e-06, numeric -1.202980e-06)\n"
       "result: PASS\n",
    2: "gradient check: 100 probes, tolerance 1e-05\n"
       "worst probe: gru.u_r[4, 6] rel_error=5.197e-07 "
       "(analytic -1.130749e-06, numeric -1.130750e-06)\n"
       "result: PASS\n",
}


@pytest.mark.parametrize("seed", sorted(GRADCHECK))
def test_gradcheck_text(seed, capsys):
    assert cli.main(["gradcheck", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == GRADCHECK[seed]


# `.stats` of one epoch on 300 synthetic rows, minus the wall-clock `seconds`
STATS = {
    "double": "epoch=0 train_loss=1.655411 train_acc=0.237037 "
              "val_loss=1.860815 val_acc=0.100000\n",
    "single": "epoch=0 train_loss=1.655411 train_acc=0.237037 "
              "val_loss=1.860816 val_acc=0.100000\n",
}


# The single-precision losses depend on the BLAS kernel's summation order:
# under OpenBLAS's SkylakeX and Cooperlake kernels the float32 val_loss is
# 1.86081552505 and prints as 1.860816; under Prescott, Haswell, Zen and seven
# other core types it is 1.86081540585, one float32 unit in the last place
# (ulp, 2**-23 = 1.19e-7 at this magnitude) lower, and prints as 1.860815.
# So the epoch and both accuracies of that line are compared as text, and each
# loss to within
#     1e-6 + SINGLE_LOSS_ULPS * ulp(float32(golden loss)),
# where 1e-6 is half a unit of the sixth decimal for each of the two printed
# values (the golden's and the run's) and the second term lets a reordered
# float32 reduction move the loss by 4 ulps: four times the spread seen across
# those kernels. At 1.86 the bound is 1.48e-6.
SINGLE_LOSS_ULPS = 4


def _stats_fields(text):
    [line] = text.splitlines()
    return dict(field.split("=") for field in line.split())


def _check_stats(precision, stats):
    if precision == "double":
        assert stats == STATS[precision]
        return
    got, want = _stats_fields(stats), _stats_fields(STATS[precision])
    assert got.keys() == want.keys()
    for key in ("epoch", "train_acc", "val_acc"):
        assert got[key] == want[key], key
    for key in ("train_loss", "val_loss"):
        golden = float(want[key])
        bound = 1e-6 + SINGLE_LOSS_ULPS * float(np.spacing(np.float32(golden)))
        assert abs(float(got[key]) - golden) <= bound, (key, got[key], want[key])


@pytest.mark.parametrize("precision", sorted(STATS))
def test_train_stats_and_rerun_manifest(precision, tmp_path, capsys):
    data = tmp_path / "train.csv"
    synth.write_csv(data, 300, seed=1)
    manifests = []
    for run in ("a", "b"):
        weights = tmp_path / f"{run}.weights"
        assert cli.main(["train", "--data", str(data), "--weights", str(weights),
                         "--epochs", "1", "--precision", precision]) == 0
        stats = (tmp_path / f"{run}.weights.stats").read_text()
        _check_stats(precision, re.sub(r" seconds=\S+", "", stats))
        manifests.append(weights.read_bytes())
    assert manifests[0] == manifests[1]
    capsys.readouterr()


# `predict` of the one-epoch double-precision model above on 530 unlabeled
# synthetic rows, one full 512-row chunk and one partial chunk. Each line of
# the golden file is a `predict` report line with the probabilities at full
# `repr` precision, as the forward pass returned them.
PREDICT_GOLDEN = Path(__file__).parent / "golden" / "predict_530.txt"
PREDICT_ROWS = 530


@pytest.fixture(scope="module")
def golden_models(tmp_path_factory):
    """{precision: the one-epoch model above, trained in that precision}"""
    folder = tmp_path_factory.mktemp("golden_model")
    data = folder / "train.csv"
    synth.write_csv(data, 300, seed=1)
    models = {}
    for precision in sorted(STATS):
        models[precision] = folder / f"{precision}.weights"
        assert cli.main(["train", "--data", str(data), "--weights",
                         str(models[precision]), "--epochs", "1",
                         "--precision", precision]) == 0
    return models


def _predict(weights, data, report, monkeypatch):
    """(report bytes, [probs of each forward call]) of one `predict` run."""
    real, chunks = network.forward, []

    def record(*args, **kwargs):
        probs, caches = real(*args, **kwargs)
        chunks.append(probs.copy())
        return probs, caches

    monkeypatch.setattr(network, "forward", record)
    assert cli.main(["predict", "--data", str(data), "--weights", str(weights),
                     "--report", str(report)]) == 0
    monkeypatch.setattr(network, "forward", real)
    return report.read_bytes(), chunks


def test_predict_golden_and_rerun(golden_models, tmp_path, monkeypatch):
    data = tmp_path / "score.csv"
    synth.write_csv(data, PREDICT_ROWS, seed=2, labeled=False)
    model = golden_models["double"]
    report, chunks = _predict(model, data, tmp_path / "a.txt", monkeypatch)
    assert [len(c) for c in chunks] == [512, PREDICT_ROWS - 512]
    probs = np.concatenate(chunks)

    golden = [line.split(",") for line in PREDICT_GOLDEN.read_text().splitlines()]
    lines = [line.split(",") for line in report.decode().splitlines()]
    assert [row[:2] for row in lines] == [row[:2] for row in golden]
    assert [row[:2] for row in lines] == [
        [str(i), DEFAULT_LABEL_MAP.names[i]] for i in probs.argmax(axis=1).tolist()]
    expected = np.array([[float(v) for v in row[2:]] for row in golden])
    np.testing.assert_allclose(probs, expected, rtol=1e-12, atol=0)

    rerun, rerun_chunks = _predict(model, data, tmp_path / "b.txt", monkeypatch)
    assert rerun == report
    assert np.concatenate(rerun_chunks).tobytes() == probs.tobytes()


# `eval` of each one-epoch model on the same 530 rows, labeled: its stdout
# and its `--report` JSON. Both precisions print the same bytes.
EVAL_GOLDEN = Path(__file__).parent / "golden" / "eval_530.txt"
EVAL_REPORT_GOLDEN = Path(__file__).parent / "golden" / "eval_530.json"


@pytest.mark.parametrize("precision", sorted(STATS))
def test_eval_golden_and_rerun(precision, golden_models, tmp_path, capsys):
    data = tmp_path / "eval.csv"
    synth.write_csv(data, PREDICT_ROWS, seed=2)
    capsys.readouterr()
    runs = []
    for run in ("a", "b"):
        report = tmp_path / f"{run}.json"
        assert cli.main(["eval", "--data", str(data), "--weights",
                         str(golden_models[precision]), "--report", str(report)]) == 0
        runs.append((capsys.readouterr().out, report.read_bytes()))
    assert runs[0] == (EVAL_GOLDEN.read_text(), EVAL_REPORT_GOLDEN.read_bytes())
    assert runs[1] == runs[0]
