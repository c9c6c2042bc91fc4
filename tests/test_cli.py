import json

import numpy as np
import pytest

from botclf import cli, dataio, metrics, network, synth
from botclf.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK
from botclf.dataio import DEFAULT_LABEL_MAP, FeatureSpec


@pytest.fixture
def train_csv(tmp_path):
    path = tmp_path / "train.csv"
    synth.write_csv(path, 3000, seed=3, noise=0.03)
    return path


@pytest.fixture
def eval_csv(tmp_path):
    path = tmp_path / "eval.csv"
    synth.write_csv(path, 150, seed=4, noise=0.03)
    return path


def run(args):
    return cli.main([str(a) for a in args])


@pytest.fixture(scope="module")
def trained_weights(tmp_path_factory):
    """A one-epoch model with its normalizer, shared by read-only tests."""
    folder = tmp_path_factory.mktemp("model")
    data = folder / "train.csv"
    synth.write_csv(data, 3000, seed=3, noise=0.03)
    weights = folder / "model.weights"
    assert run(["train", "--data", data, "--weights", weights,
                "--seed", "6", "--epochs", "1"]) == EXIT_OK
    return weights


class TestSummary:
    def test_prints_totals_and_rows(self, capsys):
        assert run(["summary"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "4370" in out
        assert "4114" in out
        assert "256" in out
        for name in ("InputLayer", "Conv1D", "BatchNormalization", "GRU",
                     "Activation", "Flatten", "GlobalMaxPooling1D",
                     "Concatenate", "dense (Dense)", "dense_1 (Dense)"):
            assert name in out
        # one row per layer
        layer_lines = [ln for ln in out.splitlines() if ln.startswith(
            ("InputLayer", "Conv1D", "BatchNormalization", "GRU", "Activation",
             "Flatten", "GlobalMaxPooling1D", "Concatenate", "dense"))]
        assert len(layer_lines) == 10

    def test_custom_units_recompute_totals(self, capsys):
        assert run(["summary", "--gru-units", "8"]) == EXIT_OK
        out = capsys.readouterr().out
        gru = 3 * 8 * 11
        dense = (128 + 16 * 8) * 10 + 10
        total = 512 + 512 + gru + dense + 66
        assert str(total) in out
        assert "4370" not in out


class TestTrain:
    def test_writes_weights_and_stats(self, tmp_path, train_csv, capsys):
        weights = tmp_path / "model.weights"
        stats = tmp_path / "train.stats"
        code = run(["train", "--data", train_csv, "--weights", weights,
                    "--report", stats, "--seed", "5"])
        assert code == EXIT_OK
        assert weights.exists()
        lines = stats.read_text().strip().splitlines()
        assert len(lines) == 4  # default epoch count
        for i, line in enumerate(lines):
            assert line.startswith(f"epoch={i} ")
            assert "val_acc=" in line
        out = capsys.readouterr().out
        assert out.count("epoch=") == 4

    def test_same_seed_byte_identical_weights(self, tmp_path, train_csv):
        w1 = tmp_path / "a.weights"
        w2 = tmp_path / "b.weights"
        for w in (w1, w2):
            assert run(["train", "--data", train_csv, "--weights", w,
                        "--seed", "7", "--epochs", "1"]) == EXIT_OK
        assert w1.read_bytes() == w2.read_bytes()

    def test_missing_feature_column_names_it(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("pkts,bytes,category,subcategory\n1,2,Normal,Normal\n")
        code = run(["train", "--data", path, "--weights", tmp_path / "w"])
        assert code == EXIT_DATA
        assert "seq" in capsys.readouterr().err

    def test_missing_data_flag_is_config_error(self, tmp_path):
        assert run(["train", "--weights", tmp_path / "w"]) == EXIT_CONFIG

    def test_nonexistent_file_is_data_error(self, tmp_path):
        assert run(["train", "--data", tmp_path / "nope.csv",
                    "--weights", tmp_path / "w"]) == EXIT_DATA


class TestEval:
    def test_report_and_round_trip(self, tmp_path, train_csv, eval_csv, capsys):
        weights = tmp_path / "model.weights"
        assert run(["train", "--data", train_csv, "--weights", weights,
                    "--seed", "5", "--epochs", "4"]) == EXIT_OK
        capsys.readouterr()
        report = tmp_path / "metrics.json"
        assert run(["eval", "--data", eval_csv, "--weights", weights,
                    "--report", report]) == EXIT_OK
        out = capsys.readouterr().out
        for label in ("ACC", "AGF", "AGM", "AUC", "AUCI", "ERR", "F1-Score",
                      "Precision", "Recall", "Specificity", "False Negative",
                      "False Positive", "True Positive", "True Negative",
                      "Youden", "dInd", "sInd"):
            assert label in out
        assert "Kappa" in out

        rep = metrics.MetricsReport.from_json(report.read_text())
        assert len(rep.classes) == 6
        # a well-trained model on easy synthetic data
        assert rep.overall.accuracy >= 0.95
        # re-render from the parsed report and compare against the original
        assert f"{rep.overall.accuracy:.5f}" in out

    def test_eval_without_weights_file(self, tmp_path, eval_csv):
        assert run(["eval", "--data", eval_csv,
                    "--weights", tmp_path / "none.weights"]) == EXIT_DATA


class TestPredict:
    def test_one_line_per_record(self, tmp_path, train_csv, capsys):
        weights = tmp_path / "model.weights"
        assert run(["train", "--data", train_csv, "--weights", weights,
                    "--seed", "6", "--epochs", "1"]) == EXIT_OK
        plain = tmp_path / "plain.csv"
        synth.write_csv(plain, 37, seed=8, labeled=False)
        out_path = tmp_path / "preds.txt"
        assert run(["predict", "--data", plain, "--weights", weights,
                    "--report", out_path]) == EXIT_OK
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 37
        for line in lines:
            fields = line.split(",")
            idx, name, probs = int(fields[0]), fields[1], [float(p) for p in fields[2:]]
            assert len(probs) == 6
            assert abs(sum(probs) - 1.0) < 1e-6
            assert idx == int(np.argmax(probs))
            assert name  # display name resolved from the label map
        assert 0 <= idx <= 5


    def test_chunked_output_matches_reference_forward(self, tmp_path, trained_weights):
        # 1100 valid rows cross two 512-row chunk boundaries; one malformed
        # row in the middle is skipped
        plain = tmp_path / "plain.csv"
        synth.write_csv(plain, 1100, seed=8, noise=0.15, labeled=False)
        lines = plain.read_text().splitlines(keepends=True)
        lines.insert(600, "not,a,number\n")
        plain.write_text("".join(lines))
        out_path = tmp_path / "preds.txt"
        assert run(["predict", "--data", plain, "--weights", trained_weights,
                    "--report", out_path]) == EXIT_OK

        tensors, meta = network.load_manifest(trained_weights)
        params = network.params_from_manifest(tensors, meta)
        spec = FeatureSpec(mins=tensors["norm.min"], maxs=tensors["norm.max"])
        rows = [spec.normalize(r.features) for r in dataio.stream_csv(plain, feature_spec=spec)]
        expect, _ = network.forward(params, np.asarray(rows)[:, :, None], mode="infer")
        got = out_path.read_text().splitlines()
        assert len(rows) == len(got) == 1100
        for line, ref in zip(got, expect):
            fields = line.split(",")
            idx = int(fields[0])
            assert idx == int(ref.argmax())
            assert fields[1] == DEFAULT_LABEL_MAP.names[idx]
            assert np.abs(np.array(fields[2:], dtype=float) - ref).max() <= 1e-9


class TestFailClosed:
    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_non_finite_weight_is_data_error(self, tmp_path, trained_weights, eval_csv,
                                             command, capsys):
        text = trained_weights.read_text()
        start = text.index("\n", text.index("tensor dense_out.bias")) + 1
        bad = tmp_path / "nan.weights"
        bad.write_text(text[:start] + "nan" + text[text.index(" ", start):])
        out_path = tmp_path / "out.txt"
        assert run([command, "--data", eval_csv, "--weights", bad,
                    "--report", out_path]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"non-finite value in tensor dense_out.bias (at byte {start})" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_unparsable_header_is_data_error(self, tmp_path, eval_csv, command, capsys):
        bad = tmp_path / "x.weights"
        bad.write_text("botclf-weights x\n")
        assert run([command, "--data", eval_csv, "--weights", bad]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "(at byte 0)" in err and "Traceback" not in err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_non_finite_output_is_numeric_error(self, tmp_path, trained_weights, eval_csv,
                                                command, capsys):
        tensors, meta = network.load_manifest(trained_weights)
        params = network.params_from_manifest(tensors, meta)
        # finite weights whose output logits are all +inf
        params.dense_hidden.bias[:] = 1e308
        params.dense_out.weights[:] = 1e308
        bad = tmp_path / "overflow.weights"
        network.save_weights(params, bad,
                             extras={k: tensors[k] for k in ("norm.min", "norm.max")},
                             meta={k: meta[k] for k in ("feature_names", "class_names",
                                                        "class_pairs")})
        out_path = tmp_path / "out.txt"
        assert run([command, "--data", eval_csv, "--weights", bad,
                    "--report", out_path]) == EXIT_NUMERIC
        assert "non-finite class probabilities" in capsys.readouterr().err
        assert not out_path.exists() or "nan" not in out_path.read_text()


class TestGradcheck:
    def test_default_passes(self, capsys):
        assert run(["gradcheck", "--seed", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "worst probe" in out

    def test_unreachable_tolerance_fails(self, capsys):
        assert run(["gradcheck", "--tolerance", "1e-12", "--probes", "40"]) == EXIT_NUMERIC
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "worst probe" in out


class TestConfigResolution:
    def test_config_file_and_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gru_units = 8\nseed = 4\n")
        # flag wins over file
        assert run(["summary", "--config", cfg, "--gru-units", "10"]) == EXIT_OK
        assert "4370" in capsys.readouterr().out
        # file applies when no flag
        assert run(["summary", "--config", cfg]) == EXIT_OK
        assert "4370" not in capsys.readouterr().out

    def test_env_override(self, monkeypatch, capsys):
        monkeypatch.setenv("BOTCLF_GRU_UNITS", "8")
        assert run(["summary"]) == EXIT_OK
        assert "4370" not in capsys.readouterr().out

    def test_flag_beats_env(self, monkeypatch, capsys):
        monkeypatch.setenv("BOTCLF_GRU_UNITS", "8")
        assert run(["summary", "--gru-units", "10"]) == EXIT_OK
        assert "4370" in capsys.readouterr().out

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("warp_factor = 9\n")
        assert run(["summary", "--config", cfg]) == EXIT_CONFIG

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this is not a key value pair\n")
        assert run(["summary", "--config", cfg]) == EXIT_CONFIG

    def test_features_config(self, tmp_path, capsys):
        feats = tmp_path / "features.cfg"
        names = ", ".join(f"c{i}" for i in range(16))
        feats.write_text(
            f"features = {names}\n"
            "category_column = cat\n"
            "subcategory_column = sub\n"
            "class.0 = Normal, Normal, Normal\n"
            "class.1 = DDoS, TCP, DDoS-TCP\n"
            "class.2 = DDoS, UDP, DDoS-UDP\n"
            "class.3 = DoS, HTTP, DoS-HTTP\n"
            "class.4 = Reconnaissance, OS_Fingerprint, OS-Fingerprint\n"
            "class.5 = Theft, Data_Exfiltration, Data-Exfiltration\n")
        csv_path = tmp_path / "data.csv"
        header = [f"c{i}" for i in range(16)] + ["cat", "sub"]
        rows = []
        rng = np.random.default_rng(0)
        pairs = [("Normal", "Normal"), ("DDoS", "TCP"), ("DDoS", "UDP"),
                 ("DoS", "HTTP"), ("Reconnaissance", "OS_Fingerprint"),
                 ("Theft", "Data_Exfiltration")]
        with open(csv_path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for i in range(60):
                cat, sub = pairs[i % 6]
                vals = rng.uniform(0, 1, 16) + (i % 6)
                fh.write(",".join(map(str, vals)) + f",{cat},{sub}\n")
        weights = tmp_path / "w.weights"
        assert run(["train", "--data", csv_path, "--features", feats,
                    "--weights", weights, "--epochs", "1"]) == EXIT_OK
        assert weights.exists()


class TestIdempotence:
    def test_rerun_reproduces_outputs(self, tmp_path, train_csv):
        weights = tmp_path / "w.weights"
        report1 = tmp_path / "r1.json"
        report2 = tmp_path / "r2.json"
        run(["train", "--data", train_csv, "--weights", weights,
             "--seed", "9", "--epochs", "1"])
        run(["eval", "--data", train_csv, "--weights", weights, "--report", report1])
        run(["eval", "--data", train_csv, "--weights", weights, "--report", report2])
        assert json.loads(report1.read_text()) == json.loads(report2.read_text())
