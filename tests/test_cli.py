import dataclasses
import json
import logging
import math
import os
import re
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from botclf import cli, dataio, network, synth, training
from botclf.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK
from botclf.config import RunConfig, resolve
from botclf.dataio import DEFAULT_LABEL_MAP, FeatureSpec
from botclf.errors import NumericError


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

    def test_precision_and_seed_leave_the_table_unchanged(self, capsys):
        # the table is counted from the architecture alone
        assert run(["summary"]) == EXIT_OK
        default = capsys.readouterr().out
        assert run(["summary", "--precision", "single", "--seed", "5"]) == EXIT_OK
        assert capsys.readouterr().out == default

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


def _peak(tmp_path, weights, rows, command="eval"):
    """tracemalloc peak, above its start, of `command` on a fresh `rows`-row
    CSV; `predict` writes its report to a file, as stdout is captured."""
    path = tmp_path / f"{command}{rows}.csv"
    synth.write_csv(path, rows, seed=2)
    report = ["--report", tmp_path / f"{command}{rows}.out"] if command == "predict" else []
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        assert run([command, "--data", path, "--weights", weights, *report]) == EXIT_OK
        _, top = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return top - start


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

        rep = json.loads(report.read_text())
        assert len(rep["classes"]) == 6
        # a well-trained model on easy synthetic data
        assert rep["overall"]["accuracy"] >= 0.95
        # the parsed report's accuracy is the one printed
        assert f"{rep['overall']['accuracy']:.5f}" in out

    def test_eval_without_weights_file(self, tmp_path, eval_csv):
        assert run(["eval", "--data", eval_csv,
                    "--weights", tmp_path / "none.weights"]) == EXIT_DATA

    @pytest.mark.parametrize("columns,rows,message", [
        ("", 0, "header is missing columns: pkts, bytes, seq, dur, mean, stddev, sum, "
                "min, max, spkts, dpkts, sbytes, dbytes, rate, srate, drate, "
                "category, subcategory"),
        (",".join(dataio.DEFAULT_FEATURES + ("category", "subcategory")), 0,
         "no labeled rows to evaluate"),
        (",".join(dataio.DEFAULT_FEATURES), 3, "header is missing columns: "
                                               "category, subcategory"),
    ])
    def test_no_labeled_records_is_data_error(self, tmp_path, trained_weights, capsys,
                                              columns, rows, message):
        path = tmp_path / "data.csv"
        path.write_text("".join(f"{line}\n" for line in
                                [columns] * bool(columns) + ["0.5" + ",0.5" * 15] * rows))
        assert run(["eval", "--data", path, "--weights", trained_weights]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.endswith(f"{message}\n") and err.count("\n") == 1

    def test_memory_grows_by_one_value_per_row(self, tmp_path, trained_weights):
        # eval streams its chunks: going from 10 to 40 full 512-row chunks
        # may add only each row's kept true-class probability (8 B in double)
        # plus 64 KB of slack for per-chunk objects. Materializing the set
        # cost about 400 B per row.
        small = _peak(tmp_path, trained_weights, 10 * 512)
        large = _peak(tmp_path, trained_weights, 40 * 512)
        assert large - small <= 30 * 512 * 8 + 64 * 1024

    def test_partial_last_chunk_adds_no_peak(self, tmp_path, trained_weights):
        # a 392-row last chunk scores a 256-row pass and a 136-row one, both
        # in the work buffers of the full chunks' passes, instead of a second
        # pair of its own (about 0.6 MB for the 136 rows)
        partial = _peak(tmp_path, trained_weights, 5000)
        whole = _peak(tmp_path, trained_weights, 10 * dataio.CHUNK_ROWS)
        assert partial <= whole + 64 * 1024


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

    def test_memory_is_flat_in_the_row_count(self, tmp_path, trained_weights):
        # predict streams its chunks and keeps nothing per row: going from 10
        # to 40 full 512-row chunks may add only 64 KB for per-chunk objects
        small = _peak(tmp_path, trained_weights, 10 * 512, "predict")
        large = _peak(tmp_path, trained_weights, 40 * 512, "predict")
        assert large - small <= 64 * 1024

    def test_closed_stdout_pipe_ends_quietly(self, tmp_path, trained_weights):
        # `botclf predict ... | head -1`: the reader closes the pipe after one
        # line, while 3000 rows of output still exceed what the pipe buffers
        plain = tmp_path / "plain.csv"
        synth.write_csv(plain, 3000, seed=8, labeled=False)
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-c", "import sys; from botclf.cli import main; sys.exit(main())",
             "predict", "--data", str(plain), "--weights", str(trained_weights)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == EXIT_OK
        assert stderr == b""
        assert re.fullmatch(rb"\d,[^,]+(,\d\.\d{9}){6}\n", first)

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

    # numpy's overflow warnings would print above the one-line error, so
    # here they fail the test
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_non_finite_output_is_numeric_error(self, tmp_path, trained_weights, eval_csv,
                                                command, capsys):
        params, spec, label_map = network.load_bundle(trained_weights, FeatureSpec(),
                                                      DEFAULT_LABEL_MAP)
        # finite weights whose output logits are all +inf
        params.dense_hidden.bias[:] = 1e308
        params.dense_out.weights[:] = 1e308
        bad = tmp_path / "overflow.weights"
        network.save_weights(params, bad, spec, label_map)
        out_path = tmp_path / "out.txt"
        assert run([command, "--data", eval_csv, "--weights", bad,
                    "--report", out_path]) == EXIT_NUMERIC
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "non-finite class probabilities" in err[0]
        assert not out_path.exists() or "nan" not in out_path.read_text()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_training_is_numeric_error(self, tmp_path, train_csv, capsys):
        weights = tmp_path / "model.weights"
        assert run(["train", "--data", train_csv, "--weights", weights, "--epochs", "1",
                    "--precision", "single", "--learning-rate", "1e30"]) == EXIT_NUMERIC
        assert capsys.readouterr().err.splitlines() == [
            "botclf: numeric error: non-finite training loss at epoch 0"]
        assert not weights.exists()

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_normalizer_and_feature_names_disagree(self, tmp_path, trained_weights,
                                                   eval_csv, command, capsys):
        text = trained_weights.read_text()
        start = text.index("meta feature_names ")
        end = text.index("\n", start)
        names = text[start:end].split()[2].split(",")
        bad = tmp_path / "names.weights"
        bad.write_text(text[:start] + "meta feature_names " + ",".join(names[:15])
                       + text[end:])
        out_path = tmp_path / "out.txt"
        assert run([command, "--data", eval_csv, "--weights", bad,
                    "--report", out_path]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.splitlines() == [f"botclf: data error: {bad}: normalizer tensors norm.min "
                                    "(16,) and norm.max (16,) do not match the 15 "
                                    "feature names"]
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_swapped_normalizer_is_data_error(self, tmp_path, trained_weights, eval_csv,
                                              command, capsys):
        # with norm.min above norm.max every feature would scale to 0.0, and
        # every row would get the same class
        text = trained_weights.read_text()
        bad = tmp_path / "swapped.weights"
        bad.write_text(text.replace("tensor norm.min ", "tensor norm.swap ")
                       .replace("tensor norm.max ", "tensor norm.min ")
                       .replace("tensor norm.swap ", "tensor norm.max "))
        _, spec, _ = network.load_bundle(trained_weights, FeatureSpec(), DEFAULT_LABEL_MAP)
        i = int(np.flatnonzero(spec.mins < spec.maxs)[0])
        out_path = tmp_path / "out.txt"
        assert run([command, "--data", eval_csv, "--weights", bad,
                    "--report", out_path]) == EXIT_DATA
        assert capsys.readouterr().err.splitlines() == [
            f"botclf: data error: {bad}: normalizer of feature {spec.names[i]!r} has norm.min "
            f"{float(spec.maxs[i])!r} above norm.max {float(spec.mins[i])!r}"]
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_negative_moving_variance_is_data_error(self, tmp_path, trained_weights,
                                                    eval_csv, command, capsys):
        text = trained_weights.read_text()
        start = text.index("\n", text.index("tensor bn.moving_var")) + 1
        bad = tmp_path / "var.weights"
        bad.write_text(text[:start] + "-0.5" + text[text.index(" ", start):])
        out_path = tmp_path / "out.txt"
        assert run([command, "--data", eval_csv, "--weights", bad,
                    "--report", out_path]) == EXIT_DATA
        assert capsys.readouterr().err.splitlines() == [
            "botclf: data error: tensor bn.moving_var holds a negative value; "
            "a variance cannot be negative"]
        assert not out_path.exists()


class TestSettingsFailClosed:
    # --data names a file that does not exist: exit 2 rather than 3 shows
    # that the settings were rejected before any file was read.
    @pytest.mark.parametrize("command,flag,value", [
        ("train", "--epochs", "0"),
        ("train", "--batch-size", "0"),
        ("train", "--gru-units", "0"),
        ("train", "--filters", "0"),
        ("summary", "--gru-units", "0"),
        ("summary", "--filters", "-3"),
        ("gradcheck", "--probes", "0"),
    ])
    def test_out_of_range_setting_exits_before_io(self, tmp_path, capsys,
                                                  command, flag, value):
        code = run([command, "--data", tmp_path / "nope.csv",
                    "--weights", tmp_path / "w", flag, value])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        name = flag.lstrip("-").replace("-", "_")
        assert err.splitlines() == [f"botclf: config error: {name} must be at least 1, "
                                    f"got {value}"]

    @pytest.mark.parametrize("command,flag,value,message", [
        ("train", "--learning-rate", "nan", "learning_rate must be finite and not negative, "
                                            "got nan"),
        ("train", "--learning-rate", "inf", "learning_rate must be finite and not negative, "
                                            "got inf"),
        ("train", "--learning-rate", "-0.5", "learning_rate must be finite and not negative, "
                                             "got -0.5"),
        ("gradcheck", "--tolerance", "nan", "tolerance must be finite and positive, got nan"),
        ("summary", "--filters", "100000000000", "filters 100000000000 gives the model "
                                                 "1800000002066 parameters, more than the "
                                                 "1000000 allowed"),
        ("train", "--gru-units", "100000", "gru_units 100000 gives the model 30016902380 "
                                           "parameters, more than the 1000000 allowed"),
        ("gradcheck", "--filters", "100000000000", "filters 100000000000 gives the model "
                                                   "1800000002066 parameters, more than the "
                                                   "1000000 allowed"),
    ])
    def test_bad_numeric_setting_exits_before_io(self, tmp_path, capsys, command, flag,
                                                 value, message):
        code = run([command, "--data", tmp_path / "nope.csv",
                    "--weights", tmp_path / "w", flag, value])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [f"botclf: config error: {message}"]

    def test_manifest_over_the_parameter_bound(self, tmp_path, trained_weights, eval_csv,
                                               monkeypatch, capsys):
        # the tensors fit the meta sizes; only the bound refuses them
        monkeypatch.setattr(network, "MAX_PARAMETERS", 4000)
        assert run(["predict", "--data", eval_csv, "--weights", trained_weights]) == EXIT_DATA
        assert capsys.readouterr().err.splitlines() == [
            "botclf: data error: manifest meta filters 128 gives the model 4370 parameters, "
            "more than the 4000 allowed"]

    def test_single_precision_overflow_names_the_tensor(self, tmp_path, trained_weights,
                                                        eval_csv, capsys):
        text = trained_weights.read_text().replace("meta precision double\n",
                                                   "meta precision single\n")
        start = text.index("\n", text.index("tensor gru.u_h")) + 1
        bad = tmp_path / "single.weights"
        bad.write_text(text[:start] + "1e300" + text[text.index(" ", start):])
        out_path = tmp_path / "out.txt"
        assert run(["predict", "--data", eval_csv, "--weights", bad,
                    "--report", out_path]) == EXIT_DATA
        assert capsys.readouterr().err.splitlines() == [
            "botclf: data error: tensor gru.u_h holds a value out of the range of single "
            "precision"]
        assert not out_path.exists()

    @pytest.mark.parametrize("command,flag", [("train", "--weights"), ("train", "--report"),
                                              ("eval", "--report"), ("predict", "--report")])
    def test_missing_output_directory_exits_before_reading(self, tmp_path, trained_weights,
                                                           train_csv, command, flag, capsys):
        target = tmp_path / "no_such_dir" / "out"
        args = {"--weights": trained_weights if command != "train" else tmp_path / "m.w"}
        args[flag] = target
        assert run([command, "--data", train_csv, *[a for kv in args.items() for a in kv]]
                   ) == EXIT_DATA
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"botclf: data error: cannot write {target}: directory "
                                    f"{target.parent} does not exist"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train.csv"]

    @pytest.mark.parametrize("command,flag", [("train", "--weights"), ("train", "--report"),
                                              ("eval", "--report"), ("predict", "--report")])
    def test_directory_output_exits_before_reading(self, tmp_path, trained_weights,
                                                   train_csv, command, flag, monkeypatch,
                                                   capsys):
        target = tmp_path / "out_dir"
        target.mkdir()
        args = {"--weights": trained_weights if command != "train" else tmp_path / "m.w"}
        args[flag] = target
        monkeypatch.setattr(dataio, "stream_csv",
                            lambda *a, **k: pytest.fail("the data was read"))
        assert run([command, "--data", train_csv, *[a for kv in args.items() for a in kv]]
                   ) == EXIT_DATA
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"botclf: data error: cannot write {target}: "
                                    "it is a directory"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out_dir", "train.csv"]
        assert list(target.iterdir()) == []

    def test_validation_fraction_out_of_range(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BOTCLF_VALIDATION_FRACTION", "1.0")
        assert run(["train", "--data", tmp_path / "nope.csv"]) == EXIT_CONFIG
        assert "validation_fraction" in capsys.readouterr().err

    def test_non_utf8_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed = 1\n\xff\xfe = 2\n")
        assert run(["summary", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "not UTF-8" in err and "Traceback" not in err

    def test_config_file_with_byte_order_mark(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfepochs = 1\n")
        assert run(["summary", "--config", cfg]) == EXIT_OK
        assert "Total params: 4370" in capsys.readouterr().out

    def test_csv_with_byte_order_mark_trains_as_without(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        synth.write_csv(plain, 60, seed=6, noise=0.05)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        weights = {}
        for path in (plain, marked):
            weights[path] = tmp_path / f"{path.stem}.weights"
            assert run(["train", "--data", path, "--weights", weights[path],
                        "--epochs", "1"]) == EXIT_OK
        assert weights[plain].read_bytes() == weights[marked].read_bytes()

    def test_setting_a_command_does_not_use_is_not_checked(self, tmp_path, trained_weights,
                                                           eval_csv, monkeypatch):
        monkeypatch.setenv("BOTCLF_EPOCHS", "0")
        monkeypatch.setenv("BOTCLF_PROBES", "0")
        assert run(["predict", "--data", eval_csv, "--weights", trained_weights,
                    "--report", tmp_path / "out.txt"]) == EXIT_OK

    def test_out_of_range_meta_size_is_weight_format_error(self, tmp_path, trained_weights,
                                                           eval_csv, capsys):
        bad = tmp_path / "meta.weights"
        bad.write_text(trained_weights.read_text().replace("meta gru_units 10\n",
                                                           "meta gru_units 0\n"))
        assert run(["predict", "--data", eval_csv, "--weights", bad]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.splitlines() == ["botclf: data error: manifest meta gru_units must be "
                                    "at least 1, got 0"]

    # the constants of the fixed topology load only at the one value it has
    @pytest.mark.parametrize("command", ["predict", "eval"])
    @pytest.mark.parametrize("key,default,value", [
        ("bn_epsilon", "0.001", "-5"), ("bn_epsilon", "0.001", "nan"),
        ("bn_momentum", "0.99", "1.5"), ("bn_momentum", "0.99", "nan"),
        ("truncated_normal_stddev", "0.05", "0"), ("truncated_normal_stddev", "0.05", "inf"),
        ("in_channels", "1", "2"), ("kernel_size", "3", "5"), ("dense_units", "10", "3"),
    ])
    def test_out_of_range_meta_constant_is_weight_format_error(
            self, tmp_path, trained_weights, eval_csv, capsys, command, key, default, value):
        bad = tmp_path / "meta.weights"
        bad.write_text(trained_weights.read_text().replace(f"meta {key} {default}\n",
                                                           f"meta {key} {value}\n"))
        out_path = tmp_path / "out.txt"
        assert run([command, "--data", eval_csv, "--weights", bad,
                    "--report", out_path]) == EXIT_DATA
        assert capsys.readouterr().err.splitlines() == [
            f"botclf: data error: manifest meta {key}: only {default!r} is supported, "
            f"got {value!r}"]
        assert not out_path.exists()

    def test_manifest_without_constant_meta_loads(self, tmp_path, trained_weights,
                                                  eval_csv):
        constants = ("in_channels", "kernel_size", "dense_units", "bn_epsilon",
                     "bn_momentum", "truncated_normal_stddev")
        lines = trained_weights.read_text().splitlines(keepends=True)
        kept = [line for line in lines
                if not line.startswith(tuple(f"meta {key} " for key in constants))]
        assert len(lines) - len(kept) == len(constants)
        stripped = tmp_path / "stripped.weights"
        stripped.write_text("".join(kept))
        outputs = {}
        for weights in (trained_weights, stripped):
            outputs[weights] = tmp_path / f"{weights.stem}.txt"
            assert run(["predict", "--data", eval_csv, "--weights", weights,
                        "--report", outputs[weights]]) == EXIT_OK
        assert outputs[stripped].read_bytes() == outputs[trained_weights].read_bytes()

    @pytest.mark.parametrize("command", ["predict", "eval"])
    @pytest.mark.parametrize("key,value,total", [
        ("filters", 128, 18000000000002066),
        ("seq_len", 16, 100000000000002770),
    ], ids=["filters", "seq_len"])
    def test_oversized_meta_size_is_rejected_before_allocating(
            self, tmp_path, trained_weights, eval_csv, capsys, command, key, value, total):
        bad = tmp_path / "huge.weights"
        bad.write_text(trained_weights.read_text().replace(
            f"meta {key} {value}\n", f"meta {key} 1000000000000000\n"))
        assert run([command, "--data", eval_csv, "--weights", bad]) == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0] == (f"botclf: data error: manifest meta {key} 1000000000000000 gives "
                          f"the model {total} parameters, more than the 1000000 allowed")

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_unknown_meta_precision_is_rejected(self, tmp_path, trained_weights, eval_csv,
                                                capsys, command):
        bad = tmp_path / "half.weights"
        bad.write_text(trained_weights.read_text().replace(
            "meta precision double\n", "meta precision half\n"))
        assert run([command, "--data", eval_csv, "--weights", bad]) == EXIT_DATA
        assert capsys.readouterr().err.splitlines() == [
            "botclf: data error: manifest meta precision: unknown precision 'half'; "
            "expected 'double' or 'single'"]


class TestDecodingFailsClosed:
    @pytest.mark.parametrize("command", ["predict", "eval"])
    @pytest.mark.parametrize("key,value", [
        (None, None), ("pooling", "avg"), ("pooling", "foo"), ("conv_activation", "tanh"),
        ("conv_activation", "foo"), ("dense_activation", "softmax")])
    def test_legacy_topology_meta(self, tmp_path, trained_weights, eval_csv, capsys,
                                  command, key, value):
        # manifests written before the topology was fixed carry these keys;
        # they load only at the fixed topology's values
        legacy = {"pooling": "max", "conv_activation": "relu", "dense_activation": "relu"}
        default = legacy.get(key)
        if key is not None:
            legacy[key] = value
        header, rest = trained_weights.read_text().split("\n", 1)
        weights = tmp_path / "legacy.weights"
        weights.write_text("\n".join([header] + [f"meta {k} {v}" for k, v in legacy.items()]
                                     + [rest]))
        out_path = tmp_path / "out.txt"
        code = run([command, "--data", eval_csv, "--weights", weights, "--report", out_path])
        err = capsys.readouterr().err
        if key is None:
            assert code == EXIT_OK
            ref_path = tmp_path / "ref.txt"
            assert run([command, "--data", eval_csv, "--weights", trained_weights,
                        "--report", ref_path]) == EXIT_OK
            assert out_path.read_bytes() == ref_path.read_bytes()
        else:
            assert code == EXIT_DATA
            assert err.splitlines() == [f"botclf: data error: manifest meta {key}: only "
                                        f"{default!r} is supported, got {value!r}"]
            assert not out_path.exists()

    def test_non_integer_meta_names_the_key(self, tmp_path, trained_weights, eval_csv,
                                            capsys):
        bad = tmp_path / "meta.weights"
        bad.write_text(trained_weights.read_text().replace("meta filters 128\n",
                                                           "meta filters abc\n"))
        assert run(["predict", "--data", eval_csv, "--weights", bad]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.splitlines() == ["botclf: data error: manifest meta filters: "
                                    "expected int, got 'abc'"]

    # int() reads the first five as the default model's value and raises
    # ValueError on a digit string past 4300 digits; the writer emits plain
    # ASCII digits only, and few of them, so anything else is hand-edited
    @pytest.mark.parametrize("line,edited,message", [
        ("meta filters 128", "meta filters 1_2_8",
         "manifest meta filters: expected int, got '1_2_8'"),
        ("meta seq_len 16", "meta seq_len +16",
         "manifest meta seq_len: expected int, got '+16'"),
        ("meta gru_units 10", "meta gru_units ١٠",
         "manifest meta gru_units: expected int, got '١٠'"),
        ("tensor conv.bias 128", "tensor conv.bias 1_28",
         "bad tensor dims for conv.bias (at byte {at})"),
        ("botclf-weights 1", "botclf-weights +1",
         "unsupported manifest version '+1' (expected 1) (at byte {at})"),
        ("meta filters 128", "meta filters " + "1" * 5000,
         f"manifest meta filters: expected int, got '{'1' * 5000}'"),
        ("tensor conv.bias 128", "tensor conv.bias " + "1" * 5000,
         "bad tensor dims for conv.bias (at byte {at})"),
    ], ids=["underscores", "sign", "arabic-indic", "tensor-dims", "header-version",
            "long-meta-size", "long-tensor-dims"])
    def test_manifest_integers_are_plain_ascii_digits(self, tmp_path, trained_weights,
                                                      eval_csv, capsys, line, edited,
                                                      message):
        text = trained_weights.read_text()
        assert f"{line}\n" in text
        bad = tmp_path / "edited.weights"
        bad.write_text(text.replace(f"{line}\n", f"{edited}\n"), encoding="utf-8")
        at = bad.read_bytes().index(f"{edited}\n".encode())
        assert run(["predict", "--data", eval_csv, "--weights", bad,
                    "--report", tmp_path / "out.txt"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.rstrip("\n").endswith(message.format(at=at))
        assert not (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_non_utf8_manifest_cites_byte(self, tmp_path, trained_weights, eval_csv,
                                          command, capsys):
        data = trained_weights.read_bytes()
        at = data.index(b"tensor conv.bias") + len(b"tensor ")
        bad = tmp_path / "bytes.weights"
        bad.write_bytes(data[:at] + b"\xff\xfe" + data[at + 2:])
        assert run([command, "--data", eval_csv, "--weights", bad]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.splitlines() == [f"botclf: data error: {bad}: not UTF-8 text "
                                    f"(at byte {at})"]

    @pytest.mark.parametrize("command", ["train", "predict", "eval"])
    def test_non_utf8_csv_row_names_the_file(self, tmp_path, trained_weights, eval_csv,
                                             command, capsys):
        lines = eval_csv.read_bytes().split(b"\n")
        lines[7] = b"\xff\xfe" + lines[7]
        bad = tmp_path / "bytes.csv"
        bad.write_bytes(b"\n".join(lines))
        weights = tmp_path / "new.weights" if command == "train" else trained_weights
        assert run([command, "--data", bad, "--weights", weights]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.splitlines() == [f"botclf: data error: {bad}: not UTF-8 text "
                                    "(byte 0xff: invalid start byte)"]

    def test_blank_manifest_lines_are_skipped(self, tmp_path, trained_weights, eval_csv):
        spaced = tmp_path / "spaced.weights"
        spaced.write_text(trained_weights.read_text().replace("\ntensor ", "\n\n  \ntensor "))
        reports = {}
        for weights in (trained_weights, spaced):
            reports[weights] = tmp_path / f"{weights.stem}.txt"
            assert run(["predict", "--data", eval_csv, "--weights", weights,
                        "--report", reports[weights]]) == EXIT_OK
        assert reports[spaced].read_bytes() == reports[trained_weights].read_bytes()

    @pytest.mark.parametrize("line,edited,message", [
        ("meta filters 128", "meta filters", "malformed meta line"),
        ("tensor conv.bias 128", "tensor", "malformed tensor line"),
        (None, "", "empty weight manifest"),
    ], ids=["meta-without-value", "tensor-without-name", "empty-file"])
    def test_malformed_manifest_line_cites_byte(self, tmp_path, trained_weights, eval_csv,
                                                capsys, line, edited, message):
        text = trained_weights.read_text()
        bad = tmp_path / "edited.weights"
        bad.write_text(edited if line is None else text.replace(f"{line}\n", f"{edited}\n"))
        at = 0 if line is None else text.index(f"{line}\n")
        assert run(["predict", "--data", eval_csv, "--weights", bad]) == EXIT_DATA
        assert capsys.readouterr().err.splitlines() == [
            f"botclf: data error: {bad}: {message} (at byte {at})"]


class TestCsvFieldLimit:
    @staticmethod
    def _long_cell_csv(eval_csv, path, long_row=10, width=140_000, bad_row=None):
        """eval_csv with a `width`-digit cell in row `long_row`, the header
        being row 1 (the csv module refuses cells over 131072 characters) and,
        if given, a non-numeric cell in `bad_row`."""
        lines = eval_csv.read_text().splitlines(keepends=True)
        for row, cell in ((long_row, "7" * width), (bad_row, "abc")):
            if row is not None:
                cells = lines[row - 1].split(",")
                cells[0] = cell
                lines[row - 1] = ",".join(cells)
        path.write_text("".join(lines))
        return path

    @pytest.mark.parametrize("row,width", [(10, 140_000), (1, 200_000)], ids=["row", "header"])
    @pytest.mark.parametrize("policy", ["skip", "fail"])
    @pytest.mark.parametrize("command", ["train", "predict", "eval"])
    def test_cell_over_the_field_limit_names_the_row(self, tmp_path, trained_weights,
                                                     eval_csv, command, policy, row, width,
                                                     capsys):
        bad = self._long_cell_csv(eval_csv, tmp_path / "long.csv", long_row=row, width=width)
        weights = tmp_path / "new.weights" if command == "train" else trained_weights
        out_path = tmp_path / "out.txt"
        assert run([command, "--data", bad, "--weights", weights, "--policy", policy,
                    "--report", out_path]) == EXIT_DATA
        assert capsys.readouterr().err.splitlines() == [
            f"botclf: data error: {bad}:{row}: field larger than field limit (131072)"]
        assert not out_path.exists()

    def test_rows_before_it_are_checked_first(self, tmp_path, trained_weights, eval_csv,
                                              capsys):
        bad = self._long_cell_csv(eval_csv, tmp_path / "long.csv", bad_row=5)
        assert run(["predict", "--data", bad, "--weights", trained_weights,
                    "--policy", "fail"]) == EXIT_DATA
        assert capsys.readouterr().err.splitlines() == [
            f"botclf: data error: {bad}:5: could not convert string to float: 'abc'"]


class TestAtomicOutputs:
    def test_failed_predict_keeps_previous_report(self, tmp_path, trained_weights,
                                                  monkeypatch):
        real = network.forward
        calls = []

        def fail_on_second_chunk(params, x, mode):
            calls.append(len(x))
            if len(calls) == 2:
                raise NumericError("injected failure after the first chunk")
            return real(params, x, mode)

        monkeypatch.setattr(network, "forward", fail_on_second_chunk)
        data = tmp_path / "data.csv"
        synth.write_csv(data, 3 * dataio.CHUNK_ROWS, seed=4, noise=0.03)
        report = tmp_path / "out.txt"
        previous = b"0,Normal,1.0\n"
        report.write_bytes(previous)
        assert run(["predict", "--data", data, "--weights", trained_weights,
                    "--report", report]) == EXIT_NUMERIC
        assert calls == [dataio.CHUNK_ROWS] * 2
        assert report.read_bytes() == previous
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "out.txt"]

    def test_train_replaces_weights_and_stats(self, tmp_path, train_csv):
        weights = tmp_path / "model.weights"
        stats = tmp_path / "model.stats"
        for path in (weights, stats):
            path.write_text("old\n")
        assert run(["train", "--data", train_csv, "--weights", weights,
                    "--report", stats, "--epochs", "1"]) == EXIT_OK
        assert weights.read_text().startswith("botclf-weights 1\n")
        assert stats.read_text().startswith("epoch=0 ")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "model.stats", "model.weights", "train.csv"]

    def test_report_through_symlink_replaces_its_target(self, tmp_path, trained_weights,
                                                        eval_csv):
        target = tmp_path / "target.txt"
        target.write_text("old\n")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        assert run(["predict", "--data", eval_csv, "--weights", trained_weights,
                    "--report", link]) == EXIT_OK
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert len(target.read_text().splitlines()) == 150
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "eval.csv", "link.txt", "target.txt"]

    def test_replaced_report_keeps_its_permissions(self, tmp_path, trained_weights,
                                                   eval_csv):
        report = tmp_path / "out.txt"
        report.write_text("old\n")
        report.chmod(0o600)
        assert run(["predict", "--data", eval_csv, "--weights", trained_weights,
                    "--report", report]) == EXIT_OK
        assert stat.S_IMODE(report.stat().st_mode) == 0o600
        assert len(report.read_text().splitlines()) == 150

    def test_report_to_a_fifo_is_written_in_place(self, tmp_path, trained_weights,
                                                  eval_csv):
        # Stands in for /dev/null and other non-regular outputs, which cannot
        # be renamed over; a reader is attached first so the writer never blocks.
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert run(["predict", "--data", eval_csv, "--weights", trained_weights,
                        "--report", fifo]) == EXIT_OK
            assert stat.S_ISFIFO(os.stat(fifo).st_mode)
            text = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
        assert len(text.splitlines()) == 150
        assert sorted(p.name for p in tmp_path.iterdir()) == ["eval.csv", "pipe"]


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

    @pytest.mark.parametrize("source", ["flag", "env", "file"])
    @pytest.mark.parametrize("name,value,message", [
        ("epochs", "abc", "bad value 'abc' for option epochs"),
        ("precision", "quad", "precision must be 'double' or 'single', got 'quad'"),
        ("policy", "lenient", "policy must be 'skip' or 'fail', got 'lenient'"),
        ("learning_rate", "1_0e-3", "bad value '1_0e-3' for option learning_rate"),
        ("filters", "١٢٨", "bad value '١٢٨' for option filters"),
    ], ids=["epochs", "precision", "policy", "learning_rate", "filters"])
    def test_bad_value_is_one_line_from_every_source(self, tmp_path, monkeypatch, capsys,
                                                     source, name, value, message):
        argv = ["summary"]
        if source == "flag":
            argv += [f"--{name.replace('_', '-')}", value]
        elif source == "env":
            monkeypatch.setenv(f"BOTCLF_{name.upper()}", value)
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{name} = {value}\n", encoding="utf-8")
            argv += ["--config", cfg]
        assert run(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [f"botclf: config error: {message}"]

    @pytest.mark.parametrize("source", ["env", "file"])
    def test_bad_bool_value_is_a_config_error(self, tmp_path, monkeypatch, capsys, source):
        argv = ["summary"]
        if source == "env":
            monkeypatch.setenv("BOTCLF_STRATIFIED", "maybe")
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("stratified = maybe\n")
            argv += ["--config", cfg]
        assert run(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "botclf: config error: bad value 'maybe' for option stratified"]

    def test_bool_settings_from_every_source(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("verbose = off\nstratified = no\n")
        monkeypatch.setenv("BOTCLF_STRATIFIED", "yes")
        resolved = resolve({}, config_path=str(cfg))
        assert (resolved.stratified, resolved.verbose) == (True, False)
        args = cli.build_parser().parse_args(["train", "-v", "--config", str(cfg)])
        resolved = resolve(vars(args), config_path=args.config)
        assert (resolved.stratified, resolved.verbose) == (True, True)

    def test_every_setting_is_a_flag(self):
        args = cli.build_parser().parse_args(["summary"])
        assert sorted(vars(args)) == sorted(["command", "config"] + [
            f.name for f in dataclasses.fields(RunConfig)])

    def test_repeated_config_key_names_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\nfilters = 4\nseed = 5\n")
        assert run(["summary", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"botclf: config error: {cfg}:3: key 'seed' given twice"]

    def test_option_spelled_two_ways_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("batch_size = 3\nbatch-size = 5\n")
        assert run(["summary", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"botclf: config error: {cfg}: 'batch-size' repeats option batch_size"]

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

    @pytest.mark.parametrize("line,message", [
        ("features = pkts, bytes, pkts", "feature names must be unique"),
        ("features = ,", "feature spec needs at least one column"),
    ], ids=["repeated", "empty"])
    def test_bad_feature_list_is_a_config_error(self, tmp_path, capsys, line, message):
        # the fault is in the config file, so neither a data error (3) nor
        # a silent fall back to the default columns (0)
        feats = tmp_path / "bad.cfg"
        feats.write_text(line + "\n")
        assert run(["summary", "--features", feats]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"botclf: config error: {feats}: features: {message}"]


class TestFeaturesConfigErrors:
    @pytest.mark.parametrize("lines,message", [
        (["class.x = a, b, c"], "{feats}: bad class key 'class.x'"),
        (["class.0 = a, b, c", "class.01 = d, e, f"], "{feats}: bad class key 'class.01'"),
        (["class.0 = a, b, c", "class.+1 = d, e, f"], "{feats}: bad class key 'class.+1'"),
        (["class.-1 = a, b, c"], "{feats}: bad class key 'class.-1'"),
        (["class.0 = a, b"], "{feats}: class entries need 'category, subcategory, name', "
                             "got 'a, b'"),
        (["column = pkts"], "{feats}: unknown features-config key 'column'"),
        (["class.0 = a, b, c", "class.2 = d, e, f"], "{feats}: class indices "
                                                     "must be 0..K-1 without gaps"),
        (["class.0 = a, b, c", "class.1 = d, e, f", "class.1 = g, h, i"],
         "{feats}:3: key 'class.1' given twice"),
    ], ids=["not-a-number", "leading-zero", "sign", "negative", "two-cells", "unknown-key",
            "gap", "repeated-key"])
    def test_refused_with_one_line(self, tmp_path, capsys, lines, message):
        feats = tmp_path / "features.cfg"
        feats.write_text("".join(f"{line}\n" for line in lines))
        assert run(["summary", "--features", feats]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "botclf: config error: " + message.format(feats=feats)]


def _class_map_files(folder, classes, rows=60, features=16, display="name-{k}"):
    """A features config with `classes` classes over columns c0..c{features-1},
    class k displayed as `display.format(k=k)`, and a CSV of `rows` rows
    cycling through them."""
    feats = folder / f"features{classes}.cfg"
    names = [f"c{i}" for i in range(features)]
    feats.write_text("features = " + ", ".join(names) + "\n"
                     + "".join(f"class.{k} = cat{k}, sub{k}, {display.format(k=k)}\n"
                               for k in range(classes)))
    data = folder / f"data{classes}.csv"
    rng = np.random.default_rng(classes)
    with open(data, "w") as fh:
        fh.write(",".join(names) + ",category,subcategory\n")
        for i in range(rows):
            k = i % classes
            fh.write(",".join(map(str, rng.uniform(0, 1, features) + k)) + f",cat{k},sub{k}\n")
    return feats, data


class TestClassMap:
    # one class, and display names with single spaces, round-trip through the
    # bundle as well
    @pytest.mark.parametrize("classes,display", [(1, "name-{k}"), (3, "Botnet class {k}"),
                                                 (8, "name-{k}")], ids=["1", "3", "8"])
    def test_output_layer_sized_from_the_class_map(self, tmp_path, capsys, classes, display):
        feats, data = _class_map_files(tmp_path, classes, display=display)
        weights = tmp_path / "w.weights"
        assert run(["train", "--data", data, "--features", feats, "--weights", weights,
                    "--epochs", "1"]) == EXIT_OK
        assert f"meta classes {classes}\n" in weights.read_text()
        out_path = tmp_path / "preds.txt"
        assert run(["predict", "--data", data, "--features", feats, "--weights", weights,
                    "--report", out_path]) == EXIT_OK
        for line in out_path.read_text().splitlines():
            idx, name, *probs = line.split(",")
            assert len(probs) == classes and name == display.format(k=idx)
        report = tmp_path / "metrics.json"
        assert run(["eval", "--data", data, "--features", feats, "--weights", weights,
                    "--report", report]) == EXIT_OK
        assert len(json.loads(report.read_text())["classes"]) == classes
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("what,old,new", [("class cell", "cat1", "cat1;v2"),
                                              ("class cell", "cat1", "cat1  v2"),
                                              ("feature name", "c3", "c3  v2")],
                             ids=["class-semicolon", "class-two-spaces", "feature-two-spaces"])
    def test_name_the_manifest_cannot_carry_is_refused(self, tmp_path, capsys, what, old, new):
        # The bundle's meta joins the class map with ';' and ',' and reads each
        # value back with every whitespace run as one space, so `eval` would
        # refuse the class map (exit 3) or skip the rows of the renamed class.
        feats, data = _class_map_files(tmp_path, 3)
        for path in (feats, data):
            path.write_text(re.sub(rf"\b{old},", f"{new},", path.read_text()))
        weights = tmp_path / "w.weights"
        assert run(["train", "--data", data, "--features", feats, "--weights", weights,
                    "--epochs", "1"]) == EXIT_CONFIG
        assert not weights.exists()
        assert capsys.readouterr().err.splitlines() == [
            f"botclf: config error: {feats}: {what} {new!r} cannot be stored in a weights "
            "manifest; use no ';' and single spaces only"]

    @pytest.mark.parametrize("classes", [1, 2])
    def test_empty_display_name_is_refused_before_reading_data(self, tmp_path, capsys,
                                                                classes):
        # with one class the manifest would carry `meta class_names ` with no
        # value, which predict and eval refuse as a malformed meta line; with
        # two, predict would print an empty class field
        feats, _ = _class_map_files(tmp_path, classes, features=4, display="")
        weights = tmp_path / "w.weights"
        assert run(["train", "--data", tmp_path / "absent.csv", "--features", feats,
                    "--weights", weights]) == EXIT_CONFIG
        assert not weights.exists()
        assert capsys.readouterr().err.splitlines() == [
            f"botclf: config error: {feats}: class.0 has an empty display name"]

    @pytest.mark.parametrize("command", ["predict", "eval"])
    @pytest.mark.parametrize("edit,count", [
        (lambda pairs, names: (pairs + ";Extra,Pair", names + ",Extra"), 7),
        (lambda pairs, names: (pairs.rsplit(";", 1)[0], names.rsplit(",", 1)[0]), 5),
    ], ids=["seven", "five"])
    def test_class_map_must_match_meta_classes(self, tmp_path, trained_weights, eval_csv,
                                               capsys, command, edit, count):
        lines = trained_weights.read_text().split("\n")
        at = {ln.split()[1]: i for i, ln in enumerate(lines) if ln.startswith("meta ")}
        pairs, names = edit(lines[at["class_pairs"]].split(" ", 2)[2],
                            lines[at["class_names"]].split(" ", 2)[2])
        lines[at["class_pairs"]] = f"meta class_pairs {pairs}"
        lines[at["class_names"]] = f"meta class_names {names}"
        bad = tmp_path / "classes.weights"
        bad.write_text("\n".join(lines))
        out_path = tmp_path / "out.txt"
        assert run([command, "--data", eval_csv, "--weights", bad,
                    "--report", out_path]) == EXIT_DATA
        assert capsys.readouterr().err.splitlines() == [
            f"botclf: data error: {bad}: manifest meta classes 6 does not match the "
            f"{count} classes of the class map"]
        assert not out_path.exists()

    def test_repeated_class_pair_in_features_config_is_config_error(self, tmp_path, capsys):
        # the second class could never be reached by a row, so it would train
        # on nothing and score a recall of None
        feats, data = _class_map_files(tmp_path, 3)
        feats.write_text(feats.read_text().replace("cat2, sub2,", "cat1, sub1,"))
        weights = tmp_path / "w.weights"
        assert run(["train", "--data", data, "--features", feats, "--weights", weights,
                    "--epochs", "1"]) == EXIT_CONFIG
        assert not weights.exists()
        assert capsys.readouterr().err.splitlines() == [
            f"botclf: config error: {feats}: class map lists the (category, subcategory) "
            "pair ('cat1', 'sub1') twice"]

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_repeated_class_pair_in_manifest_is_data_error(self, tmp_path, trained_weights,
                                                           eval_csv, capsys, command):
        text = trained_weights.read_text()
        bad = tmp_path / "repeated.weights"
        bad.write_text(text.replace(";DDoS,UDP;", ";DDoS,TCP;"))
        assert bad.read_text() != text
        out_path = tmp_path / "out.txt"
        assert run([command, "--data", eval_csv, "--weights", bad,
                    "--report", out_path]) == EXIT_DATA
        assert capsys.readouterr().err.splitlines() == [
            f"botclf: data error: {bad}: manifest meta class_pairs: class map lists the "
            "(category, subcategory) pair ('DDoS', 'TCP') twice"]
        assert not out_path.exists()

    def test_class_names_without_pairs_are_refused(self, tmp_path, trained_weights, eval_csv,
                                                   capsys):
        # loading them would print the default names of the default pairs
        text = re.sub(r"meta class_pairs .*\n", "", trained_weights.read_text())
        bad = tmp_path / "half.weights"
        bad.write_text(re.sub(r"meta class_names .*\n", "meta class_names A,B,C,D,E,F\n", text))
        assert run(["predict", "--data", eval_csv, "--weights", bad]) == EXIT_DATA
        assert capsys.readouterr().err.splitlines() == [
            f"botclf: data error: {bad}: manifest meta holds class_pairs or class_names alone"]


class TestFeaturesConfigSizesTheModel:
    def test_summary_has_one_output_per_class(self, tmp_path, capsys):
        feats, _ = _class_map_files(tmp_path, 3)
        assert run(["summary", "--features", feats]) == EXIT_OK
        rows = [ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("dense_1 (Dense)")]
        assert len(rows) == 1 and "(None, 3)" in rows[0]

    def test_gradcheck_runs_the_configured_model(self, tmp_path, capsys, monkeypatch):
        feats, _ = _class_map_files(tmp_path, 3, features=12)
        checked = []
        check = training.gradient_check

        def spy(params, **kwargs):
            checked.append(params.arch)
            return check(params, **kwargs)

        monkeypatch.setattr(training, "gradient_check", spy)
        assert run(["gradcheck", "--features", feats, "--probes", "20"]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out
        assert [(a.seq_len, a.classes) for a in checked] == [(12, 3)]

    def test_train_reads_the_features_config_once(self, tmp_path, monkeypatch):
        feats, data = _class_map_files(tmp_path, 3)
        reads = []
        load = cli.load_features_config

        def spy(path):
            reads.append(path)
            return load(path)

        monkeypatch.setattr(cli, "load_features_config", spy)
        assert run(["train", "--data", data, "--features", feats,
                    "--weights", tmp_path / "w.weights", "--epochs", "1"]) == EXIT_OK
        assert reads == [str(feats)]

    def test_train_and_predict_with_twelve_features(self, tmp_path, capsys):
        feats, data = _class_map_files(tmp_path, 6, features=12)
        weights = tmp_path / "w.weights"
        assert run(["train", "--data", data, "--features", feats, "--weights", weights,
                    "--epochs", "1"]) == EXIT_OK
        assert "meta seq_len 12\n" in weights.read_text()
        capsys.readouterr()
        assert run(["predict", "--data", data, "--features", feats,
                    "--weights", weights]) == EXIT_OK
        out = capsys.readouterr()
        assert len(out.out.splitlines()) == 60 and "Traceback" not in out.err


class TestSplit:
    def test_empty_training_split_is_data_error(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "train.csv"
        synth.write_csv(data, 10, seed=2)
        weights = tmp_path / "w.weights"
        monkeypatch.setenv("BOTCLF_VALIDATION_FRACTION", "0.99")
        assert run(["train", "--data", data, "--weights", weights]) == EXIT_DATA
        assert capsys.readouterr().err.splitlines() == [
            "botclf: data error: validation_fraction 0.99 leaves no training rows out of 10"]
        assert not weights.exists()

    def test_batch_of_one_position_is_data_error(self, tmp_path, capsys):
        # one feature column, and 11 training rows in batches of 10: the last
        # batch holds one row, which train-mode batchnorm cannot normalize
        feats = tmp_path / "features.cfg"
        feats.write_text("features = pkts\n")
        data = tmp_path / "train.csv"
        synth.write_csv(data, 12, seed=2)
        weights = tmp_path / "w.weights"
        assert run(["train", "--data", data, "--features", feats, "--weights", weights,
                    "--epochs", "1"]) == EXIT_DATA
        assert capsys.readouterr().err.splitlines() == [
            "botclf: data error: batch_size 10 over 11 training rows leaves a batch of 1 row "
            "of 1 feature; train-mode batchnorm needs at least 2 positions per channel"]
        assert not weights.exists()
        assert not (tmp_path / "w.weights.stats").exists()

    def test_empty_validation_split_is_allowed(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "train.csv"
        synth.write_csv(data, 10, seed=2)
        monkeypatch.setenv("BOTCLF_VALIDATION_FRACTION", "0.01")
        assert run(["train", "--data", data, "--weights", tmp_path / "w.weights",
                    "--epochs", "1"]) == EXIT_OK
        assert "val_loss=nan val_acc=nan" in capsys.readouterr().out


class TestSinglePass:
    def test_normalizer_fitted_on_the_rows_trained_on(self, tmp_path, caplog):
        data = tmp_path / "train.csv"
        kept = synth.write_csv(data, 200, seed=5, noise=0.05).features
        lines = data.read_text().splitlines(keepends=True)
        # an unmapped label on a row whose first column is extreme, and a
        # malformed row; both are skipped
        lines.insert(50, "1e9" + ",0.5" * 15 + ",Worm,Unknown\n")
        lines.insert(90, "x" + ",0.5" * 15 + ",Normal,Normal\n")
        data.write_text("".join(lines))
        weights = tmp_path / "w.weights"
        with caplog.at_level(logging.WARNING):
            assert run(["train", "--data", data, "--weights", weights,
                        "--epochs", "1"]) == EXIT_OK
        tensors, _ = network.load_manifest(weights)
        assert tensors["norm.max"][0] == kept[:, 0].max() < 1e9
        np.testing.assert_array_equal(tensors["norm.min"], kept.min(axis=0))
        skips = [r.getMessage() for r in caplog.records if "malformed" in r.getMessage()]
        assert skips == [f"{data}: skipped 2 malformed row(s), kept 200"]


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


def _mostly(valid, *invalid):
    """A value drawn from the strategy `valid` six times in eight, else one
    of `invalid`."""
    return st.integers(0, 7).flatmap(lambda i: valid if i < 6 else st.sampled_from(invalid))


# argvs of test_argparse_exit_is_returned whose flags parse, and the config
# error that their value gets
_BAD_SETTING_VALUES = {
    ("train", "--epochs", "abc"): "bad value 'abc' for option epochs",
    ("summary", "--learning-rate", "x"): "bad value 'x' for option learning_rate",
    ("summary", "--precision", "quad"): "precision must be 'double' or 'single', got 'quad'",
}


class TestNeverRaises:
    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        """One tiny labeled CSV (with a malformed row), an unlabeled one, a
        small model trained on the first, a config file and a scratch
        directory for outputs."""
        folder = tmp_path_factory.mktemp("grammar")
        labeled = folder / "labeled.csv"
        synth.write_csv(labeled, 40, seed=11, noise=0.1)
        with open(labeled, "a") as fh:
            fh.write("x" + ",1" * 15 + ",Normal,Normal\n")
        unlabeled = folder / "unlabeled.csv"
        synth.write_csv(unlabeled, 12, seed=12, labeled=False)
        weights = folder / "model.weights"
        assert run(["train", "--data", labeled, "--weights", weights, "--epochs", "1",
                    "--filters", "4", "--gru-units", "2"]) == EXIT_OK
        config = folder / "run.cfg"
        config.write_text("seed = 3\nfilters = 5\n")
        out = folder / "out"
        out.mkdir()
        return {"labeled": labeled, "unlabeled": unlabeled, "weights": weights,
                "config": config, "out": out, "missing": folder / "no_such_dir" / "f"}

    # Most values are valid, so that most examples get past the settings
    # checks; some are mistyped or not an allowed value, and some argvs
    # carry an unknown flag, which argparse refuses. Epochs, sizes and row
    # counts are small, so no example runs long. Derandomized, with a bounded
    # example count and no example database.
    @settings(max_examples=300, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_main_returns_a_documented_code(self, files, data, capsys):
        command = data.draw(st.sampled_from(["summary", "train", "eval", "predict",
                                             "gradcheck"]), label="command")
        out, missing = files["out"], files["missing"]
        weights = out / "trained.weights" if command == "train" else files["weights"]
        # flag -> (chance in 8 of passing it, the values it may take)
        flags = {
            "--data": (7, _mostly(st.just(files["labeled"]), files["unlabeled"], missing, out)),
            "--weights": (7, _mostly(st.just(weights), missing, out)),
            "--report": (3, _mostly(st.just(out / "report.txt"), missing, out)),
            "--config": (1, st.sampled_from([files["config"], missing])),
            "--features": (1, st.just(missing)),
            "--seed": (2, _mostly(st.integers(-3, 2**70), "abc")),
            "--epochs": (2, _mostly(st.integers(1, 2), 0, -1, "abc")),
            "--batch-size": (2, _mostly(st.integers(1, 50), 0, -1)),
            "--learning-rate": (2, _mostly(st.sampled_from([1e-3, 0.5, 0.0]),
                                           math.nan, math.inf, -1.0, "x")),
            "--precision": (2, _mostly(st.sampled_from(["double", "single"]), "quad")),
            "--policy": (2, st.sampled_from(["skip", "fail"])),
            "--gru-units": (2, _mostly(st.integers(1, 4), 0, -1)),
            "--filters": (2, _mostly(st.integers(1, 6), 0, 10**12)),
            "--probes": (2, _mostly(st.integers(1, 8), 0, -1)),
            "--tolerance": (2, _mostly(st.sampled_from([1e-5, 1.0, 1e-12]),
                                       0.0, -1.0, math.nan, math.inf)),
            "--stratified": (2, None),
            "--verbose": (2, None),
            "--no-such-flag": (1, None),
        }
        argv = [command]
        for flag, (chance, values) in flags.items():
            if data.draw(st.integers(0, 7), label=f"pass {flag}") < chance:
                argv += [flag] if values is None else [flag, data.draw(values, label=flag)]
        assert run(argv) in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC)
        capsys.readouterr()

    @pytest.mark.parametrize("argv,code", [
        (["train", "--epochs", "abc"], EXIT_CONFIG),
        (["summary", "--learning-rate", "x"], EXIT_CONFIG),
        (["summary", "--precision", "quad"], EXIT_CONFIG),
        (["summary", "--no-such-flag"], EXIT_CONFIG),
        (["no-such-command"], EXIT_CONFIG),
        ([], EXIT_CONFIG),
        (["--help"], EXIT_OK),
    ])
    def test_argparse_exit_is_returned(self, argv, code, capsys):
        assert cli.main(argv) == code
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        if tuple(argv) in _BAD_SETTING_VALUES:
            # a malformed setting is refused by config.resolve, as from any source
            assert err.splitlines() == [
                f"botclf: config error: {_BAD_SETTING_VALUES[tuple(argv)]}"]
        else:  # a grammar error, which argparse reports with its usage
            assert "usage: botclf" in out + err
