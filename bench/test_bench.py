"""Self-tests of the benchmark: input generation, span arithmetic, output checks.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_one_seed_gives_byte_identical_csvs(tmp_path):
    a = workloads.write_inputs(tmp_path / "a.csv", 500, seed=3, labeled=True)
    b = workloads.write_inputs(tmp_path / "b.csv", 500, seed=3, labeled=True)
    c = workloads.write_inputs(tmp_path / "c.csv", 500, seed=4, labeled=True)
    assert a.path.read_bytes() == b.path.read_bytes()
    assert a.path.read_bytes() != c.path.read_bytes()
    assert a.bad == 5 and a.rows == 505
    assert len(a.path.read_text().splitlines()) == 1 + a.rows


def test_injected_rows_are_the_ones_skipped(tmp_path):
    from botclf.dataio import DEFAULT_LABEL_MAP, stream_csv
    inputs = workloads.write_inputs(tmp_path / "d.csv", 400, seed=9, labeled=True)
    stream = stream_csv(inputs.path, label_map=DEFAULT_LABEL_MAP)
    labels = [rec.label for rec in stream]
    assert stream.skipped == inputs.bad == 4
    assert labels == inputs.labels.tolist()


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_on_a_hand_built_tree():
    tree = [
        _span("root", 0.0, 10.0, -1),   # 0
        _span("a", 1.0, 4.0, 0),        # 1
        _span("a.x", 1.5, 2.0, 1),      # 2
        _span("a.y", 3.0, 3.5, 1),      # 3
        _span("b", 5.0, 9.0, 0),        # 4
        _span("b.x", 5.5, 6.0, 4),      # 5
        _span("b.y", 6.0, 7.5, 4),      # 6
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx([3.0, 2.0, 0.5, 0.5, 2.0, 0.5, 1.5])


def test_summary_of_a_training_step():
    tree = [
        _span("cli.main", 0.0, 1.0, -1),
        _span("training.fit", 0.1, 0.9, 0),
        ["network.forward.train", 0.1, 0.2, 1, 10],
        _span("layers.gru.fwd", 0.12, 0.15, 2),
        _span("training.cross_entropy", 0.2, 0.21, 1),
        ["network.backward", 0.21, 0.4, 1, 10],
        _span("training.rmsprop_step", 0.4, 0.5, 1),
        _span("training.epoch_eval", 0.5, 0.8, 1),
    ]
    m = spans.summarize(tree, passes=[[10, 1]])
    assert m["training.steps"] == 1
    assert m["training.step_ms_p50"] == pytest.approx(400.0)
    assert m["training.epoch_s"] == pytest.approx(0.7)
    assert m["training.glue_ms_per_step"] == pytest.approx(100.0)
    assert m["layers.gru.fwd_us_b10"] == pytest.approx(30_000.0)
    assert m["cli.self_s"] == pytest.approx(0.2)
    assert m["trace.coverage"] == pytest.approx(0.8)
    assert m["dataio.rows_skipped"] == 1


def _predict_lines(labels):
    names = checks.CLASS_NAMES
    lines = []
    for label in labels:
        probs = [0.02] * len(names)
        probs[label] = 1.0 - 0.02 * (len(names) - 1)
        lines.append(f"{label},{names[label]}," + ",".join(f"{p:.9f}" for p in probs))
    return lines


WARNED = "WARNING botclf.dataio: data.csv: skipped 2 malformed row(s), kept 5\n"


def test_predict_check_passes_good_output():
    labels = [0, 1, 2, 3, 4]
    out = checks.check_predict("\n".join(_predict_lines(labels)) + "\n", labels, 2, WARNED)
    assert (out.failed, out.accuracy) == (0, 1.0)


@pytest.mark.parametrize("corrupt", [
    lambda line: line.replace("0.020000000", "nan", 1),       # non-finite
    lambda line: line.replace("0.020000000", "0.030000000", 1),  # does not sum to 1
    lambda line: "5" + line[1:],                              # argmax disagrees
    lambda line: line.rsplit(",", 1)[0],                      # a probability missing
])
def test_a_corrupted_output_line_counts_as_failed(corrupt):
    labels = [0, 1, 2, 3, 4]
    lines = _predict_lines(labels)
    lines[2] = corrupt(lines[2])
    out = checks.check_predict("\n".join(lines), labels, 2, WARNED)
    assert out.failed == 1


def test_missing_lines_or_uncounted_skips_fail_rows():
    labels = [0, 1, 2, 3, 4]
    lines = _predict_lines(labels)
    assert checks.check_predict("\n".join(lines[:-1]), labels, 2, WARNED).failed == 7
    assert checks.check_predict("\n".join(lines), labels, 2, "").failed == 2


def test_eval_accuracy_must_match_its_counts():
    from botclf.metrics import ConfusionMatrix, report
    labels = [0, 1, 2, 3, 4, 5, 0, 1]
    preds = [0, 1, 2, 3, 4, 5, 1, 1]
    good = report(ConfusionMatrix.from_labels(labels, preds, len(checks.CLASS_NAMES))).to_json()
    assert json.loads(good)["overall"]["accuracy"] == pytest.approx(0.875)
    ok = checks.check_eval(good, "Mean loss 0.1\n", 8, 0, "")
    assert (ok.failed, ok.accuracy) == (0, 0.875)
    raw = json.loads(good)
    raw["overall"]["accuracy"] = 0.9
    assert checks.check_eval(json.dumps(raw), "Mean loss 0.1\n", 8, 0, "").failed == 8


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert e2e == run.END_TO_END
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert per_layer == spans.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
