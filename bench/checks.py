"""Correctness checks on what one botclf command wrote, counted per CSV row.

A valid row fails when its output is missing, non-finite or not normalized.
A malformed row fails unless it was skipped and counted: the program's skip
warning must report exactly the injected number. When the output cannot be
matched to the rows at all, every row of the command fails.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

from botclf.dataio import DEFAULT_LABEL_MAP

CLASS_NAMES = DEFAULT_LABEL_MAP.names
MIN_VAL_ACC = 0.95          # acceptance criterion 7
SUM_TOLERANCE = 1e-9
_SKIP_WARNING = re.compile(r"skipped (\d+) malformed row")
_MEAN_LOSS = re.compile(r"^Mean loss\s+(\S+)", re.MULTILINE)


@dataclass
class Outcome:
    failed: int                # rows failed, valid and malformed
    accuracy: float | None     # None when the output could not be read
    problems: list


def skips_counted(stderr: str, bad: int) -> bool:
    """Every skip warning reports the injected count, and one is given when rows were bad."""
    counts = [int(n) for n in _SKIP_WARNING.findall(stderr)]
    if bad == 0:
        return all(n == 0 for n in counts)
    return bool(counts) and all(n == bad for n in counts)


def _skip_failures(stderr: str, bad: int, problems: list) -> int:
    if skips_counted(stderr, bad):
        return 0
    problems.append(f"malformed rows not counted as {bad} skips")
    return bad


def check_line(line: str) -> int | None:
    """The class index of a valid `predict` line, or None if the line is wrong.

    The probabilities must be finite, lie in [0, 1] and sum to 1 within 1e-9
    plus the rounding of the printed digits; the index must name the largest
    probability and the class name must match it.
    """
    parts = line.split(",")
    k = len(CLASS_NAMES)
    if len(parts) != 2 + k:
        return None
    try:
        idx = int(parts[0])
        probs = [float(p) for p in parts[2:]]
    except ValueError:
        return None
    if not all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in probs):
        return None
    if not 0 <= idx < k or parts[1] != CLASS_NAMES[idx]:
        return None
    decimals = min(len(p.partition(".")[2]) for p in parts[2:])
    if abs(math.fsum(probs) - 1.0) > SUM_TOLERANCE + k * 0.5 * 10.0 ** -decimals:
        return None
    if probs[idx] != max(probs):
        return None
    return idx


def check_predict(text: str, labels, bad: int, stderr: str) -> Outcome:
    """Lines of a `predict` report against the valid rows' generator labels."""
    problems = []
    lines = text.splitlines()
    if len(lines) != len(labels):
        problems.append(f"{len(lines)} output lines for {len(labels)} valid rows")
        return Outcome(len(labels) + bad, None, problems)
    failed = correct = 0
    for line, label in zip(lines, labels):
        idx = check_line(line)
        if idx is None:
            failed += 1
        elif idx == label:
            correct += 1
    if failed:
        problems.append(f"{failed} wrong output lines")
    failed += _skip_failures(stderr, bad, problems)
    return Outcome(failed, correct / len(labels), problems)


def check_eval(report: str, stdout: str, valid: int, bad: int, stderr: str) -> Outcome:
    """An `eval` JSON report: its population is the valid rows, its overall
    accuracy the true positives over that population, its loss finite."""
    problems = []
    try:
        raw = json.loads(report)
        classes = raw["classes"]
        population = classes[0]["tp"] + classes[0]["fp"] + classes[0]["fn"] + classes[0]["tn"]
        labeled = sum(c["tp"] + c["fn"] for c in classes)
        accuracy = float(raw["overall"]["accuracy"])
        loss = float(_MEAN_LOSS.search(stdout).group(1))
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        problems.append(f"unreadable eval report or loss: {exc!r}")
        return Outcome(valid + bad, None, problems)
    if population != valid or labeled != valid:
        problems.append(f"eval population {population} (labeled {labeled}) "
                        f"for {valid} valid rows")
        return Outcome(valid + bad, None, problems)
    correct = sum(c["tp"] for c in classes)
    if abs(accuracy - correct / population) > 1e-12 or not math.isfinite(loss):
        problems.append(f"eval reported accuracy {accuracy} for {correct} of {population} "
                        f"correct, mean loss {loss}")
        return Outcome(valid + bad, None, problems)
    return Outcome(_skip_failures(stderr, bad, problems), accuracy, problems)


def final_val_acc(stats: str) -> float | None:
    """The val_acc of the last epoch line of a `train --report` file."""
    last = stats.strip().splitlines()[-1:] or [""]
    fields = dict(tok.partition("=")[::2] for tok in last[0].split())
    try:
        return float(fields["val_acc"])
    except (KeyError, ValueError):
        return None


def check_train(stats: str, valid: int, bad: int, stderr: str,
                weights_sha: str, reference_sha: str) -> Outcome:
    """A `train` run: final val_acc at least 0.95 and weights identical to the
    first run of the same seed."""
    problems = []
    val_acc = final_val_acc(stats)
    if val_acc is None:
        problems.append("no val_acc in the epoch stats")
        return Outcome(valid + bad, None, problems)
    if not val_acc >= MIN_VAL_ACC:
        problems.append(f"val_acc {val_acc} below {MIN_VAL_ACC}")
        return Outcome(valid + bad, val_acc, problems)
    if weights_sha != reference_sha:
        problems.append("weights differ from the first run with the same seed")
        return Outcome(valid + bad, val_acc, problems)
    return Outcome(_skip_failures(stderr, bad, problems), val_acc, problems)
