"""The benchmark's workloads and the seeded inputs they run on.

Inputs come from `botclf.synth.make_dataset`, the seeded 6-class waveform
generator the test suite uses, written as a flow CSV in the default 16-column
ingestion schema. A known number of malformed rows is spliced in, so the
skip path runs on every workload and its count can be checked.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from botclf import synth
from botclf.dataio import DEFAULT_FEATURES, DEFAULT_LABEL_MAP

# Scored data: at noise 0.05 a trained model scores 1.000 and could not show
# a quality regression; at 0.15 it stays below saturation.
NOISE = 0.15
# Training data for train-desk. At noise 0.15 four epochs over 3000 rows left
# val_acc under 0.95 on a third of the seeds tried; at 0.10 and 6000 rows
# every one of 30 data seeds reached 0.988 or more.
TRAIN_NOISE = 0.10
TRAIN_ROWS = 6000
# train-desk initializes and shuffles from acceptance criterion 7's seed; the
# workload seed varies only its data. At desk scale some initializations
# stall within four epochs (val_acc 0.71 was seen at 3000 rows), so a drawn
# init seed would make the val_acc >= 0.95 check fail for reasons no code
# change caused.
TRAIN_SEED = 7
# One malformed row per this many valid rows, alternating a non-numeric cell
# and a `nan` cell.
BAD_EVERY = 100
BAD_CELLS = ("x1", "nan")

# The weights that score-bulk and eval-labeled read are trained once, in the
# benchmark's set-up, at train-desk's settings (TRAIN_ROWS rows at
# TRAIN_NOISE, init seed TRAIN_SEED), and set-up fails unless their final
# val_acc reaches the same 0.95. The data seed is fixed too; no workload seed
# can reach MODEL_SEED's data by accident unless it is that very number.
MODEL_SEED = 90_210_733


@dataclass(frozen=True)
class Workload:
    name: str
    command: str        # the botclf subcommand it runs
    rows: int           # valid data rows in its CSV
    labeled: bool
    needs_model: bool   # reads the weights trained in set-up
    noise: float


# Why each workload exists: README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("train-desk", "train", TRAIN_ROWS, True, False, TRAIN_NOISE),
    Workload("score-bulk", "predict", 20000, False, True, NOISE),
    Workload("eval-labeled", "eval", 20000, True, True, NOISE),
)}


@dataclass(frozen=True)
class Inputs:
    path: Path
    labels: np.ndarray   # generator label of each valid row, in file order
    bad: int             # malformed rows spliced in

    @property
    def rows(self) -> int:
        """CSV data rows, valid and malformed."""
        return len(self.labels) + self.bad


def write_inputs(path, rows: int, seed: int, labeled: bool, noise: float = NOISE) -> Inputs:
    """Write `rows` valid rows plus rows // BAD_EVERY malformed ones.

    The same arguments always give a byte-identical file. Each malformed row
    is a copy of the valid row it precedes with one feature cell corrupted.
    """
    path = Path(path)
    ds = synth.make_dataset(rows, seed=seed, noise=noise)
    n_bad = rows // BAD_EVERY
    rng = np.random.default_rng(seed)
    positions = rng.choice(rows, size=n_bad, replace=False).tolist()
    columns = rng.integers(0, len(DEFAULT_FEATURES), size=n_bad).tolist()
    corrupt = {pos: (col, BAD_CELLS[k % len(BAD_CELLS)])
               for k, (pos, col) in enumerate(zip(positions, columns))}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        header = list(DEFAULT_FEATURES)
        if labeled:
            header += ["category", "subcategory"]
        writer.writerow(header)
        for i in range(rows):
            row = [repr(float(v)) for v in ds.features[i]]
            if labeled:
                row += DEFAULT_LABEL_MAP.pairs[int(ds.labels[i])]
            if i in corrupt:
                col, cell = corrupt[i]
                writer.writerow(row[:col] + [cell] + row[col + 1:])
            writer.writerow(row)
    return Inputs(path=path, labels=ds.labels, bad=n_bad)
