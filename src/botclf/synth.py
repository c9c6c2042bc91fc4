"""Synthetic 6-class flow sequences for desk-scale training runs and demos.

Each class is a distinct length-16 waveform (class-dependent frequency,
phase and offset) with additive Gaussian noise, clipped to [0, 1]. This is
deliberately learnable by a small network within a few epochs while still
requiring the model to pick up the temporal pattern.
"""

from __future__ import annotations

import csv

import numpy as np

from .dataio import DEFAULT_FEATURES, DEFAULT_LABEL_MAP, Dataset, LabelMap
from .numerics import substream


def make_dataset(n: int, seed: int = 0, classes: int = 6, seq_len: int = 16,
                 noise: float = 0.05) -> Dataset:
    """n sequences with roughly balanced class labels."""
    rng = substream(seed, "synth")
    labels = rng.integers(0, classes, size=n)
    t = np.arange(seq_len)
    base = np.empty((classes, seq_len))
    for c in range(classes):
        freq = c + 1
        phase = 2.0 * np.pi * c / classes
        offset = 0.35 + 0.3 * c / max(classes - 1, 1)
        base[c] = offset + 0.25 * np.sin(2.0 * np.pi * freq * t / seq_len + phase)
    features = base[labels] + rng.normal(0.0, noise, size=(n, seq_len))
    features = np.clip(features, 0.0, 1.0)
    return Dataset(features=features, labels=labels)


def write_csv(path, n: int, seed: int = 0, label_map: LabelMap = DEFAULT_LABEL_MAP,
              feature_names=DEFAULT_FEATURES, noise: float = 0.05,
              labeled: bool = True) -> Dataset:
    """Write a synthetic flow CSV in the default ingestion schema.

    Feature columns take the waveform values; category/subcategory columns
    carry the text pair for each class. Returns the generated dataset.
    """
    ds = make_dataset(n, seed=seed, classes=label_map.num_classes,
                      seq_len=len(feature_names), noise=noise)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        header = list(feature_names)
        if labeled:
            header += ["category", "subcategory"]
        writer.writerow(header)
        for i in range(len(ds)):
            row = [repr(float(v)) for v in ds.features[i]]
            if labeled:
                cat, sub = label_map.pairs[int(ds.labels[i])]
                row += [cat, sub]
            writer.writerow(row)
    return ds
