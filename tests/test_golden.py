"""Golden outputs of the fixed model: the seeded initial weights, the
`summary` text and the weights bundle a fresh model writes.

Each is built from PCG64 draws, integer arithmetic and `repr` of floats, with
no BLAS call, so the bytes are the same on every platform. A change that
alters any of them changes the product and must say so.
"""

import hashlib

import numpy as np
import pytest

from botclf import network
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
    assert network.summary(network.build(0)).render() == SUMMARY


def test_fresh_bundle_bytes(tmp_path):
    path = tmp_path / "fresh.weights"
    network.save_bundle(network.build(0), path,
                        FeatureSpec(mins=np.zeros(16), maxs=np.ones(16)), DEFAULT_LABEL_MAP)
    assert _sha256(path.read_bytes()) == (
        "f1aee6b2fdbe31701753fa3341c7909bb6e1cc3cd654fc8470e3047e2321bfa4")
