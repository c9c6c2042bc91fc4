"""Training loop: softmax cross-entropy, RMSProp, epoch schedule, grad checks.

The default schedule is 4 epochs of mini-batches of 10 over a seeded
90/10 train/validation split. Everything is deterministic for a fixed
seed when run serially.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import network
from .errors import ConfigError, DataError, NumericError
from .metrics import ConfusionMatrix
from .network import NetworkParameters
from .numerics import substream

# RMSProp's squared-gradient decay rho and denominator epsilon, the paper's values
RMS_DECAY = 0.9
RMS_EPSILON = 1e-7


@dataclass
class TrainConfig:
    epochs: int = 4
    batch_size: int = 10
    learning_rate: float = 1e-3
    validation_fraction: float = 0.10
    seed: int = 0
    stratified: bool = False

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigError(
                f"validation_fraction must lie in (0, 1), got {self.validation_fraction}")
        # a zero learning rate is allowed: it leaves the weights as they are
        if not (0.0 <= self.learning_rate and math.isfinite(self.learning_rate)):
            raise ConfigError(f"learning_rate must be finite and not negative, "
                              f"got {self.learning_rate}")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float
    seconds: float

    def line(self) -> str:
        return (f"epoch={self.epoch} train_loss={self.train_loss:.6f} "
                f"train_acc={self.train_acc:.6f} val_loss={self.val_loss:.6f} "
                f"val_acc={self.val_acc:.6f} seconds={self.seconds:.3f}")


_PROB_FLOOR = 1e-12


def cross_entropy(probs: np.ndarray, labels: np.ndarray):
    """Mean categorical cross-entropy and the combined softmax gradient.

    `probs` are softmax outputs [B, K]; `labels` are class indices [B] in
    [0, K). Returns (loss, gradient w.r.t. the pre-softmax logits), the
    latter being (probs - one_hot(labels)) / B.
    """
    probs = np.asarray(probs)
    labels = np.asarray(labels)
    if probs.ndim != 2 or labels.shape != probs.shape[:1]:
        raise ValueError(f"probs shape {probs.shape} and labels shape {labels.shape} "
                         "must be [batch, classes] and [batch]")
    b = probs.shape[0]
    loss = float(_mean_nll(probs[np.arange(b), labels]))
    dlogits = probs.copy()
    dlogits[np.arange(b), labels] -= 1.0
    dlogits /= b
    return loss, dlogits


def _mean_nll(true_probs: np.ndarray):
    """Mean negative log-likelihood of each row's true-class probability, in
    their precision, as the sum divided by the count, which is what `mean`
    computes."""
    nll = np.maximum(true_probs, _PROB_FLOOR)
    return -np.add.reduce(np.log(nll, out=nll)) / true_probs.size


def rmsprop_step(params: NetworkParameters, grads: np.ndarray, state: np.ndarray,
                 learning_rate: float):
    """In-place RMSProp update of every trainable array, as one update of
    `params.flat`.

    s <- rho*s + (1-rho)*g^2 ; theta <- theta - lr * g / (sqrt(s) + eps)
    `grads` and `state` are arrays laid out like `params.flat`:
    `network.backward` returns such a gradient, and `fit` starts the state
    at zeros. Each element sees the same operations as in a per-array
    update, so the result is byte-identical to one. Moving batchnorm
    statistics are never touched. Raises ValueError, before anything is
    updated, unless both arrays have the shape of `params.flat`.
    """
    flat = params.flat
    for what, a in (("gradient", grads), ("RMSProp state", state)):
        if np.shape(a) != flat.shape:
            raise ValueError(f"the {what} has shape {np.shape(a)}; it must be laid out "
                             f"like the parameters, shape {flat.shape}")
    state *= RMS_DECAY
    step = grads * grads
    step *= 1.0 - RMS_DECAY
    state += step
    denom = np.sqrt(state)
    denom += RMS_EPSILON
    np.multiply(learning_rate, grads, out=step)
    step /= denom
    flat -= step


def _split_indices(n: int, fraction: float, seed: int, labels: np.ndarray,
                   stratified: bool):
    if stratified:
        rng = substream(seed, "split")
        val_parts, train_parts = [], []
        for cls in np.unique(labels):
            cls_idx = rng.permutation(np.flatnonzero(labels == cls))
            n_val = int(round(cls_idx.size * fraction))
            val_parts.append(cls_idx[:n_val])
            train_parts.append(cls_idx[n_val:])
        val_idx = rng.permutation(np.concatenate(val_parts))
        train_idx = rng.permutation(np.concatenate(train_parts))
        return train_idx, val_idx
    perm = substream(seed, "split").permutation(n)
    n_val = int(round(n * fraction))
    return perm[n_val:], perm[:n_val]


def fit(params: NetworkParameters, dataset, config: TrainConfig,
        progress_sink=None):
    """Train `params` on a labeled dataset; returns (params, [EpochStats]).

    `dataset` needs `.features` [N, seq_len] (already normalized) and
    `.labels` [N] ints. The training split is reshuffled each epoch from
    the run seed plus the epoch index; the trailing partial batch is kept.
    An empty dataset, one that does not fit the architecture, a split
    that leaves no training rows and a batch of one position (one row of one
    feature) are DataErrors, raised before any step; an empty validation
    split reports its loss and accuracy as nan.
    """
    arch = params.arch
    features = np.asarray(dataset.features, dtype=params.dtype)
    labels = np.asarray(dataset.labels)
    if features.size == 0:
        raise DataError("training dataset is empty")
    if features.ndim != 2 or features.shape[1] != arch.seq_len:
        raise DataError(f"records must have {arch.seq_len} features, "
                        f"got feature array of shape {features.shape}")
    if (labels < 0).any() or (labels >= arch.classes).any():
        raise DataError(f"labels must lie in 0..{arch.classes - 1}")
    x_all = features[:, :, None]
    train_idx, val_idx = _split_indices(labels.size, config.validation_fraction,
                                        config.seed, labels, config.stratified)
    if train_idx.size == 0:
        raise DataError(f"validation_fraction {config.validation_fraction} leaves no "
                        f"training rows out of {labels.size}")
    # train-mode batchnorm needs two positions per channel in every batch,
    # the last one included, which holds what is left after the full ones
    smallest = train_idx.size % config.batch_size or config.batch_size
    if smallest * arch.seq_len < 2:
        raise DataError(f"batch_size {config.batch_size} over {train_idx.size} training "
                        f"rows leaves a batch of {smallest} row of {arch.seq_len} feature; "
                        "train-mode batchnorm needs at least 2 positions per channel")
    val_batches = [(features[val_idx], labels[val_idx])] if val_idx.size else []
    state = np.zeros_like(params.flat)
    history = []
    for epoch in range(config.epochs):
        start_time = time.perf_counter()
        order = substream(config.seed, f"epoch-{epoch}").permutation(train_idx.size)
        shuffled = train_idx[order]
        epoch_loss = 0.0
        epoch_correct = 0
        for start in range(0, shuffled.size, config.batch_size):
            # each batch is gathered by index, so no shuffled copy of the set exists
            idx = shuffled[start:start + config.batch_size]
            yb = labels[idx]
            probs, caches = network.forward(params, x_all[idx], mode="train")
            loss, dlogits = cross_entropy(probs, yb)
            if not math.isfinite(loss):
                raise NumericError(f"non-finite training loss at epoch {epoch}")
            rmsprop_step(params, network.backward(params, caches, dlogits), state,
                         config.learning_rate)
            epoch_loss += loss * yb.size
            epoch_correct += np.count_nonzero(probs.argmax(axis=1) == yb)
        train_loss = epoch_loss / shuffled.size
        train_acc = epoch_correct / shuffled.size
        val_loss = val_acc = float("nan")
        if val_batches:
            cm, val_loss = evaluate(params, val_batches)
            val_acc = cm.accuracy()
        stats = EpochStats(epoch=epoch, train_loss=train_loss, train_acc=train_acc,
                           val_loss=val_loss, val_acc=val_acc,
                           seconds=time.perf_counter() - start_time)
        history.append(stats)
        if progress_sink is not None:
            progress_sink(stats)
    return params, history


def evaluate(params: NetworkParameters, batches):
    """Infer-mode pass over normalized (features [n, seq_len], labels [n])
    batches -> (ConfusionMatrix, mean loss); no batch at all is a DataError.

    The `forward` calls share one workspace, and only the confusion counts
    and each row's true-class probability outlive a batch."""
    classes = params.arch.classes
    counts = np.zeros((classes, classes), dtype=np.int64)
    true_probs = []
    workspace = {}
    for features, labels in batches:
        probs, _ = network.forward(params, features[:, :, None], mode="infer",
                                   workspace=workspace)
        counts += ConfusionMatrix.from_labels(labels, probs.argmax(axis=1), classes).counts
        true_probs.append(probs[np.arange(labels.size), labels])
    if not true_probs:
        raise DataError("no labeled rows to evaluate")
    true_probs = np.concatenate(true_probs)  # frees the per-batch arrays
    return ConfusionMatrix(counts), float(_mean_nll(true_probs))


# --------------------------------------------------------------------------
# finite-difference gradient verification


@dataclass(frozen=True)
class Probe:
    tensor: str
    index: tuple
    analytic: float
    numeric: float
    rel_error: float
    passed: bool


@dataclass(frozen=True)
class GradCheckReport:
    probes: tuple
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.probes)

    @property
    def worst(self) -> Probe:
        return max(self.probes, key=lambda p: p.rel_error)

    def render(self) -> str:
        lines = [f"gradient check: {len(self.probes)} probes, tolerance {self.tolerance:g}"]
        failed = [p for p in self.probes if not p.passed]
        w = self.worst
        lines.append(f"worst probe: {w.tensor}{list(w.index)} rel_error={w.rel_error:.3e} "
                     f"(analytic {w.analytic:.6e}, numeric {w.numeric:.6e})")
        lines.append(f"result: {'PASS' if self.passed else f'FAIL ({len(failed)} probes)'}")
        return "\n".join(lines)


# Default probe count and relative-error tolerance of `gradient_check`.
CHECK_PROBES = 100
CHECK_TOLERANCE = 1e-5
# Central-difference step and batch size of `gradient_check`.
_FD_STEP = 1e-6
_CHECK_BATCH = 4
# Coordinates whose analytic gradient is below this cannot be resolved by
# central differences at _FD_STEP to better than ~1e-5 relative error, so
# probe selection redraws instead of probing them. The differences are taken
# in long double: with its 64-bit mantissa (x86-64 Linux) round-off in the
# loss contributes ~1e-13 absolute, against ~4e-10 in double, which needed a
# floor of 1e-4. Tensors with no resolvable coordinate are checked at their
# largest entry for absolute agreement instead.
_GRAD_FLOOR = 1e-6
_ABS_AGREEMENT = 1e-8
_REDRAW_LIMIT = 50


def gradient_check(params: NetworkParameters, probes: int = CHECK_PROBES,
                   tolerance: float = CHECK_TOLERANCE, seed: int = 0) -> GradCheckReport:
    """Check hand-written backprop against central finite differences.

    The loss is the train-mode one that `fit` descends: for a fixed batch,
    batchnorm with the batch statistics is a deterministic function of the
    weights. The moving statistics that every train-mode forward updates
    are restored after it, so `params` come back byte-identical. The
    analytic gradient is `network.backward` in double precision, as in
    training; the differences are taken on a long-double copy of the
    weights, with the loss kept in long double. Where long double is no
    wider than double, they carry double's round-off, and probes near the
    floor can fail. Probes are spread round-robin over every trainable
    tensor (so all five parametered layers are covered), with a random
    coordinate per probe; coordinates whose gradient sits below the
    finite-difference resolution floor are redrawn.
    """
    if probes < 1:
        raise ConfigError(f"probes must be at least 1, got {probes}")
    if not (0.0 < tolerance and math.isfinite(tolerance)):
        raise ConfigError(f"tolerance must be finite and positive, got {tolerance}")
    if params.dtype != np.float64:
        raise NumericError("gradient_check requires double precision parameters")
    arch = params.arch
    rng = substream(seed, "gradcheck")
    x = rng.uniform(0.0, 1.0, size=(_CHECK_BATCH, arch.seq_len, arch.in_channels))
    labels = rng.integers(0, arch.classes, size=_CHECK_BATCH)

    def train_forward(p):
        moving = p.bn.moving_mean.copy(), p.bn.moving_var.copy()
        probs, caches = network.forward(p, x, mode="train")
        p.bn.moving_mean[:], p.bn.moving_var[:] = moving
        return probs, caches

    probs, caches = train_forward(params)
    grads = params.trainable_views(
        network.backward(params, caches, cross_entropy(probs, labels)[1]))
    wide = network._assemble({name: a.astype(np.longdouble)
                              for name, a in params.named_arrays()}, arch)

    def loss_fn():
        return _mean_nll(train_forward(wide)[0][np.arange(labels.size), labels])

    tensors = wide.trainable_arrays()
    results = []
    for i in range(probes):
        name, theta = tensors[i % len(tensors)]
        g = grads[name]
        index = None
        for _ in range(_REDRAW_LIMIT):
            candidate = np.unravel_index(int(rng.integers(0, theta.size)), theta.shape)
            if abs(g[candidate]) >= _GRAD_FLOOR:
                index = candidate
                break
        if index is None:
            # the whole tensor's gradient is (near) zero; probe its largest entry
            index = np.unravel_index(int(np.argmax(np.abs(g))), theta.shape)
        original = theta[index]
        theta[index] = original + _FD_STEP
        loss_plus = loss_fn()
        theta[index] = original - _FD_STEP
        loss_minus = loss_fn()
        theta[index] = original
        numeric = float((loss_plus - loss_minus) / (2.0 * _FD_STEP))
        analytic = float(grads[name][index])
        diff = abs(analytic - numeric)
        scale = max(abs(analytic), abs(numeric))
        rel = diff / scale if scale > 0.0 else 0.0
        # coordinates below the resolution floor (reachable only through the
        # all-tiny-tensor fallback) are held to absolute agreement instead
        passed = rel < tolerance if scale >= _GRAD_FLOOR else diff < _ABS_AGREEMENT
        results.append(Probe(tensor=name, index=tuple(int(v) for v in index),
                             analytic=analytic, numeric=numeric, rel_error=rel,
                             passed=passed))
    return GradCheckReport(probes=tuple(results), tolerance=tolerance)
