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


@dataclass
class TrainConfig:
    epochs: int = 4
    batch_size: int = 10
    learning_rate: float = 1e-3
    rms_decay: float = 0.9
    rms_epsilon: float = 1e-7
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
        if not 0.0 <= self.rms_decay < 1.0:
            raise ConfigError(f"rms_decay must lie in [0, 1), got {self.rms_decay}")
        # a zero learning rate is allowed: it leaves the weights as they are
        if not (0.0 <= self.learning_rate and math.isfinite(self.learning_rate)):
            raise ConfigError(f"learning_rate must be finite and not negative, "
                              f"got {self.learning_rate}")
        if not (0.0 < self.rms_epsilon and math.isfinite(self.rms_epsilon)):
            raise ConfigError(f"rms_epsilon must be finite and positive, got {self.rms_epsilon}")


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


def cross_entropy(probs: np.ndarray, targets: np.ndarray):
    """Mean categorical cross-entropy and the combined softmax gradient.

    `probs` are softmax outputs [B, K]; `targets` are one-hot rows [B, K].
    Returns (loss, gradient w.r.t. the pre-softmax logits), the latter
    being (probs - targets) / B.
    """
    probs = np.asarray(probs)
    targets = np.asarray(targets)
    if probs.shape != targets.shape or probs.ndim != 2:
        raise ValueError(f"probs shape {probs.shape} and targets shape "
                         f"{targets.shape} must match as [batch, classes]")
    is_zero_or_one = (targets == 0.0) | (targets == 1.0)
    if not is_zero_or_one.all() or not (targets.sum(axis=1) == 1.0).all():
        raise ValueError("targets must be one-hot rows")
    b = probs.shape[0]
    p_true = (probs * targets).sum(axis=1)
    loss = float(-np.log(np.maximum(p_true, _PROB_FLOOR)).mean())
    dlogits = (probs - targets) / b
    return loss, dlogits


def init_rmsprop(params: NetworkParameters) -> dict:
    """Zeroed squared-gradient accumulators keyed like `trainable_arrays()`,
    views into one buffer laid out as `params.flat`."""
    return params.trainable_views(np.zeros_like(params.flat))


def rmsprop_step(params: NetworkParameters, grads: dict, state: dict,
                 config: TrainConfig):
    """In-place RMSProp update of every trainable array, as one update of
    `params.flat` and the state's buffer.

    s <- rho*s + (1-rho)*g^2 ; theta <- theta - lr * g / (sqrt(s) + eps)
    Each element sees the same operations as in a per-array update, so the
    result is byte-identical to one. Moving batchnorm statistics are never
    touched. Raises ValueError if a gradient's shape differs from its
    parameter's, or if a parameter or state array is no longer a view into
    its buffer (it was rebound), since the update would then miss it.
    """
    trainable = params.trainable_arrays()
    s = state[trainable[0][0]].base
    if s is None or s.shape != params.flat.shape:
        raise ValueError("RMSProp state is not one buffer laid out like the parameters; "
                         "make it with init_rmsprop")
    for name, theta in trainable:
        if grads[name].shape != theta.shape:
            raise ValueError(f"gradient for {name} has shape {grads[name].shape}, "
                             f"parameter has {theta.shape}")
        if theta.base is not params.flat or state[name].base is not s:
            raise ValueError(f"{name} is no longer a view into its buffer; "
                             "rebinding a parameter or state array detaches it")
    g = np.concatenate([grads[name] for name, _ in trainable], axis=None)
    rho = config.rms_decay
    s *= rho
    s += (1.0 - rho) * (g * g)
    params.flat -= config.learning_rate * g / (np.sqrt(s) + config.rms_epsilon)
    return params, state


def _one_hot(labels: np.ndarray, classes: int, dtype) -> np.ndarray:
    out = np.zeros((labels.size, classes), dtype=dtype)
    out[np.arange(labels.size), labels] = 1.0
    return out


def _split_indices(n: int, fraction: float, seed: int,
                   labels: np.ndarray | None, stratified: bool):
    if stratified and labels is not None:
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


def _epoch_eval(params, features, labels, classes):
    """Infer-mode loss and accuracy over a fixed set."""
    if labels.size == 0:
        return float("nan"), float("nan")
    probs = network.predict_proba(params, features)
    loss, _ = cross_entropy(probs, _one_hot(labels, classes, probs.dtype))
    return loss, int((probs.argmax(axis=1) == labels).sum()) / labels.size


def fit(params: NetworkParameters, dataset, config: TrainConfig,
        progress_sink=None):
    """Train `params` on a labeled dataset; returns (params, [EpochStats]).

    `dataset` needs `.features` [N, seq_len] (already normalized) and
    `.labels` [N] ints. The training split is reshuffled each epoch from
    the run seed plus the epoch index; the trailing partial batch is kept.
    """
    arch = params.arch
    if dataset.labels is None:
        raise DataError("training requires labeled records")
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
    state = init_rmsprop(params)
    history = []
    for epoch in range(config.epochs):
        start_time = time.perf_counter()
        order = substream(config.seed, f"epoch-{epoch}").permutation(train_idx.size)
        shuffled = train_idx[order]
        epoch_loss = 0.0
        epoch_correct = 0
        for start in range(0, shuffled.size, config.batch_size):
            batch = shuffled[start:start + config.batch_size]
            xb = x_all[batch]
            yb = _one_hot(labels[batch], arch.classes, params.dtype)
            probs, caches = network.forward(params, xb, mode="train")
            loss, dlogits = cross_entropy(probs, yb)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite training loss at epoch {epoch}")
            grads, _ = network.backward(params, caches, dlogits)
            rmsprop_step(params, grads, state, config)
            epoch_loss += loss * batch.size
            epoch_correct += int((probs.argmax(axis=1) == labels[batch]).sum())
        train_loss = epoch_loss / max(shuffled.size, 1)
        train_acc = epoch_correct / max(shuffled.size, 1)
        val_loss, val_acc = _epoch_eval(params, x_all[val_idx], labels[val_idx],
                                        arch.classes)
        stats = EpochStats(epoch=epoch, train_loss=train_loss, train_acc=train_acc,
                           val_loss=val_loss, val_acc=val_acc,
                           seconds=time.perf_counter() - start_time)
        history.append(stats)
        if progress_sink is not None:
            progress_sink(stats)
    return params, history


def evaluate(params: NetworkParameters, dataset):
    """Infer-mode pass over a labeled dataset -> (ConfusionMatrix, mean loss)."""
    arch = params.arch
    features = np.asarray(dataset.features, dtype=params.dtype)
    labels = dataset.labels
    if labels is None:
        raise DataError("evaluation requires labeled records")
    labels = np.asarray(labels)
    if features.size == 0:
        raise DataError("evaluation dataset is empty")
    if features.ndim != 2 or features.shape[1] != arch.seq_len:
        raise DataError(f"records must have {arch.seq_len} features, "
                        f"got feature array of shape {features.shape}")
    probs = network.predict_proba(params, features[:, :, None])
    loss, _ = cross_entropy(probs, _one_hot(labels, arch.classes, probs.dtype))
    cm = ConfusionMatrix.from_labels(labels, probs.argmax(axis=1), arch.classes)
    return cm, loss


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


# Coordinates whose analytic gradient is below this cannot be resolved by
# central differences at step 1e-6 to better than ~1e-5 relative error
# (round-off in the loss contributes ~4e-10 absolute), so probe selection
# redraws instead of probing them. Tensors with no resolvable coordinate
# are checked at their largest entry for absolute agreement instead.
_GRAD_FLOOR = 1e-4
_ABS_AGREEMENT = 1e-8
_REDRAW_LIMIT = 50


def gradient_check(params: NetworkParameters, probes: int = 100,
                   tolerance: float = 1e-5, seed: int = 0,
                   step: float = 1e-6, batch: int = 4) -> GradCheckReport:
    """Check hand-written backprop against central finite differences.

    Probes are spread round-robin over every trainable tensor (so all five
    parametered layers are covered), with a random coordinate per probe;
    coordinates whose gradient sits below the finite-difference resolution
    floor are redrawn. Batchnorm runs in infer mode so the loss is a
    deterministic function of the parameters.
    """
    if probes < 1:
        raise ConfigError(f"probes must be at least 1, got {probes}")
    if not (0.0 < tolerance and math.isfinite(tolerance)):
        raise ConfigError(f"tolerance must be finite and positive, got {tolerance}")
    if params.dtype != np.float64:
        raise NumericError("gradient_check requires double precision parameters")
    arch = params.arch
    rng = substream(seed, "gradcheck")
    x = rng.uniform(0.0, 1.0, size=(batch, arch.seq_len, arch.in_channels))
    labels = rng.integers(0, arch.classes, size=batch)
    targets = _one_hot(labels, arch.classes, np.float64)

    def loss_fn():
        probs, _ = network.forward(params, x, mode="infer")
        loss, _ = cross_entropy(probs, targets)
        return loss

    probs, caches = network.forward(params, x, mode="infer")
    _, dlogits = cross_entropy(probs, targets)
    grads, _ = network.backward(params, caches, dlogits)

    tensors = params.trainable_arrays()
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
        theta[index] = original + step
        loss_plus = loss_fn()
        theta[index] = original - step
        loss_minus = loss_fn()
        theta[index] = original
        numeric = (loss_plus - loss_minus) / (2.0 * step)
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
