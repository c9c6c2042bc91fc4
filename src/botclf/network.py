"""The two-branch flow classifier: assembly, forward/backward, weights I/O.

Branch A: input [B, 16, 1] -> Conv1D -> BatchNorm -> Activation -> global max pool
Branch B: input [B, 16, 1] -> GRU -> Flatten
Head:     Concatenate(A, B) -> Dense(hidden, relu) -> Dense(classes, softmax)

The topology is fixed; only the size knobs (filters, GRU units, dense
width, class count ...) are configurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import layers
from .errors import NumericError, ShapeError, WeightFormatError
from .layers import (BatchNormParams, Conv1DParams, DenseParams, GRUParams,
                     GRU_FIELDS)
from .numerics import DOUBLE, init_he_uniform, init_truncated_normal, resolve_dtype, substream

# rows per pass of the inference engine; bounds its working memory
INFER_CHUNK = 512

MANIFEST_MAGIC = "botclf-weights"
MANIFEST_VERSION = 1
_VALUES_PER_LINE = 8


@dataclass(frozen=True)
class Architecture:
    """Size and behavior knobs; defaults give the 4370-parameter model."""

    seq_len: int = 16
    in_channels: int = 1
    filters: int = 128
    kernel_size: int = 3
    gru_units: int = 10
    dense_units: int = 10
    classes: int = 6
    conv_activation: str = "relu"
    dense_activation: str = "relu"
    pooling: str = "max"  # "max" or "avg"
    bn_epsilon: float = 1e-3
    bn_momentum: float = 0.99
    truncated_normal_stddev: float = 0.05

    @property
    def concat_width(self) -> int:
        return self.filters + self.seq_len * self.gru_units


@dataclass
class NetworkParameters:
    conv: Conv1DParams
    bn: BatchNormParams
    gru: GRUParams
    dense_hidden: DenseParams
    dense_out: DenseParams
    arch: Architecture = field(default_factory=Architecture)

    def named_arrays(self):
        """All weight arrays as (name, array), in the fixed manifest order."""
        out = [("conv.kernels", self.conv.kernels), ("conv.bias", self.conv.bias),
               ("bn.gamma", self.bn.gamma), ("bn.beta", self.bn.beta),
               ("bn.moving_mean", self.bn.moving_mean), ("bn.moving_var", self.bn.moving_var)]
        out += [(f"gru.{name}", getattr(self.gru, name)) for name in GRU_FIELDS]
        out += [("dense_hidden.weights", self.dense_hidden.weights),
                ("dense_hidden.bias", self.dense_hidden.bias),
                ("dense_out.weights", self.dense_out.weights),
                ("dense_out.bias", self.dense_out.bias)]
        return out

    def trainable_arrays(self):
        """(name, array) for every optimizer-owned weight; moving stats excluded."""
        skip = {"bn.moving_mean", "bn.moving_var"}
        return [(n, a) for n, a in self.named_arrays() if n not in skip]

    def get_array(self, name: str) -> np.ndarray:
        for n, a in self.named_arrays():
            if n == name:
                return a
        raise KeyError(name)

    @property
    def dtype(self):
        return self.conv.kernels.dtype


def build(seed: int, arch: Architecture = Architecture(), dtype=DOUBLE) -> NetworkParameters:
    """Freshly initialized parameters; deterministic for a given seed.

    Conv kernels and dense weights are He-uniform; GRU weights are
    truncated normal; all biases start at zero. Each layer draws from its
    own named substream, so adding layers never shifts another layer's
    initial values.
    """
    a = arch
    conv = Conv1DParams(
        kernels=init_he_uniform((a.kernel_size, a.in_channels, a.filters),
                                fan_in=a.kernel_size * a.in_channels,
                                rng=substream(seed, "conv"), dtype=dtype),
        bias=np.zeros(a.filters, dtype=dtype))
    bn = BatchNormParams(
        gamma=np.ones(a.filters, dtype=dtype),
        beta=np.zeros(a.filters, dtype=dtype),
        moving_mean=np.zeros(a.filters, dtype=dtype),
        moving_var=np.ones(a.filters, dtype=dtype),
        epsilon=a.bn_epsilon, momentum=a.bn_momentum)
    rng = substream(seed, "gru")
    sd = a.truncated_normal_stddev
    gru = GRUParams(
        w_z=init_truncated_normal((a.in_channels, a.gru_units), sd, rng, dtype),
        w_r=init_truncated_normal((a.in_channels, a.gru_units), sd, rng, dtype),
        w_h=init_truncated_normal((a.in_channels, a.gru_units), sd, rng, dtype),
        u_z=init_truncated_normal((a.gru_units, a.gru_units), sd, rng, dtype),
        u_r=init_truncated_normal((a.gru_units, a.gru_units), sd, rng, dtype),
        u_h=init_truncated_normal((a.gru_units, a.gru_units), sd, rng, dtype),
        b_z=np.zeros(a.gru_units, dtype=dtype), b_r=np.zeros(a.gru_units, dtype=dtype),
        b_h=np.zeros(a.gru_units, dtype=dtype), rb_z=np.zeros(a.gru_units, dtype=dtype),
        rb_r=np.zeros(a.gru_units, dtype=dtype), rb_h=np.zeros(a.gru_units, dtype=dtype))
    dense_hidden = DenseParams(
        weights=init_he_uniform((a.concat_width, a.dense_units), fan_in=a.concat_width,
                                rng=substream(seed, "dense_hidden"), dtype=dtype),
        bias=np.zeros(a.dense_units, dtype=dtype))
    dense_out = DenseParams(
        weights=init_he_uniform((a.dense_units, a.classes), fan_in=a.dense_units,
                                rng=substream(seed, "dense_out"), dtype=dtype),
        bias=np.zeros(a.classes, dtype=dtype))
    return NetworkParameters(conv, bn, gru, dense_hidden, dense_out, arch=a)


@dataclass
class ForwardCaches:
    conv: layers.Cache
    bn: layers.Cache
    act: layers.Cache
    pool: layers.Cache
    gru: layers.Cache
    flat: layers.Cache
    concat: layers.Cache
    dense_hidden: layers.Cache
    dense_out: layers.Cache


def _check_input(a: Architecture, x: np.ndarray) -> None:
    if x.ndim != 3 or x.shape[1] != a.seq_len or x.shape[2] != a.in_channels:
        raise ShapeError(
            f"expected input of shape (batch, {a.seq_len}, {a.in_channels}), got {x.shape}")


def forward(params: NetworkParameters, x: np.ndarray, mode: str = "infer"):
    """x: [B, seq_len, in_channels] -> (probs [B, classes], caches).

    Each output row is a probability vector summing to 1. `mode` is
    "train" (batch-statistic batchnorm, moving stats updated) or "infer".
    """
    a = params.arch
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    x = np.asarray(x)
    _check_input(a, x)

    conv_y, c_conv = layers.conv1d_forward(x, params.conv)
    bn_y, c_bn = layers.batchnorm_forward(conv_y, params.bn, training=(mode == "train"))
    act_y, c_act = layers.activation_forward(bn_y, a.conv_activation)
    if a.pooling == "max":
        pool_y, c_pool = layers.global_max_pool(act_y)
    else:
        pool_y, c_pool = layers.global_avg_pool(act_y)

    gru_y, c_gru = layers.gru_forward(x, params.gru)
    flat_y, c_flat = layers.flatten(gru_y)

    concat_y, c_concat = layers.concatenate(pool_y, flat_y)
    hidden_y, c_hidden = layers.dense_forward(concat_y, params.dense_hidden,
                                              a.dense_activation)
    probs, c_out = layers.dense_forward(hidden_y, params.dense_out, "softmax")
    caches = ForwardCaches(c_conv, c_bn, c_act, c_pool, c_gru, c_flat,
                           c_concat, c_hidden, c_out)
    return probs, caches


def _folded_conv(params: NetworkParameters) -> Conv1DParams:
    """Conv kernels and bias with the infer-mode batchnorm affine map folded in.

    bn(conv(x)) = scale * (cols @ K + b - mean) + beta
                = cols @ (K * scale) + ((b - mean) * scale + beta)
    with scale = gamma / sqrt(moving_var + epsilon) per filter.
    """
    bn = params.bn
    scale = bn.gamma / np.sqrt(bn.moving_var + bn.epsilon)
    return Conv1DParams(kernels=params.conv.kernels * scale,
                        bias=(params.conv.bias - bn.moving_mean) * scale + bn.beta)


def _conv_max_over_time(x: np.ndarray, conv: Conv1DParams) -> np.ndarray:
    """max over time of `layers.conv1d_forward(x, conv)`: [B, T, C] -> [B, filters].

    One [B, filters] window product per time step, max-accumulated, so the
    [B, T, filters] conv output is never stored. The bias is added after
    the max, which is exact: rounding y + b is monotone in y.
    """
    k, c_in, filters = conv.kernels.shape
    pad_l = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (pad_l, k - 1 - pad_l), (0, 0)))
    w = conv.kernels.reshape(k * c_in, filters)
    out = xp[:, :k, :].reshape(-1, k * c_in) @ w
    for i in range(1, x.shape[1]):
        np.maximum(out, xp[:, i:i + k, :].reshape(-1, k * c_in) @ w, out=out)
    return out + conv.bias


def predict_proba(params: NetworkParameters, x: np.ndarray) -> np.ndarray:
    """x: [N, seq_len, in_channels] -> class probabilities [N, classes].

    The same function as `forward(params, x, mode="infer")`, computed in
    chunks of INFER_CHUNK rows with no caches. The batchnorm is folded
    into the conv, and max pooling runs before the conv activation: every
    activation kind is monotone non-decreasing, so max over time commutes
    with it and the activation sees [B, filters] instead of
    [B, seq_len, filters]. Raises NumericError if any probability is
    non-finite, so a broken model never yields a prediction.
    """
    a = params.arch
    x = np.asarray(x, dtype=params.dtype)
    _check_input(a, x)
    conv = _folded_conv(params)
    out = np.empty((x.shape[0], a.classes), dtype=params.dtype)
    for start in range(0, x.shape[0], INFER_CHUNK):
        xb = x[start:start + INFER_CHUNK]
        if a.pooling == "max":
            pooled, _ = layers.activation_forward(_conv_max_over_time(xb, conv),
                                                  a.conv_activation)
        else:
            conv_y, _ = layers.conv1d_forward(xb, conv)
            pooled = layers.activation_forward(conv_y, a.conv_activation)[0].mean(axis=1)
        gru_y = layers.gru_infer(xb, params.gru)
        concat_y = np.concatenate([pooled, gru_y.reshape(xb.shape[0], -1)], axis=1)
        hidden_y, _ = layers.dense_forward(concat_y, params.dense_hidden, a.dense_activation)
        probs, _ = layers.dense_forward(hidden_y, params.dense_out, "softmax")
        finite = np.isfinite(probs).all(axis=1)
        if not finite.all():
            raise NumericError(f"non-finite class probabilities for "
                               f"{int((~finite).sum())} of {xb.shape[0]} rows in a batch")
        out[start:start + xb.shape[0]] = probs
    return out


def backward(params: NetworkParameters, caches: ForwardCaches, dlogits: np.ndarray):
    """Gradient of the loss w.r.t. every trainable weight and the input.

    `dlogits` is the loss gradient w.r.t. the final dense layer's
    pre-softmax logits, as produced by the cross-entropy loss. Returns
    (grads, dx) with grads keyed like `trainable_arrays()`.
    """
    a = params.arch
    d_hidden_out, g_out = layers.dense_backward(caches.dense_out, dlogits, wrt="preact")
    d_concat, g_hidden = layers.dense_backward(caches.dense_hidden, d_hidden_out)
    (d_pool, d_flat), _ = layers.concatenate_backward(caches.concat, d_concat)

    if a.pooling == "max":
        d_act, _ = layers.global_max_pool_backward(caches.pool, d_pool)
    else:
        d_act, _ = layers.global_avg_pool_backward(caches.pool, d_pool)
    d_bn, _ = layers.activation_backward(caches.act, d_act)
    d_conv, g_bn = layers.batchnorm_backward(caches.bn, d_bn)
    dx_a, g_conv = layers.conv1d_backward(caches.conv, d_conv)

    d_gru_seq, _ = layers.flatten_backward(caches.flat, d_flat)
    dx_b, g_gru, _ = layers.gru_backward(caches.gru, d_gru_seq)

    grads = {f"conv.{k}": v for k, v in g_conv.items()}
    grads.update({f"bn.{k}": v for k, v in g_bn.items()})
    grads.update({f"gru.{k}": v for k, v in g_gru.items()})
    grads.update({f"dense_hidden.{k}": v for k, v in g_hidden.items()})
    grads.update({f"dense_out.{k}": v for k, v in g_out.items()})
    return grads, dx_a + dx_b


def param_count(params: NetworkParameters):
    """(total, trainable, non_trainable), exact integer accounting."""
    total = (params.conv.count + params.bn.count + params.gru.count
             + params.dense_hidden.count + params.dense_out.count)
    non_trainable = params.bn.count - params.bn.trainable_count
    return total, total - non_trainable, non_trainable


@dataclass(frozen=True)
class SummaryRow:
    name: str
    output_shape: tuple
    params: int


@dataclass(frozen=True)
class ModelSummary:
    rows: tuple
    total: int
    trainable: int
    non_trainable: int

    def render(self) -> str:
        lines = [f"{'Layer (type)':<24}{'Output Shape':<20}{'Param #':>8}"]
        lines.append("-" * 52)
        for r in self.rows:
            shape = "(" + ", ".join("None" if d is None else str(d) for d in r.output_shape) + ")"
            lines.append(f"{r.name:<24}{shape:<20}{r.params:>8}")
        lines.append("-" * 52)
        lines.append(f"Total params: {self.total}")
        lines.append(f"Trainable params: {self.trainable}")
        lines.append(f"Non-trainable params: {self.non_trainable}")
        return "\n".join(lines)


def summary(params: NetworkParameters) -> ModelSummary:
    """Per-layer output shapes and parameter counts, in graph build order."""
    a = params.arch
    pool_name = "GlobalMaxPooling1D" if a.pooling == "max" else "GlobalAveragePooling1D"
    rows = (
        SummaryRow("InputLayer", (None, a.seq_len, a.in_channels), 0),
        SummaryRow("Conv1D", (None, a.seq_len, a.filters), params.conv.count),
        SummaryRow("BatchNormalization", (None, a.seq_len, a.filters), params.bn.count),
        SummaryRow("GRU", (None, a.seq_len, a.gru_units), params.gru.count),
        SummaryRow("Activation", (None, a.seq_len, a.filters), 0),
        SummaryRow("Flatten", (None, a.seq_len * a.gru_units), 0),
        SummaryRow(pool_name, (None, a.filters), 0),
        SummaryRow("Concatenate", (None, a.concat_width), 0),
        SummaryRow("dense (Dense)", (None, a.dense_units), params.dense_hidden.count),
        SummaryRow("dense_1 (Dense)", (None, a.classes), params.dense_out.count),
    )
    total, trainable, non_trainable = param_count(params)
    return ModelSummary(rows, total, trainable, non_trainable)


# --------------------------------------------------------------------------
# weight manifest: versioned, name-keyed, human-readable text


def _arch_meta(arch: Architecture) -> dict:
    return {f.name: str(getattr(arch, f.name)) for f in fields(Architecture)}


def _arch_from_meta(meta: dict) -> Architecture:
    kwargs = {}
    for f in fields(Architecture):
        if f.name not in meta:
            continue
        raw = meta[f.name]
        if f.type == "int":
            kwargs[f.name] = int(raw)
        elif f.type == "float":
            kwargs[f.name] = float(raw)
        else:
            kwargs[f.name] = raw
    return replace(Architecture(), **kwargs)


def save_weights(params: NetworkParameters, path,
                 extras: dict | None = None, meta: dict | None = None) -> None:
    """Write a versioned text manifest of every weight array.

    Layer order in the file is fixed (`named_arrays` order) but loading is
    name-keyed, so a reordered file still loads. Values are decimal and
    round-trip bit-exactly at the stored precision. `extras` lets callers
    persist additional named arrays (e.g. normalizer state) in the same
    file; `meta` adds string key/value pairs.
    """
    tensors = list(params.named_arrays())
    if extras:
        tensors += list(extras.items())
    all_meta = {"precision": "double" if params.dtype == np.float64 else "single"}
    all_meta.update(_arch_meta(params.arch))
    if meta:
        all_meta.update(meta)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{MANIFEST_MAGIC} {MANIFEST_VERSION}\n")
        for key in sorted(all_meta):
            fh.write(f"meta {key} {all_meta[key]}\n")
        for name, arr in tensors:
            dims = " ".join(str(d) for d in arr.shape)
            fh.write(f"tensor {name} {dims}\n")
            flat = arr.reshape(-1)
            for i in range(0, flat.size, _VALUES_PER_LINE):
                chunk = flat[i:i + _VALUES_PER_LINE]
                fh.write(" ".join(repr(float(v)) for v in chunk) + "\n")


def load_manifest(path):
    """Parse a manifest into ({name: array}, {meta key: value}).

    Raises WeightFormatError (with the byte offset of the offending line)
    on truncation, malformed content or a non-finite value.
    """
    tensors: dict[str, np.ndarray] = {}
    meta: dict[str, str] = {}
    offset = 0
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise WeightFormatError(f"{path}: empty weight manifest (at byte 0)")
        parts = header.split()
        if len(parts) != 2 or parts[0] != MANIFEST_MAGIC:
            raise WeightFormatError(f"{path}: not a weight manifest (at byte 0)")
        try:
            version = int(parts[1])
        except ValueError:
            version = None
        if version != MANIFEST_VERSION:
            raise WeightFormatError(
                f"{path}: unsupported manifest version {parts[1]!r} "
                f"(expected {MANIFEST_VERSION}) (at byte 0)")
        offset += len(header.encode("utf-8"))
        pending_name = None
        pending_shape = None
        pending_values: list[float] = []

        def finish_tensor(at_byte):
            nonlocal pending_name, pending_shape, pending_values
            if pending_name is None:
                return
            want = int(np.prod(pending_shape)) if pending_shape else 1
            if len(pending_values) != want:
                raise WeightFormatError(
                    f"{path}: tensor {pending_name} needs {want} values, "
                    f"got {len(pending_values)} (at byte {at_byte})")
            tensors[pending_name] = np.array(pending_values, dtype=np.float64).reshape(pending_shape)
            pending_name = None
            pending_shape = None
            pending_values = []

        for line in fh:
            line_start = offset
            offset += len(line.encode("utf-8"))
            stripped = line.strip()
            if not stripped:
                continue
            fields_ = stripped.split()
            if fields_[0] == "meta":
                finish_tensor(line_start)
                if len(fields_) < 3:
                    raise WeightFormatError(f"{path}: malformed meta line (at byte {line_start})")
                meta[fields_[1]] = " ".join(fields_[2:])
            elif fields_[0] == "tensor":
                finish_tensor(line_start)
                if len(fields_) < 2:
                    raise WeightFormatError(f"{path}: malformed tensor line (at byte {line_start})")
                pending_name = fields_[1]
                try:
                    pending_shape = tuple(int(d) for d in fields_[2:])
                except ValueError:
                    raise WeightFormatError(
                        f"{path}: bad tensor dims for {pending_name} (at byte {line_start})") from None
            else:
                if pending_name is None:
                    raise WeightFormatError(
                        f"{path}: unexpected content {fields_[0]!r} (at byte {line_start})")
                try:
                    values = [float(tok) for tok in fields_]
                except ValueError:
                    raise WeightFormatError(
                        f"{path}: non-numeric value in tensor {pending_name} "
                        f"(at byte {line_start})") from None
                if not all(map(math.isfinite, values)):
                    raise WeightFormatError(
                        f"{path}: non-finite value in tensor {pending_name} "
                        f"(at byte {line_start})")
                pending_values.extend(values)
        finish_tensor(offset)
    return tensors, meta


def params_from_manifest(tensors: dict, meta: dict) -> NetworkParameters:
    """Assemble NetworkParameters from parsed manifest content."""
    arch = _arch_from_meta(meta)
    dtype = resolve_dtype(meta.get("precision", "double"))
    reference = build(0, arch, dtype=dtype)
    expected = dict(reference.named_arrays())
    missing = [n for n in expected if n not in tensors]
    if missing:
        raise WeightFormatError(f"manifest is missing tensors: {', '.join(sorted(missing))}")
    for name, ref in expected.items():
        got = tensors[name]
        if got.shape != ref.shape:
            raise WeightFormatError(
                f"tensor {name} has shape {got.shape}, architecture expects {ref.shape}")
        ref[:] = got.astype(dtype)
    return reference


def load_weights(path) -> NetworkParameters:
    tensors, meta = load_manifest(path)
    return params_from_manifest(tensors, meta)
