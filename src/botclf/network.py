"""The two-branch flow classifier: assembly, forward/backward, weights I/O.

Branch A: input [B, 16, 1] -> Conv1D -> BatchNorm -> ReLU -> global max pool
Branch B: input [B, 16, 1] -> GRU -> Flatten
Head:     Concatenate(A, B) -> Dense(hidden, relu) -> Dense(classes, softmax)

The topology is fixed; only the sizes (filters, GRU units, dense width,
class count ...) vary. The weights bundle, one text manifest holding the
weights, the fitted normalizer and the class map, is written by
`save_bundle` and read by `load_bundle`; no other module knows its keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from types import SimpleNamespace

import numpy as np

from . import layers
from .dataio import FeatureSpec, LabelMap
from .errors import ConfigError, DataError, NumericError, ShapeError, WeightFormatError
from .fileio import atomic_write
from .layers import (BatchNormParams, Conv1DParams, DenseParams, GRUParams,
                     GRU_FIELDS)
from .numerics import DOUBLE, init_he_uniform, init_truncated_normal, resolve_dtype, substream

# rows per pass of the inference engine; bounds its working memory
INFER_CHUNK = 512

# Most weights an Architecture may have: 229 times the 4370 of the default
# model, so a mistyped size is refused instead of exhausting memory.
MAX_PARAMETERS = 1_000_000

MANIFEST_MAGIC = "botclf-weights"
MANIFEST_VERSION = 1
_VALUES_PER_LINE = 8


@dataclass(frozen=True)
class Architecture:
    """Sizes and constants of the fixed topology (ReLU and a global max pool
    on the conv branch, a ReLU hidden layer); defaults give the
    4370-parameter model."""

    seq_len: int = 16
    in_channels: int = 1
    filters: int = 128
    kernel_size: int = 3
    gru_units: int = 10
    dense_units: int = 10
    classes: int = 6
    bn_epsilon: float = 1e-3
    bn_momentum: float = 0.99
    truncated_normal_stddev: float = 0.05

    def __post_init__(self):
        _check_sizes(vars(self))
        for name in ("bn_epsilon", "truncated_normal_stddev"):
            value = getattr(self, name)
            if not (0.0 < value and math.isfinite(value)):
                raise ConfigError(f"{name} must be finite and positive, got {value}")
        if not 0.0 <= self.bn_momentum <= 1.0:
            raise ConfigError(f"bn_momentum must lie in [0, 1], got {self.bn_momentum}")
        total = sum(map(math.prod, _shapes(self).values()))
        if total > MAX_PARAMETERS:
            name = max(_SIZE_FIELDS, key=lambda n: getattr(self, n))
            raise ConfigError(f"{name} {getattr(self, name)} gives the model {total} "
                              f"parameters, more than the {MAX_PARAMETERS} allowed")

    @property
    def concat_width(self) -> int:
        return self.filters + self.seq_len * self.gru_units


_SIZE_FIELDS = [f.name for f in fields(Architecture) if f.type == "int"]


def _check_sizes(values: dict) -> None:
    for name in _SIZE_FIELDS:
        if values[name] < 1:
            raise ConfigError(f"{name} must be at least 1, got {values[name]}")


def _shapes(a) -> dict:
    """{name: shape} of every weight array, in the fixed manifest order, for
    an Architecture or any object with its size fields."""
    shapes = {"conv.kernels": (a.kernel_size, a.in_channels, a.filters),
              "conv.bias": (a.filters,)}
    shapes.update({f"bn.{n}": (a.filters,)
                   for n in ("gamma", "beta", "moving_mean", "moving_var")})
    gru = {"w": (a.in_channels, a.gru_units), "u": (a.gru_units, a.gru_units)}
    shapes.update({f"gru.{n}": gru.get(n[0], (a.gru_units,)) for n in GRU_FIELDS})
    shapes.update({"dense_hidden.weights": (a.filters + a.seq_len * a.gru_units,
                                            a.dense_units),
                   "dense_hidden.bias": (a.dense_units,),
                   "dense_out.weights": (a.dense_units, a.classes),
                   "dense_out.bias": (a.classes,)})
    return shapes


_ARRAY_GETTERS = [(name, attrgetter(name)) for name in _shapes(Architecture())]
_TRAINABLE_GETTERS = [(n, get) for n, get in _ARRAY_GETTERS
                      if n not in ("bn.moving_mean", "bn.moving_var")]


def _views(buffer: np.ndarray, shapes) -> dict:
    """{name: view of `buffer`} for (name, shape) pairs laid out back to back."""
    views, start = {}, 0
    for name, shape in shapes:
        size = math.prod(shape)
        views[name] = buffer[start:start + size].reshape(shape)
        start += size
    return views


@dataclass
class NetworkParameters:
    """The weights of one model. Every trainable array is a view into `flat`,
    one contiguous buffer laid out in `trainable_arrays()` order, so the
    optimizer updates all of them at once; the moving statistics are
    separate arrays."""

    conv: Conv1DParams
    bn: BatchNormParams
    gru: GRUParams
    dense_hidden: DenseParams
    dense_out: DenseParams
    arch: Architecture
    flat: np.ndarray

    def named_arrays(self):
        """All weight arrays as (name, array), in the fixed manifest order."""
        return [(name, get(self)) for name, get in _ARRAY_GETTERS]

    def trainable_arrays(self):
        """(name, array) for every optimizer-owned weight; moving stats excluded."""
        return [(name, get(self)) for name, get in _TRAINABLE_GETTERS]

    def trainable_views(self, buffer: np.ndarray) -> dict:
        """{name: view of `buffer`}, laid out as the trainable arrays are in `flat`."""
        return _views(buffer, [(name, a.shape) for name, a in self.trainable_arrays()])

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
    shapes = _shapes(arch)
    arrays = {name: np.zeros(shape, dtype=dtype) for name, shape in shapes.items()}
    arrays["bn.gamma"][:] = 1.0
    arrays["bn.moving_var"][:] = 1.0
    for name in ("conv.kernels", "dense_hidden.weights", "dense_out.weights"):
        shape = shapes[name]
        arrays[name] = init_he_uniform(shape, fan_in=math.prod(shape[:-1]),
                                       rng=substream(seed, name.split(".")[0]), dtype=dtype)
    rng = substream(seed, "gru")
    for name in GRU_FIELDS[:6]:  # w_z, w_r, w_h, u_z, u_r, u_h, drawn in this order
        arrays[f"gru.{name}"] = init_truncated_normal(
            shapes[f"gru.{name}"], arch.truncated_normal_stddev, rng, dtype)
    return _assemble(arrays, arch)


def _assemble(arrays: dict, arch: Architecture) -> NetworkParameters:
    """NetworkParameters holding the values of a {name: array} dict keyed like
    `named_arrays`; the trainable ones are copied into one buffer."""
    trainable = [(name, arrays[name].shape) for name, _ in _TRAINABLE_GETTERS]
    flat = np.empty(sum(math.prod(shape) for _, shape in trainable),
                    dtype=arrays["conv.kernels"].dtype)
    arrays = dict(arrays)
    for name, view in _views(flat, trainable).items():
        view[...] = arrays[name]
        arrays[name] = view
    return NetworkParameters(
        conv=Conv1DParams(arrays["conv.kernels"], arrays["conv.bias"]),
        bn=BatchNormParams(arrays["bn.gamma"], arrays["bn.beta"], arrays["bn.moving_mean"],
                           arrays["bn.moving_var"], epsilon=arch.bn_epsilon,
                           momentum=arch.bn_momentum),
        gru=GRUParams(**{name: arrays[f"gru.{name}"] for name in GRU_FIELDS}),
        dense_hidden=DenseParams(arrays["dense_hidden.weights"], arrays["dense_hidden.bias"]),
        dense_out=DenseParams(arrays["dense_out.weights"], arrays["dense_out.bias"]),
        arch=arch, flat=flat)


@dataclass
class ForwardCaches:
    conv_branch: layers.Cache | tuple  # fused (train) or (conv, bn, act, pool) (infer)
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
    Train mode runs the conv branch fused (`layers.conv_branch_train_forward`);
    infer mode runs it layer by layer, the reference for `gradient_check`.
    """
    a = params.arch
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    x = np.asarray(x)
    _check_input(a, x)

    if mode == "train":
        pool_y, c_branch = layers.conv_branch_train_forward(x, params.conv, params.bn)
    else:
        conv_y, c_conv = layers.conv1d_forward(x, params.conv)
        bn_y, c_bn = layers.batchnorm_forward(conv_y, params.bn, training=False)
        act_y, c_act = layers.activation_forward(bn_y)
        pool_y, c_pool = layers.global_max_pool(act_y)
        c_branch = (c_conv, c_bn, c_act, c_pool)

    gru_y, c_gru = layers.gru_forward(x, params.gru)
    flat_y, c_flat = layers.flatten(gru_y)

    concat_y, c_concat = layers.concatenate(pool_y, flat_y)
    hidden_y, c_hidden = layers.dense_forward(concat_y, params.dense_hidden, "relu")
    probs, c_out = layers.dense_forward(hidden_y, params.dense_out, "softmax")
    caches = ForwardCaches(c_branch, c_gru, c_flat, c_concat, c_hidden, c_out)
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
    into the conv, and the max over time runs before the ReLU, which is
    exact because ReLU is monotone non-decreasing; the ReLU then sees
    [B, filters] instead of [B, seq_len, filters]. Raises NumericError if
    any probability is non-finite, so a broken model never yields a
    prediction.
    """
    a = params.arch
    x = np.asarray(x, dtype=params.dtype)
    _check_input(a, x)
    conv = _folded_conv(params)
    out = np.empty((x.shape[0], a.classes), dtype=params.dtype)
    for start in range(0, x.shape[0], INFER_CHUNK):
        xb = x[start:start + INFER_CHUNK]
        pooled, _ = layers.activation_forward(_conv_max_over_time(xb, conv))
        gru_y, _ = layers.gru_forward(xb, params.gru, keep_cache=False)
        concat_y = np.concatenate([pooled, gru_y.reshape(xb.shape[0], -1)], axis=1)
        hidden_y, _ = layers.dense_forward(concat_y, params.dense_hidden, "relu")
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
    d_hidden_out, g_out = layers.dense_backward(caches.dense_out, dlogits)
    d_concat, g_hidden = layers.dense_backward(caches.dense_hidden, d_hidden_out)
    (d_pool, d_flat), _ = layers.concatenate_backward(caches.concat, d_concat)

    if isinstance(caches.conv_branch, layers.Cache):
        dx_a, g_branch = layers.conv_branch_train_backward(caches.conv_branch, d_pool)
        g_conv = {k: g_branch[k] for k in ("kernels", "bias")}
        g_bn = {k: g_branch[k] for k in ("gamma", "beta")}
    else:
        c_conv, c_bn, c_act, c_pool = caches.conv_branch
        d_act, _ = layers.global_max_pool_backward(c_pool, d_pool)
        d_bn, _ = layers.activation_backward(c_act, d_act)
        d_conv, g_bn = layers.batchnorm_backward(c_bn, d_bn)
        dx_a, g_conv = layers.conv1d_backward(c_conv, d_conv)

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
    rows = (
        SummaryRow("InputLayer", (None, a.seq_len, a.in_channels), 0),
        SummaryRow("Conv1D", (None, a.seq_len, a.filters), params.conv.count),
        SummaryRow("BatchNormalization", (None, a.seq_len, a.filters), params.bn.count),
        SummaryRow("GRU", (None, a.seq_len, a.gru_units), params.gru.count),
        SummaryRow("Activation", (None, a.seq_len, a.filters), 0),
        SummaryRow("Flatten", (None, a.seq_len * a.gru_units), 0),
        SummaryRow("GlobalMaxPooling1D", (None, a.filters), 0),
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


# Manifests written before the topology was fixed carry these keys; each
# loads only at the one value the fixed topology has.
_LEGACY_META = {"pooling": "max", "conv_activation": "relu", "dense_activation": "relu"}


def _meta_sizes(meta: dict) -> dict:
    """Every Architecture field's value: the manifest meta's, else the default."""
    for key, value in _LEGACY_META.items():
        if meta.get(key, value) != value:
            raise WeightFormatError(
                f"manifest meta {key}: only {value!r} is supported, got {meta[key]!r}")
    sizes = {}
    for f in fields(Architecture):
        if f.name not in meta:
            sizes[f.name] = f.default
            continue
        raw = meta[f.name]
        try:
            sizes[f.name] = int(raw) if f.type == "int" else float(raw)
        except ValueError:
            raise WeightFormatError(
                f"manifest meta {f.name}: expected {f.type}, got {raw!r}") from None
    try:
        _check_sizes(sizes)
    except ConfigError as exc:
        raise WeightFormatError(f"manifest meta {exc}") from None
    return sizes


def save_weights(params: NetworkParameters, path,
                 extras: dict | None = None, meta: dict | None = None) -> None:
    """Write a versioned text manifest of every weight array.

    Layer order in the file is fixed (`named_arrays` order) but loading is
    name-keyed, so a reordered file still loads. Values are decimal and
    round-trip bit-exactly at the stored precision. `extras` lets callers
    persist additional named arrays (e.g. normalizer state) in the same
    file; `meta` adds string key/value pairs. The file is replaced
    atomically: a failed save leaves the previous one intact.
    """
    tensors = list(params.named_arrays())
    if extras:
        tensors += list(extras.items())
    all_meta = {"precision": "double" if params.dtype == np.float64 else "single"}
    all_meta.update(_arch_meta(params.arch))
    if meta:
        all_meta.update(meta)
    with atomic_write(path) as fh:
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
    on truncation, malformed content, a non-finite value or bytes that are
    not UTF-8.
    """
    tensors: dict[str, np.ndarray] = {}
    meta: dict[str, str] = {}
    offset = 0

    def decode(raw: bytes, at_byte: int) -> str:
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WeightFormatError(f"{path}: not UTF-8 text "
                                    f"(at byte {at_byte + exc.start})") from None

    with open(path, "rb") as fh:
        raw_header = fh.readline()
        header = decode(raw_header, 0)
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
        offset += len(raw_header)
        pending_name = None
        pending_shape = None
        pending_values: list[float] = []

        def finish_tensor(at_byte):
            nonlocal pending_name, pending_shape, pending_values
            if pending_name is None:
                return
            want = math.prod(pending_shape)
            if len(pending_values) != want:
                raise WeightFormatError(
                    f"{path}: tensor {pending_name} needs {want} values, "
                    f"got {len(pending_values)} (at byte {at_byte})")
            tensors[pending_name] = np.array(pending_values, dtype=np.float64).reshape(pending_shape)
            pending_name = None
            pending_shape = None
            pending_values = []

        for raw in fh:
            line_start = offset
            offset += len(raw)
            stripped = decode(raw, line_start).strip()
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
                    pending_shape = None
                if pending_shape is None or any(d < 0 for d in pending_shape):
                    raise WeightFormatError(
                        f"{path}: bad tensor dims for {pending_name} (at byte {line_start})")
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
    """Assemble NetworkParameters from parsed manifest content.

    Every tensor's shape is checked against the meta sizes before anything
    is allocated, so an oversized meta size cannot allocate; sizes that fit
    the tensors but exceed MAX_PARAMETERS are refused next. A value that
    overflows the manifest's precision is refused by tensor name.
    """
    sizes = _meta_sizes(meta)
    precision = meta.get("precision", "double")
    try:
        dtype = resolve_dtype(precision)
    except ValueError as exc:
        raise WeightFormatError(f"manifest meta precision: {exc}") from None
    shapes = _shapes(SimpleNamespace(**sizes))
    missing = [n for n in shapes if n not in tensors]
    if missing:
        raise WeightFormatError(f"manifest is missing tensors: {', '.join(sorted(missing))}")
    for name, shape in shapes.items():
        if tensors[name].shape != shape:
            raise WeightFormatError(
                f"tensor {name} has shape {tensors[name].shape}, architecture expects {shape}")
    try:
        arch = Architecture(**sizes)
    except ConfigError as exc:
        raise WeightFormatError(f"manifest meta {exc}") from None
    arrays = {}
    with np.errstate(over="ignore"):
        for name in shapes:
            arrays[name] = tensors[name].astype(dtype)
            if not np.isfinite(arrays[name]).all():
                raise WeightFormatError(f"tensor {name} holds a value out of the range "
                                        f"of {precision} precision")
    return _assemble(arrays, arch)


def load_weights(path) -> NetworkParameters:
    tensors, meta = load_manifest(path)
    return params_from_manifest(tensors, meta)


def save_bundle(params: NetworkParameters, path, spec: FeatureSpec,
                label_map: LabelMap) -> None:
    """Write the weights with the fitted normalizer and the class map."""
    save_weights(params, path, extras={"norm.min": spec.mins, "norm.max": spec.maxs},
                 meta={"feature_names": ",".join(spec.names),
                       "class_names": ",".join(label_map.names),
                       "class_pairs": ";".join(f"{c},{s}" for c, s in label_map.pairs)})


def load_bundle(path, spec: FeatureSpec, label_map: LabelMap):
    """(params, fitted FeatureSpec, LabelMap) from a `save_bundle` file.

    `spec` and `label_map` stand in for feature names or a class map the
    file lacks. A missing normalizer, one whose length differs from the
    feature names, or a malformed class map is a WeightFormatError.
    """
    tensors, meta = load_manifest(path)
    params = params_from_manifest(tensors, meta)
    if "feature_names" in meta:
        try:
            spec = FeatureSpec(names=tuple(meta["feature_names"].split(",")))
        except DataError as exc:
            raise WeightFormatError(f"{path}: manifest meta feature_names: {exc}") from None
    if "norm.min" not in tensors or "norm.max" not in tensors:
        raise WeightFormatError(f"{path}: manifest has no normalizer state; "
                                "was it written by `botclf train`?")
    mins, maxs = tensors["norm.min"], tensors["norm.max"]
    want = (len(spec.names),)
    if mins.shape != want or maxs.shape != want:
        raise WeightFormatError(
            f"{path}: normalizer tensors norm.min {mins.shape} and norm.max {maxs.shape} "
            f"do not match the {want[0]} feature names")
    spec = replace(spec, mins=mins, maxs=maxs)
    if "class_pairs" in meta and "class_names" in meta:
        pairs = tuple(tuple(entry.split(",", 1)) for entry in meta["class_pairs"].split(";"))
        names = tuple(meta["class_names"].split(","))
        if len(names) != len(pairs) or any(len(pair) != 2 for pair in pairs):
            raise WeightFormatError(f"{path}: manifest meta class_pairs and class_names "
                                    "do not form one class map")
        label_map = LabelMap(pairs=pairs, names=names)
    return params, spec, label_map
