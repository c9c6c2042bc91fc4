"""The two-branch flow classifier: assembly, forward/backward, weights I/O.

Branch A: input [B, 16, 1] -> Conv1D -> BatchNorm -> ReLU -> global max pool
Branch B: input [B, 16, 1] -> GRU -> Flatten
Head:     Concatenate(A, B) -> Dense(hidden, relu) -> Dense(classes, softmax)

The topology is fixed; only four sizes vary: the input length, the conv
filters, the GRU units and the class count. The weights bundle, one text
manifest holding the weights, the fitted normalizer and the class map, is
written by `save_weights` and read by `load_bundle`; no other module knows
its keys.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter

import numpy as np

from . import layers
from .dataio import FeatureSpec, LabelMap
from .errors import ConfigError, DataError, NumericError, ShapeError, WeightFormatError
from .fileio import atomic_write
from .layers import (BatchNormParams, Conv1DParams, DenseParams, GRUParams,
                     GRU_FIELDS)
from .numerics import (DOUBLE, PRECISIONS, init_he_uniform, init_truncated_normal,
                       substream)

# Most weights an Architecture may have: 229 times the 4370 of the default
# model, so a mistyped size is refused instead of exhausting memory.
MAX_PARAMETERS = 1_000_000

MANIFEST_MAGIC = "botclf-weights"
MANIFEST_VERSION = 1
_VALUES_PER_LINE = 8


# standard deviation of the GRU weights' truncated-normal init
TRUNCATED_NORMAL_STDDEV = 0.05

# Rows per pass of the infer-mode forward, which sizes its two work buffers
# (1,150,976 B in double for the default model, within a 2 MB L2 cache).
# It divides dataio.CHUNK_ROWS, so the reader's chunks split into the same
# passes as one call over the whole set and score bit for bit alike.
PASS_ROWS = 256


@dataclass(frozen=True)
class Architecture:
    """The four sizes a caller sets of the fixed topology (ReLU and a global
    max pool on the conv branch, a ReLU hidden layer); defaults give the
    4370-parameter model. The input channels, the conv kernel width and the
    hidden dense width are constants of the topology, not fields."""

    seq_len: int = 16
    filters: int = 128
    gru_units: int = 10
    classes: int = 6
    in_channels = 1
    kernel_size = 3
    dense_units = 10

    def __post_init__(self):
        for name in _SIZE_FIELDS:
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be at least 1, got {value}")
        total = sum(map(math.prod, _shapes(self).values()))
        if total > MAX_PARAMETERS:
            name = max(_SIZE_FIELDS, key=lambda n: getattr(self, n))
            raise ConfigError(f"{name} {getattr(self, name)} gives the model {total} "
                              f"parameters, more than the {MAX_PARAMETERS} allowed")

    @property
    def concat_width(self) -> int:
        return self.filters + self.seq_len * self.gru_units


_SIZE_FIELDS = [f.name for f in fields(Architecture)]


def _shapes(a: Architecture) -> dict:
    """{name: shape} of every weight array of `a`, in the fixed manifest order."""
    c, k, d = a.in_channels, a.kernel_size, a.dense_units
    shapes = {"conv.kernels": (k, c, a.filters), "conv.bias": (a.filters,)}
    shapes.update({f"bn.{n}": (a.filters,)
                   for n in ("gamma", "beta", "moving_mean", "moving_var")})
    gru = {"w": (c, a.gru_units), "u": (a.gru_units, a.gru_units)}
    shapes.update({f"gru.{n}": gru.get(n[0], (a.gru_units,)) for n in GRU_FIELDS})
    shapes.update({"dense_hidden.weights": (a.concat_width, d),
                   "dense_hidden.bias": (d,),
                   "dense_out.weights": (d, a.classes),
                   "dense_out.bias": (a.classes,)})
    return shapes


_ARRAY_GETTERS = [(name, attrgetter(name)) for name in _shapes(Architecture())]
_TRAINABLE_NAMES = tuple(n for n, _ in _ARRAY_GETTERS
                         if n not in ("bn.moving_mean", "bn.moving_var"))
_get_trainable = attrgetter(*_TRAINABLE_NAMES)
# (layer, key) of each trainable array, in the order of `params.flat`
_TRAINABLE_KEYS = tuple(tuple(name.split(".")) for name in _TRAINABLE_NAMES)
# the container class of each layer prefix of the array names
_CONTAINERS = {"conv": Conv1DParams, "bn": BatchNormParams, "gru": GRUParams,
               "dense_hidden": DenseParams, "dense_out": DenseParams}


def _views(buffer: np.ndarray, shapes) -> dict:
    """{name: view of `buffer`} for (name, shape) pairs laid out back to back."""
    views, start = {}, 0
    for name, shape in shapes:
        size = math.prod(shape)
        views[name] = buffer[start:start + size].reshape(shape)
        start += size
    return views


@dataclass(frozen=True)
class NetworkParameters:
    """The weights of one model. Every trainable array is a view into `flat`,
    one contiguous buffer laid out in `trainable_arrays()` order, so the
    optimizer updates all of them at once; the moving statistics are
    separate arrays. This container and the layer containers are frozen:
    arrays are updated in place, and rebinding one (which would detach it
    from `flat`) raises FrozenInstanceError.

    `work` holds the infer-mode forward's two byte buffers, sized for one
    pass of at most PASS_ROWS rows and kept for the next pass and the next
    call: "concat", the [B, concat_width] concatenation that the pool and
    the GRU's hidden states are written into, and `layers.STAGE`, which
    holds first the conv's padded input and accumulators and then, once
    they are dead, the GRU's states, pre-activations and diff. It starts
    empty, and nothing derived from the weights is kept in it; two infer
    calls on one model must not run at once."""

    conv: Conv1DParams
    bn: BatchNormParams
    gru: GRUParams
    dense_hidden: DenseParams
    dense_out: DenseParams
    arch: Architecture
    flat: np.ndarray
    work: dict = field(default_factory=dict, repr=False, compare=False)

    def named_arrays(self):
        """All weight arrays as (name, array), in the fixed manifest order."""
        return [(name, get(self)) for name, get in _ARRAY_GETTERS]

    def trainable_arrays(self):
        """(name, array) for every optimizer-owned weight; moving stats excluded."""
        return list(zip(_TRAINABLE_NAMES, _get_trainable(self)))

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
            shapes[f"gru.{name}"], TRUNCATED_NORMAL_STDDEV, rng, dtype)
    return _assemble(arrays, arch)


def _assemble(arrays: dict, arch: Architecture) -> NetworkParameters:
    """NetworkParameters holding the values of a {name: array} dict keyed like
    `named_arrays`; the trainable ones are copied into one buffer."""
    trainable = [(name, arrays[name].shape) for name in _TRAINABLE_NAMES]
    flat = np.empty(sum(math.prod(shape) for _, shape in trainable),
                    dtype=arrays["conv.kernels"].dtype)
    views = _views(flat, trainable)
    for name, view in views.items():
        view[...] = arrays[name]
    arrays = {**arrays, **views}
    layer_arrays = {prefix: {} for prefix in _CONTAINERS}
    for name, _ in _ARRAY_GETTERS:
        prefix, key = name.split(".")
        layer_arrays[prefix][key] = arrays[name]
    return NetworkParameters(**{prefix: container(**layer_arrays[prefix])
                                for prefix, container in _CONTAINERS.items()},
                             arch=arch, flat=flat)


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


def _conv_max_over_time(x: np.ndarray, conv: Conv1DParams, out: np.ndarray,
                        work: dict) -> None:
    """out[:] = max over time of the conv1d ("same" padding) of x: [B, T, C]
    -> [B, filters].

    One [B, filters] window product per time step, max-accumulated, so the
    [B, T, filters] conv output is never stored. The bias is added after
    the max, which is exact: rounding y + b is monotone in y. The padded
    input, the accumulator and the product are cut from `work`'s
    `layers.STAGE` buffer, which the GRU reuses once this returns.
    """
    k, c_in, filters = conv.kernels.shape
    b, t, _ = x.shape
    pad_l = (k - 1) // 2
    xp, acc, product = layers.work_arrays(work, layers.STAGE,
                                          ((b, t + k - 1, c_in), x.dtype),
                                          ((b, filters), out.dtype),
                                          ((b, filters), out.dtype))
    xp[:, :pad_l] = 0.0
    xp[:, pad_l:pad_l + t] = x
    xp[:, pad_l + t:] = 0.0
    w = conv.kernels.reshape(k * c_in, filters)
    np.matmul(xp[:, :k, :].reshape(-1, k * c_in), w, out=acc)
    for i in range(1, t):
        np.matmul(xp[:, i:i + k, :].reshape(-1, k * c_in), w, out=product)
        np.maximum(acc, product, out=acc)
    np.add(acc, conv.bias, out=out)


def forward(params: NetworkParameters, x: np.ndarray, mode: str = "infer"):
    """x: [B, seq_len, in_channels] -> (probs [B, classes], caches).

    Each output row is a probability vector summing to 1. In "train" mode
    the batchnorm uses the batch statistics and updates the moving ones,
    and the caches feed `backward`; `fit` trains in it and `gradient_check`
    differentiates it. "infer" mode scores with the moving statistics, in
    the parameters' precision and in passes of PASS_ROWS rows, and
    returns (probs, None). There the batchnorm is folded into the conv, and
    the max over time runs before the ReLU, which is exact because ReLU is
    monotone non-decreasing; the ReLU then sees [B, filters] instead of
    [B, seq_len, filters]. Infer mode raises NumericError if any
    probability is non-finite, so a broken model never yields a prediction.
    Its passes run in arrays cut from `params.work`, which the returned
    probs never share.
    """
    a = params.arch
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    x = np.asarray(x, dtype=params.dtype if mode == "infer" else None)
    if x.ndim != 3 or x.shape[1] != a.seq_len or x.shape[2] != a.in_channels:
        raise ShapeError(
            f"expected input of shape (batch, {a.seq_len}, {a.in_channels}), got {x.shape}")

    if mode == "train":
        pool_y, c_branch = layers.conv_branch_forward(x, params.conv, params.bn)
        gru_y, c_gru = layers.gru_forward(x, params.gru)
        concat_y = np.concatenate([pool_y, gru_y.reshape(x.shape[0], -1)], axis=1)
        hidden_y, c_hidden = layers.dense_forward(concat_y, params.dense_hidden, "relu")
        probs, c_out = layers.dense_forward(hidden_y, params.dense_out, "softmax")
        return probs, (c_branch, c_gru, c_hidden, c_out)

    work = params.work
    conv = _folded_conv(params)
    out = np.empty((x.shape[0], a.classes), dtype=params.dtype)
    for start in range(0, x.shape[0], PASS_ROWS):
        xb = x[start:start + PASS_ROWS]
        rows = xb.shape[0]
        concat_y, = layers.work_arrays(work, "concat", ((rows, a.concat_width), params.dtype))
        pooled = concat_y[:, :a.filters]
        _conv_max_over_time(xb, conv, pooled, work)
        np.maximum(pooled, 0.0, out=pooled)  # relu
        layers.gru_forward(xb, params.gru, work=work,
                           out=concat_y[:, a.filters:].reshape(rows, a.seq_len, a.gru_units))
        hidden_y, _ = layers.dense_forward(concat_y, params.dense_hidden, "relu")
        probs, _ = layers.dense_forward(hidden_y, params.dense_out, "softmax")
        finite = np.isfinite(probs).all(axis=1)
        if not finite.all():
            raise NumericError(f"non-finite class probabilities for "
                               f"{int((~finite).sum())} of {rows} rows in a batch")
        out[start:start + rows] = probs
    return out, None


def backward(params: NetworkParameters, caches: tuple, dlogits: np.ndarray):
    """Gradient of the loss w.r.t. every trainable weight, as one array laid
    out like `params.flat` and in its precision; `params.trainable_views`
    splits it by name.

    `caches` is what a train-mode `forward` returns beside the probs: the
    (conv branch, GRU, hidden dense, output dense) layer caches. `dlogits`
    is the loss gradient w.r.t. the final dense layer's pre-softmax logits,
    as produced by the cross-entropy loss. The input is data, so no
    gradient w.r.t. it is formed.
    """
    c_branch, c_gru, c_hidden, c_out = caches
    d_hidden_out, g_out = layers.dense_backward(c_out, dlogits)
    d_concat, g_hidden = layers.dense_backward(c_hidden, d_hidden_out)
    a = params.arch
    d_pool, d_flat = d_concat[:, :a.filters], d_concat[:, a.filters:]

    g_branch = layers.conv_branch_backward(c_branch, d_pool)  # keyed for "conv" and "bn"
    grads = {"conv": g_branch, "bn": g_branch, "dense_hidden": g_hidden, "dense_out": g_out,
             "gru": layers.gru_backward(c_gru, d_flat.reshape(-1, a.seq_len, a.gru_units))}
    return np.concatenate([grads[layer][key].ravel() for layer, key in _TRAINABLE_KEYS],
                          dtype=params.dtype)


def param_count(arch: Architecture):
    """(total, trainable, non_trainable) weights of `arch`, exact integer accounting."""
    sizes = {name: math.prod(shape) for name, shape in _shapes(arch).items()}
    total = sum(sizes.values())
    trainable = sum(sizes[name] for name in _TRAINABLE_NAMES)
    return total, trainable, total - trainable


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


def summary(a: Architecture) -> ModelSummary:
    """Per-layer output shapes and parameter counts of `a`, in graph build order."""
    count = Counter()
    for name, shape in _shapes(a).items():
        count[name.split(".")[0]] += math.prod(shape)
    rows = (
        SummaryRow("InputLayer", (None, a.seq_len, a.in_channels), 0),
        SummaryRow("Conv1D", (None, a.seq_len, a.filters), count["conv"]),
        SummaryRow("BatchNormalization", (None, a.seq_len, a.filters), count["bn"]),
        SummaryRow("GRU", (None, a.seq_len, a.gru_units), count["gru"]),
        SummaryRow("Activation", (None, a.seq_len, a.filters), 0),
        SummaryRow("Flatten", (None, a.seq_len * a.gru_units), 0),
        SummaryRow("GlobalMaxPooling1D", (None, a.filters), 0),
        SummaryRow("Concatenate", (None, a.concat_width), 0),
        SummaryRow("dense (Dense)", (None, a.dense_units), count["dense_hidden"]),
        SummaryRow("dense_1 (Dense)", (None, a.classes), count["dense_out"]),
    )
    return ModelSummary(rows, *param_count(a))


# --------------------------------------------------------------------------
# weight manifest: versioned, name-keyed, human-readable text


# The constants of the fixed topology, as the meta text every manifest
# carries them in.
_CONSTANT_META = {"in_channels": str(Architecture.in_channels),
                  "kernel_size": str(Architecture.kernel_size),
                  "dense_units": str(Architecture.dense_units),
                  "bn_epsilon": str(BatchNormParams.epsilon),
                  "bn_momentum": str(BatchNormParams.momentum),
                  "truncated_normal_stddev": str(TRUNCATED_NORMAL_STDDEV)}
# Each of these meta keys loads only at this one text: the constants, and the
# keys that manifests written before the topology was fixed carry.
_FIXED_META = {**_CONSTANT_META,
               "pooling": "max", "conv_activation": "relu", "dense_activation": "relu"}


def _digits(text: str) -> int | None:
    """The value of `text` if it is at most 18 plain ASCII digits, as the
    writer emits every integer, else None. `int()` alone would also take a
    sign, underscores and other scripts' digits, and raises ValueError past
    `sys.get_int_max_str_digits()` digits; 18 digits hold any size that
    MAX_PARAMETERS admits, and more are refused like any other bad text."""
    if len(text) <= 18 and text.isascii() and text.isdigit():
        return int(text)
    return None


def _meta_architecture(meta: dict) -> Architecture:
    """The Architecture of the manifest meta's four sizes; an absent size is
    the default."""
    for key, value in _FIXED_META.items():
        if meta.get(key, value) != value:
            raise WeightFormatError(
                f"manifest meta {key}: only {value!r} is supported, got {meta[key]!r}")
    sizes = {}
    for f in fields(Architecture):
        raw = meta.get(f.name, str(f.default))
        sizes[f.name] = _digits(raw)
        if sizes[f.name] is None:
            raise WeightFormatError(f"manifest meta {f.name}: expected int, got {raw!r}")
    try:
        return Architecture(**sizes)
    except ConfigError as exc:
        raise WeightFormatError(f"manifest meta {exc}") from None


def save_weights(params: NetworkParameters, path, spec: FeatureSpec,
                 label_map: LabelMap) -> None:
    """Write the weights bundle: a versioned text manifest of every weight
    array, the fitted normalizer and the class map.

    Layer order in the file is fixed (`named_arrays` order, then `norm.min`
    and `norm.max`) but loading is name-keyed, so a reordered file still
    loads. Values are decimal and round-trip bit-exactly at the stored
    precision. The file is replaced atomically: a failed save leaves the
    previous one intact.
    """
    tensors = [*params.named_arrays(), ("norm.min", spec.mins), ("norm.max", spec.maxs)]
    meta = {"precision": next(n for n, t in PRECISIONS.items() if t == params.dtype),
            **{name: str(getattr(params.arch, name)) for name in _SIZE_FIELDS},
            **_CONSTANT_META,
            "feature_names": ",".join(spec.names),
            "class_names": ",".join(label_map.names),
            "class_pairs": ";".join(f"{c},{s}" for c, s in label_map.pairs)}
    with atomic_write(path) as fh:
        fh.write(f"{MANIFEST_MAGIC} {MANIFEST_VERSION}\n")
        for key in sorted(meta):
            fh.write(f"meta {key} {meta[key]}\n")
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
    on truncation, malformed content, a non-finite value, a tensor or meta
    key given twice or bytes that are not UTF-8.
    """
    tensors: dict[str, np.ndarray] = {}
    meta: dict[str, str] = {}
    current = None            # (name, shape, values) of the tensor being read

    def fail(what, at):
        raise WeightFormatError(f"{path}: {what} (at byte {at})") from None

    def close(at):
        if current is not None:
            name, shape, values = current
            if len(values) != math.prod(shape):
                fail(f"tensor {name} needs {math.prod(shape)} values, got {len(values)}", at)
            tensors[name] = np.array(values, dtype=np.float64).reshape(shape)

    offset = 0
    with open(path, "rb") as fh:
        for raw in fh:
            at, offset = offset, offset + len(raw)
            try:
                words = raw.decode("utf-8").split()
            except UnicodeDecodeError as exc:
                fail("not UTF-8 text", at + exc.start)
            if at == 0:  # the header line
                if len(words) != 2 or words[0] != MANIFEST_MAGIC:
                    fail("not a weight manifest", 0)
                if _digits(words[1]) != MANIFEST_VERSION:
                    fail(f"unsupported manifest version {words[1]!r} "
                         f"(expected {MANIFEST_VERSION})", 0)
            elif not words:
                continue
            elif words[0] == "meta":
                close(at)
                current = None
                if len(words) < 3:
                    fail("malformed meta line", at)
                if words[1] in meta:
                    fail(f"meta {words[1]} given twice", at)
                meta[words[1]] = " ".join(words[2:])
            elif words[0] == "tensor":
                close(at)
                if len(words) < 2:
                    fail("malformed tensor line", at)
                if words[1] in tensors:
                    fail(f"tensor {words[1]} given twice", at)
                shape = tuple(map(_digits, words[2:]))
                if None in shape:
                    fail(f"bad tensor dims for {words[1]}", at)
                current = (words[1], shape, [])
            elif current is None:
                fail(f"unexpected content {words[0]!r}", at)
            else:
                try:
                    values = [float(tok) for tok in words]
                except ValueError:
                    fail(f"non-numeric value in tensor {current[0]}", at)
                if not all(map(math.isfinite, values)):
                    fail(f"non-finite value in tensor {current[0]}", at)
                current[2].extend(values)
    if offset == 0:
        fail("empty weight manifest", 0)
    close(offset)
    return tensors, meta


def params_from_manifest(tensors: dict, meta: dict) -> NetworkParameters:
    """Assemble NetworkParameters from parsed manifest content.

    The meta sizes are checked first, as an Architecture (each at least 1,
    at most MAX_PARAMETERS weights in all), and every tensor's shape against
    them before anything is allocated, so an oversized meta size cannot
    allocate. A value that overflows the manifest's precision, or a negative
    moving variance, is refused by tensor name.
    """
    arch = _meta_architecture(meta)
    precision = meta.get("precision", "double")
    if precision not in PRECISIONS:
        raise WeightFormatError(f"manifest meta precision: unknown precision {precision!r}; "
                                f"expected {' or '.join(map(repr, PRECISIONS))}")
    dtype = PRECISIONS[precision]
    shapes = _shapes(arch)
    missing = [n for n in shapes if n not in tensors]
    if missing:
        raise WeightFormatError(f"manifest is missing tensors: {', '.join(sorted(missing))}")
    for name, shape in shapes.items():
        if tensors[name].shape != shape:
            raise WeightFormatError(
                f"tensor {name} has shape {tensors[name].shape}, architecture expects {shape}")
    arrays = {}
    with np.errstate(over="ignore"):
        for name in shapes:
            arrays[name] = tensors[name].astype(dtype)
            if not np.isfinite(arrays[name]).all():
                raise WeightFormatError(f"tensor {name} holds a value out of the range "
                                        f"of {precision} precision")
    if (arrays["bn.moving_var"] < 0).any():
        raise WeightFormatError("tensor bn.moving_var holds a negative value; "
                                "a variance cannot be negative")
    return _assemble(arrays, arch)


def load_bundle(path, spec: FeatureSpec, label_map: LabelMap):
    """(params, fitted FeatureSpec, LabelMap) from a `save_weights` file.

    `spec` and `label_map` stand in for feature names or a class map the
    file lacks. A missing normalizer, one whose length differs from the
    feature names, a feature whose norm.min is above its norm.max, a malformed
    or one-key class map, or feature names or classes not numbering the
    model's meta seq_len and classes is a WeightFormatError.
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
    inverted = np.flatnonzero(mins > maxs)
    if inverted.size:
        i = inverted[0]
        raise WeightFormatError(f"{path}: normalizer of feature {spec.names[i]!r} has norm.min "
                                f"{float(mins[i])!r} above norm.max {float(maxs[i])!r}")
    spec = replace(spec, mins=mins, maxs=maxs)
    if ("class_pairs" in meta) != ("class_names" in meta):
        raise WeightFormatError(f"{path}: manifest meta holds class_pairs or class_names alone")
    if "class_pairs" in meta:
        pairs = tuple(tuple(entry.split(",", 1)) for entry in meta["class_pairs"].split(";"))
        names = tuple(meta["class_names"].split(","))
        if len(names) != len(pairs) or any(len(pair) != 2 for pair in pairs):
            raise WeightFormatError(f"{path}: manifest meta class_pairs and class_names "
                                    "do not form one class map")
        try:
            label_map = LabelMap(pairs=pairs, names=names)
        except DataError as exc:
            raise WeightFormatError(f"{path}: manifest meta class_pairs: {exc}") from None
    arch = params.arch
    if len(spec.names) != arch.seq_len:
        raise WeightFormatError(f"{path}: manifest meta seq_len {arch.seq_len} does not "
                                f"match the {len(spec.names)} feature names")
    if label_map.num_classes != arch.classes:
        raise WeightFormatError(f"{path}: manifest meta classes {arch.classes} does not "
                                f"match the {label_map.num_classes} classes of the class map")
    return params, spec, label_map
