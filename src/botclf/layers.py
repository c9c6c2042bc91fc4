"""Layer forward/backward passes: Conv1D, BatchNorm, GRU, Dense, pooling.

All sequence activations are shaped [batch, time, channels]; flat
activations are [batch, features]. Every forward returns (output, cache)
and every backward consumes its cache exactly once, returning the input
gradient plus a dict of parameter gradients. Gradients are hand-derived;
the test suite checks each of them against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CacheReusedError, ShapeError
from .numerics import d_relu, relu, sigmoid, softmax, tanh


@dataclass
class Cache:
    """Saved forward intermediates; single-use."""

    data: dict = field(default_factory=dict)
    consumed: bool = False

    def consume(self, layer: str) -> dict:
        if self.consumed:
            raise CacheReusedError(f"{layer} backward called twice on the same cache")
        self.consumed = True
        return self.data


# --------------------------------------------------------------------------
# parameter containers


@dataclass
class Conv1DParams:
    kernels: np.ndarray  # [kernel_size, in_channels, filters]
    bias: np.ndarray     # [filters]

    @property
    def count(self) -> int:
        return self.kernels.size + self.bias.size


@dataclass
class BatchNormParams:
    gamma: np.ndarray        # [channels], trainable
    beta: np.ndarray         # [channels], trainable
    moving_mean: np.ndarray  # [channels], non-trainable
    moving_var: np.ndarray   # [channels], non-trainable
    epsilon: float = 1e-3
    momentum: float = 0.99

    @property
    def count(self) -> int:
        return self.gamma.size + self.beta.size + self.moving_mean.size + self.moving_var.size

    @property
    def trainable_count(self) -> int:
        return self.gamma.size + self.beta.size


@dataclass
class GRUParams:
    """Dual-bias GRU: separate input-side (b_*) and recurrent-side (rb_*)
    biases, with the recurrent candidate bias applied inside the reset
    product. Parameter count is 3 * units * (input_dim + units + 2)."""

    w_z: np.ndarray   # [input_dim, units]
    w_r: np.ndarray
    w_h: np.ndarray
    u_z: np.ndarray   # [units, units]
    u_r: np.ndarray
    u_h: np.ndarray
    b_z: np.ndarray   # [units]
    b_r: np.ndarray
    b_h: np.ndarray
    rb_z: np.ndarray  # [units]
    rb_r: np.ndarray
    rb_h: np.ndarray

    @property
    def units(self) -> int:
        return self.u_z.shape[0]

    @property
    def count(self) -> int:
        return sum(getattr(self, name).size for name in GRU_FIELDS)


GRU_FIELDS = ("w_z", "w_r", "w_h", "u_z", "u_r", "u_h",
              "b_z", "b_r", "b_h", "rb_z", "rb_r", "rb_h")


@dataclass
class DenseParams:
    weights: np.ndarray  # [in, out]
    bias: np.ndarray     # [out]

    @property
    def count(self) -> int:
        return self.weights.size + self.bias.size


# --------------------------------------------------------------------------
# Conv1D, stride 1, "same" zero padding


def conv1d_forward(x: np.ndarray, p: Conv1DParams):
    """x: [B, T, C_in] -> y: [B, T, filters]."""
    k, c_in, filters = p.kernels.shape
    if x.ndim != 3 or x.shape[2] != c_in:
        raise ShapeError(f"conv1d expects input channels {c_in}, got input shape {x.shape}")
    b, t, _ = x.shape
    pad_l = (k - 1) // 2
    pad_r = k - 1 - pad_l
    xp = np.pad(x, ((0, 0), (pad_l, pad_r), (0, 0)))
    # [B, T, k*C_in]: window k around each output position
    cols = np.stack([xp[:, i:i + t, :] for i in range(k)], axis=2).reshape(b, t, k * c_in)
    w = p.kernels.reshape(k * c_in, filters)
    y = cols @ w + p.bias
    cache = Cache({"cols": cols, "kernels": p.kernels, "pad_l": pad_l, "in_shape": x.shape})
    return y, cache


def conv1d_backward(cache: Cache, dy: np.ndarray):
    d = cache.consume("conv1d")
    cols, kernels, pad_l = d["cols"], d["kernels"], d["pad_l"]
    b, t, c_in = d["in_shape"]
    k, _, filters = kernels.shape
    w = kernels.reshape(k * c_in, filters)
    dw = cols.reshape(b * t, k * c_in).T @ dy.reshape(b * t, filters)
    db = dy.sum(axis=(0, 1))
    dcols = (dy @ w.T).reshape(b, t, k, c_in)
    dxp = np.zeros((b, t + k - 1, c_in), dtype=dy.dtype)
    for i in range(k):
        dxp[:, i:i + t, :] += dcols[:, :, i, :]
    dx = dxp[:, pad_l:pad_l + t, :]
    return dx, {"kernels": dw.reshape(k, c_in, filters), "bias": db}


# --------------------------------------------------------------------------
# Batch normalization over (batch, time) per channel


def batchnorm_forward(x: np.ndarray, p: BatchNormParams, training: bool):
    """Normalize each channel over all (batch, time) positions.

    Train mode uses batch statistics and updates the moving statistics via
    exponential moving average; infer mode uses the moving statistics and
    is a deterministic affine map.
    """
    c = p.gamma.size
    if x.ndim != 3 or x.shape[2] != c:
        raise ShapeError(f"batchnorm expects {c} channels, got input shape {x.shape}")
    if training:
        m = x.shape[0] * x.shape[1]
        if m < 2:
            raise ShapeError("batchnorm train mode needs at least 2 positions per channel")
        mean = x.mean(axis=(0, 1))
        var = x.var(axis=(0, 1))
        p.moving_mean[:] = p.momentum * p.moving_mean + (1.0 - p.momentum) * mean
        p.moving_var[:] = p.momentum * p.moving_var + (1.0 - p.momentum) * var
    else:
        m = 0
        mean = p.moving_mean
        var = p.moving_var
    inv = 1.0 / np.sqrt(var + p.epsilon)
    xhat = (x - mean) * inv
    y = p.gamma * xhat + p.beta
    cache = Cache({"xhat": xhat, "inv": inv, "gamma": p.gamma, "m": m, "training": training})
    return y, cache


def batchnorm_backward(cache: Cache, dy: np.ndarray):
    d = cache.consume("batchnorm")
    xhat, inv, gamma = d["xhat"], d["inv"], d["gamma"]
    dgamma = (dy * xhat).sum(axis=(0, 1))
    dbeta = dy.sum(axis=(0, 1))
    dxhat = dy * gamma
    if d["training"]:
        m = d["m"]
        dx = (inv / m) * (m * dxhat
                          - dxhat.sum(axis=(0, 1))
                          - xhat * (dxhat * xhat).sum(axis=(0, 1)))
    else:
        dx = dxhat * inv
    return dx, {"gamma": dgamma, "beta": dbeta}


# --------------------------------------------------------------------------
# GRU (returns the full hidden-state sequence)


def gru_forward(x: np.ndarray, p: GRUParams, h0: np.ndarray | None = None):
    """x: [B, T, input_dim] -> h_seq: [B, T, units].

    Per step: z = sigma(x W_z + h U_z + b_z + rb_z)
              r = sigma(x W_r + h U_r + b_r + rb_r)
              hcand = tanh(x W_h + b_h + r * (h U_h + rb_h))
              h <- (1 - z) * h + z * hcand
    """
    input_dim = p.w_z.shape[0]
    if x.ndim != 3 or x.shape[2] != input_dim:
        raise ShapeError(f"gru expects input dim {input_dim}, got input shape {x.shape}")
    b, t, _ = x.shape
    units = p.units
    if h0 is None:
        h = np.zeros((b, units), dtype=x.dtype)
    else:
        h0 = np.asarray(h0)
        if h0.shape[-1] != units:
            raise ShapeError(f"gru h0 must have {units} units, got shape {h0.shape}")
        h = np.broadcast_to(h0, (b, units)).astype(x.dtype, copy=True)
    h_seq = np.empty((b, t, units), dtype=x.dtype)
    steps = []
    for i in range(t):
        xt = x[:, i, :]
        z = sigmoid(xt @ p.w_z + h @ p.u_z + p.b_z + p.rb_z)
        r = sigmoid(xt @ p.w_r + h @ p.u_r + p.b_r + p.rb_r)
        inner = h @ p.u_h + p.rb_h
        hcand = tanh(xt @ p.w_h + p.b_h + r * inner)
        h_new = (1.0 - z) * h + z * hcand
        steps.append((xt, h, z, r, inner, hcand))
        h_seq[:, i, :] = h_new
        h = h_new
    cache = Cache({"steps": steps, "params": p, "in_shape": x.shape})
    return h_seq, cache


def gru_infer(x: np.ndarray, p: GRUParams) -> np.ndarray:
    """Forward-only `gru_forward` from a zero state, without a cache.

    The input projections of all three gates are computed for every step
    at once before the time loop, and the z and r recurrent products
    share one matmul per step. Only the order of the floating-point
    operations differs from `gru_forward`: the pre-activation sums, and
    the update written as h + z * (hcand - h).
    """
    b, t, c = x.shape
    units = p.units
    w = np.concatenate([p.w_z, p.w_r, p.w_h], axis=1)
    bias = np.concatenate([p.b_z + p.rb_z, p.b_r + p.rb_r, p.b_h])
    # time-major [T, B, 3U], so each step reads one contiguous block
    x_proj = x.transpose(1, 0, 2).reshape(t * b, c) @ w
    x_proj += bias
    x_proj = x_proj.reshape(t, b, 3 * units)
    u_zr = np.concatenate([p.u_z, p.u_r], axis=1)
    h = np.zeros((b, units), dtype=x.dtype)
    h_seq = np.empty((b, t, units), dtype=x.dtype)
    for i in range(t):
        zr = sigmoid(x_proj[i, :, :2 * units] + h @ u_zr)
        z, r = zr[:, :units], zr[:, units:]
        hcand = tanh(x_proj[i, :, 2 * units:] + r * (h @ p.u_h + p.rb_h))
        h = h + z * (hcand - h)
        h_seq[:, i, :] = h
    return h_seq


def gru_backward(cache: Cache, dh_seq: np.ndarray):
    """Backprop through time; returns (dx, grads, dh0)."""
    d = cache.consume("gru")
    steps, p = d["steps"], d["params"]
    b, t, input_dim = d["in_shape"]
    grads = {name: np.zeros_like(getattr(p, name)) for name in GRU_FIELDS}
    dx = np.empty((b, t, input_dim), dtype=dh_seq.dtype)
    dh_next = np.zeros((b, p.units), dtype=dh_seq.dtype)
    for i in range(t - 1, -1, -1):
        xt, h_prev, z, r, inner, hcand = steps[i]
        dh = dh_seq[:, i, :] + dh_next
        dz = dh * (hcand - h_prev)
        da_z = dz * z * (1.0 - z)
        dhcand = dh * z
        da_h = dhcand * (1.0 - hcand * hcand)
        dr = da_h * inner
        da_r = dr * r * (1.0 - r)
        dinner = da_h * r

        grads["w_z"] += xt.T @ da_z
        grads["u_z"] += h_prev.T @ da_z
        grads["b_z"] += da_z.sum(axis=0)
        grads["rb_z"] += da_z.sum(axis=0)
        grads["w_r"] += xt.T @ da_r
        grads["u_r"] += h_prev.T @ da_r
        grads["b_r"] += da_r.sum(axis=0)
        grads["rb_r"] += da_r.sum(axis=0)
        grads["w_h"] += xt.T @ da_h
        grads["b_h"] += da_h.sum(axis=0)
        grads["u_h"] += h_prev.T @ dinner
        grads["rb_h"] += dinner.sum(axis=0)

        dx[:, i, :] = da_z @ p.w_z.T + da_r @ p.w_r.T + da_h @ p.w_h.T
        dh_next = (dh * (1.0 - z)
                   + da_z @ p.u_z.T
                   + da_r @ p.u_r.T
                   + dinner @ p.u_h.T)
    return dx, grads, dh_next


# --------------------------------------------------------------------------
# activation layer (after the conv branch's batchnorm)

_ACTIVATIONS = ("relu", "linear", "tanh")


def activation_forward(x: np.ndarray, kind: str = "relu"):
    if kind not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {kind!r}; expected one of {_ACTIVATIONS}")
    if kind == "relu":
        y = relu(x)
    elif kind == "tanh":
        y = tanh(x)
    else:
        y = x
    return y, Cache({"x": x, "kind": kind})


def activation_backward(cache: Cache, dy: np.ndarray):
    d = cache.consume("activation")
    x, kind = d["x"], d["kind"]
    if kind == "relu":
        dx = dy * d_relu(x)
    elif kind == "tanh":
        th = tanh(x)
        dx = dy * (1.0 - th * th)
    else:
        dx = dy
    return dx, {}


# --------------------------------------------------------------------------
# global pooling over time


def global_max_pool(x: np.ndarray):
    """x: [B, T, C] -> y: [B, C]; gradient flows to the first argmax per channel."""
    if x.ndim != 3 or x.shape[1] < 1:
        raise ShapeError(f"global pooling expects [batch, time, channels], got {x.shape}")
    idx = x.argmax(axis=1)  # first occurrence on ties
    y = np.take_along_axis(x, idx[:, None, :], axis=1)[:, 0, :]
    return y, Cache({"idx": idx, "in_shape": x.shape})


def global_max_pool_backward(cache: Cache, dy: np.ndarray):
    d = cache.consume("global_max_pool")
    dx = np.zeros(d["in_shape"], dtype=dy.dtype)
    np.put_along_axis(dx, d["idx"][:, None, :], dy[:, None, :], axis=1)
    return dx, {}


def global_avg_pool(x: np.ndarray):
    if x.ndim != 3 or x.shape[1] < 1:
        raise ShapeError(f"global pooling expects [batch, time, channels], got {x.shape}")
    return x.mean(axis=1), Cache({"in_shape": x.shape})


def global_avg_pool_backward(cache: Cache, dy: np.ndarray):
    d = cache.consume("global_avg_pool")
    b, t, c = d["in_shape"]
    return np.broadcast_to(dy[:, None, :] / t, (b, t, c)).astype(dy.dtype), {}


# --------------------------------------------------------------------------
# flatten / concatenate


def flatten(x: np.ndarray):
    """[B, T, C] -> [B, T*C], row-major; element (t, c) lands at t*C + c."""
    b = x.shape[0]
    return x.reshape(b, -1), Cache({"in_shape": x.shape})


def flatten_backward(cache: Cache, dy: np.ndarray):
    d = cache.consume("flatten")
    return dy.reshape(d["in_shape"]), {}


def concatenate(a: np.ndarray, b: np.ndarray):
    """[B, m] + [B, n] -> [B, m + n], a first."""
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"concatenate batch mismatch: {a.shape} vs {b.shape}")
    return np.concatenate([a, b], axis=1), Cache({"split": a.shape[1]})


def concatenate_backward(cache: Cache, dy: np.ndarray):
    d = cache.consume("concatenate")
    m = d["split"]
    return (dy[:, :m], dy[:, m:]), {}


# --------------------------------------------------------------------------
# dense

_DENSE_ACTIVATIONS = ("relu", "linear", "softmax")


def dense_forward(x: np.ndarray, p: DenseParams, activation: str = "linear"):
    """y = activation(x W + b); x: [B, in] -> y: [B, out]."""
    if activation not in _DENSE_ACTIVATIONS:
        raise ValueError(f"unknown dense activation {activation!r}")
    if x.ndim != 2 or x.shape[1] != p.weights.shape[0]:
        raise ShapeError(
            f"dense expects input width {p.weights.shape[0]}, got input shape {x.shape}")
    pre = x @ p.weights + p.bias
    if activation == "relu":
        y = relu(pre)
    elif activation == "softmax":
        y = softmax(pre)
    else:
        y = pre
    return y, Cache({"x": x, "pre": pre, "y": y, "weights": p.weights,
                     "activation": activation})


def dense_backward(cache: Cache, dy: np.ndarray, wrt: str = "output"):
    """Backward pass for a dense layer.

    `wrt="output"` treats dy as the gradient w.r.t. the activated output;
    `wrt="preact"` treats dy as the gradient w.r.t. the pre-activation
    (used when a softmax+cross-entropy loss supplies the combined logit
    gradient directly).
    """
    d = cache.consume("dense")
    x, pre, y, w, activation = d["x"], d["pre"], d["y"], d["weights"], d["activation"]
    if wrt == "preact":
        dpre = dy
    elif activation == "relu":
        dpre = dy * d_relu(pre)
    elif activation == "softmax":
        dpre = y * (dy - (dy * y).sum(axis=1, keepdims=True))
    else:
        dpre = dy
    dw = x.T @ dpre
    db = dpre.sum(axis=0)
    dx = dpre @ w.T
    return dx, {"weights": dw, "bias": db}
