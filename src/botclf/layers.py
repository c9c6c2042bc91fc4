"""Layer forward/backward passes: Conv1D, BatchNorm, GRU, Dense, max pool.

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
from .numerics import d_relu, relu, sigmoid, softmax


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
# the conv branch in train mode, fused: conv -> batchnorm -> ReLU -> max pool


def conv_branch_train_forward(x: np.ndarray, conv: Conv1DParams, bn: BatchNormParams):
    """Train-mode conv1d -> batchnorm -> ReLU -> global max pool, fused.

    x: [B, T, C] -> (pooled [B, filters], cache). The same function as
    `conv1d_forward`, `batchnorm_forward(training=True)`, `activation_forward`
    and `global_max_pool` composed, moving statistics update included.

    Each conv output is cols . W_f + b_f for its k*C-value window cols, so
    the batch statistics need only the windows' mean mu and centred
    covariance Sigma: mean_f = mu . W_f + b_f and var_f = W_f' Sigma W_f, and
    xhat = (cols - mu) . W_f * inv_f with inv_f = 1 / sqrt(var_f + epsilon).
    The max over time is taken on cols . (W_f * gamma_f * inv_f), the
    batchnorm folded into the kernels as `network._folded_conv` folds it for
    inference, first occurrence on ties; normalization and ReLU then run on
    the [B, filters] selected positions only. Statistics and gradients are
    computed in at least double precision and returned in the input's.
    """
    k, c_in, filters = conv.kernels.shape
    if x.ndim != 3 or x.shape[2] != c_in:
        raise ShapeError(f"conv1d expects input channels {c_in}, got input shape {x.shape}")
    if bn.gamma.size != filters:
        raise ShapeError(f"batchnorm expects {bn.gamma.size} channels, got {filters} filters")
    b, t, _ = x.shape
    m = b * t
    if m < 2:
        raise ShapeError("batchnorm train mode needs at least 2 positions per channel")
    kc = k * c_in
    pad_l = (k - 1) // 2
    dtype = np.result_type(x, conv.kernels)
    work = np.result_type(dtype, np.float64)
    xp = np.zeros((b, t + k - 1, c_in), dtype=work)
    xp[:, pad_l:pad_l + t] = x
    # [B, T, k*C]: window t is the k*C values from element t*C of its padded row
    cols = np.lib.stride_tricks.as_strided(xp, shape=(b, t, kc), strides=xp.strides,
                                           writeable=False)
    windows = cols.reshape(m, kc)
    mu = windows.mean(axis=0)
    centred = windows - mu
    w = conv.kernels.reshape(kc, filters).astype(work, copy=False)
    sigma_w = (centred.T @ centred / m) @ w           # column f: Sigma W_f
    mean = mu @ w + conv.bias
    var = np.maximum((w * sigma_w).sum(axis=0), 0.0)
    bn.moving_mean[:] = bn.momentum * bn.moving_mean + (1.0 - bn.momentum) * mean
    bn.moving_var[:] = bn.momentum * bn.moving_var + (1.0 - bn.momentum) * var
    inv = 1.0 / np.sqrt(var + bn.epsilon)
    key = np.matmul((w * (bn.gamma * inv)).T, cols.transpose(0, 2, 1))  # [B, filters, T]
    rows = np.arange(0, m, t)[:, None] + key.argmax(axis=2)  # [B, filters]: b*T + t_max
    sel = centred.T.take(rows, axis=1)                # [k*C, B, filters]
    xhat = np.einsum("jbf,jf->bf", sel, w) * inv
    pre = bn.gamma * xhat + bn.beta
    cache = Cache({"rows": rows, "sel": sel, "xhat": xhat, "active": pre > 0,
                   "centred": centred, "sigma_w": sigma_w, "w": w, "inv": inv,
                   "gamma": bn.gamma, "in_shape": x.shape, "kernel_size": k, "dtype": dtype})
    return relu(pre).astype(dtype, copy=False), cache


def conv_branch_train_backward(cache: Cache, dpool: np.ndarray):
    """Backward of `conv_branch_train_forward`: (dx, grads), grads keyed
    "kernels", "bias", "gamma" and "beta".

    The gradient g reaches only the selected positions where the ReLU is
    active. There dxhat = g * gamma, so the batchnorm's sums over positions
    are A = gamma * dbeta and S = gamma * dgamma. Its dense terms reach the
    kernels as -inv^2 S Sigma W_f (the -inv A mu term cancels, as the
    selected windows are taken centred) and each window as a constant plus
    the centred window times a k*C x k*C matrix. The conv-bias gradient is
    exactly zero: the batch mean absorbs the bias.
    """
    d = cache.consume("conv_branch")
    sel, xhat, w, inv, gamma = d["sel"], d["xhat"], d["w"], d["inv"], d["gamma"]
    b, t, c_in = d["in_shape"]
    k = d["kernel_size"]
    m = b * t
    kc, filters = w.shape
    g = dpool.astype(xhat.dtype, copy=False) * d["active"]
    dgamma = (g * xhat).sum(axis=0)
    dbeta = g.sum(axis=0)
    # dxhat = g * gamma, so A = gamma * dbeta and S = gamma * dgamma
    inv_a = inv * gamma * dbeta
    inv2_s = inv * inv * gamma * dgamma
    u = g * (gamma * inv)                             # conv-output gradient where selected
    dw = np.einsum("jbf,bf->jf", sel, u) - d["sigma_w"] * inv2_s
    rows = d["rows"].ravel()
    dcols = np.empty((m, kc), dtype=u.dtype)
    for j in range(kc):
        dcols[:, j] = np.bincount(rows, weights=(u * w[j]).ravel(), minlength=m)
    dcols -= (w @ inv_a) / m
    dcols -= d["centred"] @ ((w * inv2_s) @ w.T / m)
    dcols = dcols.reshape(b, t, k, c_in)
    dxp = np.zeros((b, t + k - 1, c_in), dtype=dcols.dtype)
    for i in range(k):
        dxp[:, i:i + t, :] += dcols[:, :, i, :]
    pad_l = (k - 1) // 2
    dtype = d["dtype"]
    grads = {"kernels": dw.reshape(k, c_in, filters), "bias": np.zeros(filters),
             "gamma": dgamma, "beta": dbeta}
    return (dxp[:, pad_l:pad_l + t, :].astype(dtype, copy=False),
            {name: v.astype(dtype, copy=False) for name, v in grads.items()})


# --------------------------------------------------------------------------
# GRU (returns the full hidden-state sequence)


def _gru_input_projection(x: np.ndarray, p: GRUParams) -> np.ndarray:
    """Input-side pre-activations of the three gates for every step at once.

    x: [B, T, input_dim] -> time-major [T, B, 3 * units], columns z | r | h,
    so each step reads one contiguous block. Holds x W_* plus the biases
    b_z + rb_z, b_r + rb_r and b_h; rb_h stays out, as it sits inside the
    reset product.
    """
    b, t, c = x.shape
    w = np.concatenate([p.w_z, p.w_r, p.w_h], axis=1)
    proj = x.transpose(1, 0, 2).reshape(t * b, c) @ w
    proj += np.concatenate([p.b_z + p.rb_z, p.b_r + p.rb_r, p.b_h])
    return proj.reshape(t, b, 3 * p.units)


def gru_forward(x: np.ndarray, p: GRUParams, h0: np.ndarray | None = None, *,
                keep_cache: bool = True):
    """x: [B, T, input_dim] -> (h_seq: [B, T, units], cache).

    Per step: z = sigma(x W_z + h U_z + b_z + rb_z)
              r = sigma(x W_r + h U_r + b_r + rb_r)
              hcand = tanh(x W_h + b_h + r * (h U_h + rb_h))
              h <- (1 - z) * h + z * hcand, computed as h + z * (hcand - h)

    The input projection runs before the time loop (`_gru_input_projection`);
    each step does one h [U_z | U_r] and one h U_h product. The states
    entering each step, z | r, the reset product's inner term and hcand are
    kept time-major, [T, B, .], for `gru_backward`. With keep_cache=False
    (inference) the per-step gate buffers are reused from step to step and
    the cache returned is None; the hidden states are the same.
    """
    input_dim = p.w_z.shape[0]
    if x.ndim != 3 or x.shape[2] != input_dim:
        raise ShapeError(f"gru expects input dim {input_dim}, got input shape {x.shape}")
    b, t, _ = x.shape
    units = p.units
    proj = _gru_input_projection(x, p)
    dtype = proj.dtype
    hs = np.empty((t + 1, b, units), dtype=dtype)  # hs[i]: the state entering step i
    if h0 is None:
        hs[0] = 0.0
    else:
        h0 = np.asarray(h0)
        if h0.shape[-1] != units:
            raise ShapeError(f"gru h0 must have {units} units, got shape {h0.shape}")
        hs[0] = np.broadcast_to(h0, (b, units))
    slots = t if keep_cache else 1
    zr = np.empty((slots, b, 2 * units), dtype=dtype)
    inner = np.empty((slots, b, units), dtype=dtype)
    hcand = np.empty((slots, b, units), dtype=dtype)
    proj_zr, proj_h = proj[:, :, :2 * units], proj[:, :, 2 * units:]
    u_zr = np.concatenate([p.u_z, p.u_r], axis=1)
    for i in range(t):
        k = i % slots
        h, zr_i, inner_i, hcand_i, h_new = hs[i], zr[k], inner[k], hcand[k], hs[i + 1]
        np.matmul(h, u_zr, out=zr_i)
        zr_i += proj_zr[i]
        sigmoid(zr_i, out=zr_i)
        np.matmul(h, p.u_h, out=inner_i)
        inner_i += p.rb_h
        np.multiply(zr_i[:, units:], inner_i, out=hcand_i)
        hcand_i += proj_h[i]
        np.tanh(hcand_i, out=hcand_i)
        np.subtract(hcand_i, h, out=h_new)
        h_new *= zr_i[:, :units]
        h_new += h
    h_seq = np.ascontiguousarray(hs[1:].transpose(1, 0, 2))
    if not keep_cache:
        return h_seq, None
    cache = Cache({"x": x, "params": p, "hs": hs, "zr": zr, "inner": inner,
                   "hcand": hcand})
    return h_seq, cache


def gru_backward(cache: Cache, dh_seq: np.ndarray):
    """Backprop through time; returns (dx, grads, dh0).

    Only the recurrence runs inside the reversed time loop: it writes each
    step's pre-activation gradients into one time-major stack, columns
    da_h | da_z | da_r | d_inner (d_inner being the gradient of h U_h + rb_h).
    After the loop, one product over all B*T rows gives the W_* gradients,
    one the U_* gradients, one row sum every bias gradient and one product dx.
    """
    d = cache.consume("gru")
    x, p, hs = d["x"], d["params"], d["hs"]
    zr, inner, hcand = d["zr"], d["inner"], d["hcand"]
    b, t, input_dim = x.shape
    units = p.units
    z, r, h_prev = zr[:, :, :units], zr[:, :, units:], hs[:-1]
    # factors of the per-step gate gradients, computed for all steps at once
    dzr = zr * (1.0 - zr)
    coef_h = z * (1.0 - hcand * hcand)
    coef_z = (hcand - h_prev) * dzr[:, :, :units]
    coef_r = inner * dzr[:, :, units:]
    keep = 1.0 - z
    g = np.empty((t, b, 4 * units), dtype=hs.dtype)
    g_h, g_z, g_r, g_inner = (g[:, :, k * units:(k + 1) * units] for k in range(4))
    g_rec = g[:, :, units:]  # da_z | da_r | d_inner, the terms that reach h_prev
    u_rec_t = np.ascontiguousarray(np.concatenate([p.u_z, p.u_r, p.u_h], axis=1).T)
    dh_tm = dh_seq.transpose(1, 0, 2)
    dh_next = np.zeros((b, units), dtype=dh_seq.dtype)
    for i in range(t - 1, -1, -1):
        dh = dh_tm[i] + dh_next
        np.multiply(dh, coef_h[i], out=g_h[i])
        np.multiply(dh, coef_z[i], out=g_z[i])
        np.multiply(g_h[i], coef_r[i], out=g_r[i])
        np.multiply(g_h[i], r[i], out=g_inner[i])
        dh_next = g_rec[i] @ u_rec_t
        dh *= keep[i]
        dh_next += dh

    rows = g.reshape(t * b, 4 * units)
    gate_rows = rows[:, :3 * units]  # da_h | da_z | da_r
    dw = x.transpose(1, 0, 2).reshape(t * b, input_dim).T @ gate_rows
    du = h_prev.reshape(t * b, units).T @ rows[:, units:]
    db = rows.sum(axis=0)
    w_hzr = np.concatenate([p.w_h, p.w_z, p.w_r], axis=1)
    dx = (gate_rows @ w_hzr.T).reshape(t, b, input_dim).transpose(1, 0, 2)
    grads = {"w_h": dw[:, :units], "w_z": dw[:, units:2 * units], "w_r": dw[:, 2 * units:],
             "u_z": du[:, :units], "u_r": du[:, units:2 * units], "u_h": du[:, 2 * units:],
             "b_h": db[:units], "b_z": db[units:2 * units], "b_r": db[2 * units:3 * units],
             "rb_z": db[units:2 * units].copy(), "rb_r": db[2 * units:3 * units].copy(),
             "rb_h": db[3 * units:]}
    return np.ascontiguousarray(dx), grads, dh_next


# --------------------------------------------------------------------------
# activation layer (after the conv branch's batchnorm)


def activation_forward(x: np.ndarray, kind: str = "relu"):
    if kind != "relu":
        raise ValueError(f"unknown activation {kind!r}; the conv branch uses 'relu'")
    return relu(x), Cache({"x": x})


def activation_backward(cache: Cache, dy: np.ndarray):
    return dy * d_relu(cache.consume("activation")["x"]), {}


# --------------------------------------------------------------------------
# global max pool over time


def global_max_pool(x: np.ndarray):
    """x: [B, T, C] -> y: [B, C]; gradient flows to the first argmax per channel."""
    if x.ndim != 3 or x.shape[1] < 1:
        raise ShapeError(f"global max pool expects [batch, time, channels], got {x.shape}")
    idx = x.argmax(axis=1)  # first occurrence on ties
    y = np.take_along_axis(x, idx[:, None, :], axis=1)[:, 0, :]
    return y, Cache({"idx": idx, "in_shape": x.shape})


def global_max_pool_backward(cache: Cache, dy: np.ndarray):
    d = cache.consume("global_max_pool")
    dx = np.zeros(d["in_shape"], dtype=dy.dtype)
    np.put_along_axis(dx, d["idx"][:, None, :], dy[:, None, :], axis=1)
    return dx, {}


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


def dense_forward(x: np.ndarray, p: DenseParams, activation: str):
    """y = activation(x W + b), activation "relu" or "softmax"; x: [B, in] -> y: [B, out]."""
    if activation not in ("relu", "softmax"):
        raise ValueError(f"unknown dense activation {activation!r}")
    if x.ndim != 2 or x.shape[1] != p.weights.shape[0]:
        raise ShapeError(
            f"dense expects input width {p.weights.shape[0]}, got input shape {x.shape}")
    pre = x @ p.weights + p.bias
    y = relu(pre) if activation == "relu" else softmax(pre)
    return y, Cache({"x": x, "pre": pre, "weights": p.weights, "activation": activation})


def dense_backward(cache: Cache, dy: np.ndarray):
    """Backward pass for a dense layer.

    For "relu", dy is the gradient w.r.t. the activated output. For
    "softmax", dy is the gradient w.r.t. the pre-softmax logits, which is
    what the cross-entropy loss supplies.
    """
    d = cache.consume("dense")
    x, pre, w = d["x"], d["pre"], d["weights"]
    dpre = dy * d_relu(pre) if d["activation"] == "relu" else dy
    dw = x.T @ dpre
    db = dpre.sum(axis=0)
    dx = dpre @ w.T
    return dx, {"weights": dw, "bias": db}
