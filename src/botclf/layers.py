"""Layer forward/backward passes: the fused conv branch (Conv1D, BatchNorm,
ReLU, global max pool), the GRU and the dense layers.

All sequence activations are shaped [batch, time, channels]; flat
activations are [batch, features]. Every forward returns (output, cache)
and every backward consumes its cache exactly once. The dense backward
returns its input gradient plus a dict of weight gradients; the conv
branch and the GRU read the network's input, which is data, so their
backwards return the weight gradients only. Gradients are hand-derived;
the test suite checks each of them against central finite differences and
the conv branch against the layer-by-layer reference in `tests/oracles.py`.

The conv branch is the training pass: it normalizes with the batch
statistics. Inference folds the moving statistics into the conv instead
(`network.forward` in infer mode) and does not call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CacheReusedError, ShapeError
from .numerics import d_relu, relu, softmax


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


@dataclass
class BatchNormParams:
    gamma: np.ndarray        # [channels], trainable
    beta: np.ndarray         # [channels], trainable
    moving_mean: np.ndarray  # [channels], non-trainable
    moving_var: np.ndarray   # [channels], non-trainable
    epsilon: float = 1e-3
    momentum: float = 0.99


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


GRU_FIELDS = ("w_z", "w_r", "w_h", "u_z", "u_r", "u_h",
              "b_z", "b_r", "b_h", "rb_z", "rb_r", "rb_h")


@dataclass
class DenseParams:
    weights: np.ndarray  # [in, out]
    bias: np.ndarray     # [out]


# --------------------------------------------------------------------------
# the conv branch, fused: conv -> batchnorm -> ReLU -> global max pool


def conv_branch_forward(x: np.ndarray, conv: Conv1DParams, bn: BatchNormParams):
    """Conv1D ("same" padding, stride 1) -> batchnorm -> ReLU -> global max
    pool over time, fused, in train mode: x: [B, T, C] -> (pooled [B, filters],
    cache).

    The batchnorm normalizes each filter with the batch statistics over all
    (batch, time) positions and updates the moving statistics. Each conv
    output is cols . W_f + b_f for its k*C-value window cols, so the batch
    statistics need only the windows' mean mu and centred covariance Sigma:
    mean_f = mu . W_f + b_f and var_f = W_f' Sigma W_f, and
    xhat = (cols - mu) . W_f * inv_f with inv_f = 1 / sqrt(var_f + epsilon).
    The max over time is taken on cols . (W_f * gamma_f * inv_f), the
    batchnorm folded into the kernels as `network._folded_conv` folds it,
    first occurrence on ties; normalization and ReLU then run on the
    [B, filters] selected positions only. Statistics and gradients are
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
    w = conv.kernels.reshape(kc, filters).astype(work, copy=False)
    windows = cols.reshape(m, kc)
    mu = windows.mean(axis=0)
    windows = windows - mu                            # centred
    sigma_w = (windows.T @ windows / m) @ w           # column f: Sigma W_f
    mean = mu @ w + conv.bias
    var = np.maximum((w * sigma_w).sum(axis=0), 0.0)
    bn.moving_mean[:] = bn.momentum * bn.moving_mean + (1.0 - bn.momentum) * mean
    bn.moving_var[:] = bn.momentum * bn.moving_var + (1.0 - bn.momentum) * var
    inv = 1.0 / np.sqrt(var + bn.epsilon)
    key = np.matmul((w * (bn.gamma * inv)).T, cols.transpose(0, 2, 1))  # [B, filters, T]
    rows = np.arange(0, m, t)[:, None] + key.argmax(axis=2)  # [B, filters]: b*T + t_max
    sel = windows.T.take(rows, axis=1)                # [k*C, B, filters], centred
    xhat = np.einsum("jbf,jf->bf", sel, w) * inv
    pre = bn.gamma * xhat + bn.beta
    saved = dict(sigma_w=sigma_w, sel=sel, xhat=xhat, active=pre > 0, w=w, inv=inv,
                 gamma=bn.gamma, shape=conv.kernels.shape, dtype=dtype)
    return relu(pre).astype(dtype, copy=False), Cache(saved)


def conv_branch_backward(cache: Cache, dpool: np.ndarray):
    """Backward of `conv_branch_forward`: the weight gradients, keyed
    "kernels", "bias", "gamma" and "beta".

    The gradient g reaches only the selected positions where the ReLU is
    active, as u = g * gamma * inv on the conv output, and kernels get
    sum_b sel * u from it. dxhat = g * gamma, so the batchnorm's sums over
    positions are A = gamma * dbeta and S = gamma * dgamma. They reach the
    kernels as -inv^2 S Sigma W_f (the -inv A mu term cancels, as the
    selected windows are taken centred), and the conv-bias gradient is
    exactly zero: the batch mean absorbs the bias.
    """
    d = cache.consume("conv_branch")
    sel, xhat, inv, gamma = d["sel"], d["xhat"], d["inv"], d["gamma"]
    g = dpool.astype(xhat.dtype, copy=False) * d["active"]
    dgamma = (g * xhat).sum(axis=0)
    dbeta = g.sum(axis=0)
    dw = np.einsum("jbf,bf->jf", sel, g * (gamma * inv))
    dw -= d["sigma_w"] * (inv * inv * gamma * dgamma)
    grads = {"kernels": dw.reshape(d["shape"]), "bias": np.zeros(dbeta.shape),
             "gamma": dgamma, "beta": dbeta}
    return {name: v.astype(d["dtype"], copy=False) for name, v in grads.items()}


# --------------------------------------------------------------------------
# GRU (returns the full hidden-state sequence)


def _gru_input_projection(x: np.ndarray, p: GRUParams) -> np.ndarray:
    """Input-side pre-activations of the three gates for every step at once.

    x: [B, T, input_dim] -> unit-major [T, 3 * units, B], rows z | r | h, so
    each step reads one contiguous block. Holds W_*' x plus the biases
    b_z + rb_z, b_r + rb_r and b_h; rb_h stays out, as it sits inside the
    reset product. The z and r rows are halved, sigmoid(a) being
    0.5 * (1 + tanh(a / 2)); scaling by 0.5 is exact barring subnormals.
    One broadcast product over the input channels: at input_dim 1 it is an
    outer product, with no sum.
    """
    units = p.units
    w = np.concatenate([p.w_z, p.w_r, p.w_h], axis=1).T  # [3 * units, input_dim]
    bias = np.concatenate([p.b_z + p.rb_z, p.b_r + p.rb_r, p.b_h])
    w[:2 * units] *= 0.5
    bias[:2 * units] *= 0.5
    # from a C-ordered [T, C, B] operand einsum returns a C-ordered [T, 3U, B]
    proj = np.einsum("gc,tcb->tgb", w, np.ascontiguousarray(x.transpose(1, 2, 0)))
    proj += bias[:, None]
    return proj


def gru_forward(x: np.ndarray, p: GRUParams, *, keep_cache: bool = True):
    """x: [B, T, input_dim] -> (h_seq: [B, T, units], cache), from the zero
    state.

    Per step: z = sigma(x W_z + h U_z + b_z + rb_z)
              r = sigma(x W_r + h U_r + b_r + rb_r)
              hcand = tanh(x W_h + b_h + r * (h U_h + rb_h))
              h <- (1 - z) * h + z * hcand, computed as h + z * (hcand - h)

    The loop runs unit-major: each state is [units, B], so every gate is a
    contiguous row block. The input projection runs before the loop
    (`_gru_input_projection`); each step does one [U_z | U_r]' h and one
    U_h' h product, with sigmoid's 1/2 folded into the z and r rows, and
    finishes the sigmoid as 0.5 * (1 + tanh), which cannot overflow. The
    states entering each step, z | r, the reset product's inner term and
    hcand are kept as [T, ., B] arrays for `gru_backward`. With
    keep_cache=False (inference) the per-step gate buffers are reused from
    step to step and the cache returned is None; the hidden states are the
    same.
    """
    input_dim = p.w_z.shape[0]
    if x.ndim != 3 or x.shape[2] != input_dim:
        raise ShapeError(f"gru expects input dim {input_dim}, got input shape {x.shape}")
    b, t, _ = x.shape
    units = p.units
    proj = _gru_input_projection(x, p)
    dtype = proj.dtype
    hs = np.empty((t + 1, units, b), dtype=dtype)  # hs[i]: the state entering step i
    hs[0] = 0.0
    slots = t if keep_cache else 1
    zr = np.empty((slots, 2 * units, b), dtype=dtype)
    inner = np.empty((slots, units, b), dtype=dtype)
    hcand = np.empty((slots, units, b), dtype=dtype)
    u_zr = np.concatenate([p.u_z, p.u_r], axis=1).T * 0.5  # halved, as in the projection
    u_h = p.u_h.T
    rb_h = p.rb_h[:, None]
    for i in range(t):
        k = i % slots
        h, zr_i, inner_i, hcand_i, h_new = hs[i], zr[k], inner[k], hcand[k], hs[i + 1]
        np.dot(u_zr, h, out=zr_i)
        zr_i += proj[i, :2 * units]
        np.tanh(zr_i, out=zr_i)
        zr_i += 1.0
        zr_i *= 0.5
        np.dot(u_h, h, out=inner_i)
        inner_i += rb_h
        np.multiply(zr_i[units:], inner_i, out=hcand_i)
        hcand_i += proj[i, 2 * units:]
        np.tanh(hcand_i, out=hcand_i)
        np.subtract(hcand_i, h, out=h_new)
        h_new *= zr_i[:units]
        h_new += h
    h_seq = np.ascontiguousarray(hs[1:].transpose(2, 0, 1))
    if not keep_cache:
        return h_seq, None
    cache = Cache({"x": x, "params": p, "hs": hs, "zr": zr, "inner": inner,
                   "hcand": hcand})
    return h_seq, cache


def gru_backward(cache: Cache, dh_seq: np.ndarray):
    """Backprop through time; returns the weight gradients keyed like GRU_FIELDS.

    Only the recurrence runs inside the reversed time loop, unit-major like
    the forward: it writes each step's pre-activation gradients into one
    [T, 4 * units, B] stack, rows da_h | da_z | da_r | d_inner (d_inner
    being the gradient of h U_h + rb_h), and takes the state gradient from
    the last three as [U_z | U_r | U_h] . g. After the loop, one product over
    all B*T columns gives the W_* gradients, one the U_* gradients and one
    row sum every bias gradient.
    """
    d = cache.consume("gru")
    x, p, hs = d["x"], d["params"], d["hs"]
    zr, inner, hcand = d["zr"], d["inner"], d["hcand"]
    b, t, input_dim = x.shape
    units = p.units
    z, r, h_prev = zr[:, :units], zr[:, units:], hs[:-1]
    # factors of the per-step gate gradients, computed for all steps at once
    dzr = zr * (1.0 - zr)
    coef_h = z * (1.0 - hcand * hcand)
    coef_z = (hcand - h_prev) * dzr[:, :units]
    coef_r = inner * dzr[:, units:]
    keep = 1.0 - z
    g = np.empty((t, 4 * units, b), dtype=hs.dtype)
    g_h, g_z, g_r, g_inner = (g[:, k * units:(k + 1) * units] for k in range(4))
    u_rec = np.concatenate([p.u_z, p.u_r, p.u_h], axis=1)  # takes da_z | da_r | d_inner
    dh_um = np.ascontiguousarray(dh_seq.transpose(1, 2, 0))
    dh_next = np.zeros((units, b), dtype=dh_seq.dtype)
    for i in range(t - 1, -1, -1):
        dh = dh_um[i] + dh_next
        np.multiply(dh, coef_h[i], out=g_h[i])
        np.multiply(dh, coef_z[i], out=g_z[i])
        np.multiply(g_h[i], coef_r[i], out=g_r[i])
        np.multiply(g_h[i], r[i], out=g_inner[i])
        if i == 0:  # nothing reads the state gradient entering step 0
            break
        dh_next = np.dot(u_rec, g[i, units:])
        dh *= keep[i]
        dh_next += dh

    cols = g.transpose(1, 0, 2).reshape(4 * units, t * b)
    # rows da_h | da_z | da_r take x, rows da_z | da_r | d_inner the states
    dw = x.transpose(2, 1, 0).reshape(input_dim, t * b) @ cols[:3 * units].T
    du = h_prev.transpose(1, 0, 2).reshape(units, t * b) @ cols[units:].T
    db = cols.sum(axis=1)
    return {"w_h": dw[:, :units], "w_z": dw[:, units:2 * units], "w_r": dw[:, 2 * units:],
            "u_z": du[:, :units], "u_r": du[:, units:2 * units], "u_h": du[:, 2 * units:],
            "b_h": db[:units], "b_z": db[units:2 * units], "b_r": db[2 * units:3 * units],
            "rb_z": db[units:2 * units].copy(), "rb_r": db[2 * units:3 * units].copy(),
            "rb_h": db[3 * units:]}


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
