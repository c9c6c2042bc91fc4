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

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import CacheReusedError, ShapeError
from .numerics import softmax


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


# The work buffer that each stage of an infer pass cuts its temporaries
# from in turn: first the conv's (`network._conv_max_over_time`), then the GRU's.
STAGE = "stage"


def work_arrays(work: dict | None, name: str, *specs) -> list:
    """Uninitialized C-contiguous arrays, one per (shape, dtype) in `specs`.
    With `work`, they are cut back to back, each starting on a 64-byte
    boundary, from the byte buffer kept there under `name`, which is
    replaced only when too small; so arrays that are dead before the next
    call under the same name share its memory, and smaller ones of any dtype
    run in its front. Without it, each is a fresh array.

    The boundary is absolute, not just an offset into the buffer: malloc
    returns 16-byte aligned memory, and in an in-process microbenchmark the
    infer forward took about 15 % longer with every work array 16 bytes off
    a cache line than on one (20,480 rows in 256-row passes, AVX-512 x86-64,
    one BLAS thread). The bench's end-to-end `rows_per_s` is too noisy to
    resolve that difference either way."""
    if work is None:
        return [np.empty(shape, dtype) for shape, dtype in specs]
    spans, end = [], 0
    for shape, dtype in specs:
        start = -(-end // 64) * 64
        end = start + math.prod(shape) * np.dtype(dtype).itemsize
        spans.append((start, end))
    buf = work.get(name)
    if buf is None or buf.size < end:
        work.pop(name, None)  # freed first, so the old and the new never coexist
        raw = np.empty(end + 63, np.uint8)
        buf = work[name] = raw[-raw.ctypes.data % 64:][:end]
    return [buf[start:stop].view(dtype).reshape(shape)
            for (start, stop), (shape, dtype) in zip(spans, specs)]


# --------------------------------------------------------------------------
# parameter containers: frozen, so an array can be updated in place but not
# rebound


@dataclass(frozen=True)
class Conv1DParams:
    kernels: np.ndarray  # [kernel_size, in_channels, filters]
    bias: np.ndarray     # [filters]


@dataclass(frozen=True)
class BatchNormParams:
    gamma: np.ndarray        # [channels], trainable
    beta: np.ndarray         # [channels], trainable
    moving_mean: np.ndarray  # [channels], non-trainable
    moving_var: np.ndarray   # [channels], non-trainable
    epsilon: float = 1e-3
    momentum: float = 0.99


@dataclass(frozen=True)
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


GRU_FIELDS = tuple(f.name for f in fields(GRUParams))


@dataclass(frozen=True)
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
    # [B, T, k, C]: tap j of window t is x[t + j - pad_l], zero outside x
    cols = np.zeros((b, t, k, c_in), dtype=work)
    for j in range(k):
        lo, hi = max(0, pad_l - j), min(t, t + pad_l - j)
        cols[:, lo:hi, j] = x[:, lo + j - pad_l:hi + j - pad_l]
    w = conv.kernels.reshape(kc, filters).astype(work, copy=False)
    windows = cols.reshape(m, kc)
    mu = np.add.reduce(windows) / m                   # .sum(axis=0), minus its wrapper
    centred = windows - mu
    sigma_w = (centred.T @ centred / m) @ w           # column f: Sigma W_f
    mean = mu @ w + conv.bias
    var = np.maximum(np.add.reduce(w * sigma_w), 0.0)
    for moving, batch in ((bn.moving_mean, mean), (bn.moving_var, var)):
        moving *= bn.momentum
        moving += (1.0 - bn.momentum) * batch
    inv = 1.0 / np.sqrt(var + bn.epsilon)
    key = ((w * (bn.gamma * inv)).T @ windows.T).reshape(filters, b, t)
    rows = np.arange(0, m, t)[:, None] + key.argmax(axis=2).T  # [B, filters]: b*T + t_max
    sel = centred.T.take(rows, axis=1)                # [k*C, B, filters], centred
    xhat = np.einsum("jbf,jf->bf", sel, w) * inv
    pre = bn.gamma * xhat + bn.beta
    saved = dict(sigma_w=sigma_w, sel=sel, xhat=xhat, active=pre > 0, inv=inv,
                 gamma=bn.gamma, shape=conv.kernels.shape, dtype=dtype)
    return np.maximum(pre, 0.0).astype(dtype, copy=False), Cache(saved)


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
    dgamma = np.add.reduce(g * xhat)
    dbeta = np.add.reduce(g)
    dw = np.einsum("jbf,bf->jf", sel, g * (gamma * inv))
    dw -= d["sigma_w"] * (inv * inv * gamma * dgamma)
    grads = {"kernels": dw.reshape(d["shape"]), "bias": np.zeros(dbeta.shape),
             "gamma": dgamma, "beta": dbeta}
    return {name: v.astype(d["dtype"], copy=False) for name, v in grads.items()}


# --------------------------------------------------------------------------
# GRU (returns the full hidden-state sequence)


def gru_forward(x: np.ndarray, p: GRUParams, *, work: dict | None = None,
                out: np.ndarray | None = None):
    """x: [B, T, input_dim] -> (h_seq: [B, T, units], cache), from the zero
    state.

    Per step: z = sigma(x W_z + h U_z + b_z + rb_z)
              r = sigma(x W_r + h U_r + b_r + rb_r)
              hcand = tanh(x W_h + b_h + r * (h U_h + rb_h))
              h <- (1 - z) * h + z * hcand, computed as h + z * (hcand - h)

    The loop runs unit-major on the augmented state s = [h; x_t; 1], kept
    as [T + 1, units + input_dim + 1, B] with the inputs and the row of ones
    written before the loop. One product per step, M . s, yields four row
    blocks of [4 * units, B]: the z and r pre-activations with their biases
    and the inner term h U_h + rb_h, all three halved, and x W_h + b_h.
    Sigmoid is 0.5 * (1 + tanh(a / 2)), which cannot overflow, so tanh and
    one add turn the halved pre-activations into 2z | 2r; 2r times the
    halved inner term is the reset product, and the update halves
    2z * (hcand - h). Halving is exact barring subnormals. Ten numpy calls
    per step, all on buffers made before the loop.

    Without `out` (training), the step's 2z | 2r | inner / 2 | hcand blocks
    are copied into a [4, T, units, B] stack for `gru_backward`. With `out`
    (inference), a [B, T, units] array or view, the hidden states are
    written into it and it is returned as h_seq; nothing is copied and the
    cache returned is None. The hidden states are the same either way.
    `work`, a dict, lends the state, pre-activation and diff arrays, cut by
    `work_arrays` from its STAGE buffer, so a call with fewer rows, another
    dtype or fewer units runs in the bytes of an earlier one, and
    `network.forward` lets the conv's temporaries use them first.
    """
    input_dim = p.w_z.shape[0]
    if x.ndim != 3 or x.shape[2] != input_dim:
        raise ShapeError(f"gru expects input dim {input_dim}, got input shape {x.shape}")
    b, t, _ = x.shape
    units = p.units
    dtype = np.result_type(x, p.u_z)
    # M': rows h | x | 1, column blocks z | r | inner | x W_h + b_h
    m = np.zeros((units + input_dim + 1, 4 * units), dtype=dtype)
    cz, cr, ci, cx = (slice(k * units, (k + 1) * units) for k in range(4))
    m[:units, cz], m[units:-1, cz], m[-1, cz] = p.u_z, p.w_z, p.b_z + p.rb_z
    m[:units, cr], m[units:-1, cr], m[-1, cr] = p.u_r, p.w_r, p.b_r + p.rb_r
    m[:units, ci], m[-1, ci] = p.u_h, p.rb_h
    m[units:-1, cx], m[-1, cx] = p.w_h, p.b_h
    m[:, :3 * units] *= 0.5
    m = m.T
    hs, a, diff = work_arrays(work, STAGE, ((t + 1, units + input_dim + 1, b), dtype),
                              ((4 * units, b), dtype), ((units, b), dtype))
    hs[0, :units] = 0.0
    hs[:t, units:-1] = x.transpose(1, 2, 0)  # the last state is read for its h only
    hs[:, -1] = 1.0
    gates = np.empty((4, t, units, b), dtype=dtype) if out is None else None
    blocks = a.reshape(4, units, b)
    zr, (z2, r2, inner, hcand) = a[:2 * units], blocks
    one, half = np.ones((), dtype), np.full((), 0.5, dtype)
    dot, tanh, add, subtract, multiply = np.dot, np.tanh, np.add, np.subtract, np.multiply
    states, hidden = list(hs), list(hs[:, :units])
    for i in range(t):
        h = hidden[i]
        dot(m, states[i], out=a)
        tanh(zr, out=zr)
        add(zr, one, out=zr)                 # 2z | 2r
        multiply(r2, inner, out=diff)        # r * (h U_h + rb_h)
        add(hcand, diff, out=hcand)
        tanh(hcand, out=hcand)
        subtract(hcand, h, out=diff)
        multiply(diff, z2, out=diff)
        multiply(diff, half, out=diff)
        add(h, diff, out=hidden[i + 1])
        if gates is not None:
            gates[:, i] = blocks
    if out is not None:
        out[...] = hs[1:, :units].transpose(2, 0, 1)
        return out, None
    h_seq = np.ascontiguousarray(hs[1:, :units].transpose(2, 0, 1))
    return h_seq, Cache({"params": p, "hs": hs, "gates": gates})


def gru_backward(cache: Cache, dh_seq: np.ndarray):
    """Backprop through time; returns the weight gradients keyed like GRU_FIELDS.

    Before the loop, the factors that turn a step's state gradient dh into
    its gradients da_z, da_r, d_inner (d_inner being the gradient of
    h U_h + rb_h) and the keep term (1 - z) * dh are formed for all steps as
    one [T, 4, units, B] stack. The reversed loop then keeps only the
    recurrence, in three calls per step: one broadcast multiply of dh by
    the step's factors, one [U_z | U_r | U_h | I] product, the state
    gradient the step hands back, and one add into the upstream gradient of
    the step before. After the loop, da_h = dh * z * (1 - hcand^2) takes the
    keep term's rows, and one product of the augmented states [h; x; 1]
    with those four blocks over all B*T columns gives every U_*, W_* and
    bias gradient; its columns are those of the forward's M'.
    """
    d = cache.consume("gru")
    p, hs, gates = d["params"], d["hs"], d["gates"]
    _, t, units, b = gates.shape  # per step 2z | 2r | inner / 2 | hcand
    dtype = hs.dtype
    zr = gates[:2] * 0.5
    z, r = zr
    hcand = gates[3]
    dzr = zr * (1.0 - zr)
    coef_h = z * (1.0 - hcand * hcand)
    # rows da_z | da_r | d_inner | keep per unit of dh, in the forward's column order
    factors = np.empty((t, 4, units, b), dtype=dtype)
    np.multiply(hcand - hs[:-1, :units], dzr[0], out=factors[:, 0])
    np.multiply(coef_h, (gates[2] * 2.0) * dzr[1], out=factors[:, 1])
    np.multiply(coef_h, r, out=factors[:, 2])
    np.subtract(1.0, z, out=factors[:, 3])
    rec = np.concatenate([p.u_z, p.u_r, p.u_h, np.eye(units, dtype=dtype)], axis=1)
    dh = np.array(dh_seq.transpose(1, 2, 0), dtype=dtype, order="C")  # [T, U, B]
    dh4 = dh.reshape(t, 1, units, b)
    g = np.empty((t, 4 * units, b), dtype=dtype)
    g4 = g.reshape(t, 4, units, b)
    back = np.empty((units, b), dtype=dtype)
    multiply, dot = np.multiply, np.dot
    for i in range(t - 1, 0, -1):
        multiply(dh4[i], factors[i], out=g4[i])
        dot(rec, g[i], out=back)
        dh[i - 1] += back
    multiply(dh4[0], factors[0], out=g4[0])
    np.multiply(dh, coef_h, out=g4[:, 3])  # da_h takes the keep term's rows
    n_in = hs.shape[1]
    states = hs[:-1].transpose(1, 0, 2).reshape(n_in, t * b)
    grad = states @ g.transpose(1, 0, 2).reshape(4 * units, t * b).T  # [n_in, 4U]
    zc, rc, ic, hc = (slice(k * units, (k + 1) * units) for k in range(4))
    w, bias = grad[units:-1], grad[-1]
    return {"w_z": w[:, zc], "w_r": w[:, rc], "w_h": w[:, hc],
            "u_z": grad[:units, zc], "u_r": grad[:units, rc], "u_h": grad[:units, ic],
            "b_z": bias[zc], "b_r": bias[rc], "b_h": bias[hc],
            "rb_z": bias[zc].copy(), "rb_r": bias[rc].copy(), "rb_h": bias[ic]}


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
    y = np.maximum(pre, 0.0) if activation == "relu" else softmax(pre)
    return y, Cache({"x": x, "pre": pre, "weights": p.weights, "activation": activation})


def dense_backward(cache: Cache, dy: np.ndarray):
    """Backward pass for a dense layer.

    For "relu", dy is the gradient w.r.t. the activated output. For
    "softmax", dy is the gradient w.r.t. the pre-softmax logits, which is
    what the cross-entropy loss supplies.
    """
    d = cache.consume("dense")
    x, pre, w = d["x"], d["pre"], d["weights"]
    dpre = dy * (pre > 0) if d["activation"] == "relu" else dy
    dw = x.T @ dpre
    db = np.add.reduce(dpre)
    dx = dpre @ w.T
    return dx, {"weights": dw, "bias": db}
