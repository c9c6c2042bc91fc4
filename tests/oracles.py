"""Independent reference implementations used as test oracles, and the
published one-vs-rest cells that the metrics are checked against.

Everything here is deliberately written as plain scalar loops, direct
formula evaluation or one layer at a time, separate from the vectorized and
fused code paths under test.
"""

import csv
import math

import numpy as np

from botclf import layers
from botclf.errors import DataError, SchemaError, ShapeError
from botclf.metrics import BinaryCells
from botclf.training import RMS_DECAY, RMS_EPSILON

# Published one-vs-rest cells of the 6-class benchmark evaluation this tool
# reproduces (population 731867). Class 0 is excluded: its published cells
# sum to 731827, not the population, so they cannot all be correct at once.
REFERENCE_N = 731867
REFERENCE_CELLS = {
    1: BinaryCells(tp=318277, fp=57, fn=60, tn=413473),
    2: BinaryCells(tp=1846, fp=3487, fn=1734, tn=724800),
    4: BinaryCells(tp=449, fp=29, fn=55, tn=731334),
    5: BinaryCells(tp=0, fp=0, fn=107, tn=731760),
}

# The statistics the reference cells must reproduce. Values are frozen at
# their 5-decimal print precision; None marks an undefined metric.
REFERENCE_STATS = {
    1: dict(acc=0.99984, agf=0.99983, agm=0.99985, auc=0.99984, auci="Excellent",
            err=0.00016, f1=0.99982, precision=0.99982, youden=0.99967,
            dind=0.00023, sind=0.99983),
    2: dict(acc=0.99287, agf=0.68433, agm=0.85544, auc=0.75543, auci="Good",
            err=0.00713, f1=0.41423, precision=0.34615, youden=0.51085,
            dind=0.48438, sind=0.65749),
    4: dict(acc=0.99989, agf=0.94874, agm=0.97189, auc=0.94542, auci="Excellent",
            err=0.00011, f1=0.91446, precision=0.93933, youden=0.89083,
            dind=0.10913, sind=0.92284),
    5: dict(acc=0.99985, agf=0.0, agm=0.0, auc=0.5, auci="Poor",
            err=0.00015, f1=0.0, precision=None, youden=0.0,
            dind=1.0, sind=0.29289),
}


def conv_oracle(x, kernels, bias):
    """Direct sliding-window summation with explicit zero padding."""
    b, t, c_in = x.shape
    k, _, filters = kernels.shape
    pad_l = (k - 1) // 2
    y = np.zeros((b, t, filters))
    for bi in range(b):
        for ti in range(t):
            for f in range(filters):
                acc = bias[f]
                for ki in range(k):
                    src = ti + ki - pad_l
                    if 0 <= src < t:
                        for ci in range(c_in):
                            acc += x[bi, src, ci] * kernels[ki, ci, f]
                y[bi, ti, f] = acc
    return y


# --------------------------------------------------------------------------
# the conv branch layer by layer: Conv1D, BatchNorm and global max pool, each a
# forward returning (output, layers.Cache) and a backward consuming it. The
# reference that `layers.conv_branch_forward`/`conv_branch_backward` must match.


def conv1d_forward(x, p):
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
    cache = layers.Cache({"cols": cols, "kernels": p.kernels, "pad_l": pad_l,
                          "in_shape": x.shape})
    return y, cache


def conv1d_backward(cache, dy):
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


def batchnorm_forward(x, p, training: bool):
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
    cache = layers.Cache({"xhat": xhat, "inv": inv, "gamma": p.gamma, "m": m,
                          "training": training})
    return y, cache


def batchnorm_backward(cache, dy):
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


def global_max_pool(x):
    """x: [B, T, C] -> y: [B, C]; gradient flows to the first argmax per channel."""
    if x.ndim != 3 or x.shape[1] < 1:
        raise ShapeError(f"global max pool expects [batch, time, channels], got {x.shape}")
    idx = x.argmax(axis=1)  # first occurrence on ties
    y = np.take_along_axis(x, idx[:, None, :], axis=1)[:, 0, :]
    return y, layers.Cache({"idx": idx, "in_shape": x.shape})


def global_max_pool_backward(cache, dy):
    d = cache.consume("global_max_pool")
    dx = np.zeros(d["in_shape"], dtype=dy.dtype)
    np.put_along_axis(dx, d["idx"][:, None, :], dy[:, None, :], axis=1)
    return dx, {}


def gru_oracle(x, p, h0=None):
    """Scalar loop over batch/time/units following the gate equations:

    z = sigma(W_z x + U_z h + b_z + b'_z)
    r = sigma(W_r x + U_r h + b_r + b'_r)
    hcand = tanh(W_h x + b_h + r * (U_h h + b'_h))
    h <- (1 - z) * h + z * hcand
    """
    b, t, d = x.shape
    u = p.units
    h = np.zeros((b, u)) if h0 is None else np.tile(h0, (b, 1)).astype(float)
    out = np.zeros((b, t, u))
    for bi in range(b):
        hv = h[bi].copy()
        for ti in range(t):
            z = np.zeros(u)
            r = np.zeros(u)
            inner = np.zeros(u)
            cand = np.zeros(u)
            for j in range(u):
                az = p.b_z[j] + p.rb_z[j]
                ar = p.b_r[j] + p.rb_r[j]
                for di in range(d):
                    az += x[bi, ti, di] * p.w_z[di, j]
                    ar += x[bi, ti, di] * p.w_r[di, j]
                for jj in range(u):
                    az += hv[jj] * p.u_z[jj, j]
                    ar += hv[jj] * p.u_r[jj, j]
                z[j] = 1.0 / (1.0 + math.exp(-az))
                r[j] = 1.0 / (1.0 + math.exp(-ar))
            for j in range(u):
                acc = p.rb_h[j]
                for jj in range(u):
                    acc += hv[jj] * p.u_h[jj, j]
                inner[j] = acc
            for j in range(u):
                ah = p.b_h[j]
                for di in range(d):
                    ah += x[bi, ti, di] * p.w_h[di, j]
                ah += r[j] * inner[j]
                cand[j] = math.tanh(ah)
            hv = (1.0 - z) * hv + z * cand
            out[bi, ti] = hv
    return out


def sigmoid(x):
    """Elementwise 1 / (1 + exp(-x)), output in [0, 1], evaluated as
    0.5 * (1 + tanh(x / 2)), which cannot overflow. The GRU computes its gates
    in this form, with the 1/2 folded into its weights."""
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x)))


def sigmoid_two_branch(x):
    """1 / (1 + exp(-x)) from exp(-|x|), which never overflows."""
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def gru_stepwise_forward(x, p, h0=None):
    """One-step-at-a-time GRU forward: every product is per step and per gate.

    Returns (h_seq [B, T, units], steps), where steps[i] holds
    (x_t, h_prev, z, r, inner, hcand) for `gru_stepwise_backward`.
    """
    b, t, _ = x.shape
    units = p.units
    if h0 is None:
        h = np.zeros((b, units), dtype=x.dtype)
    else:
        h = np.broadcast_to(h0, (b, units)).astype(x.dtype, copy=True)
    h_seq = np.empty((b, t, units), dtype=x.dtype)
    steps = []
    for i in range(t):
        xt = x[:, i, :]
        z = sigmoid_two_branch(xt @ p.w_z + h @ p.u_z + p.b_z + p.rb_z)
        r = sigmoid_two_branch(xt @ p.w_r + h @ p.u_r + p.b_r + p.rb_r)
        inner = h @ p.u_h + p.rb_h
        hcand = np.tanh(xt @ p.w_h + p.b_h + r * inner)
        h_new = (1.0 - z) * h + z * hcand
        steps.append((xt, h, z, r, inner, hcand))
        h_seq[:, i, :] = h_new
        h = h_new
    return h_seq, steps


def gru_stepwise_backward(steps, p, dh_seq):
    """Backprop through time over `gru_stepwise_forward`'s steps, accumulating
    every weight gradient and the input gradient one step at a time.

    Returns (dx, grads keyed by GRU_FIELDS, dh0).
    """
    b, t, _ = dh_seq.shape
    input_dim = p.w_z.shape[0]
    grads = {name: np.zeros_like(getattr(p, name)) for name in layers.GRU_FIELDS}
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


def random_gru_params(rng, input_dim, units, scale=0.6):
    return layers.GRUParams(
        w_z=rng.normal(scale=scale, size=(input_dim, units)),
        w_r=rng.normal(scale=scale, size=(input_dim, units)),
        w_h=rng.normal(scale=scale, size=(input_dim, units)),
        u_z=rng.normal(scale=scale, size=(units, units)),
        u_r=rng.normal(scale=scale, size=(units, units)),
        u_h=rng.normal(scale=scale, size=(units, units)),
        b_z=rng.normal(scale=scale, size=units),
        b_r=rng.normal(scale=scale, size=units),
        b_h=rng.normal(scale=scale, size=units),
        rb_z=rng.normal(scale=scale, size=units),
        rb_r=rng.normal(scale=scale, size=units),
        rb_h=rng.normal(scale=scale, size=units))


def finite_diff(loss_fn, arr, coords, h=1e-6):
    """Central finite differences of loss_fn at the given coordinates."""
    out = []
    for idx in coords:
        orig = arr[idx]
        arr[idx] = orig + h
        lp = loss_fn()
        arr[idx] = orig - h
        lm = loss_fn()
        arr[idx] = orig
        out.append((lp - lm) / (2 * h))
    return np.array(out)


def check_grads(analytic, loss_fn, arr, rng, n=12, tol=1e-5):
    """Compare a handful of coordinates of `analytic` against central FD."""
    flat = [np.unravel_index(int(i), arr.shape)
            for i in rng.integers(0, arr.size, size=min(n, arr.size))]
    numeric = finite_diff(loss_fn, arr, flat)
    got = np.array([analytic[idx] for idx in flat])
    denom = np.maximum(np.abs(got) + np.abs(numeric), 1e-8)
    rel = np.abs(got - numeric) / denom
    mask = np.abs(got - numeric) > 1e-9
    assert (rel[mask] < tol).all(), f"rel errors {rel[mask]}"


def rmsprop_step_per_array(params, grads, state, config):
    """The per-array RMSProp update that `training.rmsprop_step` replaced,
    six numpy calls for each trainable array; the reference for its update
    of one buffer. `state` is any {name: array} of accumulators."""
    rho = RMS_DECAY
    for name, theta in params.trainable_arrays():
        g = grads[name]
        if g.shape != theta.shape:
            raise ValueError(f"gradient for {name} has shape {g.shape}, "
                             f"parameter has {theta.shape}")
        s = state[name]
        s *= rho
        s += (1.0 - rho) * (g * g)
        theta -= config.learning_rate * g / (np.sqrt(s) + RMS_EPSILON)
    return params, state


class CsvStreamOracle:
    """The per-row flow-CSV reader that `dataio.CsvStream` replaced, kept as
    the reference for its chunked reader: one `csv.DictReader` dict, one
    array, one finiteness check and one linear label-map scan per row.

    Iterating yields (features, label) per kept row; `read`, `skipped` and
    the raised errors are those the chunked reader must reproduce.
    """

    def __init__(self, path, schema, feature_spec, label_map=None, policy="skip"):
        self.path = path
        self.schema = schema
        self.feature_spec = feature_spec
        self.label_map = label_map
        self.policy = policy
        self.read = 0
        self.skipped = 0

    def _encode(self, category, subcategory):
        key = (category, subcategory)
        for idx, pair in enumerate(self.label_map.pairs):
            if pair == key:
                return idx
        raise DataError(f"no class mapping for (category={category!r}, "
                        f"subcategory={subcategory!r})")

    def __iter__(self):
        try:
            yield from self._records()
        except UnicodeDecodeError as exc:
            raise DataError(f"{self.path}: not UTF-8 text "
                            f"(byte 0x{exc.object[exc.start]:02x}: {exc.reason})") from None

    def _records(self):
        with open(self.path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            missing = [c for c in self.feature_spec.names if c not in header]
            if self.label_map is not None:
                missing += [c for c in (self.schema.category_column,
                                        self.schema.subcategory_column)
                            if c not in header]
            if missing:
                raise SchemaError(f"{self.path}: header is missing columns: "
                                  f"{', '.join(missing)}")
            names = self.feature_spec.names
            for row_number, row in enumerate(reader, start=2):
                try:
                    values = np.array([float(row[c]) for c in names])
                    if not np.isfinite(values).all():
                        raise ValueError("non-finite feature value")
                    label = None
                    if self.label_map is not None:
                        label = self._encode(row[self.schema.category_column],
                                             row[self.schema.subcategory_column])
                except (TypeError, ValueError, DataError) as exc:
                    if self.policy == "fail":
                        raise DataError(f"{self.path}:{row_number}: {exc}") from exc
                    self.skipped += 1
                    continue
                self.read += 1
                yield values, label
