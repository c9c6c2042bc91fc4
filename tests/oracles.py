"""Independent reference implementations used as test oracles.

Everything here is deliberately written as plain scalar loops (or direct
formula evaluation), separate from the vectorized code paths under test.
"""

import csv
import math

import numpy as np

from botclf import layers
from botclf.errors import DataError, SchemaError


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
    rho = config.rms_decay
    for name, theta in params.trainable_arrays():
        g = grads[name]
        if g.shape != theta.shape:
            raise ValueError(f"gradient for {name} has shape {g.shape}, "
                             f"parameter has {theta.shape}")
        s = state[name]
        s *= rho
        s += (1.0 - rho) * (g * g)
        theta -= config.learning_rate * g / (np.sqrt(s) + config.rms_epsilon)
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
            reader = csv.DictReader(fh, delimiter=self.schema.delimiter)
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
