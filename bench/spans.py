"""Spans around calls into botclf's modules, recorded from outside the package.

`install` wraps module attributes in the process that runs the command, so
the program's own code is unchanged; an untraced run installs nothing. A
span is [name, start, end, parent index, rows]; spans stay in memory and
are written once the command has ended. `summarize` turns one command's
spans into the per-layer metrics.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

# layer name -> (forward function, backward function) in botclf.layers
LAYERS = {
    "conv1d": ("conv1d_forward", "conv1d_backward"),
    "batchnorm": ("batchnorm_forward", "batchnorm_backward"),
    "activation": ("activation_forward", "activation_backward"),
    "max_pool": ("global_max_pool", "global_max_pool_backward"),
    "gru": ("gru_forward", "gru_backward"),
    "dense": ("dense_forward", "dense_backward"),
}

# (module, attribute, span name) for every plain function boundary
_FUNCTIONS = [
    ("cli", "main", "cli.main"),
    ("config", "resolve", "config.resolve"),
    ("dataio", "fit_normalizer", "dataio.fit_normalizer"),
    ("dataio", "to_dataset", "dataio.to_dataset"),
    ("network", "load_manifest", "network.load_manifest"),
    ("network", "params_from_manifest", "network.params_from_manifest"),
    ("network", "build", "network.build"),
    ("network", "save_weights", "network.save_weights"),
    ("training", "fit", "training.fit"),
    ("training", "evaluate", "training.evaluate"),
    ("training", "cross_entropy", "training.cross_entropy"),
    ("training", "rmsprop_step", "training.rmsprop_step"),
    # private, but the only boundary around the per-epoch validation pass
    ("training", "_epoch_eval", "training.epoch_eval"),
    ("metrics", "report", "metrics.report"),
]
_FUNCTIONS += [("layers", fn, f"layers.{layer}.{side}")
               for layer, pair in LAYERS.items() for side, fn in zip(("fwd", "bwd"), pair)]

# every boundary a span can be named after
BOUNDARIES = [name for _, _, name in _FUNCTIONS] + [
    "network.forward.train", "network.forward.infer", "network.backward",
    "dataio.normalize", "dataio.stream"]

NAME, START, END, PARENT, ROWS = range(5)

# per-layer metric -> (unit, which direction is better); README.md says what
# each one measures and which end-to-end metric it should move
PER_LAYER = {
    "cli.main_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "config.resolve_ms": ("ms", "lower"),
    "dataio.rows_read": ("count", "higher"),
    "dataio.rows_skipped": ("count", "lower"),
    "dataio.stream_passes": ("count", "lower"),
    "dataio.stream_s": ("s", "lower"),
    "dataio.normalize_calls": ("count", "lower"),
    "dataio.normalize_s": ("s", "lower"),
    "dataio.fit_normalizer_s": ("s", "lower"),
    "dataio.to_dataset_s": ("s", "lower"),
    "network.forward_calls": ("count", "lower"),
    "network.forward_rows_per_call": ("rows/call", "higher"),
    "network.forward_infer_us_per_row": ("us/row", "lower"),
    "network.forward_train_ms_p50": ("ms", "lower"),
    "network.forward_train_ms_p99": ("ms", "lower"),
    "network.backward_ms_p50": ("ms", "lower"),
    "network.backward_ms_p99": ("ms", "lower"),
    "network.load_ms": ("ms", "lower"),
    "network.build_ms": ("ms", "lower"),
    "network.save_ms": ("ms", "lower"),
}
for _layer in LAYERS:
    PER_LAYER.update({
        f"layers.{_layer}.fwd_us_b10": ("us", "lower"),
        f"layers.{_layer}.bwd_us_b10": ("us", "lower"),
        f"layers.{_layer}.fwd_us_b512": ("us", "lower"),
        f"layers.{_layer}.fwd_flops_per_row": ("flop/row", "lower"),
        f"layers.{_layer}.fwd_bytes_per_row": ("B/row", "lower"),
    })
PER_LAYER.update({
    "training.steps": ("count", "lower"),
    "training.step_ms_p50": ("ms", "lower"),
    "training.step_ms_p99": ("ms", "lower"),
    "training.glue_ms_per_step": ("ms", "lower"),
    "training.cross_entropy_us": ("us", "lower"),
    "training.rmsprop_us": ("us", "lower"),
    "training.val_eval_s": ("s", "lower"),
    "training.epoch_s": ("s", "lower"),
    "training.evaluate_s": ("s", "lower"),
    "metrics.report_ms": ("ms", "lower"),
    "proc.cpu_util": ("cpu-s/s", "lower"),
    "proc.blas_threads": ("count", "lower"),
    "trace.overhead_share": ("fraction", "lower"),
    "trace.coverage": ("fraction", "higher"),
})


class Tracer:
    """In-memory span recorder for one command run in one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.passes = []    # [rows read, rows skipped] per CsvStream pass; None
                            # where the stream keeps no such counter
        self.absent = {}    # boundary -> why it was not wrapped
        self._stack = [-1]

    def wrap(self, name, fn, describe=None):
        """`fn` recording a span per call; `describe(args, kwargs)` may
        return (name, rows) to refine the span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], 0]
            if describe is not None:
                span[NAME], span[ROWS] = describe(args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def dump(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans,
                "passes": self.passes, "absent": self.absent}


def _forward_kind(args, kwargs):
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "infer")
    return f"network.forward.{mode}", len(args[1])


def _backward_kind(args, kwargs):
    return "network.backward", len(args[2])


def _rebind(original, wrapper):
    """Point every botclf module attribute that holds `original` at `wrapper`,
    so names imported with `from .x import y` are traced too."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "botclf" or mod_name.startswith("botclf."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the public boundaries of botclf's modules with `tracer`."""
    import importlib
    modules = {}
    for mod in ("cli", "config", "dataio", "network", "layers", "training", "metrics"):
        try:
            modules[mod] = importlib.import_module(f"botclf.{mod}")
        except ModuleNotFoundError:
            tracer.absent[f"botclf.{mod}"] = "no such module"
    targets = [(m, a, n, None) for m, a, n in _FUNCTIONS]
    targets += [("network", "forward", "network.forward", _forward_kind),
                ("network", "backward", "network.backward", _backward_kind)]
    for mod, attr, name, describe in targets:
        original = getattr(modules.get(mod), attr, None)
        if original is None:
            tracer.absent[name] = f"botclf.{mod} has no attribute {attr}"
            continue
        _rebind(original, tracer.wrap(name, original, describe))

    dataio = modules.get("dataio")
    spec = getattr(dataio, "FeatureSpec", None)
    if spec is not None and hasattr(spec, "normalize"):
        spec.normalize = tracer.wrap("dataio.normalize", spec.normalize)
    else:
        tracer.absent["dataio.normalize"] = "botclf.dataio has no FeatureSpec.normalize"
    stream_cls = getattr(dataio, "CsvStream", None)
    if stream_cls is None:
        tracer.absent["dataio.stream"] = "botclf.dataio has no CsvStream"
        return
    original_iter = stream_cls.__iter__
    timed_next = tracer.wrap("dataio.stream", next)
    end = object()

    def traced_iter(stream):
        # One span per record, around the time spent inside the reader only:
        # the consumer's work between records belongs to the consumer.
        records = original_iter(stream)
        try:
            while (record := timed_next(records, end)) is not end:
                yield record
        finally:
            records.close()
            tracer.passes.append([getattr(stream, "read", None),
                                  getattr(stream, "skipped", None)])

    stream_cls.__iter__ = traced_iter


# --------------------------------------------------------------------------
# arithmetic on a finished span list


def children_of(spans):
    kids = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            kids[span[PARENT]].append(i)
    return kids


def self_times(spans, kids=None):
    """Each span's duration minus its child spans' durations. The tracer is
    synchronous, so children run one after another inside their parent."""
    kids = children_of(spans) if kids is None else kids
    return [(s[END] - s[START]) - sum(spans[k][END] - spans[k][START] for k in kids[i])
            for i, s in enumerate(spans)]


def absent(dump) -> dict:
    """Boundaries one traced command never crossed, and why; the metrics
    drawn from them read 0."""
    seen = {(s[NAME], s[ROWS]) for s in dump["spans"]}
    names = {name for name, _ in seen}
    out = dict(dump["absent"])
    for name in BOUNDARIES:
        if name not in names and name not in out:
            out[name] = "not called by this command"
    for name, batch in (("network.forward.train", 10), ("network.backward", 10),
                        ("network.forward.infer", 512)):
        if name in names and (name, batch) not in seen:
            out[f"{name} at batch {batch}"] = "called, but never at this batch size"
    return out


def percentile(values, q):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median(values):
    """statistics.median, or 0.0 for no values."""
    return statistics.median(values) if values else 0.0


def computed_costs(arch, itemsize: int = 8):
    """Forward FLOPs and activation bytes (input plus output) per row, per
    layer, computed from the tensor shapes of the fixed topology.

    A multiply-add counts two FLOPs, an elementwise op one; the GRU counts
    its six matrix-vector products per step plus about twelve elementwise
    ops per unit. Dense covers both dense layers.
    """
    t, c, f, k = arch.seq_len, arch.in_channels, arch.filters, arch.kernel_size
    u, h, q = arch.gru_units, arch.dense_units, arch.classes
    d = f + t * u
    flops = {
        "conv1d": 2 * t * k * c * f + t * f,
        "batchnorm": 4 * t * f,
        "activation": t * f,
        "max_pool": t * f,
        "gru": t * (6 * c * u + 6 * u * u + 12 * u),
        "dense": 2 * d * h + h + 2 * h * q + 4 * q,
    }
    elements = {
        "conv1d": t * c + t * f,
        "batchnorm": 2 * t * f,
        "activation": 2 * t * f,
        "max_pool": t * f + f,
        "gru": t * c + t * u,
        "dense": d + 2 * h + q,
    }
    return flops, {name: n * itemsize for name, n in elements.items()}


def summarize(spans, passes) -> dict:
    """Per-layer metrics of one traced command (see README for each name)."""
    kids = children_of(spans)
    own = self_times(spans, kids)
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[NAME]].append(i)

    def durations(name):
        return [spans[i][END] - spans[i][START] for i in by_name[name]]

    def total(*names):
        return sum(sum(durations(n)) for n in names)

    out = {}
    roots = by_name["cli.main"]
    main_wall = total("cli.main")
    out["cli.main_s"] = main_wall
    out["cli.self_s"] = sum(own[i] for i in roots)
    out["trace.coverage"] = 1.0 - out["cli.self_s"] / main_wall if main_wall > 0 else 0.0
    out["config.resolve_ms"] = total("config.resolve") * 1e3

    out["dataio.stream_passes"] = len(passes)
    out["dataio.rows_read"] = median([p[0] for p in passes if p[0] is not None])
    out["dataio.rows_skipped"] = median([p[1] for p in passes if p[1] is not None])
    out["dataio.stream_s"] = sum(own[i] for i in by_name["dataio.stream"])
    out["dataio.normalize_calls"] = len(by_name["dataio.normalize"])
    out["dataio.normalize_s"] = total("dataio.normalize")
    out["dataio.fit_normalizer_s"] = total("dataio.fit_normalizer")
    out["dataio.to_dataset_s"] = total("dataio.to_dataset")

    train_fwd = by_name["network.forward.train"]
    infer_fwd = by_name["network.forward.infer"]
    backward = by_name["network.backward"]
    forwards = train_fwd + infer_fwd
    out["network.forward_calls"] = len(forwards)
    out["network.forward_rows_per_call"] = (
        sum(spans[i][ROWS] for i in forwards) / len(forwards) if forwards else 0.0)
    infer_rows = sum(spans[i][ROWS] for i in infer_fwd)
    out["network.forward_infer_us_per_row"] = (
        total("network.forward.infer") / infer_rows * 1e6 if infer_rows else 0.0)
    train_ms = [d * 1e3 for d in durations("network.forward.train")]
    back_ms = [d * 1e3 for d in durations("network.backward")]
    out["network.forward_train_ms_p50"] = median(train_ms)
    out["network.forward_train_ms_p99"] = percentile(train_ms, 99)
    out["network.backward_ms_p50"] = median(back_ms)
    out["network.backward_ms_p99"] = percentile(back_ms, 99)
    out["network.load_ms"] = total("network.load_manifest", "network.params_from_manifest") * 1e3
    out["network.build_ms"] = total("network.build") * 1e3
    out["network.save_ms"] = total("network.save_weights") * 1e3

    def per_pass_us(parents, batch, span_name):
        # the layer's time inside each network pass of this batch size
        return median([sum(spans[k][END] - spans[k][START]
                            for k in kids[i] if spans[k][NAME] == span_name) * 1e6
                        for i in parents if spans[i][ROWS] == batch])

    for layer in LAYERS:
        out[f"layers.{layer}.fwd_us_b10"] = per_pass_us(train_fwd, 10, f"layers.{layer}.fwd")
        out[f"layers.{layer}.bwd_us_b10"] = per_pass_us(backward, 10, f"layers.{layer}.bwd")
        out[f"layers.{layer}.fwd_us_b512"] = per_pass_us(infer_fwd, 512, f"layers.{layer}.fwd")

    steps_ms, epochs_s = [], []
    for i in by_name["training.fit"]:
        step_start = None
        epoch_start = spans[i][START]
        for k in kids[i]:
            name = spans[k][NAME]
            if name == "network.forward.train":
                step_start = spans[k][START]
            elif name == "training.rmsprop_step" and step_start is not None:
                steps_ms.append((spans[k][END] - step_start) * 1e3)
                step_start = None
            elif name == "training.epoch_eval":
                epochs_s.append(spans[k][END] - epoch_start)
                epoch_start = spans[k][END]
    out["training.steps"] = len(steps_ms)
    out["training.step_ms_p50"] = median(steps_ms)
    out["training.step_ms_p99"] = percentile(steps_ms, 99)
    fit_self = sum(own[i] for i in by_name["training.fit"])
    out["training.glue_ms_per_step"] = fit_self / len(steps_ms) * 1e3 if steps_ms else 0.0
    out["training.cross_entropy_us"] = median(durations("training.cross_entropy")) * 1e6
    out["training.rmsprop_us"] = median(durations("training.rmsprop_step")) * 1e6
    out["training.val_eval_s"] = median(durations("training.epoch_eval"))
    out["training.epoch_s"] = median(epochs_s)
    out["training.evaluate_s"] = total("training.evaluate")
    out["metrics.report_ms"] = total("metrics.report") * 1e3
    return out
