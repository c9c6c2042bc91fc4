"""Outside-in benchmark of the botclf command line.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a source checkout; it runs the package from the
checkout's `src/`. Each workload runs one botclf command again and again,
each time in a fresh process, the next starting when the previous one has
exited (a closed loop with one client), until --seconds have passed. Every
run's outputs are checked. --trace 0 reports the end-to-end metrics;
--trace 1 alternates untraced and traced runs and reports the per-layer
metrics. The last line printed is one JSON object with the keys `correct`,
`attempted`, `failed` (CSV rows) and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "botclf"

# One BLAS thread: on the 2-core machine this was tuned on, a second thread
# doubled the CPU time of predict and eval for no wall-time gain.
BLAS_THREADS = 1
ENV = dict(os.environ, PYTHONPATH=str(SRC),
           OPENBLAS_NUM_THREADS=str(BLAS_THREADS), OMP_NUM_THREADS=str(BLAS_THREADS),
           MKL_NUM_THREADS=str(BLAS_THREADS))
# The `botclf` console script's entry point, for runs that time a whole process.
ENTRY = "import sys; from botclf.cli import main; sys.exit(main())"
SETUP_RUNS = 11         # one-row starts per run; setup_s is their median
MIN_RUNS = 3            # measured commands per run, even past --seconds
RUN_TIMEOUT_S = 120

END_TO_END = {          # name -> unit
    "rows_per_s": "rows/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accuracy": "fraction",
}


@dataclass
class Run:
    rc: int | None      # botclf's exit code; None when no result was recorded
    wall_s: float       # wall time of botclf.cli.main
    cpu_s: float
    maxrss_kb: int
    stdout: str
    stderr: str
    spans: dict | None


def source_digest() -> str:
    """sha256 over every file of the package source tree."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np
    import workloads as wl
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"cpu_model": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS, "git_commit": commit,
            "src_sha256": source_digest(),
            "seeds": {"workload": seed, "model": wl.MODEL_SEED, "train-desk init": wl.TRAIN_SEED}}


def run_plain(argv) -> tuple[float, int | None, str]:
    """A whole `botclf` process: (wall seconds, exit code, stderr)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-c", ENTRY, *argv], cwd=ROOT, env=ENV,
                              capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, None, "timed out"
    return time.perf_counter() - t0, proc.returncode, proc.stderr


def run_child(argv, work: Path, traced: bool) -> Run:
    """One command in a fresh process through child.py."""
    result = work / "result.json"
    spans_path = work / "spans.json"
    result.unlink(missing_ok=True)
    spans_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(result)]
    cmd += [str(spans_path)] if traced else []
    try:
        proc = subprocess.run(cmd + ["--", *argv], cwd=ROOT, env=ENV,
                              capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Run(None, 0.0, 0.0, 0, "", "timed out", None)
    if not result.exists():
        return Run(None, 0.0, 0.0, 0, proc.stdout, proc.stderr, None)
    res = json.loads(result.read_text())
    spans = json.loads(spans_path.read_text()) if traced else None
    return Run(res["rc"], res["wall_s"], res["cpu_s"], res["maxrss_kb"],
               proc.stdout, proc.stderr, spans)


def model_weights() -> Path:
    """Weights for score-bulk and eval-labeled: trained once per source tree
    and generator by `botclf train` at train-desk's settings from fixed
    seeds, then kept in the build directory. A model whose final val_acc is
    below train-desk's floor is refused, so a change to the training code
    cannot silently hand the inference workloads a worse model."""
    import checks
    import workloads as wl
    key = hashlib.sha256(source_digest().encode()
                         + (BENCH / "workloads.py").read_bytes()).hexdigest()[:16]
    path = WORK / f"model-{key}.weights"
    if path.exists():
        return path
    tmp = WORK / f"model-{key}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        data = wl.write_inputs(tmp / "model.csv", wl.TRAIN_ROWS, wl.MODEL_SEED,
                               labeled=True, noise=wl.TRAIN_NOISE)
        _, rc, stderr = run_plain(["train", "--data", str(data.path),
                                   "--weights", str(tmp / "model.weights"),
                                   "--report", str(tmp / "model.stats"),
                                   "--seed", str(wl.TRAIN_SEED)])
        if rc != 0:
            raise RuntimeError(f"training the benchmark's model failed (exit {rc}): "
                               f"{stderr.strip()[-400:]}")
        val_acc = checks.final_val_acc((tmp / "model.stats").read_text())
        if val_acc is None or not val_acc >= checks.MIN_VAL_ACC:
            raise RuntimeError(f"the benchmark's model reached val_acc {val_acc}, "
                               f"below {checks.MIN_VAL_ACC}")
        os.replace(tmp / "model.weights", path)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return path


def command_argv(w, data: Path, weights: Path | None, out: Path) -> list:
    from workloads import TRAIN_SEED
    if w.command == "train":
        return ["train", "--data", str(data), "--weights", f"{out}.weights",
                "--report", f"{out}.stats", "--seed", str(TRAIN_SEED)]
    return [w.command, "--data", str(data), "--weights", str(weights), "--report", str(out)]


def check_run(w, run: Run, inputs, out: Path, first_sha: dict):
    import checks
    valid = len(inputs.labels)
    if run.rc != 0:
        tail = run.stderr.strip().splitlines()[-1:] or [""]
        return checks.Outcome(inputs.rows, None, [f"exit {run.rc}: {tail[0]}"])
    try:
        if w.command == "train":
            sha = hashlib.sha256(Path(f"{out}.weights").read_bytes()).hexdigest()
            first_sha.setdefault("weights", sha)
            return checks.check_train(Path(f"{out}.stats").read_text(), valid, inputs.bad,
                                      run.stderr, sha, first_sha["weights"])
        text = out.read_text()
    except OSError as exc:
        return checks.Outcome(inputs.rows, None, [f"missing output: {exc}"])
    if w.command == "eval":
        return checks.check_eval(text, run.stdout, valid, inputs.bad, run.stderr)
    return checks.check_predict(text, inputs.labels, inputs.bad, run.stderr)


def measure(w, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import checks
    import spans as sp
    import workloads as wl
    weights = model_weights() if w.needs_model else None
    inputs = wl.write_inputs(work / "data.csv", w.rows, seed, w.labeled, w.noise)
    probe = wl.write_inputs(work / "one.csv", 1, seed, w.labeled, w.noise)
    attempted = failed = 0
    problems = []
    setup = []

    def one_row_start(timed: bool) -> None:
        # setup_s: the same command on a one-row input, whole process each time
        nonlocal attempted, failed
        dt, rc, stderr = run_plain(command_argv(w, probe.path, weights, work / "setup"))
        attempted += probe.rows
        if rc != 0:
            failed += probe.rows
            problems.append(f"one-row run exit {rc}: {stderr.strip()[-200:]}")
        if timed:
            setup.append(dt)

    # The first start compiles bytecode and warms the file cache; untimed.
    one_row_start(timed=False)
    out = work / "out"
    argv = command_argv(w, inputs.path, weights, out)
    plain, traced, first_sha = [], [], {}
    start = time.perf_counter()
    while len(plain) + len(traced) < MIN_RUNS or time.perf_counter() - start < seconds:
        # The timed one-row starts are spread evenly over the window, between
        # measured commands, so that setup_s sees the same machine they do.
        share = (time.perf_counter() - start) / seconds if seconds > 0 else 1.0
        due = math.ceil(SETUP_RUNS * share)
        while not trace and len(setup) < min(SETUP_RUNS, max(1, due)):
            one_row_start(timed=True)
        is_traced = trace and len(plain) > len(traced)
        run = run_child(argv, work, is_traced)
        outcome = check_run(w, run, inputs, out, first_sha)
        if run.spans is not None:
            bad_passes = [p for p in run.spans["passes"]
                          if None not in p and p != [len(inputs.labels), inputs.bad]]
            if bad_passes and not outcome.failed:
                outcome = checks.Outcome(inputs.bad, outcome.accuracy,
                                         [f"stream passes read/skipped {bad_passes}"])
        attempted += inputs.rows
        failed += outcome.failed
        problems += outcome.problems
        (traced if is_traced else plain).append((run, outcome))
        if run.rc is None:
            break
    while not trace and len(setup) < SETUP_RUNS:
        one_row_start(timed=True)

    done = [r for r, _ in plain if r.rc is not None and r.wall_s > 0]
    info = {"workload": w.name, "command": f"botclf {w.command}", "seed": seed,
            "csv_rows": inputs.rows, "malformed_rows": inputs.bad,
            "runs": len(plain), "traced_runs": len(traced),
            "wall_s": [r.wall_s for r, _ in plain + traced],
            "rows_attempted": attempted, "rows_failed": failed,
            "failed_share": failed / attempted, "problems": problems[:10]}
    if first_sha:
        info["weights_sha256"] = first_sha["weights"]
    if not trace:
        accuracies = [o.accuracy for _, o in plain if o.accuracy is not None]
        metrics = {
            "rows_per_s": sp.median([inputs.rows / r.wall_s for r in done]),
            "setup_s": sp.median(setup),
            "peak_rss_mb": sp.median([r.maxrss_kb / 1024 for r in done]),
            "accuracy": sp.median(accuracies),
        }
        units = END_TO_END
    else:
        from botclf.network import Architecture
        per_run = [sp.summarize(r.spans["spans"], r.spans["passes"])
                   for r, _ in traced if r.spans is not None]
        metrics = {name: sp.median([m[name] for m in per_run]) for name in per_run[0]} \
            if per_run else {}
        flops, nbytes = sp.computed_costs(Architecture())
        for layer in sp.LAYERS:
            metrics[f"layers.{layer}.fwd_flops_per_row"] = flops[layer]
            metrics[f"layers.{layer}.fwd_bytes_per_row"] = nbytes[layer]
        traced_wall = sp.median([r.wall_s for r, _ in traced if r.rc is not None])
        plain_wall = sp.median([r.wall_s for r in done])
        metrics["trace.overhead_share"] = traced_wall / plain_wall - 1.0 if plain_wall else 0.0
        metrics["proc.cpu_util"] = sp.median([r.cpu_s / r.wall_s for r in done])
        metrics["proc.blas_threads"] = BLAS_THREADS
        metrics = {name: metrics.get(name, 0.0) for name in sp.PER_LAYER}
        units = {name: unit for name, (unit, _) in sp.PER_LAYER.items()}
        info["absent"] = sp.absent(traced[0][0].spans) if traced and traced[0][0].spans else {}
    return {"info": info, "attempted": attempted, "failed": failed,
            "complete": bool(done),
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


def print_report(result: dict) -> None:
    info = result["info"]
    print(f"{info['workload']}: {info['runs']} runs of `{info['command']}`"
          + (f" and {info['traced_runs']} traced" if info["traced_runs"] else "")
          + f", {info['csv_rows']} CSV rows each ({info['malformed_rows']} malformed), "
          f"seed {info['seed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<38} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_share':<38} {info['failed_share']:.6g} fraction "
          f"(rows_failed {info['rows_failed']} of rows_attempted {info['rows_attempted']})")
    print(json.dumps(info))


def run_seconds() -> float:
    """BENCHMARK.json's run_seconds, the length of one measured run."""
    return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=run_seconds(),
                        help="measured window per workload (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run then kills and reaps the running command.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "botclf" / "cli.py").is_file():
        print(f"bench: no botclf source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    print(json.dumps({"env": environment(args.seed)}))
    results = {}
    for name in names:
        work = WORK / f"run-{name}-{args.seed}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            results[name] = measure(WORKLOADS[name], args.seed, args.seconds,
                                    bool(args.trace), work)
        except RuntimeError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print_report(results[name])

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{m}": v for name, r in results.items()
                   for m, v in r["metrics"].items()}
    correct = failed == 0 and all(r["complete"] for r in results.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
