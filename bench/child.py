"""Run one botclf command in this fresh process and record what it cost.

    python3 bench/child.py RESULT.json [SPANS.json] -- <botclf arguments>

RESULT.json gets the command's exit code, the wall and CPU time of
`botclf.cli.main` and the process's peak resident set. With a SPANS path,
calls into botclf's modules are traced (see spans.py) and the spans are
written there after the command ends; without one nothing is wrapped.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    sep = sys.argv.index("--")
    result_path, *spans_path = sys.argv[1:sep]
    argv = sys.argv[sep + 1:]

    from botclf import cli

    tracer = None
    if spans_path:
        import spans
        tracer = spans.Tracer(run_id=Path(spans_path[0]).stem)
        spans.install(tracer)

    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed command; record it and go on
        traceback.print_exc()
        rc = -1
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    Path(result_path).write_text(json.dumps(
        {"rc": rc, "wall_s": wall, "cpu_s": cpu, "maxrss_kb": maxrss_kb}))
    if tracer is not None:
        Path(spans_path[0]).write_text(json.dumps(tracer.dump()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
