"""Run one workload in a fresh process and print its raw result as JSON.

Started by ``run.py``, one worker at a time, with ``src`` on PYTHONPATH.
The worker imports the package and draws its inputs (the set-up), then
drives ``veronese_sdepth.cli.main(argv)`` in-process, one op at a time,
and checks every answer.  Untraced, it runs passes until ``--seconds``
have gone by.  Traced, it runs pairs of passes, one untraced and one
traced, until ``--seconds`` have gone by, and then one more untraced pass.
With ``--setup-only`` it stops once set up, so that ``run.py`` can time
set-up on its own.

The last line on standard output is one JSON object; ``ready_at`` is a
``time.monotonic()`` reading, a clock shared by every process on the
machine, so the caller can subtract the time it started the worker.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import workloads

REFERENCE_ITERATIONS = 500_000


def reference_loop() -> float:
    """Seconds for a fixed pure-Python integer loop: a gauge of how fast the
    host runs Python at this moment, to read op times against.  On a shared
    machine it drifts by tens of percent over minutes, and op times with it."""
    x = 1
    start = time.perf_counter()
    for _ in range(REFERENCE_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return time.perf_counter() - start


class Runner:
    """Runs ops through ``main``, times them and checks their answers.

    Failures accumulate over the whole run; ``times`` (seconds per op kind),
    ``cert_bytes`` (certificates written) and ``refs`` (the reference loop,
    run before each op) are per pass.
    """

    def __init__(self, main):
        self.main = main
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.new_pass()

    def new_pass(self) -> None:
        self.times: Counter = Counter()
        self.cert_bytes = 0
        self.refs: list[float] = []

    def _fail(self, op: workloads.Op, reason: str) -> None:
        self.failed += 1
        self.failures.append(f"{' '.join(op.argv)}: {reason}")

    def op(self, op: workloads.Op) -> bool:
        gc.collect()
        self.refs.append(reference_loop())
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.main(op.argv)
        except Exception as exc:  # a raising op is a failed op, not a failed run
            rc, error = None, f"raised {type(exc).__name__}: {exc}"
        self.times[op.kind] += time.perf_counter() - start
        self.attempted += 1
        reason = error or op.check(rc, out.getvalue())
        if reason:
            self._fail(op, reason)
            return False
        if op.cert is not None:
            self.cert_bytes += op.cert.stat().st_size
        return True

    def skip(self, op: workloads.Op, reason: str) -> None:
        self.attempted += 1
        self._fail(op, f"not run: {reason}")


def probe_catches_wrong_entry(main) -> bool:
    """A deliberately wrong expected answer must come out as one failed op."""
    runner = Runner(main)
    wrong = workloads.Op(
        "report",
        ["report", "-n", "5", "-d", "2"],
        workloads.expect_keys(workloads.EXIT_OK, certified_lower="4"),
    )
    return runner.op(wrong) is False and (runner.attempted, runner.failed) == (1, 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from veronese_sdepth import cli

    plan = workloads.Plan(args.workload, args.seed)
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    import numpy

    import tracing

    probe_ok = probe_catches_wrong_entry(cli.main)
    runner = Runner(cli.main)

    def one_pass(traced: bool) -> dict:
        tracer = tracing.Tracer() if traced else None
        runner.main = tracer.wrap("cli.main", cli.main) if traced else cli.main
        with tracing.installed(tracer) if traced else contextlib.nullcontext():
            plan.run_pass(runner, args.workdir)
        record = {
            "traced": traced,
            "wall_s": sum(runner.times.values()),
            "by_kind": dict(runner.times),
            "cert_bytes": runner.cert_bytes,
            "ref_s": statistics.median(runner.refs),
            "layers": tracer.layer_metrics() if traced else None,
        }
        runner.new_pass()
        return record

    passes = []
    start = time.perf_counter()
    modes = [False, True] if args.trace else [False]
    while not passes or time.perf_counter() - start < args.seconds:
        passes.extend(one_pass(traced) for traced in modes)
    if args.trace:
        # Untraced passes bracket the traced ones, so that the first pass's
        # warm-up does not fall on the untraced side only.
        passes.append(one_pass(False))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(
        json.dumps(
            {
                "ready_at": ready_at,
                "passes": passes,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "failures": runner.failures,
                "probe_ok": probe_ok,
                "table_mismatches": workloads.table_mismatches(),
                "peak_rss_mb": peak_kib * 1024 / 1e6,
                "numpy": numpy.__version__,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
