"""Benchmark of the veronese-sdepth command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  NAME is one of the workloads in
BENCHMARK.json, or ``all`` to run each in turn.  Every workload runs in
its own fresh worker process (``worker.py``), one after another.  With
``--trace 0`` the result carries the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced pass (see README.md).  The lines before
the last describe the run for a reader; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exits 0 once a result is printed, 2 on a usage error or when the package
source is missing, and 1 when a worker fails or runs out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK = HERE / ".work"
PACKAGE = ROOT / "src" / "veronese_sdepth" / "cli.py"

# Set-up is timed this many times per run, in fresh processes, and the
# median is reported.
SETUP_SAMPLES = 5
# A worker, and with it a run, is given up after this long.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "ram_gb": round(ram / 1e9, 2),
        "python": platform.python_version(),
    }


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker to completion; return its JSON result with
    ``setup_s``, the time from starting it until it was set up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], stdout=subprocess.PIPE, env=env, cwd=ROOT
    )
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran past {RUN_LIMIT_S:.0f} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_at"] - started
    return result


def median_of(passes: list[dict], key) -> float:
    return statistics.median(key(p) for p in passes) if passes else 0.0


def command_metrics(passes: list[dict]) -> dict[str, float]:
    """Per-command time and certificate size of untraced passes."""
    return {
        "build_s": median_of(passes, lambda p: p["by_kind"].get("build", 0.0)),
        "verify_s": median_of(passes, lambda p: p["by_kind"].get("verify", 0.0)),
        "reject_s": median_of(passes, lambda p: p["by_kind"].get("reject", 0.0)),
        "cert_mb": median_of(passes, lambda p: p["cert_bytes"] / 1e6),
    }


def run_workload(name: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, list]:
    """Returns (metric values, the worker's result, set-up samples)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    common = ["--workload", name, "--seed", str(seed), "--workdir", str(workdir)]
    try:
        setups = []
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                probe = spawn(common + ["--seconds", "0", "--setup-only"], deadline)
                setups.append(probe["setup_s"])
        result = spawn(common + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
        setups.append(result["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    plain = [p for p in result["passes"] if not p["traced"]]
    wall = median_of(plain, lambda p: p["wall_s"])
    if not trace:
        values = {
            "wall_s": wall,
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        return values, result, setups
    traced = [p for p in result["passes"] if p["traced"]]
    layer_names = traced[0]["layers"].keys()
    values = {k: median_of(traced, lambda p: p["layers"][k]) for k in layer_names}
    traced_wall = median_of(traced, lambda p: p["wall_s"])
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = wall
    values["trace.overhead"] = traced_wall / wall - 1.0 if wall else 0.0
    values["host.ref_s"] = median_of(result["passes"], lambda p: p["ref_s"])
    values.update({"cmd." + k: v for k, v in command_metrics(plain).items()})
    return values, result, setups


def report(
    name: str, seed: int, trace: int, spec: dict, values: dict, result: dict, setups: list
) -> dict:
    """Print the run for a reader and return the result object."""
    section = "per_layer" if trace else "end_to_end"
    try:
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]
        }
    except KeyError as exc:
        raise BenchError(f"metric {exc} of BENCHMARK.json is not measured")
    failures = list(result["failures"]) + [f"table: {m}" for m in result["table_mismatches"]]
    if not result["probe_ok"]:
        failures.append("self-test: a wrong expected answer was not counted as a failed op")
    attempted, failed = result["attempted"], result["failed"]
    stamp = dict(machine(), numpy=result["numpy"])
    print(f"# machine {json.dumps(stamp)}")
    passes = result["passes"]
    print(
        f"# workload={name} seed={seed} trace={trace} passes={len(passes)} "
        f"ops={attempted} failed={failed} failed_frac={failed / max(attempted, 1):.4f}"
    )
    if not trace:
        print(f"#   setup samples (s): {', '.join(f'{x:.4f}' for x in setups)}")
        walls = ", ".join(f"{p['wall_s']:.4f}" for p in passes)
        print(f"#   pass wall (s): {walls}")
        refs = ", ".join(f"{p['ref_s']:.4f}" for p in passes)
        print(f"#   reference loop, median per pass (s): {refs}")
        if name == "roundtrip":
            for key, value in command_metrics(passes).items():
                print(f"#   {key:<28} {value:12.4f} {'MB' if key == 'cert_mb' else 's'}")
    for key, m in metrics.items():
        print(f"#   {key:<28} {m['value']:12.4f} {m['unit']}")
    for line in failures:
        print(f"# FAILED {line}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Benchmark of the veronese-sdepth CLI.")
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not PACKAGE.is_file():
        print(f"error: package source {PACKAGE.relative_to(ROOT)} not found", file=sys.stderr)
        return 2
    for name in names if args.workload == "all" else [args.workload]:
        try:
            values, result, setups = run_workload(name, args.seed, args.seconds, args.trace)
            line = report(name, args.seed, args.trace, spec, values, result, setups)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
