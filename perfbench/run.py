"""Benchmark of the Network-in-Memory reproduction, end to end and by layer.

Run from the repository root::

    python3 perfbench/run.py --workload model_3d --seed 7 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the same workload with the program's public calls
wrapped and reports the per-layer metrics, writing the spans as a
Chrome/Perfetto trace under ``perfbench/out/``.  Human-readable lines go
first; the last line of standard output is the JSON result.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

WORKLOADS = ("model_3d", "model_2d", "serve_mix", "cycle_3d")

#: Set-up is timed this many times per run; the median is reported.
SETUP_REPEATS = 5

# (name, unit) of every end-to-end metric, in report order.
# Times are in reference units (ru, see perfbench/hostspeed.py).
END_TO_END = [
    ("work_per_ru", "1/ru"),
    ("op_ru_p50", "ru"),
    ("slow_op_ru", "ru"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# The name each end-to-end metric goes by on each kind of workload
# (perfbench/README.md); printed beside the JSON result.
ALIASES = {
    "sim": {
        "work_per_ru": "refs_per_ru",
        "op_ru_p50": "cell_ru_p50",
        "slow_op_ru": "cell_ru_max",
    },
    "serve": {
        "work_per_ru": "jobs_per_ru",
        "op_ru_p50": "warm_job_ru_p50",
        "slow_op_ru": "cold_job_ru_p50",
    },
}


def say(message: str) -> None:
    print(message, flush=True)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _time_child(args: list[str]) -> float:
    """Seconds from launching a child until it prints ``ready``."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "perfbench.setup_child", *args],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=60)
    finally:
        child.stdout.close()
        if child.poll() is None:
            child.kill()
            child.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up child {args} exited with {code}")
    return elapsed


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up seconds over ``SETUP_REPEATS`` fresh processes."""
    return statistics.median(
        _time_child([workload, str(seed), str(OUT)])
        for __ in range(SETUP_REPEATS)
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_golden() -> None:
    """Record every sim cell's RunStats on the default seed."""
    from perfbench import checks, sim

    golden = {}
    for workload in sim.WORKLOADS:
        golden[workload] = {
            run.cell.name: run.stats
            for run in sim.run_round(sim.cells(workload, checks.DEFAULT_SEED))
        }
    checks.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    say(f"wrote {checks.GOLDEN_PATH}")


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    refs_per_cpu: Optional[int] = None,
) -> dict:
    from perfbench import serve_mix, sim

    setup_s = None if trace else measure_setup(workload, seed)
    trace_path = str(OUT / f"trace-{workload}-seed{seed}.json") if trace else None
    if workload == "serve_mix":
        if trace:
            outcome = serve_mix.measure_traced(
                str(OUT), seed, seconds, say, trace_path
            )
        else:
            outcome = serve_mix.measure(str(OUT), seed, seconds, say)
        attempted, failed, metrics = (
            outcome.attempted, outcome.failed, outcome.metrics
        )
    else:
        if trace:
            checker, metrics = sim.measure_traced(
                workload, seed, seconds, say, refs_per_cpu, trace_path
            )
        else:
            checker, metrics = sim.measure(
                workload, seed, seconds, say, refs_per_cpu
            )
        attempted, failed = checker.attempted, checker.failed
    kind = "serve" if workload == "serve_mix" else "sim"
    if trace:
        from perfbench.layers import PER_LAYER

        units = {name: unit for name, unit, __ in PER_LAYER}
    else:
        metrics = {**metrics, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}
        units = dict(END_TO_END)
        for name, unit in END_TO_END:
            alias = ALIASES[kind].get(name, name)
            say(f"{alias} {metrics[name]:.6g} {unit}")
    say(f"error_rate {failed / attempted:.6g} ({failed}/{attempted})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--refs-per-cpu", type=int, default=None,
        help="shrink the sim cells (the benchmark's own tests use this)",
    )
    parser.add_argument(
        "--write-golden", action="store_true",
        help="record the default-seed RunStats of every sim cell and exit",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC} does not hold the repro package", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    OUT.mkdir(parents=True, exist_ok=True)
    if args.write_golden:
        write_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        args.refs_per_cpu,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
