"""weldkit benchmark: time a workload end to end, or trace it per layer.

    python3 bench/run.py --workload <assemble|certify|sweep|verify|all>
                         --seed <n> --seconds <s> --trace <0|1>

Runs passes of the workload, each in a fresh single-threaded worker
process (bench/worker.py), one after another while another pass still
fits in --seconds, and checks every pass's outputs against
bench/reference/.  Each worker times its own set-up (importing weldkit
and making the inputs from the seed) and then one pass, and runs a
fixed host probe after each of the two.

The host's speed swings by up to half from one second to the next,
which no number of passes averages out, so a plain pass's time is
reported in scaled seconds: the worker probes the host with a fixed
piece of work before the pass and about every quarter second of it, and
scales the time between two probes by PROBE_REF_S (worker.py) over
their mean, leaving the probes' own time out.  On a host where the probe
takes PROBE_REF_S, scaled seconds are seconds.  Set-up, mostly reading
and loading modules, slows only about half as much as that probe, so it
is scaled the same way by a probe of its own kind: importing a fixed set
of standard library packages right after it (IMPORT_PROBE).  The raw
times, the CPU time and the probes are printed beside the scaled ones.

--trace 0 reports the end-to-end metrics of BENCHMARK.json as medians
over the passes:
  wall_s           scaled seconds for one pass
  setup_s          scaled seconds of set-up in a fresh interpreter,
                   over SETUPS set-up-only workers
  peak_rss_mb      peak resident memory of a pass's process
  completed_share  operations neither refused nor failed, over those
                   attempted; failed_share, printed too, is one minus it
--trace 1 runs traced passes instead and reports the per-layer metrics
of BENCHMARK.json as medians over them; trace.overhead_s is the
tracing's own share of the traced wall time, measured in the worker.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 1 if any
output check fails, and 2 if the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "bench" / "worker.py"
WORKLOADS = ("assemble", "certify", "sweep", "verify")
SETUPS = 7
# A run must end within 180 s; no worker may outlive this budget.
RUN_LIMIT_S = 170
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    pass


def environment() -> dict:
    """The machine and toolchain the numbers come from, read only."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "thread_variables": {k: os.environ[k] for k in THREAD_VARIABLES if k in os.environ},
    }


def metric_units(kind: str) -> dict:
    """Name -> unit of the 'end_to_end' or 'per_layer' metrics."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"{workload}: out of time before a {mode} worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), workload, str(seed), mode],
            capture_output=True,
            text=True,
            timeout=remaining,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: {mode} worker ran past the time limit")
    if proc.returncode != 0:
        raise BenchError(f"{workload}: {mode} worker failed\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes for `seconds`, then summarize them."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    mode = "traced" if trace else "plain"
    passes = []
    longest = 0.0
    # Start another pass only if one as long as the longest so far still
    # ends within `seconds`, so a run takes about `seconds` at any speed.
    while True:
        began = time.monotonic()
        passes.append(spawn(workload, seed, mode, deadline))
        longest = max(longest, time.monotonic() - began)
        if time.monotonic() - start + longest > seconds:
            break
    setups = [spawn(workload, seed, "setup", deadline) for _ in range(SETUPS)]

    attempted = sum(r["attempted"] for r in passes)
    refused = sum(r["refused"] for r in passes)
    stats = {"setup_s": spread([r["scaled_setup_s"] for r in setups])}
    if not trace:
        stats["wall_s"] = spread([r["scaled_wall_s"] for r in passes])
    stats["peak_rss_mb"] = spread([r["peak_rss_mb"] for r in passes])
    stats["completed_share"] = spread([1 - r["refused"] / r["attempted"] for r in passes])
    stats["raw_wall_s"] = spread([r["wall_s"] for r in passes])
    stats["cpu_s"] = spread([r["cpu_s"] for r in passes])
    stats["raw_setup_s"] = spread([r["setup_s"] for r in setups])
    stats["import_probe_s"] = spread([r["import_probe_s"] for r in setups])
    if trace:
        units = metric_units("per_layer")
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in passes), "unit": unit}
            for name, unit in units.items()
        }
    else:
        stats["probe_s"] = spread([r["probe_s"] for r in passes])
        stats["longest_segment_s"] = spread([r["longest_segment_s"] for r in passes])
        units = metric_units("end_to_end")
        metrics = {name: {"value": stats[name]["median"], "unit": unit} for name, unit in units.items()}
    return {
        "workload": workload,
        "seed": seed,
        "mode": mode,
        "attempted": attempted,
        "refused": refused,
        # an operation that raises fails its worker, and so the whole run
        "failed": 0,
        "problems": [p for r in passes for p in r["problems"]],
        "stats": stats,
        "metrics": metrics,
    }


def describe(summary: dict) -> list[str]:
    stats = summary["stats"]
    units = metric_units("end_to_end")
    lines = [
        f"workload {summary['workload']}, seed {summary['seed']}: "
        f"{stats['raw_wall_s']['n']} {summary['mode']} passes"
    ]
    for name, s in stats.items():
        lines.append(
            f"  {name:<16} {s['median']:.6g} {units.get(name, 's')}  "
            f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})"
        )
    attempted = summary["attempted"]
    lost = summary["refused"] + summary["failed"]
    lines.append(
        f"  {'failed_share':<16} {lost / attempted:.6g} share  "
        f"({summary['refused']} refused, {summary['failed']} failed of {attempted} attempted)"
    )
    if summary["mode"] == "traced":
        for name, metric in summary["metrics"].items():
            lines.append(f"  {name:<42} {metric['value']:.6g} {metric['unit']}")
    for problem in summary["problems"]:
        lines.append(f"  MISMATCH {problem}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "weldkit" / "__init__.py").is_file():
        print(f"error: no weldkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print("environment: " + json.dumps(environment()))
    summaries = []
    try:
        for name in names:
            summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(describe(summary)), flush=True)
            summaries.append(summary)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {
            f"{s['workload']}.{name}": metric
            for s in summaries
            for name, metric in s["metrics"].items()
        }
    correct = not any(s["problems"] for s in summaries)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(s["attempted"] for s in summaries),
                "failed": sum(s["failed"] for s in summaries),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
