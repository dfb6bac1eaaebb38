"""Record a baseline: sets of runs of every workload, and a traced table.

    python3 bench/baseline.py --set first --first-seed 100 [--runs 10]
    python3 bench/baseline.py --set second --first-seed 200
    python3 bench/baseline.py --traced

A set is one run per seed on each workload, as `bench/run.py --workload
W --seed S` makes it, with run_seconds from BENCHMARK.json.  For every
end-to-end metric the set keeps the per-run values, their median and
quartiles across runs, and the spread (q3 - q1) / median; a steady
benchmark keeps every spread but setup_s under a third of the metric's
bound.  Each run's raw timings, CPU time and host probe are kept beside
the scaled ones.  Once two sets exist, 'agreement' holds how much worse
each median of the second set is than the first's, as a share of it;
the bound allows at most the metric's bound.  --traced records one
traced run per workload: the per-layer table and each layer's share of
the self time.  Everything else already in the output file is kept.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import run
import tracer
import worker


def across(values) -> dict:
    stats = run.spread(values)
    stats["spread"] = (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0
    stats["runs"] = values
    return stats


def checked(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    summary = run.run_workload(workload, seed, seconds, trace)
    if summary["problems"]:
        raise SystemExit(f"{workload} seed {seed}: " + "; ".join(summary["problems"]))
    return summary


def record_set(workload: str, seeds, seconds: int, bench: dict) -> dict:
    summaries = []
    for seed in seeds:
        summaries.append(checked(workload, seed, seconds, trace=False))
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{k} {v['value']:.6g}" for k, v in summaries[-1]["metrics"].items()), flush=True)
    metrics = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        stats = metrics[name] = across([s["metrics"][name]["value"] for s in summaries])
        limit = metric["bound"] / 3
        verdict = "ok" if name == "setup_s" or stats["spread"] < limit else "TOO WIDE"
        print(f"  {name}: median {stats['median']:.6g}, spread {stats['spread']:.4f} "
              f"(a third of the bound is {limit:.4f}) {verdict}", flush=True)
    return {
        "seeds": list(seeds),
        "passes_per_run": [s["stats"]["raw_wall_s"]["n"] for s in summaries],
        "end_to_end": metrics,
        "per_run": [s["stats"] for s in summaries],
    }


def record_traced(workload: str, seed: int, seconds: int) -> dict:
    summary = checked(workload, seed, seconds, trace=True)
    per_layer = {k: v["value"] for k, v in summary["metrics"].items()}
    own = {layer: per_layer[f"{layer}.self_s"] for layer in tracer.LAYERS if layer != "ising"}
    own["ising"] = per_layer["ising.spin_flip_barrier.self_s"]
    own["trace.overhead"] = per_layer["trace.overhead_s"]
    total = sum(own.values())
    return {
        "seed": seed,
        "passes": summary["stats"]["raw_wall_s"]["n"],
        "traced_raw_wall_s": summary["stats"]["raw_wall_s"],
        "per_layer": per_layer,
        "self_time_share": {layer: seconds / total for layer, seconds in own.items()},
    }


def agreement(first: dict, second: dict, bench: dict) -> dict:
    """How much worse each median of the second set is than the first's."""
    out = {}
    for workload in first:
        if workload not in second:
            continue
        out[workload] = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = first[workload]["end_to_end"][name]["median"]
            b = second[workload]["end_to_end"][name]["median"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            out[workload][name] = {"worse_by": worse, "bound": metric["bound"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--set", help="name of the set of runs to record")
    what.add_argument("--traced", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--out", default=str(run.ROOT / "bench" / "baseline.json"))
    args = parser.parse_args(argv)

    with open(run.ROOT / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]
    out = Path(args.out)
    baseline = json.loads(out.read_text()) if out.exists() else {}
    baseline["environment"] = run.environment()
    baseline["run_seconds"] = seconds
    baseline["probe_ref_s"] = worker.PROBE_REF_S
    sets = baseline.setdefault("sets", {})
    for workload in args.workloads.split(","):
        if args.traced:
            baseline.setdefault("traced", {})[workload] = record_traced(workload, args.first_seed, seconds)
        else:
            seeds = range(args.first_seed, args.first_seed + args.runs)
            sets.setdefault(args.set, {})[workload] = record_set(workload, seeds, seconds, bench)
        names = list(sets)
        if len(names) >= 2:
            baseline["agreement"] = {
                "first": names[0],
                "second": names[1],
                "workloads": agreement(sets[names[0]], sets[names[1]], bench),
            }
        out.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
