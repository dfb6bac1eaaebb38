"""One pass of one workload, in a fresh interpreter.

    python3 bench/worker.py <workload> <seed> <mode>

mode is "setup" (import and make inputs only), "plain" (one timed
pass, no tracing) or "traced" (one pass with every public weldkit
function wrapped).  Prints one JSON object: setup_s, in setup mode also
scaled with the import probe, and for a pass also wall_s, cpu_s,
peak_rss_mb, the operation counts and the output problems found; in
plain mode scaled_wall_s and the probes' figures, and in traced mode the
per-layer metrics.  run.py starts it.
"""

from __future__ import annotations

import importlib
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The probe's median round on a quiet 2-core Xeon host.  It only sets
# the unit of the scaled timings, and must stay fixed across commits.
PROBE_REF_S = 0.01
# A pass is probed before it starts and after about every PROBE_EVERY_S
# of its own time, with PROBE_ROUNDS rounds each.
PROBE_EVERY_S = 0.25
PROBE_ROUNDS = 4
# Set-up is probed with work of its own kind: importing these standard
# library packages, which weldkit does not use, right after it.  The
# reference is their import time on the same quiet host.
IMPORT_PROBE = ("asyncio", "email.mime.multipart", "http.server", "sqlite3", "xml.dom.minidom")
IMPORT_PROBE_REF_S = 0.04


def import_probe() -> float:
    """Seconds to import IMPORT_PROBE in this interpreter, once.

    Set-up slows with the host only about half as much as host_probe
    does, and import_probe follows it more closely.  Fails if set-up
    already imported one of the packages, since the probe would shrink.
    """
    loaded = [name for name in IMPORT_PROBE if name.split(".")[0] in sys.modules]
    if loaded:
        raise SystemExit(f"set-up already imports {loaded}; the import probe needs others")
    start = time.perf_counter()
    for name in IMPORT_PROBE:
        importlib.import_module(name)
    return time.perf_counter() - start


def host_probe(rounds: int) -> float:
    """Median seconds of a round of fixed work that uses no weldkit code.

    The host's speed swings by up to half from one second to the next,
    in step for every process on it, so a pass's time is scaled by the
    probes taken around it.  A round, about 10 ms, mixes what weldkit
    spends its time on: interpreter loops over dicts and ints, row
    operations on small uint8 arrays, and a uint8 matrix product.
    numpy is imported by then, as part of set-up.
    """
    import numpy as np

    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        table = {}
        for i in range(20000):
            table[i ^ (i >> 3)] = i + 1
        rows = (np.arange(64 * 320).reshape(64, 320) * 2654435761 >> 7 & 1).astype(np.uint8)
        for c in range(64):
            for i in np.nonzero(rows[:, c])[0][:6]:
                rows[i] ^= rows[c]
        big = (np.arange(200 * 300) * 40503 >> 5 & 1).astype(np.uint8).reshape(200, 300)
        (big @ big.T) % 2
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class ScaledClock:
    """Times a pass in raw and in scaled seconds.

    A one-shot interval timer interrupts the pass after every
    PROBE_EVERY_S of its time; the handler probes the host and re-arms
    the timer.  The pass's time between two probes is scaled by
    PROBE_REF_S over the mean of the two, and the probes' own time is
    left out of both figures.  A long call into numpy defers the handler
    until it returns, so a segment may run longer than PROBE_EVERY_S.
    """

    def __init__(self, probe_before: float):
        self.segments: list[tuple[float, float, float]] = []
        self._probe = probe_before
        self._stopping = False
        self._began = self._cpu_began = 0.0
        self._cpu = 0.0

    def _segment(self):
        elapsed = time.perf_counter() - self._began
        self._cpu += time.process_time() - self._cpu_began
        probe = host_probe(PROBE_ROUNDS)
        self.segments.append((elapsed, self._probe, probe))
        self._probe = probe

    def _resume(self):
        self._cpu_began = time.process_time()
        self._began = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    def _tick(self, signum, frame):
        if self._stopping:
            return
        self._segment()
        self._resume()

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        self._resume()

    def stop(self) -> dict:
        self._stopping = True
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._segment()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return {
            "wall_s": sum(s for s, _, _ in self.segments),
            "cpu_s": self._cpu,
            "scaled_wall_s": sum(s * 2 * PROBE_REF_S / (a + b) for s, a, b in self.segments),
            "segments": len(self.segments),
            "longest_segment_s": max(s for s, _, _ in self.segments),
            "probe_s": statistics.median(p for _, p, _ in self.segments),
        }


def main(argv) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS[name]

    start = time.perf_counter()
    wk = importlib.import_module("weldkit")
    for module in workload.imports:
        importlib.import_module(module)
    inputs = workload.inputs(wk, seed)
    result = {"setup_s": time.perf_counter() - start}
    if mode == "setup":
        # Only here: the probe's packages would add to a pass's memory.
        probe = import_probe()
        result["import_probe_s"] = probe
        result["scaled_setup_s"] = result["setup_s"] * IMPORT_PROBE_REF_S / probe
        print(json.dumps(result))
        return 0

    tracer = None
    if mode == "plain":
        host_probe(1)  # the first round in a process runs up to three times slower
        clock = ScaledClock(host_probe(PROBE_ROUNDS))
        clock.start()
        outcome = workload.run(wk, inputs)
        result.update(clock.stop())
    else:
        from tracer import Tracer, span_cost

        tracer = Tracer(workload.op_starts)
        tracer.install()
        start = time.perf_counter()
        cpu = time.process_time()
        outcome = tracer.run(workload.run, wk, inputs)
        result["cpu_s"] = time.process_time() - cpu
        result["wall_s"] = time.perf_counter() - start
        tracer.uninstall()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result["attempted"] = outcome.attempted
    result["refused"] = outcome.refused
    result["problems"] = workload.check(outcome, seed)
    if tracer is not None:
        with open(ROOT / "BENCHMARK.json") as handle:
            names = [metric["name"] for metric in json.load(handle)["per_layer"]]
        result["layers"] = tracer.metrics(names, span_cost())
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{name}-{seed}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
