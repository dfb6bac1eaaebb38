"""Spans around weldkit's public functions, for the traced benchmark run.

install() replaces every public function of the layer modules with a
timing wrapper, in every weldkit namespace that binds it (builders, for
one, imports validate_or_raise by name), and wraps the PauliOperator
constructor.  Each call records a span: name, start, end, parent span
and operation id.  Spans stay in memory until the pass ends.  Nothing
under src/ changes; uninstall() puts the original functions back.

A span's self time is its duration minus the time its child spans
cover, less the cost of the wrappers around its children, which runs
inside it.  That cost is measured once per pass by span_cost(), on a
wrapped no-op, and reported with the counter probes' time as
trace.overhead_s.  The whole pass runs inside one root span named
"bench", so self times plus overhead come to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("gf2", "pauli", "css", "welding", "builders", "energy", "ising", "verify", "cli")

# The coercion helpers run twice inside every PauliOperator constructor;
# spans around them would outnumber the work they time.  Their time
# stays with the caller.
UNWRAPPED = frozenset({"gf2.as_matrix", "gf2.as_vector"})

ROOT = "bench"
PROBE = "trace.probe"


def _trace_bytes(code) -> int:
    """Bytes held by the distinct operator arrays of a weld trace."""
    seen = {}
    for entry in code.weld_trace.entries:
        for op in (entry.op, entry.part1, entry.part2, entry.shared_part):
            for bits in (op.x_bits, op.z_bits):
                seen[id(bits)] = bits.nbytes
    return sum(seen.values())


def _probe_rref(counters, args, kwargs, result, error):
    shape = np.shape(args[0])
    rows, cols = shape if len(shape) == 2 else (1, shape[0])
    counters["gf2.rref.cells"] += int(rows) * int(cols)


def _probe_validate(counters, args, kwargs, result, error):
    gens = getattr(args[0], "gens", args[0])
    counters["css.validate.macs"] += (
        int(gens.x_rows.shape[0]) * int(gens.z_rows.shape[0]) * int(gens.n)
    )


def _probe_weld(counters, args, kwargs, result, error):
    if error is not None:
        counters["welding.weld.rejected"] += 1
        return
    size = _trace_bytes(result)
    if size > counters["welding.trace_bytes_max"]:
        counters["welding.trace_bytes_max"] = size


def _search_probe(name):
    def probe(counters, args, kwargs, result, error):
        if error is not None:
            if type(error).__name__ == "FeasibilityError":
                counters[f"{name}.refused"] += 1
            return
        counters[f"{name}.states"] += result.states_explored

    return probe


# Counters read off a call's arguments or result, outside its span.
PROBES = {
    "gf2.rref": _probe_rref,
    "css.validate": _probe_validate,
    "welding.weld": _probe_weld,
    "energy.exact_barrier": _search_probe("energy.exact_barrier"),
    "energy.parity_lower_bound": _search_probe("energy.parity_lower_bound"),
}


def span_cost(rounds: int = 7, calls: int = 5000) -> float:
    """Seconds a wrapper adds to one call, timed on a no-op.

    The median over rounds of the wrapped loop's time less the plain
    loop's, per call.  The no-op takes arguments and runs under a root
    span, as the wrapped calls of a pass do.  It misses what a pass's
    own memory traffic adds, so it errs low.
    """

    def noop(a, b, c=None):
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("calibrate", noop)
    costs = []
    span = tracer._open(ROOT)
    for _ in range(rounds):
        start = time.perf_counter()
        for i in range(calls):
            noop(i, tracer, c=i)
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for i in range(calls):
            wrapped(i, tracer, c=i)
        costs.append((time.perf_counter() - start - plain) / calls)
    tracer._close(span)
    return max(statistics.median(costs), 0.0)


class Tracer:
    """Span recorder for one traced pass.

    op_starts holds (name, parent name) pairs: a span with that name
    under a parent of that name begins a new operation, as does every
    span called straight from the benchmark code.
    """

    def __init__(self, op_starts=()):
        # each span is [name, start, end, parent index, operation id]
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._op_starts = frozenset(op_starts)
        self._op = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        stack = self._stack
        parent = stack[-1] if stack else -1
        if parent >= 0:
            parent_name = self.spans[parent][0]
            if parent_name == ROOT or (name, parent_name) in self._op_starts:
                self._op += 1
        span = [name, 0.0, 0.0, parent, self._op]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list):
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        probe = PROBES.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as error:
                self._close(span)
                if probe is not None:
                    self._probe(probe, counters, args, kwargs, None, error)
                raise
            self._close(span)
            if probe is not None:
                self._probe(probe, counters, args, kwargs, result, None)
            return result

        return timed

    def _probe(self, probe, *args):
        span = self._open(PROBE)
        try:
            probe(*args)
        finally:
            self._close(span)

    def run(self, fn, *args):
        """Call fn inside the root span and return its result."""
        span = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(span)

    # -- installation ------------------------------------------------------

    def install(self, package_name: str = "weldkit"):
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package_name}.{layer}")
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in UNWRAPPED
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                ):
                    continue
                originals[id(obj)] = (obj, self.wrap(name, obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package_name and not mod_name.startswith(package_name + "."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        operator = importlib.import_module(f"{package_name}.pauli").PauliOperator
        self._restore.append((operator, "__post_init__", operator.__post_init__))
        operator.__post_init__ = self.wrap("pauli.PauliOperator", operator.__post_init__)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self, cost: float = 0.0) -> list[float]:
        """Each span's duration less its children's and their wrappers'."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start + cost
        return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def totals(self, cost: float = 0.0) -> tuple[Counter, dict]:
        """Calls per span name, and self seconds per span name."""
        calls: Counter = Counter()
        self_s: dict = defaultdict(float)
        for span, own in zip(self.spans, self.self_times(cost)):
            calls[span[0]] += 1
            self_s[span[0]] += own
        return calls, self_s

    def accounting(self, cost: float) -> dict:
        """Where the traced wall time went, in seconds.

        'layers' is the self time of the nine layers, 'bench' that of the
        benchmark's own code around them, and 'overhead' the tracing:
        `cost` per span plus the counter probes.  They add up to the
        root span's duration.
        """
        calls, self_s = self.totals(cost)
        layers = sum(seconds for name, seconds in self_s.items() if name.split(".")[0] in LAYERS)
        overhead = cost * (len(self.spans) - calls[ROOT]) + self_s[PROBE]
        return {"layers": layers, "bench": self_s[ROOT], "overhead": overhead}

    def metrics(self, names, cost: float) -> dict:
        """Values of the named per-layer metrics for this pass.

        `cost` is span_cost(), the seconds one wrapper adds.
        '<layer>.<function>.calls' counts spans, '<layer>.<function>.self_s'
        and '<layer>.self_s' sum self times, '.us_per_state' divides a
        search's self time by the states it explored, trace.overhead_s
        is the tracing's share of the traced wall time, and every other
        name is a probe counter.
        """
        calls, self_s = self.totals(cost)
        per_layer: dict = defaultdict(float)
        for name, seconds in self_s.items():
            per_layer[name.split(".")[0]] += seconds
        out = {}
        for metric in names:
            head, _, tail = metric.rpartition(".")
            if metric == "trace.overhead_s":
                out[metric] = self.accounting(cost)["overhead"]
            elif metric == "pauli.operators_created":
                out[metric] = calls["pauli.PauliOperator"]
            elif tail == "calls":
                out[metric] = calls[head]
            elif tail == "self_s":
                out[metric] = self_s.get(head, 0.0) if "." in head else per_layer[head]
            elif tail == "us_per_state":
                states = self.counters[f"{head}.states"]
                out[metric] = 1e6 * self_s.get(head, 0.0) / states if states else 0.0
            else:
                out[metric] = self.counters[metric]
        return out

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
