"""Tests of the benchmark itself: its output checks and its tracing.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import signal
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads as w  # noqa: E402
from tracer import LAYERS, Tracer, span_cost  # noqa: E402

import weldkit as wk  # noqa: E402
import weldkit.builders  # noqa: E402

ASSEMBLE, CERTIFY, SWEEP, VERIFY = (w.WORKLOADS[name] for name in run.WORKLOADS)


def _problems_about(problems, text):
    return [p for p in problems if text in p]


def test_assemble_check_rejects_swapped_generator_rows():
    label, builder, args = ASSEMBLE.inputs(wk, 0)[3]
    code = getattr(wk, builder)(*args)
    assert not _problems_about(ASSEMBLE.check(w.Outcome({label: code}), 0), label)

    rows = code.z_rows.copy()
    rows[[0, 1]] = rows[[1, 0]]
    assert not np.array_equal(rows, code.z_rows)
    swapped = replace(code, gens=wk.GeneratingSet(code.n, code.x_rows, rows))
    problems = ASSEMBLE.check(w.Outcome({label: swapped}), 0)
    assert _problems_about(problems, label)


def _exact_outcome(result, code):
    label = repr(wk.SolidSpec(2, 2, 3))
    walked = wk.walk_barrier(code, result.witness)
    return w.Outcome({"exact": [(label, result, walked)], "bounds": [], "parity": []}), label


def test_certify_check_rejects_changed_witness_step():
    code = wk.build_solid(wk.SolidSpec(2, 2, 3))
    result = wk.exact_barrier(code, code.logicals[0].x_rep, "x", w.CAP)
    outcome, label = _exact_outcome(result, code)
    assert not _problems_about(CERTIFY.check(outcome, 0), f"exact {label}")

    steps = list(result.witness.steps)
    q, kind = steps[0]
    steps[0] = ((q + 1) % code.n, kind)
    changed = replace(result, witness=wk.PauliWalk(tuple(steps)))
    outcome, label = _exact_outcome(changed, code)
    assert _problems_about(CERTIFY.check(outcome, 0), f"exact {label}")


def test_certify_check_rejects_parity_mismatch():
    outcome = w.Outcome({"exact": [], "bounds": [], "parity": [("g", 3, 4)]})
    assert _problems_about(CERTIFY.check(outcome, 0), "spin-flip barrier 4")


def test_sweep_check_rejects_changed_cell():
    rows = w.load_reference("sweep")
    assert SWEEP.check(w.Outcome({"status": 0, "rows": list(rows)}), 0) == []
    changed = list(rows)
    changed[3] = changed[3].replace(",,", ",9,", 1)
    assert SWEEP.check(w.Outcome({"status": 0, "rows": changed}), 0)


def test_strip_seconds_drops_only_the_last_column():
    assert w.strip_seconds("d,R\n1,2,0.5\n") == ["d", "1,2"]


def test_certify_inputs_follow_the_seed():
    a = CERTIFY.inputs(wk, 1)["parity"]
    assert a == CERTIFY.inputs(wk, 1)["parity"]
    assert any(CERTIFY.inputs(wk, s)["parity"] != a for s in range(2, 6))


def test_install_wraps_every_binding_and_uninstall_restores():
    original = weldkit.builders.validate_or_raise
    t = Tracer()
    t.install()
    try:
        assert weldkit.builders.validate_or_raise is not original
        assert weldkit.builders.validate_or_raise.__wrapped__ is original
        assert wk.validate_or_raise is weldkit.builders.validate_or_raise
    finally:
        t.uninstall()
    assert weldkit.builders.validate_or_raise is original
    assert wk.validate_or_raise is original


def _busy(seconds):
    end = time.perf_counter() + seconds
    total = 0
    while time.perf_counter() < end:
        total += sum(range(1000))
    return total


def test_scaled_clock_probes_between_segments_and_leaves_probes_out():
    clock = worker.ScaledClock(worker.host_probe(worker.PROBE_ROUNDS))
    start = time.perf_counter()
    clock.start()
    _busy(1.0)
    figures = clock.stop()
    elapsed = time.perf_counter() - start
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    # the busy loop watches the clock, which keeps running during probes
    assert figures["segments"] >= 3
    assert figures["wall_s"] < 1.0 < elapsed
    assert figures["longest_segment_s"] < 0.5
    ref = worker.PROBE_REF_S
    assert figures["scaled_wall_s"] == pytest.approx(
        sum(s * 2 * ref / (a + b) for s, a, b in clock.segments)
    )
    assert [a for _, a, _ in clock.segments[1:]] == [b for _, _, b in clock.segments[:-1]]


def _layer_names():
    with open(HERE.parent / "BENCHMARK.json") as handle:
        return [m["name"] for m in json.load(handle)["per_layer"]]


def _traced_verify(rounds):
    t = Tracer(VERIFY.op_starts)
    t.install()
    try:
        start = time.perf_counter()
        t.run(VERIFY.run, wk, {"seed": 0, "rounds": rounds, "max_side": w.VERIFY_MAX_SIDE})
        traced = time.perf_counter() - start
    finally:
        t.uninstall()
    return t, traced


def test_traced_self_times_and_overhead_account_for_traced_wall_time():
    t, traced = _traced_verify(40)
    cost = span_cost()
    assert cost > 0
    metrics = t.metrics(_layer_names(), cost)
    overhead = metrics["trace.overhead_s"]
    assert overhead >= cost * (len(t.spans) - 1)
    layer_self = metrics["ising.spin_flip_barrier.self_s"] + sum(
        metrics[f"{layer}.self_s"] for layer in LAYERS if layer != "ising"
    )
    assert layer_self == pytest.approx(t.accounting(cost)["layers"])
    bench_self = t.accounting(cost)["bench"]
    # The root span sits inside the timed region, so the parts may fall
    # short of the traced wall time by the cost of opening it.
    assert layer_self + bench_self + overhead == pytest.approx(traced, abs=1e-3)
    assert layer_self >= 0.8 * traced
    assert metrics["verify.random_weld_case.self_s"] > 0
    # one operation per round, plus the golden checks before them
    assert len({span[4] for span in t.spans}) >= 40


def test_span_cost_predicts_the_slowdown_of_a_call_heavy_pass():
    """The calibrated overhead matches traced minus untraced time.

    Small welds make many spans per second, so the tracing is a large
    part of the traced time there; the best of a few tries on each side
    keeps the host's jitter out.  The calibration on a no-op misses
    some of a real call's cost, so it may fall short.
    """
    inputs = {"seed": 0, "rounds": 20, "max_side": 4}
    untraced = traced = float("inf")
    for _ in range(7):
        start = time.perf_counter()
        VERIFY.run(wk, inputs)
        untraced = min(untraced, time.perf_counter() - start)
        t = Tracer(VERIFY.op_starts)
        t.install()
        try:
            start = time.perf_counter()
            t.run(VERIFY.run, wk, inputs)
            traced = min(traced, time.perf_counter() - start)
        finally:
            t.uninstall()
    overhead = t.accounting(span_cost())["overhead"]
    assert 0.4 * (traced - untraced) <= overhead <= 2.5 * (traced - untraced)


def test_benchmark_file_matches_layers_and_runner():
    with open(HERE.parent / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    with open(HERE / "layers.json") as handle:
        moves = json.load(handle)["metrics"]
    assert set(moves) == set(_layer_names())
    ends = {m["name"] for m in bench["end_to_end"]}
    assert [x["name"] for x in bench["workloads"]] == list(run.WORKLOADS)
    for entry in moves.values():
        for move in entry["moves"]:
            metric, _, workload = move.partition(" on ")
            assert metric in ends and workload in run.WORKLOADS
