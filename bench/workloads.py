"""The benchmark's four workloads: inputs, one timed pass, output checks.

Each workload has
  imports     modules to import during set-up, besides weldkit itself;
  inputs      (wk, seed) -> inputs, made during set-up;
  run         (wk, inputs) -> Outcome, the timed pass;
  check       (outcome, seed) -> list of mismatch messages, untimed;
  op_starts   (span, parent span) pairs that open a new operation in a
              traced pass, besides every call made by the pass itself.

Every library call goes through the package object wk at call time, so
the traced run's wrappers see it.  This module imports no weldkit code.

Why these four: assemble loads builders, welding, gf2 and css with large
registers and no search; certify is dominated by the energy searches;
sweep is the only one through cli and the only one with refusals; verify
runs thousands of small welds, where per-call overhead counts rather
than matrix size.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"

# One cap for every search, far above what any instance here stores or
# enumerates today, so the work stays the same if the cap's meaning
# changes.  The largest register searched has 93 qubits.
CAP = 1 << 96

SWEEP_ARGV = ("sweep", "--max-size", "3", "--max-pieces", "4")

VERIFY_ROUNDS = 1000
VERIFY_MAX_SIDE = 24
# Seeds are reduced modulo this; the reference holds one digest per seed.
VERIFY_SEEDS = 100

# Target masks for the parity bound, as vertex sets of the weld graph.
# The workload seed picks a symmetry image of each one: the bound is
# searched on the image and checked against the spin-flip barrier of
# the original.  Symmetric inputs cost the same search, so the work does
# not depend on the seed while the inputs do.
PARITY_TARGETS = {
    (2, 3, 3): (
        ((0, 0, 2), (0, 2, 0), (0, 2, 1)),
        ((0, 1, 0), (1, 0, 0), (1, 1, 0)),
        ((0, 0, 1), (1, 0, 0), (1, 2, 1)),
        ((0, 1, 0), (1, 0, 0), (1, 0, 2)),
    ),
    (4, 5): (
        ((1, 3), (2, 0), (3, 1)),
        ((1, 3), (1, 4), (2, 0)),
        ((1, 0), (2, 4), (3, 0)),
        ((1, 0), (2, 4), (3, 1)),
    ),
}


@dataclass
class Outcome:
    """What a pass produced: its outputs and its operation counts."""

    outputs: dict = field(default_factory=dict)
    attempted: int = 0
    refused: int = 0


def load_reference(name: str):
    with open(REFERENCE / f"{name}.json") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# digests


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def _patches(patches) -> list:
    return [(p.label, p.qubits) for p in patches]


def code_digest(code) -> str:
    """Order-sensitive digest of generator rows, logicals and regions."""
    parts = [code.n]
    for rows in (code.x_rows, code.z_rows):
        parts += [rows.shape, rows.astype("uint8").tobytes()]
    for cls in code.logicals:
        for op in (cls.x_rep, cls.z_rep):
            parts += [op.x_bits.astype("uint8").tobytes(), op.z_bits.astype("uint8").tobytes()]
    meta = code.region_metadata or {}
    for kind in sorted(meta):
        graph = meta[kind]
        parts += [
            kind,
            graph.particle_type,
            graph.n,
            _patches(graph.regions),
            _patches(graph.boundaries),
            graph.incidence,
        ]
    return _digest(*parts)


def walk_digest(walk) -> str:
    return _digest(tuple(walk.steps))


# ---------------------------------------------------------------------------
# assemble


def _assemble_inputs(wk, seed):
    # Deterministic constructions: the seed has nothing to vary here.
    # The solid's check matrix product is one numpy call, which the host
    # probe cannot split (see worker.ScaledClock); at 9x9x9 (n = 2340) it
    # takes about a second, at 10x10x10 five.
    return (
        ("solid 9x9x9", "build_solid", (wk.SolidSpec(9, 9, 9),)),
        (
            "welded solid cubic(3,3,3) 1x1x2",
            "build_welded_solid",
            (wk.cubic(3, 3, 3), wk.SolidSpec(1, 1, 2)),
        ),
        (
            "welded solid cubic(2,2,2) 3x3x2",
            "build_welded_solid",
            (wk.cubic(2, 2, 2), wk.SolidSpec(3, 3, 2)),
        ),
        (
            "welded surface grid2d(4,4) rough 3x3",
            "build_welded_surface",
            (wk.grid2d(4, 4), "rough", wk.SurfaceSpec(3, 3)),
        ),
    )


def _assemble_run(wk, inputs) -> Outcome:
    outcome = Outcome()
    for label, builder, args in inputs:
        outcome.attempted += 1
        outcome.outputs[label] = getattr(wk, builder)(*args)
    return outcome


def _assemble_check(outcome, seed) -> list[str]:
    reference = load_reference("assemble")
    problems = []
    for label, want in reference.items():
        code = outcome.outputs.get(label)
        got = None if code is None else code_digest(code)
        if got != want:
            problems.append(f"assemble: {label} digest {got} != reference {want}")
    return problems


# ---------------------------------------------------------------------------
# certify


def _symmetries(dims):
    """Maps of the grid with these side lengths onto itself."""
    maps = []
    for perm in itertools.permutations(range(len(dims))):
        if any(dims[p] != dims[i] for i, p in enumerate(perm)):
            continue
        for flips in itertools.product((False, True), repeat=len(dims)):
            maps.append((perm, flips))
    return maps


def _image(vertex, perm, flips, dims):
    moved = [vertex[p] for p in perm]
    return tuple(dims[i] - 1 - x if flip else x for i, (x, flip) in enumerate(zip(moved, flips)))


def _certify_inputs(wk, seed):
    rng = random.Random(seed)
    parity = []
    for dims, targets in PARITY_TARGETS.items():
        graph = wk.cubic(*dims) if len(dims) == 3 else wk.grid2d(*dims)
        index = {v: i for i, v in enumerate(graph.vertices)}
        symmetries = _symmetries(dims)
        cases = []
        for target in targets:
            perm, flips = rng.choice(symmetries)
            image = [index[_image(v, perm, flips, dims)] for v in target]
            base = sum(1 << index[v] for v in target)
            cases.append((tuple(sorted(image)), base))
        parity.append((graph, tuple(cases)))
    return {
        "solids": (wk.SolidSpec(2, 2, 3), wk.SolidSpec(3, 3, 2)),
        "welded": (wk.star(4), wk.grid2d(2, 2)),
        "welded_spec": wk.SolidSpec(2, 2, 2),
        "parity": tuple(parity),
    }


def _certify_run(wk, inputs) -> Outcome:
    outcome = Outcome()
    exact = outcome.outputs["exact"] = []
    for spec in inputs["solids"]:
        code = wk.build_solid(spec)
        result = wk.exact_barrier(code, code.logicals[0].x_rep, "x", CAP)
        exact.append((repr(spec), result, wk.walk_barrier(code, result.witness)))
    bounds = outcome.outputs["bounds"] = []
    for graph in inputs["welded"]:
        code = wk.build_welded_solid(graph, inputs["welded_spec"])
        for kind in ("x", "z"):
            report = wk.verify_bound(code, kind, 0, CAP)
            walked = wk.walk_barrier(code, report.exact.witness)
            bounds.append((f"{graph.name} {kind}", report, walked))
    parity = outcome.outputs["parity"] = []
    for graph, cases in inputs["parity"]:
        region = wk.region_graph_from_weld_graph(graph)
        for image, base in cases:
            rep = wk.PauliOperator.from_support(region.n, z=image)
            bound = wk.parity_lower_bound(region, rep, CAP)
            spins = wk.spin_flip_barrier(region.n, region.incidence, base)
            parity.append((f"{graph.name} {image}", bound.barrier, spins))
    outcome.attempted = len(exact) + len(bounds) + 2 * len(parity)
    return outcome


def _certify_check(outcome, seed) -> list[str]:
    reference = load_reference("certify")
    problems = []
    for part in ("exact", "bounds"):
        labels = {label for label, _, _ in outcome.outputs[part]}
        if labels != set(reference[part]):
            problems.append(f"certify: {part} instances {sorted(labels)} != reference {sorted(reference[part])}")
    for label, result, walked in outcome.outputs["exact"]:
        want = reference["exact"].get(label)
        got = {"barrier": result.barrier, "witness": walk_digest(result.witness)}
        if got != want:
            problems.append(f"certify: exact {label} gave {got}, reference {want}")
        if walked != result.barrier:
            problems.append(f"certify: exact {label} witness walks to {walked}")
    for label, report, walked in outcome.outputs["bounds"]:
        want = reference["bounds"].get(label)
        got = {
            "bound": report.bound.barrier,
            "barrier": report.exact.barrier,
            "witness": walk_digest(report.exact.witness),
        }
        if got != want:
            problems.append(f"certify: bound {label} gave {got}, reference {want}")
        if not report.ok or report.bound.barrier > report.exact.barrier:
            problems.append(f"certify: bound {label} exceeds the exact barrier")
        if walked != report.exact.barrier:
            problems.append(f"certify: bound {label} witness walks to {walked}")
    cases = sum(len(targets) for targets in PARITY_TARGETS.values())
    if len(outcome.outputs["parity"]) != cases:
        problems.append(f"certify: {len(outcome.outputs['parity'])} parity cases, expected {cases}")
    for label, bound, spins in outcome.outputs["parity"]:
        if bound != spins:
            problems.append(f"certify: parity bound {bound} != spin-flip barrier {spins} on {label}")
    return problems


# ---------------------------------------------------------------------------
# sweep


def _sweep_inputs(wk, seed):
    # The sweep grid is fixed by its arguments; the seed has nothing to vary.
    return list(SWEEP_ARGV)


def _sweep_run(wk, argv) -> Outcome:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = wk.cli.main(argv)
    rows = strip_seconds(buffer.getvalue())
    cells = [cell for row in rows[1:] for cell in row.split(",")[3:5]]
    return Outcome(
        {"status": status, "rows": rows},
        attempted=len(cells),
        refused=sum(1 for cell in cells if cell == ""),
    )


def strip_seconds(text: str) -> list[str]:
    """CSV lines with the last column, the cell's seconds, dropped."""
    return [line.rsplit(",", 1)[0] for line in text.splitlines()]


def _sweep_check(outcome, seed) -> list[str]:
    want = load_reference("sweep")
    problems = []
    if outcome.outputs["status"] != 0:
        problems.append(f"sweep: exit status {outcome.outputs['status']}")
    if outcome.outputs["rows"] != want:
        problems.append(f"sweep: table {outcome.outputs['rows']} != reference {want}")
    return problems


# ---------------------------------------------------------------------------
# verify


def _verify_inputs(wk, seed):
    return {"seed": seed % VERIFY_SEEDS, "rounds": VERIFY_ROUNDS, "max_side": VERIFY_MAX_SIDE}


def _verify_run(wk, inputs) -> Outcome:
    report = wk.run_verification(**inputs)
    return Outcome({"report": report}, attempted=inputs["rounds"])


def report_digest(report) -> str:
    return _digest([(check.name, check.ok, check.detail) for check in report.checks])


def _verify_check(outcome, seed) -> list[str]:
    report = outcome.outputs["report"]
    want = load_reference("verify")[str(seed % VERIFY_SEEDS)]
    problems = []
    if not report.ok:
        problems.append("verify: report is not ok:\n" + report.summary())
    if report_digest(report) != want:
        problems.append("verify: checks differ from the reference:\n" + report.summary())
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    imports: tuple
    inputs: object
    run: object
    check: object
    op_starts: tuple = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("assemble", (), _assemble_inputs, _assemble_run, _assemble_check),
        Workload("certify", (), _certify_inputs, _certify_run, _certify_check),
        Workload(
            "sweep",
            ("weldkit.cli",),
            _sweep_inputs,
            _sweep_run,
            _sweep_check,
            # one operation per sweep cell, which starts with its build
            (
                ("builders.build_solid", "cli.cmd_sweep"),
                ("builders.build_welded_solid", "cli.cmd_sweep"),
            ),
        ),
        Workload(
            "verify",
            (),
            _verify_inputs,
            _verify_run,
            _verify_check,
            # one operation per round, which starts by drawing its case
            (("verify.random_weld_case", "verify.run_verification"),),
        ),
    )
}
