"""Command line front end.

Verbs: build, weld, info, barrier, bound, verify, sweep, export.  Every
verb takes --out; every verb but sweep and export takes --json.  barrier
and bound share one set of options: a code file or --family with its
size options, plus --kind, --logical and --max-states.
Exit codes: 0 on success (--help included), 1 for usage errors, for
validation and metadata problems and for a bound or verify check that
fails, 2 when a search refuses to start because it would exceed its
state cap.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from .builders import (
    SolidSpec,
    SurfaceSpec,
    build_repetition,
    build_solid,
    build_surface,
    build_two_qubit,
    build_welded_solid,
    build_welded_surface,
    cubic,
    flat_region_graph,
    grid2d,
    parse_weld_graph,
    path,
    star,
)
from . import gf2
from .css import _logical, dumps, loads
from .energy import (
    DEFAULT_STATE_CAP,
    exact_barrier,
    parity_lower_bound,
    verify_bound,
)
from .errors import (
    FeasibilityError,
    ValidationError,
    WeldkitError,
    _integer,
)
from .pauli import format_operator
from .verify import run_verification
from .welding import parse_identification, weld

# family name -> the code it builds from the parsed arguments
FAMILIES = {
    "two-qubit": lambda args: build_two_qubit(),
    "repetition": lambda args: build_repetition(args.length),
    "surface": lambda args: build_surface(SurfaceSpec(args.width, args.height)),
    "solid": lambda args: build_solid(
        SolidSpec(args.dx, args.dy, args.dz, args.horizontal_plaquettes)
    ),
    "welded-surface": lambda args: build_welded_surface(
        _graph_from_spec(args.graph), args.boundary, SurfaceSpec(args.width, args.height)
    ),
    "welded-solid": lambda args: build_welded_solid(
        _graph_from_spec(args.graph), SolidSpec(args.dx, args.dy, args.dz)
    ),
}

SWEEP_STATE_CAP = 1 << 18


def _open(path_arg: str, what: str, mode: str = "r"):
    """open(path_arg, mode), a failure raised as a ValidationError naming the path."""
    try:
        return open(path_arg, mode)
    except OSError as err:
        raise ValidationError(f"cannot {what} {path_arg!r}: {err}")


def _graph_from_spec(text: str):
    """A weld graph from 'path:n', 'star:n', 'grid:a,b', 'cubic:a,b,c',
    or else a file in the v/e line format."""
    head, sep, rest = text.partition(":")
    makers = {"path": (path, 1), "star": (star, 1), "grid": (grid2d, 2), "cubic": (cubic, 3)}
    if sep and head in makers:
        maker, arity = makers[head]
        try:
            nums = [int(part) for part in rest.split(",")]
        except ValueError:
            raise ValidationError(f"graph spec {text!r} has non-integer sizes")
        if len(nums) != arity:
            raise ValidationError(f"graph spec {head!r} takes {arity} size(s)")
        return maker(*nums)
    with _open(text, "read weld graph") as handle:
        return parse_weld_graph(handle.read())


def _add_family_options(parser, required: bool):
    parser.add_argument("--family", choices=FAMILIES, required=required)
    parser.add_argument("--length", type=int, default=3, help="repetition length")
    parser.add_argument("--width", type=int, default=2, help="surface width")
    parser.add_argument("--height", type=int, default=2, help="surface height")
    parser.add_argument("--dx", type=int, default=1, help="solid x size")
    parser.add_argument("--dy", type=int, default=1, help="solid y size")
    parser.add_argument("--dz", type=int, default=2, help="solid z size")
    parser.add_argument(
        "--horizontal-plaquettes",
        action="store_true",
        help="generate the redundant horizontal plaquettes of a solid",
    )
    parser.add_argument(
        "--graph",
        default="path:2",
        help="weld graph: path:n, star:n, grid:a,b, cubic:a,b,c, or a file",
    )
    parser.add_argument(
        "--boundary",
        choices=("rough", "smooth"),
        default="rough",
        help="which surface boundaries get welded",
    )


def _load_code(path_arg: str):
    with _open(path_arg, "read code file") as handle:
        text = handle.read()
    try:
        return loads(text)
    except ValidationError as err:
        raise ValidationError(f"{path_arg}: {err}") from None


def _code_for_analysis(args):
    if (args.code is None) == (args.family is None):
        raise ValidationError("give either a code file or --family")
    if args.code is not None:
        return _load_code(args.code)
    return FAMILIES[args.family](args)


def _emit(args, text: str, payload=None):
    """Write text to --out or stdout; under --json, payload as JSON instead."""
    if payload is not None and args.json:
        text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with _open(args.out, "write output file", "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _barrier_json(result) -> dict:
    return {
        "method": result.method,
        "barrier": result.barrier,
        "witness": [[q, kind] for q, kind in result.witness.steps],
        "states_explored": result.states_explored,
        "states_stored": result.states_stored,
    }


def cmd_build(args) -> int:
    code = FAMILIES[args.family](args)
    _emit(args, dumps(code, "json" if args.json else "text"))
    return 0


def cmd_weld(args) -> int:
    code1 = _load_code(args.code1)
    code2 = _load_code(args.code2)
    with _open(args.ident, "read identification") as handle:
        ident = parse_identification(handle.read())
    merged = weld(code1, code2, ident, args.type)
    _emit(args, dumps(merged, "json" if args.json else "text"))
    return 0


def cmd_info(args) -> int:
    code = _load_code(args.code)
    x_rank, z_rank = len(gf2._echelon(code.gens.x_packed)), len(gf2._echelon(code.gens.z_packed))
    fields = {
        "qubits": code.n,
        "encoded": code.n - x_rank - z_rank,
        "x_generators": len(code.gens.x_packed),
        "x_rank": x_rank,
        "z_generators": len(code.gens.z_packed),
        "z_rank": z_rank,
        "logicals": [
            {
                "x": format_operator(lc.x_rep),
                "z": format_operator(lc.z_rep),
            }
            for lc in code.logicals
        ],
    }
    lines = [
        f"qubits: {fields['qubits']}",
        f"encoded: {fields['encoded']}",
        f"x generators: {fields['x_generators']} (rank {fields['x_rank']})",
        f"z generators: {fields['z_generators']} (rank {fields['z_rank']})",
    ]
    for i, lc in enumerate(fields["logicals"]):
        lines.append(f"logical {i}: X={lc['x']}  Z={lc['z']}")
    _emit(args, "\n".join(lines) + "\n", fields)
    return 0


def cmd_barrier(args) -> int:
    code = _code_for_analysis(args)
    logical = _logical(code, args.logical)
    rep = logical.z_rep if args.kind == "z" else logical.x_rep
    result = exact_barrier(code, rep, args.kind, args.max_states)
    steps = " ".join(f"{q}{kind}" for q, kind in result.witness.steps)
    _emit(
        args,
        f"barrier: {result.barrier}\n"
        f"method: {result.method}\n"
        f"states explored: {result.states_explored}\n"
        f"states stored: {result.states_stored}\n"
        f"witness: {steps}\n",
        _barrier_json(result),
    )
    return 0


def cmd_bound(args) -> int:
    code = _code_for_analysis(args)
    report = verify_bound(code, args.kind, args.logical, args.max_states)
    _emit(
        args,
        f"parity bound: {report.bound.barrier}\n"
        f"exact barrier: {report.exact.barrier}\n"
        f"bound holds: {report.ok}\n"
        f"saturated: {report.saturated}\n",
        {
            "bound": _barrier_json(report.bound),
            "exact": _barrier_json(report.exact),
            "ok": report.ok,
            "saturated": report.saturated,
        },
    )
    return 0 if report.ok else 1


def cmd_verify(args) -> int:
    report = run_verification(seed=args.seed, rounds=args.rounds)
    checks = [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in report.checks]
    _emit(args, report.summary() + "\n", checks)
    return 0 if report.ok else 1


def cmd_sweep(args) -> int:
    """Exact barriers and parity bounds over a small welded-solid grid.

    Cells whose coset spaces outgrow the cap leave the exact columns
    blank; the bounds always fill in, which is the point of having
    them.  A bound above a filled exact cell raises AssertionError.
    """
    max_size = _integer(args.max_size, "max_size", 1)
    max_pieces = _integer(args.max_pieces, "max_pieces", 1)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        ["d", "R", "n", "barrier_X", "barrier_Z", "bound_X", "bound_Z", "seconds"]
    )
    for d in range(1, max_size + 1):
        for pieces in range(1, max_pieces + 1):
            started = time.perf_counter()
            spec = SolidSpec(d, d, 2)
            if pieces == 1:
                code = build_solid(spec)
            else:
                code = build_welded_solid(grid2d(pieces, pieces), spec)
            logical = code.logicals[0]
            cells = {}
            for kind, rep in (("X", logical.x_rep), ("Z", logical.z_rep)):
                try:
                    cells[f"barrier_{kind}"] = exact_barrier(
                        code, rep, kind.lower(), args.max_states
                    ).barrier
                except FeasibilityError:
                    cells[f"barrier_{kind}"] = ""
                graph = flat_region_graph(code, "z" if kind == "X" else "x")
                bound = parity_lower_bound(graph, rep, args.max_states).barrier
                barrier = cells[f"barrier_{kind}"]
                if barrier != "" and bound > barrier:
                    raise AssertionError(
                        f"parity bound {bound} exceeds exact barrier {barrier} "
                        f"for {kind} at d={d}, R={pieces}"
                    )
                cells[f"bound_{kind}"] = bound
            writer.writerow(
                [
                    d,
                    pieces,
                    code.n,
                    cells["barrier_X"],
                    cells["barrier_Z"],
                    cells["bound_X"],
                    cells["bound_Z"],
                    f"{time.perf_counter() - started:.3f}",
                ]
            )
    _emit(args, buffer.getvalue())
    return 0


def cmd_export(args) -> int:
    code = _load_code(args.code)
    _emit(args, dumps(code, args.format))
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, not argparse's 2.

    Exit code 2 belongs to the state-cap refusal; the subcommand parsers
    inherit this class through add_subparsers.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="weldkit",
        description="Build lattice stabilizer codes by welding and measure their energy barriers.",
    )
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write the output to this file, not to stdout")
    printed = argparse.ArgumentParser(add_help=False)
    printed.add_argument("--json", action="store_true", help="print JSON instead of text")
    analysis = argparse.ArgumentParser(add_help=False)
    analysis.add_argument("code", nargs="?", help="code file; or use --family")
    _add_family_options(analysis, required=False)
    analysis.add_argument("--kind", choices=("x", "z"), required=True)
    analysis.add_argument("--logical", type=int, default=0, help="logical class index")
    analysis.add_argument("--max-states", type=int, default=DEFAULT_STATE_CAP)
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, handler, help, *parents):
        p = sub.add_parser(name, help=help, parents=[*parents, out])
        p.set_defaults(handler=handler)
        return p

    p = verb("build", cmd_build, "construct a code and print it", printed)
    _add_family_options(p, required=True)
    p = verb("weld", cmd_weld, "weld two code files along an identification", printed)
    p.add_argument("code1")
    p.add_argument("code2")
    p.add_argument("--ident", required=True, help="file of 'qubit1 qubit2' lines")
    p.add_argument("--type", choices=("x", "z"), required=True)
    verb("info", cmd_info, "summarize a code file", printed).add_argument("code")
    verb("barrier", cmd_barrier, "exact energy barrier of a logical", analysis, printed)
    verb("bound", cmd_bound, "parity lower bound checked against the exact barrier",
         analysis, printed)
    p = verb("verify", cmd_verify, "run the built-in check suite", printed)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rounds", type=int, default=200)
    p = verb("sweep", cmd_sweep, "barrier table over welded-solid sizes, as CSV")
    p.add_argument("--max-size", type=int, default=2, help="largest piece side d")
    p.add_argument("--max-pieces", type=int, default=3, help="largest grid side R")
    p.add_argument("--max-states", type=int, default=SWEEP_STATE_CAP)
    p = verb("export", cmd_export, "rewrite a code file in another format")
    p.add_argument("code")
    p.add_argument("--format", choices=("text", "json"), required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except FeasibilityError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except WeldkitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
