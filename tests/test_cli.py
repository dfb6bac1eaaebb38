import argparse
import json
from dataclasses import replace
from pathlib import Path

import pytest

from weldkit import cli
from weldkit.builders import SolidSpec, build_repetition, build_solid, build_two_qubit
from weldkit.cli import main
from weldkit.css import CssCode, GeneratingSet, dumps, groups_equal, loads


FAMILY_NAMES = ("two-qubit", "repetition", "surface", "solid", "welded-surface", "welded-solid")
KINDS = ("x", "z")
# option -> (default, choices, required, nargs, type)
OUT = {"--out": (None, None, False, None, None)}
JSON = {"--json": (False, None, False, 0, None)}
FAMILY_SIZES = {
    "--length": (3, None, False, None, int),
    "--width": (2, None, False, None, int),
    "--height": (2, None, False, None, int),
    "--dx": (1, None, False, None, int),
    "--dy": (1, None, False, None, int),
    "--dz": (2, None, False, None, int),
    "--horizontal-plaquettes": (False, None, False, 0, None),
    "--graph": ("path:2", None, False, None, None),
    "--boundary": ("rough", ("rough", "smooth"), False, None, None),
}
ANALYSIS = {
    "code": (None, None, False, "?", None),
    "--family": (None, FAMILY_NAMES, False, None, None),
    **FAMILY_SIZES,
    "--kind": (None, KINDS, True, None, None),
    "--logical": (0, None, False, None, int),
    "--max-states": (1 << 22, None, False, None, int),
}
INTERFACE = {
    "build": {"--family": (None, FAMILY_NAMES, True, None, None), **FAMILY_SIZES, **JSON, **OUT},
    "weld": {
        "code1": (None, None, True, None, None),
        "code2": (None, None, True, None, None),
        "--ident": (None, None, True, None, None),
        "--type": (None, KINDS, True, None, None),
        **JSON,
        **OUT,
    },
    "info": {"code": (None, None, True, None, None), **JSON, **OUT},
    "barrier": {**ANALYSIS, **JSON, **OUT},
    "bound": {**ANALYSIS, **JSON, **OUT},
    "verify": {
        "--seed": (0, None, False, None, int),
        "--rounds": (200, None, False, None, int),
        **JSON,
        **OUT,
    },
    "sweep": {
        "--max-size": (2, None, False, None, int),
        "--max-pieces": (3, None, False, None, int),
        "--max-states": (1 << 18, None, False, None, int),
        **OUT,
    },
    "export": {
        "code": (None, None, True, None, None),
        "--format": (None, ("text", "json"), True, None, None),
        **OUT,
    },
}
POSITIONALS = {"weld": ["code1", "code2"], "info": ["code"], "barrier": ["code"],
               "bound": ["code"], "export": ["code"]}


def test_every_verb_keeps_its_options():
    verbs = next(
        action.choices
        for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert list(verbs) == list(INTERFACE)
    for verb, parser in verbs.items():
        table, positionals = {}, []
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            assert len(action.option_strings) <= 1, (verb, action.option_strings)
            name = action.option_strings[0] if action.option_strings else action.dest
            if not action.option_strings:
                positionals.append(name)
            else:
                assert action.dest == name[2:].replace("-", "_")
            choices = None if action.choices is None else tuple(action.choices)
            table[name] = (action.default, choices, action.required, action.nargs, action.type)
        assert table == INTERFACE[verb], verb
        assert positionals == POSITIONALS.get(verb, []), verb
        assert parser.get_default("handler") is getattr(cli, f"cmd_{verb}")


def write(path, text):
    path.write_text(text)
    return str(path)


def test_build_and_export_round_trip(tmp_path):
    built = tmp_path / "code.txt"
    assert main(["build", "--family", "two-qubit", "--out", str(built)]) == 0
    as_json = tmp_path / "code.json"
    assert main(["export", str(built), "--format", "json", "--out", str(as_json)]) == 0
    code = loads(as_json.read_text())
    assert groups_equal(code, build_two_qubit())
    back = tmp_path / "back.txt"
    assert main(["export", str(as_json), "--format", "text", "--out", str(back)]) == 0
    assert groups_equal(loads(back.read_text()), build_two_qubit())


def test_weld_command_produces_the_merged_group(tmp_path):
    piece = dumps(build_two_qubit(), "text")
    one = write(tmp_path / "one.txt", piece)
    two = write(tmp_path / "two.txt", piece)
    ident = write(tmp_path / "ident.txt", "1 0\n")
    out = tmp_path / "merged.txt"
    rc = main(["weld", one, two, "--ident", ident, "--type", "z", "--out", str(out)])
    assert rc == 0
    want = CssCode(GeneratingSet(3, [[1, 1, 0], [0, 1, 1]], [[1, 1, 1]]))
    assert groups_equal(loads(out.read_text()), want)


def test_info_reports_counts(tmp_path, capsys):
    built = tmp_path / "code.txt"
    main(["build", "--family", "surface", "--width", "2", "--height", "2",
          "--out", str(built)])
    assert main(["info", str(built)]) == 0
    text = capsys.readouterr().out
    assert "qubits: 8" in text
    assert "encoded: 1" in text
    assert "logical 0:" in text


def test_barrier_json_fields(tmp_path):
    out = tmp_path / "result.json"
    rc = main([
        "barrier", "--family", "solid", "--dx", "1", "--dy", "1", "--dz", "2",
        "--kind", "x", "--json", "--out", str(out),
    ])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["method"] == "exact"
    assert data["barrier"] == 2
    assert data["states_explored"] >= 1
    assert all(kind == "x" for _, kind in data["witness"])


def test_barrier_reports_stored_states(tmp_path, capsys):
    argv = ["barrier", "--family", "solid", "--dx", "1", "--dy", "1", "--dz", "2", "--kind", "x"]
    out = tmp_path / "result.json"
    assert main(argv + ["--json", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["states_explored"] <= data["states_stored"]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert f"states stored: {data['states_stored']}\n" in text


def test_bound_on_welded_solid_star(tmp_path):
    out = tmp_path / "report.json"
    rc = main([
        "bound", "--family", "welded-solid", "--graph", "star:3",
        "--kind", "z", "--json", "--out", str(out),
    ])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["bound"]["barrier"] == 2
    assert data["exact"]["barrier"] == 2
    assert data["ok"] and data["saturated"]


def test_bound_that_exceeds_the_exact_barrier_fails(tmp_path, monkeypatch):
    real = cli.verify_bound

    def broken(*args):
        report = real(*args)
        return replace(report, ok=False)

    monkeypatch.setattr(cli, "verify_bound", broken)
    argv = ["bound", "--family", "welded-solid", "--graph", "star:3", "--kind", "z"]
    assert main(argv + ["--out", str(tmp_path / "report.txt")]) == 1
    assert "bound holds: False" in (tmp_path / "report.txt").read_text()
    assert main(argv + ["--json", "--out", str(tmp_path / "report.json")]) == 1
    assert json.loads((tmp_path / "report.json").read_text())["ok"] is False


def test_bound_needs_builder_metadata(tmp_path, capsys):
    solid = tmp_path / "solid.txt"
    solid.write_text(dumps(build_solid(SolidSpec(1, 1, 2)), "text"))
    rc = main(["bound", str(solid), "--kind", "z"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("index", ["1", "3", "-1"])
def test_bound_rejects_a_logical_index_out_of_range(index, capsys):
    argv = ["bound", "--family", "welded-solid", "--kind", "z", "--logical", index]
    assert main(argv) == 1
    assert "out of range" in capsys.readouterr().err


def test_build_solid_with_horizontal_plaquettes(tmp_path):
    out = tmp_path / "solid.txt"
    argv = ["build", "--family", "solid", "--horizontal-plaquettes", "--out", str(out)]
    assert main(argv) == 0
    assert groups_equal(loads(out.read_text()), build_solid(SolidSpec(1, 1, 2)))


def test_build_repetition_and_info_json(tmp_path, capsys):
    built = tmp_path / "rep.txt"
    assert main(["build", "--family", "repetition", "--out", str(built)]) == 0
    code = loads(built.read_text())
    assert groups_equal(code, build_repetition(3))
    assert code.logicals == build_repetition(3).logicals
    assert main(["info", str(built), "--json"]) == 0
    fields = json.loads(capsys.readouterr().out)
    assert (fields["qubits"], fields["encoded"], fields["x_rank"], fields["z_rank"]) == (3, 1, 2, 0)
    assert fields["logicals"] == [{"x": "XII", "z": "ZZZ"}]


def test_verify_json_lists_every_check(capsys):
    assert main(["verify", "--rounds", "2", "--json"]) == 0
    checks = json.loads(capsys.readouterr().out)
    assert checks and all(set(c) == {"name", "ok", "detail"} and c["ok"] for c in checks)


@pytest.mark.parametrize(
    "spec, message", [("grid:2", "takes 2 size(s)"), ("path:x", "non-integer sizes")]
)
def test_graph_spec_sizes_are_checked(spec, message, capsys):
    assert main(["build", "--family", "welded-solid", "--graph", spec]) == 1
    assert message in capsys.readouterr().err


def test_analysis_needs_a_code_file_or_a_family(capsys):
    assert main(["barrier", "--kind", "z"]) == 1
    assert "error: give either a code file or --family" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("{not json", "bad JSON"),
        ('{"n": 3, "x_gens": null}', "'x_gens' must be a list of strings"),
        ('{"n": 3, "logical_x": 5, "logical_z": 5}', "'logical_x' must be a list of strings"),
        ('{"n": 2.7, "x_gens": ["XX"]}', "integer 'n'"),
    ],
)
def test_malformed_code_files_are_clean_errors(tmp_path, text, message, capsys):
    assert main(["info", write(tmp_path / "bad.json", text)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "code, index", [(build_repetition(3), "1"), (build_two_qubit(), "0")]
)
def test_barrier_rejects_a_logical_class_the_code_lacks(tmp_path, code, index, capsys):
    path = write(tmp_path / "code.txt", dumps(code, "text"))
    assert main(["barrier", path, "--kind", "x", "--logical", index]) == 1
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("kind, refusal", [("z", "coset space"), ("x", "spin space")])
def test_bound_state_cap_exit_code(kind, refusal, capsys):
    assert main(["bound", "--family", "solid", "--kind", kind, "--max-states", "4"]) == 2
    assert f"error: {refusal} exceeds the state cap" in capsys.readouterr().err


def test_barrier_state_cap_exit_code(capsys):
    rc = main([
        "barrier", "--family", "solid", "--kind", "z", "--max-states", "4",
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["barrier", "bound", "sweep"])
@pytest.mark.parametrize("cap", ["0", "-1"])
def test_a_state_cap_below_one_is_a_usage_error(verb, cap, capsys):
    argv = [verb, "--max-states", cap]
    if verb != "sweep":
        argv += ["--family", "solid", "--kind", "z"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: state cap must be at least 1, got {cap}\n"
    assert captured.out == ""


def test_verify_rejects_negative_rounds(capsys):
    assert main(["verify", "--rounds", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: rounds must not be negative")
    assert "FAIL" not in captured.out


def test_verify_rejects_a_negative_seed(capsys):
    assert main(["verify", "--seed", "-3", "--rounds", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: seed must not be negative, got -3\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, complaint",
    [
        (["build", "--family", "nope"], "argument --family: invalid choice: 'nope'"),
        (["barrier", "--family", "two-qubit"], "the following arguments are required: --kind"),
    ],
)
def test_usage_errors_exit_1_with_the_usage_text(argv, complaint, capsys):
    # 2 is the state-cap refusal's code, so a mistyped command must not use it
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: weldkit {argv[0]} ")
    assert complaint in err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["build", "--help"])
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("usage: weldkit build ")


def test_verify_is_deterministic_per_seed(tmp_path):
    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    assert main(["verify", "--rounds", "5", "--out", str(first)]) == 0
    assert main(["verify", "--rounds", "5", "--out", str(second)]) == 0
    assert first.read_text() == second.read_text()
    assert "ok" in first.read_text()


def test_sweep_produces_the_barrier_table(tmp_path):
    out = tmp_path / "table.csv"
    rc = main(["sweep", "--max-size", "1", "--max-pieces", "2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "d,R,n,barrier_X,barrier_Z,bound_X,bound_Z,seconds"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert (first[0], first[1]) == ("1", "1")
    assert first[3] == "2" and first[5] == "2"


def test_sweep_asserts_the_bound_stays_below_the_barrier(tmp_path, monkeypatch):
    real = cli.parity_lower_bound

    def inflated(*args):
        result = real(*args)
        return replace(result, barrier=result.barrier + 1)

    monkeypatch.setattr(cli, "parity_lower_bound", inflated)
    argv = ["sweep", "--max-size", "1", "--max-pieces", "1"]
    with pytest.raises(AssertionError, match="exceeds exact barrier"):
        main(argv + ["--out", str(tmp_path / "table.csv")])


def test_conflicting_code_sources_are_rejected(tmp_path, capsys):
    built = tmp_path / "code.txt"
    main(["build", "--family", "two-qubit", "--out", str(built)])
    rc = main(["barrier", str(built), "--family", "two-qubit", "--kind", "z"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_missing_file_is_a_clean_error(capsys):
    assert main(["info", "/no/such/code.txt"]) == 1
    assert "error:" in capsys.readouterr().err


def test_unwritable_output_is_a_clean_error(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "x.txt"
    assert main(["build", "--family", "two-qubit", "--out", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output file")
    assert str(target) in err
    assert not target.exists()


def test_bad_graph_spec_is_a_clean_error(capsys):
    rc = main([
        "build", "--family", "welded-surface", "--graph", "blob:3",
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_graph_file_input(tmp_path):
    graph = write(tmp_path / "graph.txt", "v a\nv b\nv c\ne a b\ne b c\n")
    out = tmp_path / "code.txt"
    rc = main([
        "build", "--family", "welded-surface", "--graph", graph,
        "--boundary", "rough", "--out", str(out),
    ])
    assert rc == 0
    assert loads(out.read_text()).n == 13


def test_graph_file_with_an_isolated_vertex_is_a_clean_error(tmp_path, capsys):
    graph = write(tmp_path / "graph.txt", "v a\nv b\nv c\ne a b\n")
    rc = main([
        "build", "--family", "welded-solid", "--graph", graph,
        "--out", str(tmp_path / "code.txt"),
    ])
    assert rc == 1
    assert "error: weld graph must be connected" in capsys.readouterr().err


def test_sweep_table_matches_the_bench_reference(capsys):
    # the benchmark's sweep workload checks the same table; its last
    # column is the cell's seconds, which the reference leaves out
    reference = Path(__file__).resolve().parents[1] / "bench" / "reference" / "sweep.json"
    want = json.loads(reference.read_text())
    assert main(["sweep", "--max-size", "3", "--max-pieces", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.rsplit(",", 1)[0] for line in lines] == want
