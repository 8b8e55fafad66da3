import json
import subprocess
import sys
from pathlib import Path

import pytest

from exactcat import cli
from exactcat.algebra import AlgebraError
from exactcat.auslander import AuslanderError
from exactcat.cli import EXIT_CAP, EXIT_INPUT, EXIT_OK, EXIT_VERIFY, Session, SessionError, main, run_session
from exactcat.exactstruct import ExactstructError, GuardExceeded
from exactcat.functorcat import FunctorcatError
from exactcat.linalg import ExactcatError, LinalgError
from exactcat.repmod import CapExceeded, RepmodError


def session_kA2(commands, **extra):
    payload = {
        "p": 2,
        "quiver": {"vertices": ["1", "2"], "arrows": [["a", "1", "2"]], "relations": []},
        "caps": {"dim": 12, "resolution": 8, "multiplicity": 2},
        "seed": 0,
        "commands": commands,
    }
    payload.update(extra)
    return payload


def test_indecomposables_command(tmp_path):
    code, out = run_session(session_kA2(["indecomposables"]), tmp_path)
    assert code == EXIT_OK
    text = (tmp_path / "report.txt").read_text()
    assert text.count("M0") >= 1 and "M2" in text
    dot = (tmp_path / "ar_quiver.dot").read_text()
    # 3 nodes, 2 irreducible-map edges, 1 tau edge
    assert dot.count('"M') >= 3
    assert dot.count("style=dashed") == 1
    solid_edges = [l for l in dot.splitlines() if "->" in l and "dashed" not in l]
    assert len(solid_edges) == 2


AR_QUIVER_DOTS = {
    # a loop of irreducible maps through the simple, which is its own translate
    "dual_numbers": """digraph ar_quiver {
  "M0" [label="M0 [2] [PI]"];
  "M1" [label="M1 [1] [S]"];
  "M0" -> "M1";
  "M1" -> "M0";
  "M1" -> "M1" [style=dashed];
}
""",
    "kA3_relation": """digraph ar_quiver {
  "M0" [label="M0 [1, 1, 0] [PI]"];
  "M1" [label="M1 [0, 1, 1] [PI]"];
  "M2" [label="M2 [0, 0, 1] [PS]"];
  "M3" [label="M3 [0, 1, 0] [S]"];
  "M4" [label="M4 [1, 0, 0] [IS]"];
  "M0" -> "M4";
  "M1" -> "M3";
  "M2" -> "M1";
  "M3" -> "M0";
  "M3" -> "M2" [style=dashed];
  "M4" -> "M3" [style=dashed];
}
""",
}


@pytest.mark.parametrize("session", sorted(AR_QUIVER_DOTS))
def test_ar_quiver_dot_text(session):
    payload = json.loads((Path(__file__).resolve().parents[1] / "sessions" / f"{session}.json").read_text())
    payload["commands"] = ["indecomposables"]
    code, out = run_session(payload, None)
    assert code == EXIT_OK
    assert out.files["ar_quiver.dot"] == AR_QUIVER_DOTS[session]


def test_semisimple_ar_quiver_isolated(tmp_path):
    payload = {
        "p": 5,
        "quiver": {"vertices": ["1", "2", "3"], "arrows": [], "relations": []},
        "commands": ["indecomposables"],
    }
    code, out = run_session(payload, tmp_path)
    assert code == EXIT_OK
    dot = (tmp_path / "ar_quiver.dot").read_text()
    assert "->" not in dot


def test_exact_structures_lattice(tmp_path):
    code, out = run_session(
        session_kA2([{"name": "exact_structures", "oracle": True}]), tmp_path
    )
    assert code == EXIT_OK
    dot = (tmp_path / "structures.dot").read_text()
    assert dot.count('"E') >= 2
    assert '"E0" -> "E1"' in dot  # the two-element chain
    assert "oracle cross-check: PASS" in out.text()


def test_kA3_lattice_boolean(tmp_path):
    payload = {
        "p": 2,
        "quiver": {
            "vertices": ["1", "2", "3"],
            "arrows": [["a", "1", "2"], ["b", "2", "3"]],
            "relations": [],
        },
        "commands": ["exact_structures"],
    }
    code, out = run_session(payload, tmp_path)
    assert code == EXIT_OK
    dot = (tmp_path / "structures.dot").read_text()
    nodes = [l for l in dot.splitlines() if "label=" in l]
    assert len(nodes) == 8
    covers = [l for l in dot.splitlines() if "->" in l]
    assert len(covers) == 12  # Hasse diagram of the Boolean lattice on 3 atoms


def test_verify_command_green(tmp_path):
    code, out = run_session(session_kA2(["verify"]), tmp_path)
    assert code == EXIT_OK
    text = out.text()
    assert "FAIL" not in text
    twin = json.loads((tmp_path / "report.json").read_text())
    assert all(s["ok"] for c in twin["commands"] for s in c.get("sections", []))


def test_verify_dual_numbers_green(tmp_path):
    payload = {
        "p": 2,
        "quiver": {
            "vertices": ["1"],
            "arrows": [["x", "1", "1"]],
            "relations": [["x", "x"]],
            "path_length_cap": 2,
        },
        "commands": ["verify"],
    }
    code, out = run_session(payload, tmp_path)
    assert code == EXIT_OK, out.text()


def test_verify_rejects_corrupted_structures(tmp_path):
    # declare a wrong structure list: the round trip / enumeration check fails
    payload = session_kA2(["verify"], structures=[{"subspaces": []}])
    code, out = run_session(payload, tmp_path)
    assert code == EXIT_VERIFY
    assert "FAIL" in out.text()


def test_smodad_command(tmp_path):
    code, out = run_session(session_kA2([{"name": "smodad", "structure": 1}]), tmp_path)
    assert code == EXIT_OK
    assert "eff ids" in out.text()
    twin = json.loads((tmp_path / "report.json").read_text())
    cmd = twin["commands"][0]
    assert cmd["name"] == "smodad"
    assert len(cmd["smodad"]) == 5  # abelian structure: all of mod Gamma


def test_smodad_unknown_structure(tmp_path):
    code, out = run_session(session_kA2([{"name": "smodad", "structure": 99}]), tmp_path)
    assert code == EXIT_INPUT
    code, out = run_session(session_kA2([{"name": "smodad", "structure": True}]), tmp_path)
    assert code == EXIT_INPUT


def test_malformed_session():
    code, out = run_session({"p": 2, "commands": ["verify"]}, None)
    assert code == EXIT_INPUT
    code, out = run_session({"p": 4, "quiver": {}, "commands": ["verify"]}, None)
    assert code == EXIT_INPUT
    code, out = run_session(session_kA2(["frobnicate"]), None)
    assert code == EXIT_INPUT
    code, out = run_session(session_kA2(["verify"], caps={"dim": "x"}), None)
    assert code == EXIT_INPUT
    for pair in ([9, 9, [[1]]], [0, 0, [[1]]]):  # object ids out of range; row longer than Ext^1
        code, out = run_session(session_kA2(["verify"], structures=[{"subspaces": [pair]}]), None)
        assert code == EXIT_INPUT
        assert [line for line in out.lines if line.startswith("input error:")] == out.lines[-1:]
    # tables on basis (e, x): e*e = 0 is no idempotent; x*x = x is not nilpotent; x tagged at vertex 5
    good = {"0,0": {"0": 1}, "0,1": {"1": 1}, "1,0": {"1": 1}, "1,1": {}}
    for products, left in (
        ({**good, "0,0": {}}, [0, 0]),
        ({**good, "1,1": {"1": 1}}, [0, 0]),
        (good, [0, 5]),
    ):
        table = {"vertices": ["1"], "basis": ["e", "x"], "left": left, "right": [0, 0], "products": products}
        code, out = run_session({"p": 2, "table": table, "commands": ["verify"]}, None)
        assert code == EXIT_INPUT
        assert len(out.lines) == 1 and out.lines[0].startswith("input error: bad table")
    # p >= 2^16 could overflow int64 matrix products
    code, out = run_session(session_kA2(["verify"], p=2147483647), None)
    assert code == EXIT_INPUT
    assert len(out.lines) == 1 and out.lines[0].startswith("input error: bad field")
    # duplicate vertex, short arrow, non-composable relation, loop longer than path_length_cap
    for quiver in (
        {"vertices": ["1", "1"], "arrows": []},
        {"vertices": ["1"], "arrows": [["a"]]},
        {"vertices": ["1", "2"], "arrows": [["a", "1", "2"]], "relations": [["a", "a"]]},
        {"vertices": ["1"], "arrows": [["x", "1", "1"]]},
    ):
        code, out = run_session({"p": 2, "quiver": quiver, "commands": ["verify"]}, None)
        assert code == EXIT_INPUT
        assert len(out.lines) == 1 and out.lines[0].startswith("input error: bad quiver: ")


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"seed": -1}, "seed = -1 is not in [0, 2^32)"),
        ({"seed": 2**40}, "seed = 1099511627776 is not in [0, 2^32)"),
        ({"seed": 2**32}, "seed = 4294967296 is not in [0, 2^32)"),
        ({"seed": 1.7}, "seed = 1.7 is not an integer"),
        ({"seed": True}, "seed = True is not an integer"),
        ({"seed": "1"}, "seed = '1' is not an integer"),
        ({"caps": {"dim": 2.5}}, "dim = 2.5 is not an integer"),
        ({"caps": {"resolution": False}}, "resolution = False is not an integer"),
        ({"caps": [12]}, "caps must be an object"),
        ({"p": 2.0}, "p = 2.0 is not an integer"),
        ({"p": True}, "p = True is not an integer"),
        ({"commands": 5}, "commands must be a list"),
        ({"commands": "verify"}, "commands must be a list"),
        ({"structures": 5}, "structures must be a list"),
        ({"commands": [{"name": ["verify"]}]}, "unknown command: ['verify']"),
    ],
    ids=[
        "seed_negative",
        "seed_2^40",
        "seed_2^32",
        "seed_float",
        "seed_bool",
        "seed_string",
        "dim_float",
        "resolution_bool",
        "caps_list",
        "p_float",
        "p_bool",
        "commands_int",
        "commands_string",
        "structures_int",
        "command_name_list",
    ],
)
def test_non_integer_or_out_of_range_settings_exit_2(monkeypatch, extra, message):
    """JSON integers only (no floats, strings or booleans) for p, caps and
    seed, a seed in [0, 2^32), and lists of commands and structures;
    rejected before any context is built."""
    monkeypatch.setattr(cli, "AuslanderContext", lambda *args, **kwargs: pytest.fail("context built"))
    payload = session_kA2(["verify"])
    payload.update(extra)
    code, out = run_session(payload, None)
    assert code == EXIT_INPUT
    assert len(out.lines) == 1 and out.lines[0].startswith("input error: ") and out.lines[0].endswith(message)


KA3_RELATION = {
    "vertices": ["1", "2", "3"],
    "arrows": [["a", "1", "2"], ["b", "2", "3"]],
    "relations": [["a", "b"]],
    "path_length_cap": 3,
}
# k[x]/(x^2) on the basis (e, x)
DUAL_NUMBERS_TABLE = {
    "vertices": ["1"],
    "basis": ["e", "x"],
    "left": [0, 0],
    "right": [0, 0],
    "products": {"0,0": {"0": 1}, "0,1": {"1": 1}, "1,0": {"1": 1}, "1,1": {}},
}


@pytest.mark.parametrize(
    "algebra, message",
    [
        ({"quiver": {**KA3_RELATION, "path_length_cap": -1}}, "bad quiver: path_length_cap = -1 is negative"),
        ({"quiver": {**KA3_RELATION, "path_length_cap": 2.5}}, "bad quiver: path_length_cap = 2.5 is not an integer"),
        ({"quiver": {**KA3_RELATION, "path_length_cap": True}}, "bad quiver: path_length_cap = True is not an integer"),
        ({"quiver": {**KA3_RELATION, "path_length_cap": "3"}}, "bad quiver: path_length_cap = '3' is not an integer"),
        (
            {"quiver": {**KA3_RELATION, "relations": [[[1.9, ["a", "b"]]]]}},
            "bad quiver: relation coefficient = 1.9 is not an integer",
        ),
        (
            {"quiver": {**KA3_RELATION, "relations": [[[True, ["a", "b"]]]]}},
            "bad quiver: relation coefficient = True is not an integer",
        ),
        ({"table": {**DUAL_NUMBERS_TABLE, "left": [0, 0.0]}}, "bad table: left entry = 0.0 is not an integer"),
        ({"table": {**DUAL_NUMBERS_TABLE, "right": [True, 0]}}, "bad table: right entry = True is not an integer"),
        (
            {"table": {**DUAL_NUMBERS_TABLE, "products": {"0,0": {"0": 1.9}}}},
            "bad table: product coefficient = 1.9 is not an integer",
        ),
        (
            {"table": {**DUAL_NUMBERS_TABLE, "products": {"0,1": {"1": True}}}},
            "bad table: product coefficient = True is not an integer",
        ),
    ],
    ids=[
        "cap_negative",
        "cap_float",
        "cap_bool",
        "cap_string",
        "relation_float",
        "relation_bool",
        "left_float",
        "right_bool",
        "product_float",
        "product_bool",
    ],
)
def test_non_integer_or_negative_algebra_entries_exit_2(monkeypatch, algebra, message):
    """The integers of a quiver or a table are JSON integers, and the path
    length cap is not negative (-1 used to build the semisimple algebra on
    the quiver's vertices); rejected before any context is built."""
    monkeypatch.setattr(cli, "AuslanderContext", lambda *args, **kwargs: pytest.fail("context built"))
    code, out = run_session({"p": 2, **algebra, "commands": ["verify"]}, None)
    assert code == EXIT_INPUT
    assert out.lines == [f"input error: {message}"]


def test_largest_seed_runs():
    code, _ = run_session(session_kA2(["exact_structures"], seed=2**32 - 1), None)
    assert code == EXIT_OK


@pytest.mark.parametrize("error", [FunctorcatError, ExactstructError, LinalgError])
def test_internal_errors_exit_as_verification_errors(monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(cli, "is_exact_structure", fail)
    code, out = run_session(session_kA2(["verify"]), None)
    assert code == EXIT_VERIFY
    assert [line for line in out.lines if "error" in line] == ["verification error: injected"]
    assert out.lines[-1] == "verification error: injected"


def test_error_exit_codes():
    assert issubclass(SessionError, ExactcatError) and SessionError.exit_code == EXIT_INPUT
    assert CapExceeded.exit_code == GuardExceeded.exit_code == EXIT_CAP
    for error in (AlgebraError, RepmodError, FunctorcatError, ExactstructError, AuslanderError, LinalgError):
        assert issubclass(error, ExactcatError) and error.exit_code == EXIT_VERIFY


def test_largest_supported_prime_loads():
    assert Session(session_kA2(["indecomposables"], p=65521)).field.p == 65521


def test_cap_exceeded(tmp_path):
    payload = session_kA2(["indecomposables"])
    payload["caps"] = {"dim": 1, "resolution": 8, "multiplicity": 2}
    code, out = run_session(payload, tmp_path)
    assert code == EXIT_CAP


def test_cap_messages_name_the_side_of_the_cap(monkeypatch):
    payload = session_kA2(["indecomposables"])
    payload["quiver"] = {"vertices": ["1", "2", "3"], "arrows": [["a", "1", "2"], ["b", "2", "3"]], "relations": []}
    payload["caps"]["dim"] = 1
    code, out = run_session(payload, None)
    assert code == EXIT_CAP
    assert out.lines[-1] == "cap exceeded: indecomposable of dimension 3 exceeds dim_cap=1"
    # the mod-side knit passes; Gamma = End(M) has indecomposables above
    # dimension 2, and verify builds Gamma before its first line
    payload["caps"]["dim"] = 12
    payload["commands"] = ["indecomposables", "verify"]
    monkeypatch.setattr(cli.AuslanderContext, "GAMMA_DIM_CAP", 2)
    code, out = run_session(payload, None)
    assert code == EXIT_CAP
    assert out.lines[-2].startswith("  M") and "== verify ==" not in out.lines
    assert out.lines[-1].startswith("cap exceeded: indecomposable of dimension ")
    assert out.lines[-1].endswith(" exceeds the Gamma-side cap gamma_dim_cap=2")


def test_listing_commands_do_not_build_gamma(monkeypatch):
    """D4 over GF(2): Gamma = End(M) is representation-infinite and stops at
    the Gamma-side cap, but indecomposables and exact_structures never build
    it, so they exit 0."""
    from exactcat import auslander

    built = []
    monkeypatch.setattr(auslander, "end_algebra", lambda spec: built.append(spec))
    payload = session_kA2(["indecomposables", "exact_structures"])
    payload["quiver"] = {
        "vertices": ["1", "2", "3", "4"],
        "arrows": [["a", "1", "4"], ["b", "2", "4"], ["c", "3", "4"]],
        "relations": [],
    }
    code, out = run_session(payload, None)
    assert code == EXIT_OK and built == []
    assert len(out.json["commands"][1]["structures"]) == 256


def test_determinism(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    payload = session_kA2(["indecomposables", "exact_structures", {"name": "smodad", "structure": 0}])
    run_session(payload, d1)
    run_session(json.loads(json.dumps(payload)), d2)
    for name in ("report.txt", "report.json", "ar_quiver.dot", "structures.dot"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


@pytest.mark.parametrize("session", ["kA2", "dual_numbers", "kA3_relation"])
def test_reports_do_not_depend_on_the_seed(tmp_path, session):
    """The seed drives nothing: every output file is byte-identical at any seed."""
    text = (Path(__file__).resolve().parents[1] / "sessions" / f"{session}.json").read_text()
    outputs = []
    for seed in (0, 1, 7):
        payload = json.loads(text)
        payload["seed"] = seed
        assert "verify" in payload["commands"]
        code, _ = run_session(payload, tmp_path / str(seed))
        assert code == EXIT_OK
        outputs.append({f.name: f.read_bytes() for f in (tmp_path / str(seed)).iterdir()})
    assert {"report.txt", "report.json", "ar_quiver.dot", "structures.dot"} <= set(outputs[0])
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_main_entry_point(tmp_path):
    session_file = tmp_path / "session.json"
    session_file.write_text(json.dumps(session_kA2(["indecomposables"])))
    assert main([str(session_file), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert main([str(tmp_path / "missing.json")]) == EXIT_INPUT


def test_table_input(tmp_path):
    # k[x]/(x^2) as an explicit table: basis (e, x), x*x = 0
    payload = {
        "p": 2,
        "table": {
            "vertices": ["1"],
            "basis": ["e", "x"],
            "left": [0, 0],
            "right": [0, 0],
            "products": {"0,0": {"0": 1}, "0,1": {"1": 1}, "1,0": {"1": 1}, "1,1": {}},
        },
        "commands": ["indecomposables", "verify"],
    }
    code, out = run_session(payload, tmp_path)
    assert code == EXIT_OK, out.text()
    assert "M1" in out.text()


def test_generator_selection_restricted_description(tmp_path):
    # kA3 with relation: the pd<=1 generators (ids discovered from the report)
    payload = {
        "p": 2,
        "quiver": {
            "vertices": ["1", "2", "3"],
            "arrows": [["a", "1", "2"], ["b", "2", "3"]],
            "relations": [["a", "b"]],
            "path_length_cap": 3,
        },
        "generators": [0, 1, 2, 3],
        "commands": ["indecomposables", "verify"],
    }
    code, out = run_session(payload, tmp_path)
    text = out.text()
    # ids 0..3 are the three projectives and the middle simple: the objects of
    # projective dimension at most one, a valid restricted subcategory
    assert "restricted description" in text
    assert code == EXIT_OK
    assert "FAIL" not in text


def test_generator_selection_validation():
    payload = session_kA2(["verify"], generators="bogus")
    code, _ = run_session(payload, None)
    assert code == EXIT_INPUT
    payload = session_kA2(["verify"], generators=[99])
    code, _ = run_session(payload, None)
    assert code == EXIT_INPUT
    payload = session_kA2(["verify"], generators=[True])
    code, _ = run_session(payload, None)
    assert code == EXIT_INPUT


def test_verify_input_is_checked_before_any_command_prints(monkeypatch):
    """Unknown generator ids and malformed declared structures exit 2 with
    one line: before the listing commands ahead of verify print anything, and
    before Gamma is built."""
    from exactcat import auslander

    monkeypatch.setattr(auslander, "end_algebra", lambda spec: pytest.fail("Gamma built"))
    base = json.loads((Path(__file__).resolve().parents[1] / "sessions" / "kA3_gf5.json").read_text())
    assert base["commands"] == ["indecomposables", "exact_structures", "verify"]
    for extra, message in (
        ({"generators": [99]}, "unknown generator ids: [99]"),
        ({"structures": [{"subspaces": [[0, 0, [[1]]]]}]}, "rows of pair [0, 0] must be lists of length 0"),
        ({"structures": [{"subspaces": [[9, 9, [[1]]]]}]}, "is not a pair of object ids below 6"),
    ):
        code, out = run_session({**base, **extra}, None)
        assert code == EXIT_INPUT
        assert len(out.lines) == 1 and out.lines[0].startswith("input error: ") and out.lines[0].endswith(message)
