"""Command-line entry point.

Loads a JSON session describing an algebra over GF(p), runs the requested
commands (indecomposables, exact_structures, verify, smodad), and writes a
plain-text report, a machine-readable JSON twin, and Graphviz DOT files into
the output directory.  Identical sessions produce byte-identical outputs.

Exit codes: 0 all checks pass, 1 verification failure, 2 input error,
3 cap or guard exceeded.
"""
from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .algebra import Algebra, AlgebraError, QuiverPresentation, build_from_quiver, validate_algebra
from .auslander import AuslanderContext
from .exactstruct import ExactStructure, brute_force_structures, is_exact_structure
from .linalg import ExactcatError, FieldPrime, LinalgError, Matrix
from .repmod import IndecIndex, proj_dim

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_CAP = 3
PREFIX = {EXIT_VERIFY: "verification error", EXIT_INPUT: "input error", EXIT_CAP: "cap exceeded"}

P_LIMIT = 2**16  # p below this keeps every int64 matrix product exact: (p-1)^2 < 2^32
SEED_LIMIT = 2**32  # seeds in [0, 2^32) stay the input contract, though no step reads one


class SessionError(ExactcatError):
    exit_code = EXIT_INPUT


def _is_id(x) -> bool:
    """An integer id; JSON true/false are rejected although bool subclasses int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _integer(value, name: str) -> int:
    """value, which must be a JSON integer; ValueError naming it otherwise."""
    if not _is_id(value):
        raise ValueError(f"{name} = {value!r} is not an integer")
    return value


def _index(value, name: str, bound: int) -> int:
    """value, a JSON integer in [0, bound); a negative one would alias an entry from the end."""
    if not 0 <= _integer(value, name) < bound:
        raise ValueError(f"{name} = {value} is not in [0, {bound})")
    return value


def _of(kind: type, value, name: str):
    """value, which must be a JSON list (kind list) or object (kind dict): a
    string would be read as its characters, and only an object has items."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} = {value!r} is not a JSON {'list' if kind is list else 'object'}")
    return value


def _vertices(value) -> list:
    """The vertex labels, a nonempty JSON list: an algebra with no vertex is zero."""
    if not _of(list, value, "vertices"):
        raise ValueError("vertices = [] is empty: the algebra has no vertex")
    return value


def _term(value) -> tuple[int, tuple]:
    """A relation term [coefficient, path]."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ValueError(f"relation term {value!r} is not [coefficient, path]")
    return _integer(value[0], "relation coefficient"), tuple(_of(list, value[1], "path"))


class Session:
    def __init__(self, payload: dict):
        try:
            p = payload["p"]
            if not _is_id(p):
                raise ValueError(f"p = {p!r} is not an integer")
            if p >= P_LIMIT:
                raise ValueError(f"p = {p} is not below {P_LIMIT}")
            self.field = FieldPrime(p)
        except (KeyError, TypeError, ValueError, LinalgError) as exc:
            raise SessionError(f"bad field: {exc}")
        caps = payload.get("caps", {})
        if not isinstance(caps, dict):
            raise SessionError("bad caps or seed: caps must be an object")
        values = {
            "dim": caps.get("dim", 12),
            "resolution": caps.get("resolution", 8),
            "seed": payload.get("seed", 0),
        }
        for name, value in values.items():
            if not _is_id(value):
                raise SessionError(f"bad caps or seed: {name} = {value!r} is not an integer")
        self.dim_cap, self.resolution_cutoff, self.seed = values.values()
        if min(self.dim_cap, self.resolution_cutoff) <= 0:
            raise SessionError("caps must be positive")
        if not 0 <= self.seed < SEED_LIMIT:
            raise SessionError(f"bad caps or seed: seed = {self.seed} is not in [0, 2^32)")
        self.algebra = self._load_algebra(payload)
        self.commands = self._load_commands(payload.get("commands", []))
        self.given_structures = payload.get("structures")  # parsed by _check_ids
        if not isinstance(self.given_structures, (list, type(None))):
            raise SessionError("structures must be a list")
        generators = payload.get("generators", "all")
        if generators != "all" and not (
            isinstance(generators, list) and all(_is_id(i) for i in generators)
        ):
            raise SessionError("generators must be 'all' or a list of indecomposable ids")
        self.generators = generators

    def _load_algebra(self, payload) -> Algebra:
        if "quiver" in payload:
            try:
                q = _of(dict, payload["quiver"], "quiver")
                relations = []
                for rel in _of(list, q.get("relations", []), "relations"):
                    if _of(list, rel, "relation") and isinstance(rel[0], str):
                        relations.append([(1, tuple(rel))])
                    else:
                        relations.append([_term(term) for term in rel])
                cap = _integer(q.get("path_length_cap", 8), "path_length_cap")
                if cap < 0:
                    raise ValueError(f"path_length_cap = {cap} is negative")
                arrows = [tuple(_of(list, a, "arrow")) for a in _of(list, q["arrows"], "arrows")]
                pres = QuiverPresentation(self.field, _vertices(q["vertices"]), arrows, relations, cap)
                return build_from_quiver(pres)
            except (KeyError, TypeError, ValueError, IndexError, AlgebraError) as exc:
                raise SessionError(f"bad quiver: {exc}")
        if "table" in payload:
            try:
                t = _of(dict, payload["table"], "table")
                dim, nv = len(_of(list, t["basis"], "basis")), len(_vertices(t["vertices"]))
                mult = np.zeros((dim, dim, dim), dtype=np.int64)
                for key, row in _of(dict, t["products"], "products").items():
                    i, j = (_index(int(x), "product index", dim) for x in key.split(","))
                    for k, c in _of(dict, row, f"products[{key!r}]").items():
                        mult[i, j, _index(int(k), "product index", dim)] = _integer(c, "product coefficient")
                algebra = Algebra(
                    self.field,
                    nv,
                    [str(x) for x in t["basis"]],
                    [_index(x, "left entry", nv) for x in t["left"]],
                    [_index(x, "right entry", nv) for x in t["right"]],
                    mult,
                )
                failures = validate_algebra(algebra).failures()
            except (KeyError, TypeError, ValueError, IndexError, AlgebraError) as exc:
                raise SessionError(f"bad table: {exc}")
            if failures:
                raise SessionError("bad table: fails " + ", ".join(item.label for item in failures))
            return algebra
        raise SessionError("session needs a 'quiver' or a 'table'")

    def _load_commands(self, raw) -> list[dict]:
        if not isinstance(raw, list):
            raise SessionError("commands must be a list")
        out = []
        for c in raw:
            if isinstance(c, str):
                out.append({"name": c})
            elif isinstance(c, dict) and "name" in c:
                out.append(dict(c))
            else:
                raise SessionError(f"bad command entry: {c!r}")
        if not out:
            raise SessionError("session lists no commands")
        for c in out:
            if not isinstance(c["name"], str) or c["name"] not in COMMANDS:
                raise SessionError(f"unknown command: {c['name']}")
            unknown = sorted(set(c) - {"name"} - OPTIONS[c["name"]])
            if unknown:
                raise SessionError(f"{c['name']}: unknown options {unknown}")
            if not isinstance(c.get("oracle", False), bool):
                raise SessionError(f"{c['name']}: oracle = {c['oracle']!r} is not true or false")
        return out


class RunOutput:
    def __init__(self):
        self.lines: list[str] = []
        self.json: dict = {"commands": []}
        self.files: dict[str, str] = {}
        self.failed = False

    def emit(self, line: str = ""):
        self.lines.append(line)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _report_lines(out: RunOutput, report, indent="  "):
    for item in report.items:
        mark = "PASS" if item.ok else "FAIL"
        detail = f" ({item.detail})" if item.detail else ""
        out.emit(f"{indent}[{mark}] {item.label}{detail}")
        if not item.ok:
            out.failed = True
    for note in report.notes:
        out.emit(f"{indent}note: {note}")


def _flags(index: IndecIndex, i: int) -> str:
    """P, I and S for a projective, injective and simple member."""
    marks = (("P", index.is_projective[i]), ("I", index.is_injective[i]), ("S", index.is_simple[i]))
    return "".join(c for c, on in marks if on)


def _ar_quiver_dot(index: IndecIndex) -> str:
    """The AR quiver: an arrow per irreducible map (labelled with its
    multiplicity above 1), a dashed arrow from each member to its translate."""
    lines = ["digraph ar_quiver {"]
    for i, m in enumerate(index.modules):
        flags = _flags(index, i)
        label = f"M{i} {list(m.dims)}" + (f" [{flags}]" if flags else "")
        lines.append(f'  "M{i}" [label="{label}"];')
    quiver = index.ar_quiver()
    edges = Counter((j, i) for i, mesh in enumerate(quiver) for j in mesh.arrows)
    for (src, tgt), mult in sorted(edges.items()):
        attr = f' [label="{mult}"]' if mult > 1 else ""
        lines.append(f'  "M{src}" -> "M{tgt}"{attr};')
    for i, mesh in enumerate(quiver):
        if mesh.tau is not None:
            lines.append(f'  "M{i}" -> "M{mesh.tau}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _lattice_dot(structures: list[ExactStructure]) -> str:
    """The Hasse diagram of the structures, each read as the set S of objects
    some class starts at (the set generate_from_ar_subset was given), the
    complement of its projectives; a cover adds one object to S."""
    lines = ["digraph exact_structure_lattice {"]
    for i, e in enumerate(structures):
        lines.append(f'  "E{i}" [label="E{i} (dim {e.total_dim()})"];')
    projectives = [e.projective_ids() for e in structures]
    for i, p_i in enumerate(projectives):
        for j, p_j in enumerate(projectives):
            if p_j < p_i and len(p_i - p_j) == 1:
                lines.append(f'  "E{i}" -> "E{j}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_indecomposables(session: Session, ctx: AuslanderContext, out: RunOutput, options: dict):
    out.emit("== indecomposables ==")
    index = ctx.index
    rows = []
    for i, m in enumerate(index.modules):
        flags = _flags(index, i)
        out.emit(f"  M{i}: dims={list(m.dims)} total={m.total_dim} flags={flags or '-'}")
        rows.append({"id": i, "dims": list(m.dims), "flags": flags})
    out.files["ar_quiver.dot"] = _ar_quiver_dot(index)
    out.json["commands"].append({"name": "indecomposables", "modules": rows})


def _structures_payload(structures):
    return [{"id": i, "dim": e.total_dim(), "subspaces": e.as_payload()} for i, e in enumerate(structures)]


def cmd_exact_structures(session: Session, ctx: AuslanderContext, out: RunOutput, options: dict):
    out.emit("== exact structures ==")
    structures = ctx.structures()
    for i, e in enumerate(structures):
        out.emit(f"  E{i}: total Ext dimension {e.total_dim()}, {len(e.subspaces)} nonzero pairs")
    if options.get("oracle"):
        oracle = brute_force_structures(ctx.cat)
        same = {e.key() for e in structures} == {e.key() for e in oracle}
        out.emit(f"  oracle cross-check: {'PASS' if same else 'FAIL'} ({len(oracle)} structures)")
        if not same:
            out.failed = True
    out.files["structures.dot"] = _lattice_dot(structures)
    out.json["commands"].append(
        {"name": "exact_structures", "structures": _structures_payload(structures)}
    )


def cmd_verify(session: Session, ctx: AuslanderContext, out: RunOutput, options: dict):
    gamma_modules = ctx.gamma_index.modules  # builds Gamma: a Gamma cap stops verify before its first line
    out.emit("== verify ==")
    structures = ctx.structures()
    payload = {"name": "verify", "structures": len(structures), "sections": []}

    if session.given_structures is not None:
        out.emit("  [section] declared structures match the enumeration")
        given = session.given_structures
        same = {e.key() for e in structures} == {e.key() for e in given}
        out.emit(f"    [{'PASS' if same else 'FAIL'}] {len(given)} declared vs {len(structures)} enumerated")
        payload["sections"].append({"name": "declared structures", "ok": same})
        if not same:
            out.failed = True

    sections = [
        ("exact structure axioms (bounded)", is_exact_structure),
        ("Auslander exact axioms", ctx.check_auslander_axioms),
        ("Auslander formula and localization", ctx.verify_formula_and_localization),
        ("injectives and dominant dimension", ctx.verify_injective_projective_correspondence),
    ]
    for title, fn in sections:
        out.emit(f"  [section] {title}")
        ok_all = True
        for i, e in enumerate(structures):
            report = fn(e)
            status = "PASS" if report.ok else "FAIL"
            out.emit(f"    E{i}: {status}")
            if not report.ok:
                _report_lines(out, report, indent="      ")
                ok_all = False
        payload["sections"].append({"name": title, "ok": ok_all})
        if not ok_all:
            out.failed = True

    if session.generators != "all":
        out.emit("  [section] restricted description for the selected generators")
        report = ctx.restricted_description(session.generators)
        out.emit(f"    {'PASS' if report.ok else 'FAIL'}")
        if not report.ok:
            _report_lines(out, report, indent="      ")
        payload["sections"].append({"name": "restricted description", "ok": report.ok})
        if not report.ok:
            out.failed = True

    out.emit("  [section] round trip and smallest resolving subcategory")
    rt_ok = True
    for i, e in enumerate(structures):
        quad = ctx.build_subcategories(e)
        rebuilt, rebuilt_exhaustive = ctx.reconstruct_structure(quad.smodad)
        closure, closure_exhaustive = ctx.resolving_closure(quad.eff, "gamma", ctx.p2_ids("gamma"))
        ok = rebuilt == e and closure == quad.smodad
        out.emit(f"    E{i}: {'PASS' if ok else 'FAIL'}")
        if not (rebuilt_exhaustive and closure_exhaustive):
            out.emit("      note: resolving checks walked some Ext^1 on a spanning set only")
        rt_ok = rt_ok and ok
    payload["sections"].append({"name": "round trip and smallest resolving", "ok": rt_ok})
    if not rt_ok:
        out.failed = True

    out.emit("  [section] Auslander-Bridger sequence and grade dichotomy")
    ab_ok = all(ctx.auslander_bridger_check(m) for m in gamma_modules)
    dich_ok = True
    for e in structures:
        smodad = ctx.build_subcategories(e).smodad
        g1, g2 = ctx.grade_one_ids(smodad, ctx.tr_subcategory(smodad))
        dich_ok = dich_ok and not (g1 or g2)
    out.emit(f"    AB sequence pointwise: {'PASS' if ab_ok else 'FAIL'}")
    out.emit(f"    grade dichotomy: {'PASS' if dich_ok else 'FAIL'}")
    payload["sections"].append({"name": "AB sequence", "ok": ab_ok})
    payload["sections"].append({"name": "grade dichotomy", "ok": dich_ok})
    if not (ab_ok and dich_ok):
        out.failed = True
    out.json["commands"].append(payload)


def _check_ids(session: Session, ctx: AuslanderContext):
    """Checks the generator ids and parses the declared structures against
    the objects of mod(Lambda), before any command prints a line or builds
    Gamma."""
    n = len(ctx.cat.objects)
    if session.generators != "all":
        bad = [i for i in session.generators if not 0 <= i < n]
        if bad:
            raise SessionError(f"unknown generator ids: {bad}")
    if session.given_structures is None:
        return
    out, first = [], {}
    for k, entry in enumerate(session.given_structures):
        if isinstance(entry, dict) and set(entry) != {"subspaces"}:
            raise SessionError(f"structures[{k}] has keys {sorted(entry)}, not exactly ['subspaces']")
        subs = {}
        try:
            for z, a, rows in entry["subspaces"] if isinstance(entry, dict) else entry:
                if not (_is_id(z) and _is_id(a) and 0 <= z < n and 0 <= a < n):
                    raise SessionError(f"structure pair {[z, a]!r} is not a pair of object ids below {n}")
                if (z, a) in subs:
                    raise SessionError(f"structures[{k}] lists the pair {[z, a]} twice")
                expected = ctx.cat.ext_dim(z, a)
                if not isinstance(rows, list) or any(not isinstance(r, list) or len(r) != expected for r in rows):
                    raise SessionError(f"rows of pair {[z, a]} must be lists of length {expected}")
                mat = np.array(rows, dtype=np.int64).reshape(len(rows), expected)
                subs[(z, a)] = Matrix(session.field, mat)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SessionError(f"bad structures entry {entry!r}: {exc}")
        e = ExactStructure(ctx.cat, subs)
        if first.setdefault(e.key(), k) != k:
            raise SessionError(f"structures[{first[e.key()]}] and structures[{k}] declare the same structure")
        out.append(e)
    session.given_structures = out


def cmd_smodad(session: Session, ctx: AuslanderContext, out: RunOutput, options: dict):
    structures = ctx.structures()
    sid = options.get("structure")
    if not _is_id(sid) or not (0 <= sid < len(structures)):
        raise SessionError(f"smodad: unknown structure id {sid!r}")
    e = structures[sid]
    quad = ctx.build_subcategories(e)
    out.emit(f"== smodad of E{sid} ==")
    smodad, eff, cogen_q = sorted(quad.smodad), sorted(quad.eff), sorted(quad.cogen_q)
    out.emit(f"  smodad ids: {smodad}")
    out.emit(f"  eff ids: {eff}")
    out.emit(f"  cogenQ ids: {cogen_q}")
    table = []
    for i in smodad:
        m = ctx.gamma_module(i)
        g = ctx.grade(m, "gamma")
        pd = proj_dim(m, session.resolution_cutoff)
        out.emit(
            f"  F{i}: dims={list(m.dims)} grade={g if g is not None else f'>={ctx.cutoff}'} pd={pd}"
        )
        table.append({"id": i, "dims": list(m.dims), "grade": g, "pd": pd})
    out.json["commands"].append(
        {
            "name": "smodad",
            "structure": sid,
            "smodad": smodad,
            "eff": eff,
            "cogenQ": cogen_q,
            "table": table,
        }
    )


COMMANDS = {
    "indecomposables": cmd_indecomposables,
    "exact_structures": cmd_exact_structures,
    "verify": cmd_verify,
    "smodad": cmd_smodad,
}
# the keys besides "name" that a command entry may hold
OPTIONS = {
    "indecomposables": frozenset(),
    "exact_structures": frozenset({"oracle"}),
    "verify": frozenset(),
    "smodad": frozenset({"structure"}),
}


def run_session(payload: dict, out_dir: Path | None) -> tuple[int, RunOutput]:
    out = RunOutput()
    try:
        session = Session(payload)
        ctx = AuslanderContext(
            session.algebra,
            dim_cap=session.dim_cap,
            cutoff=session.resolution_cutoff,
        )
        _check_ids(session, ctx)
        for command in session.commands:
            COMMANDS[command["name"]](session, ctx, out, command)
    except ExactcatError as exc:
        out.emit(f"{PREFIX[exc.exit_code]}: {exc}")
        return exc.exit_code, out
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.txt").write_text(out.text(), encoding="utf-8")
        (out_dir / "report.json").write_text(
            json.dumps(out.json, sort_keys=True, indent=1) + "\n", encoding="utf-8"
        )
        for name, content in sorted(out.files.items()):
            (out_dir / name).write_text(content, encoding="utf-8")
    return (EXIT_VERIFY if out.failed else EXIT_OK), out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="exactcat",
        description="Verify exact-structure and functor-category theorems over a quiver algebra session.",
    )
    parser.add_argument("session", help="path to the JSON session file")
    parser.add_argument("--out", help="directory for report and DOT output", default=None)
    args = parser.parse_args(argv)
    try:
        payload = json.loads(Path(args.session).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    code, out = run_session(payload, Path(args.out) if args.out else None)
    sys.stdout.write(out.text())
    return code


if __name__ == "__main__":
    sys.exit(main())
