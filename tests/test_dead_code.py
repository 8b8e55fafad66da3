"""Every function, class and method of the package is used somewhere, and
one that only tests read is named in TEST_ONLY with its reason; every name a
package module imports is read there, and no step draws random numbers.

A module-level function counts as used only where it is imported, read as
module.name, named in a string, or read by its bare name in its own module,
so an attribute or a local of the same name elsewhere does not hide it."""
import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXEMPT = {"main"}  # the console entry point, named only in pyproject.toml

# Package definitions that only tests read, and why each stays.  A second path
# to an answer the program already computes belongs in neither the package
# nor this list.
TEST_ONLY = {
    "brute_force_indecomposables": "oracle: the indecomposables without knitting, against all_indecomposables",
    "check_module": "oracle: the module axioms on every radical basis element",
    "check_map": "oracle: a module map intertwines every radical basis element",
    "homological_dims": "oracle: the global dimension of Gamma in the acceptance criteria",
    "algebra_kA2": "fixture: a stock algebra the tests build",
    "algebra_dual_numbers": "fixture: a stock algebra the tests build",
    "algebra_kA3": "fixture: a stock algebra the tests build",
    "algebra_semisimple": "fixture: a stock algebra the tests build",
    "random_matrix": "fixture: random matrices for the linalg tests",
    "torsion_decomposition": "paper API: the torsion sequence tF >-> F ->> fF of an admissibly presented F",
    "star_dual": "paper API: the dual F^* of a functor",
    "is_conflation": "paper API: is a concrete short exact sequence a conflation of a structure",
    "split_structure": "paper API: the least exact structure",
    "leq": "paper API: the order of the lattice of exact structures",
    "radical_basis": "paper API: the radical basis, after re-checking the algebra",
    "image": "oracle: the image of a map from its column spaces, against map_parts",
}


def _names(tree) -> Counter:
    """Identifiers read in a tree, plus the parts of dotted-name strings."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and re.fullmatch(r"[\w.]+", node.value):
            out.update(node.value.split("."))
    return out


def _function_reads(tree) -> Counter:
    """The reads that can name a module-level function: ("from", module,
    name) per import, ("attr", module, name) per module.name, ("str", name)
    per part of a dotted-name string, and ("load", name) per bare read."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            out.update(("from", node.module.split(".")[-1], alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            out["attr", node.value.id, node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and re.fullmatch(r"[\w.]+", node.value):
            out.update(("str", part) for part in node.value.split("."))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out["load", node.id] += 1
    return out


def _function_uses(reads: Counter, module: str, name: str, own_module: bool) -> int:
    """How often reads (from _function_reads) name the function module.name."""
    bare = reads["load", name] if own_module else 0
    return reads["from", module, name] + reads["attr", module, name] + reads["str", name] + bare


def test_no_dead_definitions():
    """Nothing is named only inside its own definition, and what is named
    only by tests (test_*.py files) is exactly TEST_ONLY."""
    trees = {p: ast.parse(p.read_text()) for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))}
    used = sum((_names(t) for t in trees.values()), Counter())
    program = sum((_names(t) for p, t in trees.items() if not p.name.startswith("test_")), Counter())
    reads = {p: _function_reads(t) for p, t in trees.items()}
    dead, test_only = [], set()
    for path, tree in trees.items():
        if path.parent != ROOT / "src" / "exactcat":
            continue
        for node in tree.body:
            for d in [node, *(node.body if isinstance(node, ast.ClassDef) else [])]:
                if not isinstance(d, (ast.FunctionDef, ast.ClassDef)) or d.name.startswith("__") or d.name in EXEMPT:
                    continue
                if d is node and isinstance(d, ast.FunctionDef):
                    uses = {p: _function_uses(r, path.stem, d.name, p == path) for p, r in reads.items()}
                    own = _function_uses(_function_reads(d), path.stem, d.name, True)
                    total = sum(uses.values())
                    in_program = sum(n for p, n in uses.items() if not p.name.startswith("test_"))
                else:
                    own = _names(d)[d.name]  # a recursive definition names itself
                    total, in_program = used[d.name], program[d.name]
                if total == own:
                    dead.append(f"{path.name}:{d.name}")
                elif in_program == own:
                    test_only.add(d.name)
    assert not dead, f"defined but never used: {dead}"
    assert not test_only - TEST_ONLY.keys(), f"read only by tests, not in TEST_ONLY: {sorted(test_only - TEST_ONLY.keys())}"
    assert not TEST_ONLY.keys() - test_only, f"in TEST_ONLY but not test-only: {sorted(TEST_ONLY.keys() - test_only)}"


def test_no_unused_imports():
    """Every name a module of the package imports is read in that module."""
    unused = []
    for path in sorted((ROOT / "src" / "exactcat").glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{path.name}:{node.lineno}:{name}")
    assert not unused, f"imported but never read: {unused}"


def test_no_randomness_in_the_package():
    """np.random and RandomState appear nowhere in the package: no step draws
    random numbers."""
    hits = [
        f"{path.relative_to(ROOT)}:{lineno}"
        for path in sorted((ROOT / "src" / "exactcat").rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"np\.random|RandomState", line)
    ]
    assert not hits, hits
