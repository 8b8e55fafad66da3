"""Every function, class and method of the package is used somewhere, every
name a package module imports is read there, and no step draws random
numbers."""
import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXEMPT = {"main"}  # the console entry point, named only in pyproject.toml


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


def test_no_dead_definitions():
    trees = {p: ast.parse(p.read_text()) for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))}
    used = sum((_names(t) for t in trees.values()), Counter())
    dead = []
    for path, tree in trees.items():
        if path.parent != ROOT / "src" / "exactcat":
            continue
        for node in tree.body:
            for d in [node, *(node.body if isinstance(node, ast.ClassDef) else [])]:
                if not isinstance(d, (ast.FunctionDef, ast.ClassDef)) or d.name.startswith("__") or d.name in EXEMPT:
                    continue
                if used[d.name] == _names(d)[d.name]:  # named only inside its own definition
                    dead.append(f"{path.name}:{d.name}")
    assert not dead, f"defined but never used: {dead}"


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
