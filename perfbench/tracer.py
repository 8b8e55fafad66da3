"""Outside-in tracing of exactcat's public layer functions.

A ``Tracer`` replaces each named function by a wrapper in every ``exactcat``
module namespace that binds it (and in ``cli.COMMANDS``), and each named
method on its class.  A timed wrapper records calls, total time and self time;
a stack subtracts the time of wrapped callees from their caller's self time,
and a per-function depth makes the total time of recursive calls count once.
Time spent in unwrapped helpers counts towards the nearest wrapped caller.
``uninstall`` puts every original back.
"""
from __future__ import annotations

import importlib
import time
from dataclasses import dataclass

MODULES = ("linalg", "algebra", "repmod", "functorcat", "exactstruct", "auslander", "cli")

# (metric prefix, module, attribute path) of every timed function; a path
# "Class.method" patches the class.
TIMED = (
    ("linalg.rref", "linalg", "rref"),
    ("linalg.solve_right", "linalg", "solve_right"),
    ("linalg.kernel_basis", "linalg", "kernel_basis"),
    ("repmod.hom_basis", "repmod", "hom_basis"),
    ("repmod.decompose", "repmod", "decompose"),
    ("repmod.is_isomorphic", "repmod", "is_isomorphic"),
    ("repmod.ExtSpace.realize", "repmod", "ExtSpace.realize"),
    ("repmod.minimal_resolution", "repmod", "minimal_resolution"),
    ("repmod.all_indecomposables", "repmod", "all_indecomposables"),
    ("functorcat.end_algebra", "functorcat", "end_algebra"),
    ("functorcat.presentation_in_category", "functorcat", "EndAlgebra.presentation_in_category"),
    ("functorcat.localize_map", "functorcat", "EndAlgebra.localize_map"),
    ("functorcat.unyoneda_map", "functorcat", "EndAlgebra.unyoneda_map"),
    ("exactstruct.componentwise_classes", "exactstruct", "componentwise_classes"),
    ("exactstruct.classify_morphism", "exactstruct", "classify_morphism"),
    ("exactstruct.enumerate_exact_structures", "exactstruct", "enumerate_exact_structures"),
    ("exactstruct.brute_force_structures", "exactstruct", "brute_force_structures"),
    ("exactstruct.is_exact_structure", "exactstruct", "is_exact_structure"),
    ("auslander.context", "auslander", "AuslanderContext.__init__"),
    ("auslander.build_subcategories", "auslander", "AuslanderContext.build_subcategories"),
    ("auslander.check_auslander_axioms", "auslander", "AuslanderContext.check_auslander_axioms"),
    ("auslander.verify_formula_and_localization", "auslander", "AuslanderContext.verify_formula_and_localization"),
    (
        "auslander.verify_injective_projective_correspondence",
        "auslander",
        "AuslanderContext.verify_injective_projective_correspondence",
    ),
    ("auslander.reconstruct_structure", "auslander", "AuslanderContext.reconstruct_structure"),
    ("auslander.resolving_closure", "auslander", "AuslanderContext.resolving_closure"),
    ("auslander.auslander_bridger_check", "auslander", "AuslanderContext.auslander_bridger_check"),
    ("auslander.grade", "auslander", "AuslanderContext.grade"),
    ("cli.cmd_indecomposables", "cli", "cmd_indecomposables"),
    ("cli.cmd_exact_structures", "cli", "cmd_exact_structures"),
    ("cli.cmd_verify", "cli", "cmd_verify"),
    ("cli.cmd_smodad", "cli", "cmd_smodad"),
)

# Constructors that are only counted: they run too often to time cheaply.
COUNTED = (("linalg.Matrix", "linalg", "Matrix.__init__"),)

TINY_CELLS = 2
LARGE_CELLS = 256


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.rref_tiny = 0
        self.rref_large = 0
        self.algebras: list = []
        self.cache_entries = {"hom_cache": 0, "decompose_cache": 0, "iso_cache": 0}
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------------

    def timed(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        stack, depth = self._stack, self._depth
        depth[name] = 0
        clock = time.perf_counter
        observe = self._observe_rref if name == "linalg.rref" else None

        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(args[0])
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] -= 1
                stat.calls += 1
                stat.self_s += dt - frame[0]
                if depth[name] == 0:
                    stat.total_s += dt
                if stack:
                    stack[-1][0] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())

        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe_rref(self, m) -> None:
        cells = m.a.size
        if cells <= TINY_CELLS:
            self.rref_tiny += 1
        elif cells > LARGE_CELLS:
            self.rref_large += 1

    def _register_algebra(self, fn):
        algebras = self.algebras

        def wrapper(obj, *args, **kwargs):
            fn(obj, *args, **kwargs)
            algebras.append(obj)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -----------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch(self, modules: dict, name: str, module: str, path: str, make) -> None:
        home = modules[module]
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(home, cls_name)
            self._set(cls, meth, make(name, cls.__dict__[meth]))
            return
        orig = getattr(home, path)
        wrapper = make(name, orig)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, attr, wrapper)
        commands = modules["cli"].COMMANDS
        for key, value in list(commands.items()):
            if value is orig:
                self._undo.append((commands, key, value))
                commands[key] = wrapper

    def install(self) -> "Tracer":
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"exactcat.{m}") for m in MODULES}
        for name, module, path in TIMED:
            self._patch(modules, name, module, path, self.timed)
        for name, module, path in COUNTED:
            self._patch(modules, name, module, path, self.counted)
        algebra = modules["algebra"].Algebra
        self._set(algebra, "__init__", self._register_algebra(algebra.__dict__["__init__"]))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- readings -------------------------------------------------------------------

    def drain_algebras(self) -> None:
        """Add the entries in the hom, decompose and iso caches of every
        Algebra built since the last drain to ``cache_entries`` (each entry is
        one miss), then drop those algebras."""
        for a in self.algebras:
            for cache in self.cache_entries:
                self.cache_entries[cache] += len(getattr(a, cache))
        self.algebras.clear()

    def covered_s(self) -> float:
        """Wall time spent inside any timed wrapper."""
        return sum(s.self_s for s in self.stats.values())
