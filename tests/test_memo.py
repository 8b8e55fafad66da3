"""The one memo layer (linalg.memo) and the names the outside-in tracer in
perfbench/tracer.py patches and reads."""
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from exactcat import auslander, exactstruct, functorcat, repmod
from exactcat.algebra import algebra_kA2, algebra_kA3
from exactcat.auslander import AuslanderContext
from exactcat.cli import run_session
from exactcat.linalg import FieldPrime, memo
from exactcat.repmod import (
    all_indecomposables,
    direct_sum,
    hom_basis,
    is_isomorphic,
    projective_module,
    simple_module,
)

GF2 = FieldPrime(2)
GF5 = FieldPrime(5)
ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


class Owner:
    pass


def test_memo_keys_keywords_none_and_owners():
    calls = []

    @memo(lambda owner, x, scale=1: (x, scale))
    def f(owner, x, scale=1):
        calls.append((x, scale))
        return None if x < 0 else x * scale

    a, b = Owner(), Owner()
    assert f(a, 2) == f(a, 2) == 2
    assert f(a, 2, scale=3) == f(a, 2, 3) == 6
    assert f(a, -1) is None and f(a, -1) is None
    assert calls == [(2, 1), (2, 3), (-1, 1)]
    assert f(b, 2) == 2 and len(calls) == 4  # each owner has its own store
    assert vars(a)["_f_memo"] == {(2, 1): 2, (2, 3): 6, (-1, 1): None}
    f.record(7, b, 5)
    assert f(b, 5) == 7 and len(calls) == 4


def test_none_isomorphism_is_computed_once(monkeypatch):
    a = algebra_kA2(GF2)
    # S1 + S2 and P1 share the dimension vector (1, 1) but are not isomorphic
    m, _, _ = direct_sum([simple_module(a, 0), simple_module(a, 1)])
    n = projective_module(a, 0)
    homs = []
    hom = repmod.hom_basis

    def counting(x, y):
        homs.append((x, y))
        return hom(x, y)

    monkeypatch.setattr(repmod, "hom_basis", counting)
    assert is_isomorphic(m, n) is None
    searched = len(homs)
    assert searched > 0
    assert is_isomorphic(m, n) is None
    assert len(homs) == searched
    assert a.iso_cache == {(m.key(), n.key()): None}


def test_componentwise_classes_run_once_per_sequence_across_structures(monkeypatch):
    ctx = AuslanderContext(algebra_kA3(GF2, False))
    structures = ctx.structures()
    assert len(structures) == 8
    calls = []
    classes = exactstruct.componentwise_classes

    def spy(cat, ses):
        calls.append(exactstruct._ses_key(cat, ses))
        return classes(cat, ses)

    monkeypatch.setattr(exactstruct, "componentwise_classes", spy)
    store = vars(ctx.cat).setdefault("_componentwise_classes_memo", {})
    before = set(store)
    for e in structures:
        ctx.build_subcategories(e)
    distinct = set(calls)
    assert len(calls) > 2 * len(distinct)  # the structures share their sequences
    # one body run (one new entry) per sequence not classified before
    assert set(store) - before == distinct - before


def test_algebras_from_the_same_quiver_share_no_entries():
    a1, a2 = algebra_kA3(GF2, False), algebra_kA3(GF2, False)
    index1 = all_indecomposables(a1, 10)
    assert a1.hom_cache and a1.decompose_cache and a1.iso_cache
    assert not (a2.hom_cache or a2.decompose_cache or a2.iso_cache)
    assert not any(name.endswith("_memo") for name in vars(a2))
    index2 = all_indecomposables(a2, 10)
    assert index2 is not index1
    assert all(m.algebra is a2 for m in index2.modules)
    p1, p2 = projective_module(a1, 0), projective_module(a2, 0)
    assert p1.key() == p2.key()
    assert hom_basis(p1, p1) is not hom_basis(p2, p2)
    for name in ("hom_cache", "decompose_cache", "iso_cache"):
        shared = set(getattr(a1, name)) & set(getattr(a2, name))
        assert shared
        for k in shared:
            v1, v2 = getattr(a1, name)[k], getattr(a2, name)[k]
            assert v1 is None or v1 is not v2  # None: no isomorphism, in both


# every store AuslanderContext fills with structure-independent work of verify
HOISTED_STORES = tuple(
    f"_{name}_memo"
    for name in (
        "_presentation_classes",
        "_basis_map_data",
        "_sum_map_data",
        "_cogenerated",
        "_torsion_parts",
        "_injective_cokernel_ids",
        "_approximation_classes",
        "_domdim_chain",
        "_trace_parts",
        "ext_middle_parts",
        "p2_ids",
    )
)


def _leaves(value):
    """Every leaf of nested dicts, tuples, lists and sets."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(k)
            yield from _leaves(v)
    elif isinstance(value, (tuple, list, set, frozenset)):
        for v in value:
            yield from _leaves(v)
    else:
        yield value


def test_a_second_structure_recomputes_only_its_new_family_tuples(monkeypatch):
    ctx = AuslanderContext(algebra_kA3(GF2, False))
    structures = ctx.structures()
    first, second = structures[-1], structures[1]  # the maximal structure has the largest smodad
    members = sorted(ctx.build_subcategories(first).smodad.ids)
    assert ctx.build_subcategories(second).smodad.ids < set(members)
    calls = {"map_parts": [], "localize_map": []}
    map_parts, localize_map = repmod.map_parts, functorcat.EndAlgebra.localize_map

    def spy_parts(f):
        calls["map_parts"].append(f)
        return map_parts(f)

    def spy_localize(ea, eta):
        calls["localize_map"].append(eta)
        return localize_map(ea, eta)

    for module in (repmod, exactstruct, auslander):
        monkeypatch.setattr(module, "map_parts", spy_parts)
    monkeypatch.setattr(functorcat.EndAlgebra, "localize_map", spy_localize)
    assert ctx.verify_formula_and_localization(first).ok
    assert ctx.check_auslander_axioms(first).ok
    # every Hom-basis map between smodad members localized once, and no other map
    basis = [g for i in members for j in members for g in hom_basis(ctx.gamma_module(i), ctx.gamma_module(j))]
    assert len(calls["localize_map"]) == len(basis) > 0
    assert {id(g) for g in calls["localize_map"]} == {id(g) for g in basis}
    store = vars(ctx)["__sum_map_data_memo"]
    recorded = set(store)
    classified = set(vars(ctx.cat)["_morphism_classes_memo"])
    calls["map_parts"].clear()
    calls["localize_map"].clear()
    assert ctx.verify_formula_and_localization(second).ok
    assert ctx.check_auslander_axioms(second).ok
    family, _ = auslander.sum_family(sorted(ctx.build_subcategories(second).smodad.ids))
    new = [t for t in family if t not in recorded]
    assert new and len(new) < len(family)
    nonzero = [t for t in new if store[t] is not None]
    assert nonzero
    # a new tuple localizes nothing: its blocks are sums of localized basis maps
    assert calls["localize_map"] == []
    # each new nonzero map once on the Gamma side, and each distinct new
    # localization, assembled from the blocks, once in morphism_classes
    localizations = set(vars(ctx.cat)["_morphism_classes_memo"]) - classified
    assert 0 < len(localizations) < len(nonzero)  # some new tuples share their L(g)
    assert len(calls["map_parts"]) == len(nonzero) + len(localizations)
    gamma_side = [f for f in calls["map_parts"] if f.source.algebra is ctx.gamma]
    lambda_side = [f.key() for f in calls["map_parts"] if f.source.algebra is ctx.algebra]
    assert len(gamma_side) == len(nonzero)
    assert len(lambda_side) == len(set(lambda_side)) and set(lambda_side) == localizations
    calls["map_parts"].clear()
    calls["localize_map"].clear()
    assert ctx.verify_formula_and_localization(second).ok
    assert calls == {"map_parts": [], "localize_map": []}


def test_a_second_verify_pass_over_a_warm_context_builds_nothing(monkeypatch):
    """Every structure-independent step of the per-structure verify sections
    is stored on the context: a second pass over every structure gives the
    same reports and runs no map_parts, kernel or cokernel, and classifies no
    new sequence."""
    ctx = AuslanderContext(algebra_kA3(GF5, False))
    sections = (
        exactstruct.is_exact_structure,
        ctx.check_auslander_axioms,
        ctx.verify_formula_and_localization,
        ctx.verify_injective_projective_correspondence,
    )

    def reports():
        return [(r.items, r.notes) for section in sections for r in map(section, ctx.structures())]

    first = reports()
    calls = []
    for module in (repmod, exactstruct, auslander, functorcat):
        for name in ("map_parts", "kernel", "cokernel"):
            if name in vars(module):
                fn = vars(module)[name]
                monkeypatch.setattr(module, name, lambda *args, _name=name, _fn=fn: calls.append(_name) or _fn(*args))
    classified = len(vars(ctx.cat)["_componentwise_classes_memo"])
    assert reports() == first
    assert calls == [] and len(vars(ctx.cat)["_componentwise_classes_memo"]) == classified
    assert all(items and all(item.ok for item in items) for items, _ in first)


def _plain(record):
    """A record with its class vectors as tuples, so records compare with ==."""
    if record is None:
        return None
    summands, classes = record
    return summands, (classes if classes is None else tuple((z, a, tuple(v.tolist())) for z, a, v in classes))


def test_the_sum_family_is_deterministic_and_whole_when_small():
    contexts = [AuslanderContext(algebra_kA2(GF2)) for _ in range(2)]
    stores = []
    for ctx in contexts:
        for e in ctx.structures():
            ctx.verify_formula_and_localization(e)
        stores.append({t: _plain(r) for t, r in vars(ctx)["__sum_map_data_memo"].items()})
    assert stores[0] == stores[1]
    sizes = []
    for e in contexts[0].structures():
        ids = sorted(contexts[0].build_subcategories(e).smodad.ids)
        family, total = auslander.sum_family(ids)
        sizes.append(len(ids))
        assert len(family) == min(total, auslander.FAMILY_CAP)
        assert set(family) <= set(stores[0])
        notes = contexts[0].verify_formula_and_localization(e).notes
        if total <= auslander.FAMILY_CAP:
            pairs = [(a, b) for a in ids for b in ids if a <= b]
            assert family == [s + t for s in pairs for t in pairs] and not notes
        else:
            assert family == sorted(set(family)) and len(notes) == 1
    assert sizes == [3, 5]  # T has 36 tuples for the first, 225 for the second


def test_a_smaller_sum_family_keeps_the_picked_tuples_it_holds():
    """For T' inside T, every tuple of sum_family(T) over ids of T' is in
    sum_family(T'): checked for every T of at most 8 ids of range(8) and
    every T' that drops one id of T, and from 17 ids down to smaller sets."""
    checked = 0
    for mask in range(1, 1 << 8):
        ids = [i for i in range(8) if mask >> i & 1]
        picked = set(auslander.sum_family(ids)[0])
        for drop in ids:
            sub = [i for i in ids if i != drop]
            held = {t for t in picked if drop not in t}
            assert held <= set(auslander.sum_family(sub)[0])
            checked += len(held)
    picked = set(auslander.sum_family(list(range(17)))[0])
    for sub in ([0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5, 8, 14], list(range(0, 17, 2)), list(range(12))):
        assert {t for t in picked if set(t) <= set(sub)} <= set(auslander.sum_family(sub)[0])
    assert checked > 0


def test_the_sum_family_is_the_same_under_any_hash_seed():
    script = (
        "from exactcat.auslander import sum_family\n"
        "for ids in ([0, 1, 2], list(range(9)), [0, 2, 3, 7, 11, 16], list(range(17))):\n"
        "    print(sum_family(ids))\n"
    )
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(ROOT / "src"))
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1] and outputs[0].count("\n") == 4
    assert outputs[0].splitlines()[-1] == str(auslander.sum_family(list(range(17))))


def test_hoisted_stores_hold_ids_and_classes_only():
    ctx = AuslanderContext(algebra_kA3(GF2, False))
    for e in ctx.structures():
        for section in (
            ctx.check_auslander_axioms,
            ctx.verify_formula_and_localization,
            ctx.verify_injective_projective_correspondence,
        ):
            section(e)
        quad = ctx.build_subcategories(e)
        ctx.reconstruct_structure(quad.smodad)
    stores = vars(ctx)
    for name in HOISTED_STORES:
        assert stores.get(name), name
        for leaf in _leaves(stores[name]):
            assert leaf is None or isinstance(leaf, (bool, int, str, np.ndarray)), (name, type(leaf))
    # the componentwise classes of a sequence are plain (z, a, vector) triples
    classes = [c for data in stores["__presentation_classes_memo"].values() for cs in data.values() for c in cs]
    assert classes and all(isinstance(v, np.ndarray) for _, _, v in classes)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # dataclasses resolve annotations through it
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_paths_resolve_and_a_traced_session_runs():
    tracer = load_tracer()
    originals = {}
    for _, module, path in tracer.TIMED + tracer.COUNTED:
        home = importlib.import_module(f"exactcat.{module}")
        if "." in path:
            cls_name, meth = path.split(".")
            assert meth in vars(getattr(home, cls_name)), path
            originals[path] = vars(getattr(home, cls_name))[meth]
        else:
            assert callable(vars(home).get(path)), path
            originals[path] = vars(home)[path]
    t = tracer.Tracer().install()
    try:
        payload = {
            "p": 2,
            "quiver": {"vertices": ["1", "2"], "arrows": [["a", "1", "2"]]},
            "commands": ["indecomposables", "exact_structures", "verify"],
        }
        code, _ = run_session(payload, None)
        t.drain_algebras()
    finally:
        t.uninstall()
    assert code == 0
    assert all(t.cache_entries[name] > 0 for name in ("hom_cache", "decompose_cache", "iso_cache"))
    hom = t.stats["repmod.hom_basis"]
    assert hom.calls > t.cache_entries["hom_cache"]
    assert t.stats["exactstruct.componentwise_classes"].calls > 0
    assert t.stats["linalg.Matrix"].calls > 0 and not t.algebras
    for _, module, path in tracer.TIMED + tracer.COUNTED:
        home = importlib.import_module(f"exactcat.{module}")
        if "." in path:
            cls_name, meth = path.split(".")
            assert vars(getattr(home, cls_name))[meth] is originals[path]
        else:
            assert vars(home)[path] is originals[path]



def test_a_session_runs_no_almost_split_sequence_and_no_ext1_over_gamma_op(monkeypatch):
    """verify answers the Gamma^op side through D: after a whole session no
    index over Gamma^op was built, the Gamma^op algebra holds no ar_candidate
    entry, and ext_middle_parts none for the side gamma_op, although the round
    trip read Gamma^op ids."""
    from exactcat import cli

    contexts, indexed = [], []

    def keep(*args, **kwargs):
        contexts.append(AuslanderContext(*args, **kwargs))
        return contexts[-1]

    def spy_index(self, algebra, modules):
        indexed.append(algebra)
        index_init(self, algebra, modules)

    index_init = repmod.IndecIndex.__init__
    monkeypatch.setattr(cli, "AuslanderContext", keep)
    monkeypatch.setattr(repmod.IndecIndex, "__init__", spy_index)
    payload = json.loads((ROOT / "sessions" / "kA3_gf5.json").read_text())
    code, _ = run_session(payload, None)
    assert code == 0 and len(contexts) == 1
    ctx = contexts[0]
    assert indexed == [ctx.algebra, ctx.gamma]
    assert any(side == "gamma_op" for side, _ in vars(ctx)["_syzygy_parts_memo"])
    assert not vars(ctx.gamma_op).get("_ar_candidate_memo")
    middles = vars(ctx)["_ext_middle_parts_memo"]
    assert middles and {key[0] for key in middles} == {"gamma"}
