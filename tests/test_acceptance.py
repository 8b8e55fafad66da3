"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance (all
checks are exact; there are no numerical tolerances) and prints a single
pass/fail line.  The test algebras are kA2, k[x]/(x^2), and linear kA3 with
and without the zero-composite relation, each over GF(2) and GF(5).

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""
import itertools

import numpy as np
import pytest

from exactcat.algebra import algebra_dual_numbers, algebra_kA2, algebra_kA3
from exactcat.auslander import AuslanderContext
from exactcat.exactstruct import brute_force_structures, enumerate_exact_structures
from exactcat.linalg import FieldPrime, kernel_basis, random_matrix, rank, rref, solve_right
from exactcat.repmod import (
    all_indecomposables,
    brute_force_indecomposables,
    decompose,
    decompose_iso,
    direct_sum,
    dual_module,
    ext_dim,
    hom_dim,
    homological_dims,
    is_isomorphic,
    proj_dim,
)

PRIMES = (2, 5)
ALGEBRA_MAKERS = [
    ("kA2", algebra_kA2),
    ("k[x]/(x^2)", algebra_dual_numbers),
    ("kA3+rel", lambda f: algebra_kA3(f, True)),
    ("kA3", lambda f: algebra_kA3(f, False)),
]


@pytest.fixture(scope="session")
def contexts():
    out = {}
    for p in PRIMES:
        field = FieldPrime(p)
        for name, maker in ALGEBRA_MAKERS:
            out[(name, p)] = AuslanderContext(maker(field))
    return out


def announce(num: int, ok: bool, text: str):
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {text}"
    print(line)
    assert ok, line


def test_criterion_01_exact_structure_counts(contexts):
    expected = {"kA2": 2, "k[x]/(x^2)": 2, "kA3": 8}
    ok = True
    for p in PRIMES:
        for name, want in expected.items():
            ctx = contexts[(name, p)]
            fast = ctx.structures()
            oracle = brute_force_structures(ctx.cat)
            if len(fast) != want or {e.key() for e in fast} != {e.key() for e in oracle}:
                ok = False
    announce(1, ok, "structure counts 2/2/8 and oracle sets identical, both fields")


def test_criterion_02_auslander_axioms(contexts):
    ok = True
    witnessed = 0
    for ctx in contexts.values():
        for e in ctx.structures():
            report = ctx.check_auslander_axioms(e)
            if not report.ok:
                ok = False
            witnessed += 1
    announce(2, ok, f"all four Auslander axioms pass on {witnessed} structures")


def test_criterion_03_auslander_formula(contexts):
    ok = True
    for ctx in contexts.values():
        for e in ctx.structures():
            report = ctx.verify_formula_and_localization(e)
            if not report.ok:
                ok = False
    announce(3, ok, "hom bijection, ker L = eff, admissibility reflection on Hom-basis maps and sums of two")


def test_criterion_04_torsion_pair_identities(contexts):
    ok = True
    for ctx in contexts.values():
        for e in ctx.structures():
            quad = ctx.build_subcategories(e)
            # perp Q inside the admissibly presented subcategory
            reps = [ctx.gamma_module(y) for y in ctx.yoneda_ids]
            perp_q = {i for i in quad.smodad.ids if all(hom_dim(ctx.gamma_module(i), q) == 0 for q in reps)}
            if quad.eff.ids != perp_q:
                ok = False
            if quad.torsion_free.ids != quad.cogen_q.ids:
                ok = False
            for t in quad.eff.ids:
                for y in ctx.yoneda_ids:
                    if ext_dim(1, ctx.gamma_module(t), ctx.gamma_module(y)) != 0:
                        ok = False
    announce(4, ok, "eff = perp Q, cogen Q = torsion-free class, Ext^1(eff, representables) = 0")


def test_criterion_05_auslander_bridger_sequence(contexts):
    ok = True
    modules = 0
    for ctx in contexts.values():
        for m in ctx.gamma_index.modules:
            if not ctx.auslander_bridger_check(m):
                ok = False
            modules += 1
    announce(5, ok, f"0 -> Ext^1(TrF) -> F -> F** -> Ext^2(TrF) -> 0 pointwise on {modules} modules")


def test_criterion_06_grade_dichotomy(contexts):
    ok = True
    for ctx in contexts.values():
        for e in ctx.structures():
            quad = ctx.build_subcategories(e)
            for i in quad.smodad.ids:
                if ctx.grade(ctx.gamma_module(i), "gamma") == 1:
                    ok = False
            for i in ctx.tr_subcategory(quad.smodad).ids:
                if ctx.grade(dual_module(ctx.gamma_module(i)), "gamma_op") == 1:
                    ok = False
    announce(6, ok, "no grade-1 objects in smodad(e) or Tr(smodad(e)) for any structure")


def test_criterion_07_round_trip_bijection(contexts):
    ok = True
    for ctx in contexts.values():
        p2 = ctx.p2_ids("gamma")
        p2op = ctx.p2_ids("gamma_op")
        for e in ctx.structures():
            quad = ctx.build_subcategories(e)
            if not ctx.is_resolving(quad.smodad, p2).ok:
                ok = False
            tr = ctx.tr_subcategory(quad.smodad)
            if not ctx.is_resolving(tr, p2op).ok:
                ok = False
            if ctx.reconstruct_structure(quad.smodad) != e:
                ok = False
    announce(7, ok, "reconstruct(smodad(e)) = e subspace-for-subspace; both sides resolving in P^2")


def test_criterion_08_smallest_resolving(contexts):
    ok = True
    for ctx in contexts.values():
        p2 = ctx.p2_ids("gamma")
        for e in ctx.structures():
            quad = ctx.build_subcategories(e)
            if ctx.resolving_closure(quad.eff.ids, "gamma", p2) != quad.smodad.ids:
                ok = False
    announce(8, ok, "resolving_closure(eff(e)) = smodad(e) as id-sets for every structure")


def test_criterion_09_injectives_domdim(contexts):
    ok = True
    for ctx in contexts.values():
        abelian = ctx.structures()[-1]
        if ctx.smodad_domdim_up_to(abelian, 2) < 2:
            ok = False
        dims = homological_dims(ctx.gamma, ctx.cutoff)
        if dims.global_dimension is None or dims.global_dimension > 2:
            ok = False
        inj_ids = ctx.e_injective_ids(abelian)
        for i in inj_ids:
            y = ctx.yoneda_ids[i]
            for s in range(len(ctx.gamma_index.modules)):
                if ext_dim(1, ctx.gamma_module(s), ctx.gamma_module(y)) != 0:
                    ok = False
    # the Auslander algebra of k[x]/(x^2): exactly gldim 2 and domdim >= 2
    for p in PRIMES:
        ctx = contexts[("k[x]/(x^2)", p)]
        dims = homological_dims(ctx.gamma, ctx.cutoff)
        if dims.global_dimension != 2:
            ok = False
        if dims.dominant_dimension is not None and dims.dominant_dimension < 2:
            ok = False
    announce(9, ok, "domdim(smodad) >= 2 >= gldim for abelian structures; Aus(k[x]/(x^2)) has gldim 2")


def test_criterion_10_restricted_description(contexts):
    ok = True
    for p in PRIMES:
        dn = contexts[("k[x]/(x^2)", p)]
        if not dn.restricted_description(range(len(dn.index.modules))).ok:
            ok = False
        rel = contexts[("kA3+rel", p)]
        x_ids = [
            i
            for i, m in enumerate(rel.index.modules)
            if proj_dim(m, rel.cutoff) is not None and proj_dim(m, rel.cutoff) <= 1
        ]
        if not rel.restricted_description(x_ids).ok:
            ok = False
    announce(10, ok, "membership route = idempotent route for GP(k[x]/(x^2)) and pd<=1 in kA3+rel")


def test_criterion_11_infrastructure_oracles(contexts):
    ok = True
    # knitting equals brute-force enumeration
    for (name, p), ctx in contexts.items():
        brute = brute_force_indecomposables(ctx.algebra, 3)
        knitted = sorted(m.dims for m in ctx.index.modules if m.total_dim <= 3)
        if sorted(m.dims for m in brute) != knitted:
            ok = False
        if any(ctx.index.identify(m) is None for m in brute):
            ok = False
    # decompose is invariant under summand shuffling
    for p in PRIMES:
        ctx = contexts[("kA3", p)]
        mods = ctx.index.modules
        reference = None
        for order in sorted(set(itertools.permutations([0, 2, 0, 4]))):
            total, _, _ = direct_sum([mods[i] for i in order])
            parts = sorted(tuple(m.dims) for m, _ in decompose(total))
            if reference is None:
                reference = parts
            if parts != reference:
                ok = False
            decompose_iso(total, decompose(total))
    # linalg invariants on 1000 random matrices per field
    for p in PRIMES:
        field = FieldPrime(p)
        rng = np.random.RandomState(42)
        for _ in range(1000):
            m = random_matrix(field, rng.randint(0, 6), rng.randint(0, 6), rng)
            r, pivots = rref(m)
            if rref(r)[0] != r:
                ok = False
            if rank(m) + kernel_basis(m).cols != m.cols:
                ok = False
            if not (m @ kernel_basis(m)).is_zero():
                ok = False
            x0 = random_matrix(field, m.cols, 2, rng)
            b = m @ x0
            x = solve_right(m, b)
            if x is None or not (m @ x - b).is_zero():
                ok = False
    announce(11, ok, "knitting = brute force; decompose shuffle-invariant; linalg invariants x1000")
