import itertools
import sys
import weakref
from collections import Counter

import numpy as np
import pytest

from exactcat import auslander, repmod
from exactcat.algebra import QuiverPresentation, algebra_dual_numbers, algebra_kA2, algebra_kA3, build_from_quiver
from exactcat.auslander import AuslanderContext, AuslanderError, _admissible_with_image_in, sum_family
from exactcat.exactstruct import (
    ELEMENT_CAP,
    ExactstructError,
    brute_force_structures,
    classify_morphism,
    componentwise_classes,
    is_exact_structure,
    kinds_in,
)
from exactcat.functorcat import end_algebra
from exactcat.linalg import FieldPrime, line_representative
from exactcat.repmod import (
    MapParts,
    ModuleMap,
    RepmodError,
    ShortExactSeq,
    all_indecomposables,
    ar_sequence,
    block_map,
    cokernel,
    decompose,
    direct_sum,
    dual_module,
    ext_dim,
    ext_space,
    find_isomorphic,
    hom_basis,
    hom_dim,
    hom_from_coords,
    image,
    is_isomorphic,
    kernel,
    minimal_presentation,
    minimal_resolution,
    proj_dim,
    projective_cover,
    projective_module,
    radical_submodule,
    standard_modules,
    transpose_module,
)

GF2 = FieldPrime(2)
GF5 = FieldPrime(5)

_FRESH_GAMMA_OP = weakref.WeakKeyDictionary()


def fresh_gamma_op_index(ctx):
    """The oracle for what the context reads through D: an index over
    Gamma^op whose member i is D of Gamma's member i, which searches the
    standard modules of Gamma^op for its flags and runs ar_sequence on
    Gamma^op for the relations of parts."""
    if ctx not in _FRESH_GAMMA_OP:
        _FRESH_GAMMA_OP[ctx] = repmod.IndecIndex(ctx.gamma_op, [dual_module(m) for m in ctx.gamma_index.modules])
    return _FRESH_GAMMA_OP[ctx]


def side_index(ctx, side):
    if side == "gamma_op":
        return fresh_gamma_op_index(ctx)
    return ctx.index if side == "lambda" else ctx.gamma_index


@pytest.fixture(scope="module")
def kA2():
    return AuslanderContext(algebra_kA2(GF2))


@pytest.fixture(scope="module")
def dn():
    return AuslanderContext(algebra_dual_numbers(GF2))


@pytest.fixture(scope="module")
def kA3rel():
    return AuslanderContext(algebra_kA3(GF2, zero_relation=True))


def split_and_maximal(ctx):
    structures = ctx.structures()
    return structures[0], structures[-1]


def test_structure_count(kA2, dn):
    assert len(kA2.structures()) == 2
    assert len(dn.structures()) == 2


def test_eff_membership_examples(kA2):
    split, maximal = split_and_maximal(kA2)
    quad = kA2.build_subcategories(maximal)
    # representables are never effaceable
    for y in kA2.yoneda_ids:
        assert y not in quad.eff
    assert len(quad.eff) == 1
    (t,) = quad.eff
    assert "deflation" in classify_morphism(kA2.transported(kA2.gamma_module(t)).f, maximal)
    assert t not in kA2.build_subcategories(split).eff


def test_smodad_split_is_projectives(kA2):
    split, maximal = split_and_maximal(kA2)
    quad = kA2.build_subcategories(split)
    assert quad.smodad == frozenset(kA2.yoneda_ids)
    assert quad.eff == frozenset()


def test_smodad_abelian_is_everything(kA2, dn, kA3rel):
    for ctx in (kA2, dn, kA3rel):
        maximal = ctx.structures()[-1]
        quad = ctx.build_subcategories(maximal)
        assert quad.smodad == frozenset(range(len(ctx.gamma_index.modules)))


def test_torsion_routes_agree(kA2, dn, kA3rel):
    for ctx in (kA2, dn, kA3rel):
        for e in ctx.structures():
            quad = ctx.build_subcategories(e)
            # perp Q inside the admissibly presented subcategory
            reps = [ctx.gamma_module(y) for y in ctx.yoneda_ids]
            perp_q = {i for i in quad.smodad if all(hom_dim(ctx.gamma_module(i), q) == 0 for q in reps)}
            assert quad.eff == perp_q
            assert quad.torsion_free == quad.cogen_q


def test_torsion_decomposition_cases(kA2):
    _, maximal = split_and_maximal(kA2)
    quad = kA2.build_subcategories(maximal)
    for t in quad.eff:
        ses = kA2.torsion_decomposition(kA2.gamma_module(t), maximal)
        assert ses.quot.is_zero()
        assert is_isomorphic(ses.sub, kA2.gamma_module(t)) is not None
    for y in kA2.yoneda_ids:
        ses = kA2.torsion_decomposition(kA2.gamma_module(y), maximal)
        assert ses.sub.is_zero()


def test_torsion_decomposition_mixed(kA2):
    _, maximal = split_and_maximal(kA2)
    quad = kA2.build_subcategories(maximal)
    (t,) = quad.eff
    y = kA2.yoneda_ids[0]
    mixed, _, _ = direct_sum([kA2.gamma_module(t), kA2.gamma_module(y)])
    ses = kA2.torsion_decomposition(mixed, maximal)
    assert not ses.sub.is_zero() and not ses.quot.is_zero()
    assert set(kA2.gamma_index.parts(ses.sub)) <= quad.eff
    ses.validate()


def test_star_dual_vanishes_on_eff(kA2):
    _, maximal = split_and_maximal(kA2)
    quad = kA2.build_subcategories(maximal)
    for t in quad.eff:
        assert kA2.star_dual(kA2.gamma_module(t)).total_dim == 0


def test_evaluation_iso_on_projectives(kA2):
    for y in kA2.yoneda_ids:
        ev = kA2.evaluation_map(kA2.gamma_module(y))
        assert ev.is_isomorphism()
        assert repmod.transpose_module(kA2.gamma_module(y)).total_dim == 0


def test_auslander_bridger_sequence_all_indecomposables(kA2, dn, kA3rel):
    for ctx in (kA2, dn, kA3rel):
        for m in ctx.gamma_index.modules:
            assert ctx.auslander_bridger_check(m)


def test_grade_examples(kA2):
    _, maximal = split_and_maximal(kA2)
    quad = kA2.build_subcategories(maximal)
    for y in kA2.yoneda_ids:
        assert kA2.grade(kA2.gamma_module(y)) == 0
    for t in quad.eff:
        assert kA2.grade(kA2.gamma_module(t)) == 2
    from exactcat.repmod import Module

    assert kA2.grade(Module.zero(kA2.gamma)) is None


def test_grade_dichotomy(kA2, dn, kA3rel):
    for ctx in (kA2, dn, kA3rel):
        for e in ctx.structures():
            quad = ctx.build_subcategories(e)
            for i in quad.smodad:
                assert ctx.grade(ctx.gamma_module(i), "gamma") != 1
            tr = ctx.tr_subcategory(quad.smodad)
            for i in tr:
                assert ctx.grade(dual_module(ctx.gamma_module(i)), "gamma_op") != 1


def test_is_resolving_cases(kA2):
    split, maximal = split_and_maximal(kA2)
    quad = kA2.build_subcategories(maximal)
    p2 = kA2.p2_ids("gamma")
    projectives = kA2.build_subcategories(split).smodad
    assert kA2.is_resolving("gamma", projectives, p2).ok
    # eff alone is not resolving: it misses the projectives
    assert not kA2.is_resolving("gamma", quad.eff, p2).ok
    assert kA2.is_resolving("gamma", quad.smodad, p2).ok


def test_resolving_closure(kA2, dn, kA3rel):
    for ctx in (kA2, dn, kA3rel):
        p2 = ctx.p2_ids("gamma")
        # empty seed closes to the projectives
        assert ctx.resolving_closure([], "gamma", p2) == (ctx.projective_ids("gamma"), True)
        for e in ctx.structures():
            quad = ctx.build_subcategories(e)
            closure = ctx.resolving_closure(quad.eff, "gamma", p2)
            assert closure == (quad.smodad, True)
            # idempotent
            assert ctx.resolving_closure(closure[0], "gamma", p2) == closure


def test_ext_closure_builds_ext_spaces_only_where_ext1_is_nonzero(monkeypatch):
    """Over Gamma the extension closure skips the pairs with Ext^1 = 0 before
    building their space, counting each pair's dimension once, and closes as
    walking every pair does.  Over Gamma^op it builds and counts no Ext^1
    over Gamma^op (it reads Gamma's through D) and still closes as walking
    every pair of Gamma^op does."""
    from exactcat import auslander
    from exactcat.linalg import Matrix, subspace_lines

    ctx = AuslanderContext(algebra_kA3(GF2, zero_relation=True))
    built, counted, algebras = [], [], []
    real_space, real_dim = auslander.ext_space, auslander.ext_dim

    def spy_space(z, a):
        built.append((z.key(), a.key()))
        algebras.append(z.algebra)
        return real_space(z, a)

    def spy_dim(i, z, a):
        counted.append((z, a))
        algebras.append(z.algebra)
        return real_dim(i, z, a)

    monkeypatch.setattr(auslander, "ext_space", spy_space)
    monkeypatch.setattr(auslander, "ext_dim", spy_dim)
    index = ctx.gamma_index
    ids = frozenset(range(len(index.modules)))
    got = ctx._ext_closure("gamma", ids)
    pairs = [(index.modules[z], index.modules[a]) for z in sorted(ids) for a in sorted(ids)]
    nonzero = {(z.key(), a.key()) for z, a in pairs if real_space(z, a).dim}
    assert 0 < len(nonzero) < len(pairs)
    # the realized classes build their spaces again, so compare as sets
    assert set(built) == nonzero and counted == pairs
    counted.clear()
    assert ctx._ext_closure("gamma", ids) == got and counted == []
    middles = set()
    for z in sorted(ids):
        for a in sorted(ids):
            dim = real_space(index.modules[z], index.modules[a]).dim
            for vec in subspace_lines(Matrix.identity(GF2, dim), ELEMENT_CAP)[0]:
                middles |= ctx.ext_middle_parts("gamma", z, a, vec)
    assert got == (frozenset(middles), True)

    # a fresh context, so that nothing over Gamma is remembered yet
    op_ctx = AuslanderContext(algebra_kA3(GF2, zero_relation=True))
    gop = fresh_gamma_op_index(op_ctx)
    ids = frozenset(range(len(gop.modules)))
    built.clear()
    counted.clear()
    algebras.clear()
    got = op_ctx._ext_closure("gamma_op", ids)
    assert built and counted
    assert all(alg is op_ctx.gamma for alg in algebras)
    middles = set()
    for z in sorted(ids):
        for a in sorted(ids):
            space = real_space(gop.modules[z], gop.modules[a])
            for vec in subspace_lines(Matrix.identity(GF2, space.dim), ELEMENT_CAP)[0]:
                middles |= set(gop.parts(space.realize(vec).mid))
    assert middles and got == (frozenset(middles), True)


def test_axioms_all_structures(kA2, dn, kA3rel):
    for ctx in (kA2, dn, kA3rel):
        for e in ctx.structures():
            report = ctx.check_auslander_axioms(e)
            assert report.ok, [i.label for i in report.failures()]


def test_reconstruct_round_trip(kA2, dn, kA3rel):
    for ctx in (kA2, dn, kA3rel):
        for e in ctx.structures():
            quad = ctx.build_subcategories(e)
            pre = ctx.reconstruction_preconditions(quad.smodad)
            assert pre.ok, [i.label for i in pre.failures()]
            assert ctx.reconstruct_structure(quad.smodad) == (e, True)


def test_reconstruct_projectives_gives_split(kA2):
    split, _ = split_and_maximal(kA2)
    quad = kA2.build_subcategories(split)
    assert kA2.reconstruct_structure(quad.smodad) == (split, True)


def test_formula_and_localization(kA2, dn, kA3rel):
    for ctx in (kA2, dn, kA3rel):
        for e in ctx.structures():
            report = ctx.verify_formula_and_localization(e)
            assert report.ok, [i.label for i in report.failures()]


def test_injective_projective_correspondence(kA2, dn, kA3rel):
    for ctx in (kA2, dn, kA3rel):
        for e in ctx.structures():
            report = ctx.verify_injective_projective_correspondence(e)
            assert report.ok, [(i.label, i.detail) for i in report.failures()]


def test_one_domdim_walk_answers_every_smaller_bound(kA2, dn, kA3rel, monkeypatch):
    """smodad_domdim_up_to(e, n) is min(n, domdim): a walk to a larger bound
    gives the answer of every smaller one."""
    depths = []
    for ctx in (kA2, dn, kA3rel):
        for e in ctx.structures():
            deepest = ctx.smodad_domdim_up_to(e, 3)
            depths.append(deepest)
            for n in (0, 1, 2):
                assert ctx.smodad_domdim_up_to(e, n) == min(n, deepest)
                assert (ctx.smodad_domdim_up_to(e, n) >= n) == (deepest >= n)
    assert len(set(depths)) > 1
    # with no projective-injectives the first approximation is not monic
    monkeypatch.setattr(kA2, "smodad_injective_ids", lambda e: frozenset())
    for e in kA2.structures():
        assert kA2.smodad_domdim_up_to(e, 2) == 0 and kA2.smodad_domdim_up_to(e, 1) < 1


def test_smodad_injective_ids_computed_once_per_structure(monkeypatch):
    """The injective transfer and the domdim walk share one computation of
    smodad_injective_ids per structure."""
    ctx = AuslanderContext(algebra_kA3(GF2, False))
    build = ctx.build_subcategories
    callers = Counter()

    def spy(e):
        callers[sys._getframe(1).f_code.co_name] += 1
        return build(e)

    monkeypatch.setattr(ctx, "build_subcategories", spy)
    for e in ctx.structures():
        ctx.verify_injective_projective_correspondence(e)
    assert callers["smodad_injective_ids"] == len(ctx.structures()) > 1


def test_enough_injectives_in_abelian_structure(kA2, dn):
    for ctx in (kA2, dn):
        maximal = ctx.structures()[-1]
        assert ctx.has_enough_injectives(maximal)
        assert ctx.smodad_domdim_up_to(maximal, 2) >= 2
        split = ctx.structures()[0]
        # split structure: every object injective, enough injectives trivially
        assert split.injective_ids() == frozenset(range(len(ctx.index.modules)))
        assert ctx.has_enough_injectives(split)


def test_restricted_description_full_category(dn):
    # X = mod k[x]/(x^2): the self-injective (Gorenstein projective) case
    report = dn.restricted_description(range(len(dn.index.modules)))
    assert report.ok, [i.label for i in report.failures()]


def test_restricted_description_pd_one(kA3rel):
    x_ids = [
        i
        for i, m in enumerate(kA3rel.index.modules)
        if proj_dim(m, 8) is not None and proj_dim(m, 8) <= 1
    ]
    assert len(x_ids) == 4  # three projectives plus one more
    report = kA3rel.restricted_description(x_ids)
    assert report.ok, [i.label for i in report.failures()]


def test_restricted_description_rejects_bad_subcategory(kA3rel):
    # a subcategory missing a projective fails the hypotheses
    report = kA3rel.restricted_description([0])
    assert [item.label for item in report.failures()] == ["generating (contains all projectives)"]


def test_restricted_description_builds_only_the_endomorphism_algebra_of_x(monkeypatch):
    """On a fresh context, restricted_description builds End(M_X) and no
    Gamma of mod(Lambda): the Lambda-side closures read the field off Lambda.
    When X is every object, both routes run on the context itself, so its
    Gamma is built once for them and for verify's reads."""
    ctx = AuslanderContext(algebra_kA3(GF2, zero_relation=True))
    x_ids = [i for i, m in enumerate(ctx.index.modules) if proj_dim(m, 8) is not None and proj_dim(m, 8) <= 1]
    built = []

    def spy(objects):
        built.append(len(objects))
        return end_algebra(objects)

    monkeypatch.setattr(auslander, "end_algebra", spy)
    assert ctx.restricted_description(x_ids).ok
    assert built == [4]
    assert ctx.restricted_description(range(len(ctx.index.modules))).ok
    assert ctx.gamma_index.modules
    assert built == [4, 5]


def test_a_context_over_a_proper_subcategory_enumerates_its_structures(kA3rel):
    """C = add(X) for X the modules of projective dimension at most one: its
    objects are X's in id order, it shares the Lambda index, and its exact
    structures, read off its Ext^1 data, are brute force's."""
    x_ids = [i for i, m in enumerate(kA3rel.index.modules) if proj_dim(m, 8) is not None and proj_dim(m, 8) <= 1]
    x_ctx = AuslanderContext(kA3rel.algebra, objects=reversed(x_ids))
    assert [m.key() for m in x_ctx.cat.objects] == [kA3rel.index.modules[i].key() for i in x_ids]
    assert x_ctx.index is kA3rel.index and x_ctx.cat.index is kA3rel.index
    structures = x_ctx.structures()
    assert len(structures) == 2 ** len(x_ctx.cat.nonprojective_ids()) > 1
    assert [e.key() for e in structures] == [e.key() for e in brute_force_structures(x_ctx.cat)]


def algebra_t2_dual_numbers():
    """T_2(k[x]/(x^2)) over GF(2): loops x at 1 and y at 2, an arrow
    a: 1 -> 2, x^2 = y^2 = 0 and xa = ay.  It is 1-Gorenstein."""
    arrows = [("x", "1", "1"), ("a", "1", "2"), ("y", "2", "2")]
    relations = [[(1, ("x", "x"))], [(1, ("y", "y"))], [(1, ("x", "a")), (1, ("a", "y"))]]
    return build_from_quiver(QuiverPresentation(GF2, ["1", "2"], arrows, relations, 4))


def test_gorenstein_projectives_of_t2_have_brute_force_structures():
    """E = Gproj T_2(k[x]/(x^2)) = perp Lambda, five of its nine
    indecomposables with two projective: E's exact structures are the 2^3
    that brute force finds, though E is not all of mod(Lambda)."""
    alg = algebra_t2_dual_numbers()
    index = AuslanderContext(alg).index
    gproj = [
        i
        for i, m in enumerate(index.modules)
        if all(ext_dim(k, m, projective_module(alg, v)) == 0 for k in (1, 2) for v in range(alg.nv))
    ]
    assert len(index.modules) == 9 and gproj == [0, 1, 2, 4, 7]
    ctx = AuslanderContext(alg, objects=gproj)
    structures = ctx.structures()
    assert len(structures) == 8 and len(ctx.cat.nonprojective_ids()) == 3
    assert [e.key() for e in structures] == [e.key() for e in brute_force_structures(ctx.cat)]


def test_category_identifies_a_module_through_the_lambda_index():
    """CategoryContext.identify looks the index id up among C's ids: on every
    Lambda member and on each summand split off the sum of all of them, it
    agrees with a search among C's objects, on mod(kA3) and on
    Gproj T_2(k[x]/(x^2)); the members outside Gproj and a decomposable
    module give None."""
    for cat in (
        AuslanderContext(algebra_kA3(GF2, False)).cat,
        AuslanderContext(algebra_t2_dual_numbers(), objects=[0, 1, 2, 4, 7]).cat,
    ):
        members = cat.index.modules
        cases = list(members) + [part for part, _ in decompose(direct_sum(members)[0])]
        assert [cat.identify(m) for m in cases] == [find_isomorphic(m, cat.objects) for m in cases]
        assert [cat.identify(members[i]) for i in cat.object_ids] == list(range(len(cat.objects)))
        assert cat.identify(direct_sum(cat.objects[:2])[0]) is None
    assert [i for i in range(len(members)) if cat.identify(members[i]) is None] == [3, 5, 6, 8]


@pytest.mark.parametrize("zero_relation, count", [(False, 33), (True, 24)], ids=["kA3-GF2", "kA3rel-GF2"])
def test_every_extension_closed_subcategory_enumerates_as_brute_force(zero_relation, count):
    """Every nonempty extension-closed add(X) of mod(Lambda): the structures
    generated from sets of its non-Ext-projective objects are brute force's."""
    ctx = AuslanderContext(algebra_kA3(GF2, zero_relation))
    ids = range(len(ctx.index.modules))
    closed = [
        x
        for r in range(1, len(ids) + 1)
        for x in itertools.combinations(ids, r)
        if ctx._ext_closure("lambda", x)[0] <= set(x)
    ]
    assert len(closed) == count
    for x in closed:
        x_ctx = AuslanderContext(ctx.algebra, objects=x)
        assert [e.key() for e in x_ctx.structures()] == [e.key() for e in brute_force_structures(x_ctx.cat)], x


def test_padded_presentation_invariance(kA2):
    """Admissibility through minimal presentations is stable under padding the
    presentation with split projective summands."""
    _, maximal = split_and_maximal(kA2)
    split = kA2.structures()[0]
    rng = np.random.RandomState(0)
    mods = kA2.gamma_index.modules
    for _ in range(8):
        f_mod = mods[rng.randint(len(mods))]
        data = kA2.transported(f_mod)
        f = data.f
        for e in (split, maximal):
            base = classify_morphism(f, e)
            pad = kA2.index.modules[rng.randint(len(kA2.index.modules))]
            padded = _pad_map(f, pad)
            assert classify_morphism(padded, e) == base


def _pad_map(f, pad):
    src, src_inj, src_proj = direct_sum([f.source, pad])
    tgt, tgt_inj, tgt_proj = direct_sum([f.target, pad])
    return (tgt_inj[0] @ f @ src_proj[0]) + (tgt_inj[1] @ src_proj[1])


def test_localization_presentation_independence(kA2):
    # L(F) does not change when the presentation is padded by split summands:
    # the cokernel of f + id is the cokernel of f
    from exactcat.repmod import cokernel

    for i in range(len(kA2.gamma_index.modules)):
        data = kA2.transported(kA2.gamma_module(i))
        base = kA2.ea.localize(kA2.gamma_module(i))
        padded = _pad_map(data.f, kA2.index.modules[0])
        cok, _ = cokernel(padded)
        assert is_isomorphic(cok, base) is not None


def test_idempotents_split_in_smodad(kA2):
    # idempotent completeness: decompose any smodad member plus itself
    _, maximal = split_and_maximal(kA2)
    quad = kA2.build_subcategories(maximal)
    for i in quad.smodad:
        double, _, _ = direct_sum([kA2.gamma_module(i), kA2.gamma_module(i)])
        parts = decompose(double)
        assert len(parts) == 2


def test_gamma_has_auslander_dimensions(kA2, dn, kA3rel):
    from exactcat.repmod import homological_dims

    for ctx in (kA2, dn, kA3rel):
        dims = homological_dims(ctx.gamma, 8)
        assert dims.global_dimension == 2
        assert dims.dominant_dimension is None or dims.dominant_dimension >= 2


def test_L_exact_on_smodad_conflations(kA2):
    """Short exact sequences of Gamma-modules with all terms admissibly
    presented localize to short exact sequences in mod(Lambda)."""
    from exactcat.repmod import ext_space, kernel

    for e in kA2.structures():
        quad = kA2.build_subcategories(e)
        ids = sorted(quad.smodad)
        for z in ids:
            for a in ids:
                space = ext_space(kA2.gamma_module(z), kA2.gamma_module(a))
                for j in range(space.dim):
                    vec = np.zeros(space.dim, dtype=np.int64)
                    vec[j] = 1
                    ses = space.realize(vec)
                    if not set(kA2.gamma_index.parts(ses.mid)) <= quad.smodad:
                        continue
                    li = kA2.ea.localize_map(ses.i)
                    lp = kA2.ea.localize_map(ses.p)
                    assert li.is_injective()
                    assert lp.is_surjective()
                    assert (lp @ li).is_zero()
                    ker_lp, _ = kernel(lp)
                    assert ker_lp.total_dim == li.source.total_dim


def test_idempotent_endomorphisms_split(kA2):
    """Idempotent completeness transfer: every idempotent endomorphism of a
    smodad member splits into image and complement."""
    import itertools

    from exactcat.repmod import ModuleMap, hom_basis, hom_from_coords, submodule
    from exactcat.linalg import column_space_basis

    _, maximal = split_and_maximal(kA2)
    quad = kA2.build_subcategories(maximal)
    p = kA2.gamma.field.p
    for i in sorted(quad.smodad):
        m = kA2.gamma_module(i)
        end = hom_basis(m, m)
        if p ** len(end) > 256:
            end = end[:4]
        for coeffs in itertools.product(range(p), repeat=len(end)):
            f = hom_from_coords(np.array(coeffs), end, m, m)
            if not (f @ f - f).is_zero():
                continue
            img, incl = submodule(m, [column_space_basis(mat) for mat in f.mats])
            comp = ModuleMap.identity(m) - f
            cim, cincl = submodule(m, [column_space_basis(mat) for mat in comp.mats])
            assert img.total_dim + cim.total_dim == m.total_dim


def test_non_admissible_presentation_in_intermediate_structure():
    """On kA3 an intermediate structure leaves some functors outside the
    admissibly presented class."""
    ctx = AuslanderContext(algebra_kA3(GF2, zero_relation=False))
    structures = ctx.structures()
    intermediate = [e for e in structures if 0 < e.total_dim() < structures[-1].total_dim()]
    assert intermediate
    n = len(ctx.gamma_index.modules)
    for e in intermediate:
        quad = ctx.build_subcategories(e)
        outside = set(range(n)) - quad.smodad
        assert outside
        for i in sorted(outside):
            assert "admissible" not in classify_morphism(ctx.transported(ctx.gamma_module(i)).f, e)


# -- the per-structure classification before it was split (test-side copies) --


def _old_map_parts(f):
    ker, ker_incl = kernel(f)
    img, mono, epi = image(f)
    cok, proj = cokernel(f)
    return MapParts(ker, ker_incl, img, epi, mono, cok, proj)


def _old_is_conflation(ses, e):
    try:
        ses.validate()
    except RepmodError:
        return False
    if e.ctx.parts(ses.mid) is None:
        raise ExactstructError("middle term does not lie in the category")
    return all(e.contains(z, a, vec) for (z, a, vec) in componentwise_classes(e.ctx, ses))


def _old_classify_morphism(f, e):
    ctx = e.ctx
    if ctx.parts(f.source) is None or ctx.parts(f.target) is None:
        raise ExactstructError("endpoints do not lie in the category")
    parts = _old_map_parts(f)
    result = set()
    if f.is_surjective() and ctx.parts(parts.kernel) is not None:
        if _old_is_conflation(ShortExactSeq(parts.kernel_inclusion, f), e):
            result.add("deflation")
    if f.is_injective() and ctx.parts(parts.cokernel) is not None:
        if _old_is_conflation(ShortExactSeq(f, parts.cokernel_projection), e):
            result.add("inflation")
    if ctx.parts(parts.image) is not None:
        epi_ok = ctx.parts(parts.kernel) is not None and _old_is_conflation(
            ShortExactSeq(parts.kernel_inclusion, parts.epi_part), e
        )
        mono_ok = ctx.parts(parts.cokernel) is not None and _old_is_conflation(
            ShortExactSeq(parts.mono_part, parts.cokernel_projection), e
        )
        if epi_ok and mono_ok:
            result.add("admissible")
    return result


def _old_smodad_admissible(ctx, g, smodad):
    parts = _old_map_parts(g)
    for piece in (parts.image, parts.kernel, parts.cokernel):
        if not piece.is_zero() and not set(ctx.gamma_index.parts(piece)) <= smodad:
            return False
    return True


@pytest.mark.parametrize(
    "make",
    [
        lambda: algebra_kA3(GF2, False),
        lambda: algebra_kA3(GF5, False),
        lambda: algebra_kA3(GF2, True),
        lambda: algebra_dual_numbers(GF2),
    ],
    ids=["kA3-GF2", "kA3-GF5", "kA3rel-GF2", "dual-GF2"],
)
def test_classes_computed_once_agree_with_the_per_structure_path(make):
    ctx = AuslanderContext(make())
    n = len(ctx.gamma_index.modules)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    checked = 0
    for e in ctx.structures():
        smodad = ctx.build_subcategories(e).smodad
        for i in range(n):
            f = ctx.transported(ctx.gamma_module(i)).f
            old = _old_classify_morphism(f, e)
            assert classify_morphism(f, e) == old
            assert kinds_in(e, ctx._presentation_classes(i)) == old
        for i, j in pairs:
            basis = hom_basis(ctx.gamma_module(i), ctx.gamma_module(j))
            data = ctx._basis_map_data(i, j)
            assert len(data) == len(basis)
            for g, (summands, l_classes) in zip(basis, data):
                assert _admissible_with_image_in(summands, smodad, smodad) == _old_smodad_admissible(ctx, g, smodad)
                l_admissible = l_classes is not None and e.contains_all(l_classes)
                assert l_admissible == ("admissible" in _old_classify_morphism(ctx.ea.localize_map(g), e))
                checked += 1
    assert checked == len(ctx.structures()) * sum(len(ctx._basis_map_data(i, j)) for i, j in pairs) > 0


def _whole_sum_map(ctx, a, b, c, d):
    """F_a + F_b -> F_c + F_d with block (t, s) the sum of the Hom-basis maps
    F_s -> F_t, built with fresh sums and blocks, to be localized as a whole."""
    member = ctx.gamma_module

    def basis_sum(s, t):
        basis = hom_basis(member(s), member(t))
        return hom_from_coords([1] * len(basis), basis, member(s), member(t))

    source, target = direct_sum([member(a), member(b)])[0], direct_sum([member(c), member(d)])[0]
    return block_map(source, target, [[basis_sum(s, t) for s in (a, b)] for t in (c, d)])


def _old_summand_ids(ctx, g):
    parts = _old_map_parts(g)
    return tuple(
        frozenset() if piece.is_zero() else frozenset(ctx.gamma_index.parts(piece))
        for piece in (parts.image, parts.kernel, parts.cokernel)
    )


def test_sum_records_from_localized_blocks_agree_with_whole_localization(kA2, dn, kA3rel):
    checked = 0
    for ctx in (kA2, dn, kA3rel):
        for e in ctx.structures():
            family, _ = sum_family(sorted(ctx.build_subcategories(e).smodad))
            for t in family:
                g = _whole_sum_map(ctx, *t)
                record = ctx._sum_map_data(*t)
                if g.is_zero():
                    assert record is None
                    continue
                summands, l_classes = record
                assert summands == _old_summand_ids(ctx, g)
                l_admissible = l_classes is not None and e.contains_all(l_classes)
                assert l_admissible == ("admissible" in classify_morphism(ctx.ea.localize_map(g), e))
                checked += 1
    assert checked > 0


def test_ext_middle_parts_realizes_one_class_per_line(monkeypatch):
    ctx = AuslanderContext(algebra_kA3(GF5, False))
    index = ctx.gamma_index
    n = len(index.modules)
    realized = []
    realize = repmod.ExtSpace.realize

    def spy(space, vec):
        realized.append(tuple(int(c) for c in vec))
        return realize(space, vec)

    compared = 0
    for z in range(n):
        for a in range(n):
            space = ext_space(index.modules[z], index.modules[a])
            assert 5**space.dim <= 625
            vectors = [np.array(v) for v in itertools.product(range(5), repeat=space.dim) if any(v)]
            expected = [frozenset(index.parts(space.realize(vec).mid)) for vec in vectors]
            monkeypatch.setattr(repmod.ExtSpace, "realize", spy)
            realized.clear()
            got = [ctx.ext_middle_parts("gamma", z, a, vec) for vec in vectors]
            monkeypatch.setattr(repmod.ExtSpace, "realize", realize)
            assert got == expected
            assert len(realized) == len(vectors) // 4  # p - 1 = 4 nonzero vectors per line
            assert len({line_representative(v, 5) for v in realized}) == len(realized)
            compared += len(vectors)
    assert compared > 0


def test_gamma_side_cap_names_the_gamma_cap(monkeypatch):
    monkeypatch.setattr(AuslanderContext, "GAMMA_DIM_CAP", 2)
    ctx = AuslanderContext(algebra_kA3(GF2, False))
    with pytest.raises(repmod.CapExceeded) as info:
        ctx.gamma_index
    assert info.value.exit_code == 3
    assert "exceeds the Gamma-side cap gamma_dim_cap=2" in str(info.value)


def test_restricted_description_knits_under_the_gamma_cap(monkeypatch):
    ctx = AuslanderContext(algebra_dual_numbers(GF2))
    monkeypatch.setattr(AuslanderContext, "GAMMA_DIM_CAP", 1)
    with pytest.raises(repmod.CapExceeded, match="exceeds the Gamma-side cap gamma_dim_cap=1"):
        ctx.restricted_description(range(len(ctx.index.modules)))


def test_gamma_op_index_is_the_dual_of_the_gamma_index(kA2, dn, kA3rel):
    """Member i of the Gamma^op side is D of Gamma's member i.  The members
    are a knitted enumeration of mod(Gamma^op) up to isomorphism, named by
    the ids parts reads through D, and D sends Gamma's injectives to the
    projectives."""
    for ctx in (kA2, dn, kA3rel):
        members = ctx.side_modules("gamma_op")
        assert all(m.algebra is ctx.gamma_op for m in members)
        assert [m.key() for m in members] == [dual_module(m).key() for m in ctx.gamma_index.modules]
        knitted = all_indecomposables(ctx.gamma_op, 40)
        ids = [ctx.side_parts("gamma_op", m) for m in knitted.modules]
        assert sorted(ids) == [[i] for i in range(len(members))]
        assert ctx.projective_ids("gamma_op") == {i for (i,), proj in zip(ids, knitted.is_projective) if proj}
        total, _, _ = direct_sum(members)
        assert ctx.side_parts("gamma_op", total) == list(range(len(members)))


def test_gamma_op_answers_read_through_d_agree_with_a_fresh_gamma_op_index(kA2, dn, kA3rel):
    """On every Gamma member, the Gamma^op answers the context reads through
    D agree with a fresh index over Gamma^op: projective ids, P^2 ids,
    syzygy ids, the ids of Tr F_i, and the ids of every sum of two members."""
    kx3 = build_from_quiver(QuiverPresentation(GF2, ["1"], [("x", "1", "1")], [[(1, ("x", "x", "x"))]], 3))
    more = [AuslanderContext(alg) for alg in (algebra_kA3(GF2, False), algebra_kA3(GF5, False), kx3)]
    for ctx in (kA2, dn, kA3rel, *more):
        fresh = fresh_gamma_op_index(ctx)
        members = range(len(fresh.modules))
        projectives = {i for i in members if fresh.is_projective[i]}
        assert ctx.projective_ids("gamma_op") == projectives != set(members)
        dims = [proj_dim(m, ctx.cutoff) for m in fresh.modules]
        assert ctx.p2_ids("gamma_op") == {i for i, pd in enumerate(dims) if pd is not None and pd <= 2}
        for i in members:
            assert ctx.syzygy_parts("gamma_op", i) == set(fresh.parts(minimal_presentation(fresh.modules[i]).syz))
            tr_ids = fresh.parts(transpose_module(ctx.gamma_module(i)))
            assert ctx.tr_subcategory(frozenset({i})) == projectives | set(tr_ids)
        for x, y in itertools.combinations_with_replacement(fresh.modules, 2):
            total = direct_sum([x, y])[0]
            assert ctx.side_parts("gamma_op", total) == fresh.parts(total)


def test_ar_quiver_reads_the_almost_split_sequences_and_the_radicals(kA2, dn, kA3rel):
    """At a non-projective member the record holds the translate and the
    summands of the middle term of ar_sequence, at a projective member the
    summands of its radical; on the Lambda and Gamma sides of the algebras
    of sessions/."""
    for ctx in (kA2, dn, kA3rel, AuslanderContext(algebra_kA3(GF5, False))):
        for index in (ctx.index, ctx.gamma_index):
            quiver = index.ar_quiver()
            assert len(quiver) == len(index.modules) and index.ar_quiver() is quiver
            for i, (x, mesh) in enumerate(zip(index.modules, quiver)):
                if index.is_projective[i]:
                    expected = (None, sorted(index.parts(radical_submodule(x)[0])))
                else:
                    ses = ar_sequence(x, index)
                    expected = (index.identify(ses.sub), sorted(index.parts(ses.mid)))
                assert (mesh.tau, list(mesh.arrows)) == expected
            assert any(mesh.tau is not None for mesh in quiver)


def _old_minimal_resolution(m, length):
    """minimal_resolution before it chained the memoized presentations."""
    p0, cover = projective_cover(m)
    projs, diffs, current_cover = [p0], [], cover
    for _ in range(length):
        syz, incl = kernel(current_cover)
        pk, coverk = projective_cover(syz)
        diffs.append(incl @ coverk)
        projs.append(pk)
        current_cover = coverk
    return projs, diffs, cover


def test_minimal_resolution_matches_the_old_loop_and_shares_presentations(kA2, dn, kA3rel):
    for ctx in (kA2, dn, kA3rel):
        for m in ctx.gamma_index.modules:
            projs, diffs, aug = minimal_resolution(m, 9)
            old_projs, old_diffs, old_aug = _old_minimal_resolution(m, 9)
            assert [q.verts for q in projs] == [q.verts for q in old_projs]
            assert [q.module.key() for q in projs] == [q.module.key() for q in old_projs]
            assert [d.mats for d in diffs] == [d.mats for d in old_diffs]
            assert aug.mats == old_aug.mats
            short = minimal_resolution(m, 2)
            assert all(a is b for a, b in zip(short[0] + short[1], projs[:3] + diffs[:2])) and short[2] is aug
            pres = minimal_presentation(m)
            assert diffs[0] is pres.d and diffs[1] is minimal_presentation(pres.syz).d


# -- the extension and syzygy closure loops before they shared one helper (test-side copies) --


def _old_elements(dim, p):
    """Every nonzero vector under ELEMENT_CAP = 64 elements, else the basis and pairwise sums."""
    if p**dim <= ELEMENT_CAP:
        return [np.array(v) for v in itertools.product(range(p), repeat=dim) if any(v)]
    eye = np.eye(dim, dtype=np.int64)
    return list(eye) + [eye[i] + eye[j] for i in range(dim) for j in range(i + 1, dim)]


def _old_middles(ctx, side, z, a, cache):
    """Summand ids of the middle term of every walked class of Ext(z, a), realized directly."""
    if (side, z, a) not in cache:
        index = side_index(ctx, side)
        space = ext_space(index.modules[z], index.modules[a])
        cache[side, z, a] = [
            set(index.parts(space.realize(vec).mid)) for vec in _old_elements(space.dim, ctx.gamma.field.p)
        ]
    return cache[side, z, a]


def _old_syzygy(ctx, side, i):
    index = side_index(ctx, side)
    _, cover = projective_cover(index.modules[i])
    syz, _ = kernel(cover)
    return set() if syz.is_zero() else set(index.parts(syz))


def _old_is_resolving(ctx, side, ids, ambient, cache):
    ok = ids <= ambient and ctx.projective_ids(side) <= ids
    for z in sorted(ids):
        for a in sorted(ids):
            if not all(mid <= ids for mid in _old_middles(ctx, side, z, a, cache)):
                ok = False
    return ok and all(_old_syzygy(ctx, side, i) <= ids for i in ids)


def _old_resolving_closure(ctx, seed, side, cache):
    current = set(seed) | set(ctx.projective_ids(side))
    changed = True
    while changed:
        changed = False
        for z in sorted(current):
            for pid in _old_syzygy(ctx, side, z):
                if pid not in current:
                    current.add(pid)
                    changed = True
        for z in sorted(current):
            for a in sorted(current):
                for mid in _old_middles(ctx, side, z, a, cache):
                    if not mid <= current:
                        current |= mid
                        changed = True
    return frozenset(current)


def _old_axiom_iv(ctx, smodad):
    ok = True
    for i in sorted(smodad):
        _, cover = projective_cover(ctx.gamma_module(i))
        omega1, _ = kernel(cover)
        if not omega1.is_zero():
            if not set(ctx.gamma_index.parts(omega1)) <= smodad:
                ok = False
            _, cover1 = projective_cover(omega1)
            omega2, _ = kernel(cover1)
            if not omega2.is_zero() and not all(ctx.gamma_index.is_projective[j] for j in ctx.gamma_index.parts(omega2)):
                ok = False
    return ok


X_CHECK_LABELS = (
    "generating (contains all projectives)",
    "extension closed",
    "kernels of deflations (via syzygy reduction)",
)


def _old_end_ids(ctx, e):
    """(e-injective, e-projective) object ids: no nonzero subspace of e in
    any Ext^1(z, i), respectively in any Ext^1(i, a)."""
    n = len(ctx.cat.objects)
    inj = {i for i in range(n) if all(e.subspace(z, i).rows == 0 for z in range(n))}
    proj = {i for i in range(n) if all(e.subspace(i, a).rows == 0 for a in range(n))}
    return inj, proj


def _old_x_checks(ctx, x_ids, cache):
    """(contains the projectives, extension closed, syzygy closed) of X in mod Lambda."""
    index = ctx.index
    projectives = {i for i in range(len(index.modules)) if index.is_projective[i]}
    ext_ok = all(mid <= x_ids for z in x_ids for a in x_ids for mid in _old_middles(ctx, "lambda", z, a, cache))
    syz_ok = all(_old_syzygy(ctx, "lambda", i) <= x_ids for i in x_ids)
    return projectives <= x_ids, ext_ok, syz_ok


@pytest.mark.parametrize(
    "make",
    [
        lambda: algebra_kA2(GF2),
        lambda: algebra_dual_numbers(GF2),
        lambda: algebra_kA3(GF2, False),
        lambda: algebra_kA3(GF5, False),
        lambda: algebra_kA3(GF2, True),
    ],
    ids=["kA2-GF2", "dual-GF2", "kA3-GF2", "kA3-GF5", "kA3rel-GF2"],
)
def test_closure_helpers_agree_with_the_old_loops(make):
    ctx = AuslanderContext(make())
    cache = {}
    p2, p2op = ctx.p2_ids("gamma"), ctx.p2_ids("gamma_op")
    iv_label = "(iv) length-two projective resolutions inside the subcategory"
    for e in ctx.structures():
        quad = ctx.build_subcategories(e)
        tr = ctx.tr_subcategory(quad.smodad)
        assert ctx.is_resolving("gamma", quad.smodad, p2).ok == _old_is_resolving(ctx, "gamma", quad.smodad, p2, cache)
        assert ctx.is_resolving("gamma_op", tr, p2op).ok == _old_is_resolving(ctx, "gamma_op", tr, p2op, cache)
        assert ctx.is_resolving("gamma", quad.eff, p2).ok == _old_is_resolving(ctx, "gamma", quad.eff, p2, cache)
        closure, _ = ctx.resolving_closure(quad.eff, "gamma", p2)
        assert closure == _old_resolving_closure(ctx, quad.eff, "gamma", cache)
        (iv,) = [item for item in ctx.check_auslander_axioms(e).items if item.label == iv_label]
        assert iv.ok == _old_axiom_iv(ctx, quad.smodad)
        assert (e.injective_ids(), e.projective_ids()) == _old_end_ids(ctx, e)
    # the axiom (iv) test on id sets where it can fail: each eff and each single member
    projectives = ctx.projective_ids("gamma")
    effs = [ctx.build_subcategories(e).eff for e in ctx.structures()]
    outcomes = set()
    for ids in effs + [frozenset({i}) for i in range(len(ctx.gamma_index.modules))]:
        omega1 = ctx._syzygy_closure("gamma", ids)
        new = omega1 <= ids and ctx._syzygy_closure("gamma", omega1) <= projectives
        assert new == _old_axiom_iv(ctx, ids)
        outcomes.add(new)
    assert outcomes == {True, False}
    index = ctx.index
    projectives = ctx.projective_ids("lambda")
    everything = frozenset(range(len(index.modules)))
    candidates = [projectives, everything, everything - projectives, frozenset({0})]
    candidates += [projectives | {i} for i in range(len(index.modules)) if i not in projectives]
    outcomes = set()
    for x_ids in candidates:
        report = ctx.restricted_description(x_ids)
        old = _old_x_checks(ctx, x_ids, cache)
        oks = {item.label: item.ok for item in report.items}
        assert tuple(oks[label] for label in X_CHECK_LABELS) == old
        outcomes.add(all(old))
    assert outcomes == {True, False}  # both passing and failing X are compared


def test_ext_closure_walks_every_line_of_a_two_dimensional_ext():
    """k[x]/(x^3) over GF(2): on the Gamma side some Ext^1(z, a) are
    2-dimensional with a different middle term on each of their 3 lines; the
    closure over {z, a} is the union over every element of every Ext^1
    between the two."""
    alg = build_from_quiver(QuiverPresentation(GF2, ["1"], [("x", "1", "1")], [[(1, ("x", "x", "x"))]], 3))
    ctx = AuslanderContext(alg)
    modules = ctx.gamma_index.modules
    pairs = [
        (z, a)
        for z, a in itertools.product(range(len(modules)), repeat=2)
        if ext_space(modules[z], modules[a]).dim == 2
    ]
    assert pairs
    cache = {}
    for z, a in pairs:
        assert len({frozenset(mid) for mid in _old_middles(ctx, "gamma", z, a, cache)}) == 3
        ids = frozenset({z, a})
        every = set().union(*(mid for y in ids for b in ids for mid in _old_middles(ctx, "gamma", y, b, cache)))
        assert ctx._ext_closure("gamma", ids) == (every, True)
