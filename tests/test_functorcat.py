import numpy as np
import pytest

from exactcat.algebra import algebra_dual_numbers, algebra_kA2, algebra_semisimple, validate_algebra
from exactcat.functorcat import AdditiveCategorySpec, FunctorcatError, end_algebra
from exactcat.linalg import FieldPrime
from exactcat.repmod import (
    ModuleMap,
    SumMaps,
    all_indecomposables,
    check_module,
    decompose,
    direct_sum,
    ext_dim,
    hom_basis,
    hom_dim,
    hom_from_coords,
    homological_dims,
    is_isomorphic,
    kernel,
    projective_module,
    simple_module,
    standard_modules,
)

GF2 = FieldPrime(2)
GF5 = FieldPrime(5)


@pytest.fixture(scope="module")
def kA2_ctx():
    a = algebra_kA2(GF2)
    index = all_indecomposables(a, 8)
    spec = AdditiveCategorySpec(a, index.modules)
    return a, index, end_algebra(spec)


@pytest.fixture(scope="module")
def dn_ctx():
    a = algebra_dual_numbers(GF2)
    index = all_indecomposables(a, 8)
    spec = AdditiveCategorySpec(a, index.modules)
    return a, index, end_algebra(spec)


def test_end_algebra_dual_numbers_dimension(dn_ctx):
    a, index, ea = dn_ctx
    # M = S + P over k[x]/(x^2): hom blocks 1 + 1 + 1 + 2 = 5
    assert ea.gamma.dim == 5
    assert validate_algebra(ea.gamma).ok


def test_end_algebra_kA2_dimension(kA2_ctx):
    a, index, ea = kA2_ctx
    # 3 indecomposables, sum of all hom dims is 5
    total = sum(hom_dim(x, y) for x in index.modules for y in index.modules)
    assert total == 5
    assert ea.gamma.dim == 5


def test_end_algebra_semisimple_single_simple():
    a = algebra_semisimple(GF5, 2)
    spec = AdditiveCategorySpec(a, [simple_module(a, 0)])
    ea = end_algebra(spec)
    assert ea.gamma.dim == 1


def test_end_algebra_is_auslander_algebra_of_kA2(kA2_ctx):
    # the Auslander algebra of kA2 has gldim 2 and domdim >= 2
    _, _, ea = kA2_ctx
    dims = homological_dims(ea.gamma, 8)
    assert dims.global_dimension == 2
    assert dims.dominant_dimension is None or dims.dominant_dimension >= 2


def test_yoneda_of_summand_is_projective(kA2_ctx):
    a, index, ea = kA2_ctx
    for i, m in enumerate(index.modules):
        ym = ea.yoneda(m)
        check_module(ym)
        assert is_isomorphic(ym, projective_module(ea.gamma, i)) is not None


def test_yoneda_of_generator_is_regular(dn_ctx):
    a, index, ea = dn_ctx
    total, _, _ = direct_sum(index.modules)
    yt = ea.yoneda(total)
    regular, _, _ = direct_sum([projective_module(ea.gamma, i) for i in range(len(index.modules))])
    assert is_isomorphic(yt, regular) is not None


def test_yoneda_full_faithfulness(kA2_ctx):
    a, index, ea = kA2_ctx
    for x in index.modules:
        for y in index.modules:
            assert hom_dim(ea.yoneda(x), ea.yoneda(y)) == hom_dim(x, y)


def test_every_gamma_projective_is_representable(kA2_ctx):
    a, index, ea = kA2_ctx
    for i in range(len(index.modules)):
        pv = projective_module(ea.gamma, i)
        assert is_isomorphic(pv, ea.yoneda(index.modules[i])) is not None


def test_unyoneda_identity(kA2_ctx):
    a, index, ea = kA2_ctx
    p0 = projective_module(ea.gamma, 0)
    transported = ea.unyoneda_map(ModuleMap.identity(p0))
    assert transported.f.is_isomorphism()
    assert is_isomorphic(transported.f.source, index.modules[0]) is not None
    std = standard_modules(ea.gamma)
    nonprojective = [s for s, pv in zip(std.simples, std.projectives) if s.dims != pv.dims]
    assert nonprojective
    with pytest.raises(FunctorcatError, match="not projective"):
        ea.unyoneda_map(ModuleMap.identity(nonprojective[0]))


def test_sum_of_generators_is_shared_per_verts(kA2_ctx):
    a, index, ea = kA2_ctx
    total, injections, projections = ea.sum_of_generators((0, 2, 0))
    assert ea.sum_of_generators([0, 2, 0]) == (total, injections, projections)
    assert isinstance(injections, SumMaps) and isinstance(projections, SumMaps)
    assert total.dims == direct_sum([index.modules[v] for v in (0, 2, 0)])[0].dims
    assert ea.sum_of_generators(())[1:] == ((), ())


def test_unyoneda_round_trip_random(kA2_ctx):
    a, index, ea = kA2_ctx
    rng = np.random.RandomState(1)
    p = [projective_module(ea.gamma, i) for i in range(3)]
    for _ in range(10):
        i, j = rng.randint(3), rng.randint(3)
        src, _, _ = direct_sum([p[i], p[rng.randint(3)]])
        tgt, _, _ = direct_sum([p[j]])
        homs = hom_basis(src, tgt)
        if not homs:
            continue
        coeffs = rng.randint(0, 2, size=len(homs))
        g = hom_from_coords(coeffs, homs, src, tgt)
        transported = ea.unyoneda_map(g)  # raises if the round trip fails
        yf = ea.yoneda_map(transported.f)
        lhs = transported.target_iso @ yf
        rhs = g @ transported.source_iso
        assert all((x - y).is_zero() for x, y in zip(lhs.mats, rhs.mats))


def test_localize_yoneda_is_identity(kA2_ctx):
    a, index, ea = kA2_ctx
    for m in index.modules:
        total, _, _ = direct_sum([m, m])
        for x in (m, total):
            lx = ea.localize(ea.yoneda(x))
            assert is_isomorphic(lx, x) is not None


def test_localize_kernel_is_effaceable(kA2_ctx):
    a, index, ea = kA2_ctx
    std = standard_modules(a)
    # deflation P1 ->> S1 in mod(kA2); coker of its yoneda image localizes to 0
    s1 = std.simples[0]
    p1 = std.projectives[0]
    epi = [f for f in hom_basis(p1, s1) if f.is_surjective()][0]
    y_epi = ea.yoneda_map(epi)
    from exactcat.repmod import cokernel

    f_mod, _ = cokernel(y_epi)
    assert f_mod.total_dim > 0
    assert ea.localize(f_mod).total_dim == 0


def test_localize_simple_gamma_module_two_routes(kA2_ctx):
    a, index, ea = kA2_ctx
    gamma_simples = [simple_module(ea.gamma, i) for i in range(3)]
    for i, s in enumerate(gamma_simples):
        lx = ea.localize(s)
        # independent route: transport the presentation by hand and take the
        # cokernel of the underlying map of Lambda-modules
        pres = ea.presentation_in_category(s)
        from exactcat.repmod import cokernel as cok

        direct, _ = cok(pres.f)
        assert is_isomorphic(lx, direct) is not None


def test_adjunction_dimension_formula(kA2_ctx):
    a, index, ea = kA2_ctx
    rng = np.random.RandomState(3)
    gamma = ea.gamma
    gamma_index = all_indecomposables(gamma, 12)
    mods = gamma_index.modules
    checked = 0
    for _ in range(40):
        f_mod = mods[rng.randint(len(mods))]
        z = index.modules[rng.randint(len(index.modules))]
        lhs = hom_dim(f_mod, ea.yoneda(z))
        rhs = hom_dim(ea.localize(f_mod), z)
        assert lhs == rhs
        checked += 1
    assert checked >= 20


def test_localize_map_of_identity(kA2_ctx):
    a, index, ea = kA2_ctx
    y = ea.yoneda(index.modules[0])
    lid = ea.localize_map(ModuleMap.identity(y))
    assert lid.is_isomorphism()


def test_exactness_of_L_on_smodad_sequences(kA2_ctx):
    # every short exact sequence of Gamma-modules whose terms localize well
    # should map to an exact sequence; test on yoneda images of conflations
    a, index, ea = kA2_ctx
    std = standard_modules(a)
    s1, s2 = std.simples
    p1 = std.projectives[0]
    from exactcat.repmod import ExtSpace

    ses = ExtSpace(s1, s2).realize([1])
    yi, yp = ea.yoneda_map(ses.i), ea.yoneda_map(ses.p)
    # Yoneda is only left exact: coker(yp) is the effaceable part; localize the
    # three yoneda modules and check the original sequence is recovered
    li = ea.localize_map(yi)
    lp = ea.localize_map(yp)
    assert li.is_injective()
    ker_lp, _ = kernel(lp)
    assert is_isomorphic(ker_lp, ses.sub) is not None


def test_spec_rejects_isomorphic_generators(kA2_ctx):
    a, index, _ = kA2_ctx
    with pytest.raises(FunctorcatError):
        AdditiveCategorySpec(a, [index.modules[0], index.modules[0]])
