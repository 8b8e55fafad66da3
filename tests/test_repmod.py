import dataclasses
import itertools
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from exactcat import repmod
from exactcat.algebra import (
    QuiverPresentation,
    algebra_dual_numbers,
    algebra_kA2,
    algebra_kA3,
    algebra_semisimple,
    build_from_quiver,
)
from exactcat.auslander import AuslanderContext
from exactcat.cli import Session
from exactcat.exactstruct import CategoryContext, componentwise_classes
from exactcat.functorcat import AdditiveCategorySpec, end_algebra
from exactcat.linalg import FieldPrime, Matrix, block_diag, hstack, inverse, kernel_basis, rank, rref, solve_right
from exactcat.repmod import (
    CapExceeded,
    ExtSpace,
    IndecIndex,
    MapParts,
    Module,
    ModuleMap,
    RepmodError,
    StdMapTerms,
    _hom_system,
    all_indecomposables,
    ar_sequence,
    ar_translate,
    block_map,
    brute_force_indecomposables,
    check_map,
    check_module,
    decompose,
    decompose_iso,
    direct_sum,
    dominant_dimension,
    dual_module,
    ext_dim,
    ext_space,
    find_isomorphic,
    hom_basis,
    hom_coords,
    hom_dim,
    hom_from_coords,
    hom_of_std_map,
    homological_dims,
    cokernel,
    image,
    inverse_map,
    is_isomorphic,
    kernel,
    map_parts,
    minimal_presentation,
    minimal_resolution,
    proj_dim,
    projective_cover,
    quotient,
    radical_submodule,
    simple_module,
    standard_modules,
    submodule,
    transpose_module,
)

GF2 = FieldPrime(2)
GF5 = FieldPrime(5)
SESSIONS = Path(__file__).resolve().parents[1] / "sessions"


def _kx3(field):
    """k[x]/(x^3)."""
    return build_from_quiver(QuiverPresentation(field, ["1"], [("x", "1", "1")], [[(1, ("x", "x", "x"))]], 3))


@pytest.fixture(scope="module")
def kA2():
    return algebra_kA2(GF2)


@pytest.fixture(scope="module")
def dual_numbers():
    return algebra_dual_numbers(GF2)


def test_standard_modules_kA2(kA2):
    std = standard_modules(kA2)
    assert [s.total_dim for s in std.simples] == [1, 1]
    assert [p.total_dim for p in std.projectives] == [2, 1]
    assert [i.total_dim for i in std.injectives] == [1, 2]
    assert std.projectives[0].dims == (1, 1)
    assert std.injectives[1].dims == (1, 1)
    for m in std.simples + std.projectives + std.injectives:
        check_module(m)


def test_standard_modules_self_injective(dual_numbers):
    std = standard_modules(dual_numbers)
    assert std.projectives[0].total_dim == 2
    assert is_isomorphic(std.projectives[0], std.injectives[0]) is not None


def test_standard_modules_semisimple():
    a = algebra_semisimple(GF5, 3)
    std = standard_modules(a)
    for v in range(3):
        assert is_isomorphic(std.simples[v], std.projectives[v]) is not None
        assert is_isomorphic(std.simples[v], std.injectives[v]) is not None


def test_hom_dimensions_kA2(kA2):
    std = standard_modules(kA2)
    s1, s2 = std.simples
    p1 = std.projectives[0]
    assert hom_dim(s1, s1) == 1
    assert hom_dim(s1, s2) == 0
    assert hom_dim(p1, s1) == 1
    assert hom_dim(p1, p1) == 1
    assert hom_dim(std.projectives[1], p1) == 1
    for f in hom_basis(p1, s1):
        check_map(f)


def test_map_parts_identity_and_zero(kA2):
    std = standard_modules(kA2)
    p1 = std.projectives[0]
    ident = ModuleMap.identity(p1)
    parts = map_parts(ident)
    assert parts.kernel.total_dim == 0
    assert parts.image.total_dim == p1.total_dim
    assert parts.cokernel.total_dim == 0
    z = ModuleMap.zero_map(p1, std.simples[0])
    parts = map_parts(z)
    assert parts.kernel.total_dim == p1.total_dim
    assert parts.image.total_dim == 0
    assert parts.cokernel.total_dim == 1


def test_map_parts_cover_kernel(kA2):
    std = standard_modules(kA2)
    s1, s2 = std.simples
    sp, cover = projective_cover(s1)
    assert sp.module.dims == std.projectives[0].dims
    parts = map_parts(cover)
    assert is_isomorphic(parts.kernel, s2) is not None
    # f = mono o epi
    recomposed = parts.mono_part @ parts.epi_part
    assert all((a - b).is_zero() for a, b in zip(recomposed.mats, cover.mats))


def test_map_parts_from_one_reduction_match_the_separate_constructions():
    """map_parts reads kernel, image, epi part and cokernel off one rref per
    vertex; they must equal kernel(), image() and cokernel() matrix for matrix."""
    a = algebra_kA3(GF5, False)
    mods = all_indecomposables(a, 10).modules
    pairs = [(m, n) for m in mods for n in mods] + [(direct_sum(mods[:3])[0], direct_sum(mods[2:5])[0])]
    rng = np.random.RandomState(0)
    compared = 0
    for m, n in pairs:
        basis = hom_basis(m, n)
        maps = [ModuleMap.zero_map(m, n)] + basis
        if basis:
            maps.append(hom_from_coords(rng.randint(0, 5, size=len(basis)), basis, m, n))
        for f in maps:
            parts = map_parts(f)
            ker, ker_incl = kernel(f)
            img, mono, epi = image(f)
            cok, proj = cokernel(f)
            for got, want in (
                (parts.kernel_inclusion, ker_incl),
                (parts.mono_part, mono),
                (parts.epi_part, epi),
                (parts.cokernel_projection, proj),
            ):
                assert got.source.key() == want.source.key() and got.target.key() == want.target.key()
                assert [x.key() for x in got.mats] == [x.key() for x in want.mats]
            compared += 1
    assert compared > len(pairs)


@pytest.mark.parametrize("p", [2, 5])
def test_block_map_matches_summed_injections_and_projections(p):
    """block_map places random blocks between sums of 1-3 kA3 members (whose
    vertex components are often zero-dimensional) as the sum of the terms
    inj_t o b o proj_s does; no blocks give the zero map, and blocks that do
    not tile the sums raise."""
    field = FieldPrime(p)
    mods = all_indecomposables(algebra_kA3(field, zero_relation=False), 10).modules
    assert any(0 in m.dims for m in mods)
    rng = np.random.RandomState(p)
    compared = 0
    for _ in range(30):
        srcs = [mods[rng.randint(len(mods))] for _ in range(rng.randint(1, 4))]
        tgts = [mods[rng.randint(len(mods))] for _ in range(rng.randint(1, 4))]
        source, _, projections = direct_sum(srcs)
        target, injections, _ = direct_sum(tgts)
        blocks = []
        for t in tgts:
            line = []
            for s in srcs:
                homs = hom_basis(s, t)
                line.append(hom_from_coords(rng.randint(0, p, size=len(homs)), homs, s, t))
            blocks.append(line)
        want = ModuleMap.zero_map(source, target)
        for t, line in enumerate(blocks):
            for s, b in enumerate(line):
                want = want + injections[t] @ b @ projections[s]
        got = block_map(source, target, blocks)
        assert got.source is source and got.target is target
        assert [m.key() for m in got.mats] == [m.key() for m in want.mats]
        check_map(got)
        compared += 1
    assert compared == 30
    m, n = mods[0], mods[-1]
    zero = Module.zero(m.algebra)
    for src, tgt, blocks in ((m, zero, []), (zero, n, [[]]), (m, n, [])):
        assert block_map(src, tgt, blocks).is_zero()
    f = hom_basis(m, m)[0]
    with pytest.raises(RepmodError):
        block_map(direct_sum([m, m])[0], m, [[f]])
    with pytest.raises(RepmodError):
        block_map(m, direct_sum([m, m])[0], [[f], [f, f]])
    with pytest.raises(RepmodError):
        block_map(m, m, [[ModuleMap.zero_map(m, n)]])
    with pytest.raises(RepmodError):
        block_map(direct_sum([m, m])[0], m, [[f, ModuleMap.zero_map(m, n)]])


def test_decompose_sum_of_simples(kA2):
    std = standard_modules(kA2)
    s1 = std.simples[0]
    total, _, _ = direct_sum([s1, s1])
    parts = decompose(total)
    assert len(parts) == 2
    for part, _ in parts:
        assert is_isomorphic(part, s1) is not None
    decompose_iso(total, parts)


def test_decompose_regular_module(kA2):
    std = standard_modules(kA2)
    total, _, _ = direct_sum([std.projectives[0], std.projectives[1]])
    parts = decompose(total)
    assert sorted(p.total_dim for p, _ in parts) == [1, 2]
    found = {tuple(p.dims) for p, _ in parts}
    assert found == {(1, 1), (0, 1)}


def test_decompose_shuffle_invariance(kA2):
    std = standard_modules(kA2)
    reference = None
    for order in itertools.permutations([std.simples[0], std.projectives[0], std.simples[1]]):
        total, _, _ = direct_sum(list(order))
        parts = decompose(total)
        multiset = sorted(tuple(p.dims) for p, _ in parts)
        if reference is None:
            reference = multiset
        assert multiset == reference
        decompose_iso(total, parts)


def test_decompose_certifies_unsplit_summands():
    """A summand that no Hom-basis element splits comes with its radical:
    dim End - 1 nilpotent maps, closed under composition.  The members of
    k[x]/(x^3) have End of dimension 1, 2 and 3."""
    a = _kx3(GF5)
    index = all_indecomposables(a, 8)
    sums = [direct_sum([x, y])[0] for x, y in itertools.combinations(index.modules, 2)]
    for m in [*index.modules, *sums]:
        split, rad = repmod._split_or_prove_local(m)
        parts = decompose(m)
        assert (split is None) == (len(parts) == 1)
        if split is not None:
            assert rad == [] and (split @ split - split).is_zero()
            continue
        assert len(rad) == hom_dim(m, m) - 1
        for r in rad:
            t, powers = repmod._least_shift(r)
            assert t == 0 and not any(w.any() for w in powers)  # nilpotent
        hom_coords(a.field, [x @ y for x in rad for y in rad], rad)


def _basis(monkeypatch, *candidates):
    """Make hom_basis return candidates; the module's algebra must be fresh,
    so no walk over its true basis is remembered."""
    monkeypatch.setattr(repmod, "hom_basis", lambda m, n: list(candidates))


def test_split_at_least_singular_shift(monkeypatch):
    a = algebra_semisimple(GF5, 1)
    m, _, _ = direct_sum([simple_module(a, 0), simple_module(a, 0)])
    no_root = ModuleMap(m, m, [Matrix(GF5, [[0, 2], [1, 0]])])  # x^2 - 2 is irreducible over GF(5)
    f = ModuleMap(m, m, [Matrix(GF5, [[2, 0], [0, 3]])])
    _basis(monkeypatch, ModuleMap.identity(m).scale(2), no_root, f)
    # f + 2 = diag(4, 0) is the least singular shift: project onto the 3-eigenspace
    e, _ = repmod._split_or_prove_local(m)
    assert e.mats == (Matrix(GF5, [[0, 0], [0, 1]]),)


def test_split_along_generalized_kernel(monkeypatch):
    a = algebra_dual_numbers(GF2)
    d = standard_modules(a).projectives[0]
    x = next(h for h in hom_basis(d, d) if not h.is_zero() and (h @ h).is_zero())
    m, (i1, i2), (p1, p2) = direct_sum([d, d])
    f = i1 @ x @ p1 + i2 @ p2  # ker f != ker f^2
    _basis(monkeypatch, i1 @ x @ p1, f)  # the nilpotent first candidate splits nothing
    e, _ = repmod._split_or_prove_local(m)
    assert (e - i1 @ p1).is_zero()


def test_split_raises_on_a_trivial_projection(monkeypatch):
    a = algebra_semisimple(GF5, 1)
    m, _, _ = direct_sum([simple_module(a, 0), simple_module(a, 0)])
    _basis(monkeypatch, ModuleMap(m, m, [Matrix(GF5, [[2, 0], [0, 3]])]))
    monkeypatch.setattr(repmod, "_fitting_projection", lambda field, w: Matrix.identity(field, w.shape[0]))
    with pytest.raises(RepmodError, match="no nontrivial idempotent"):
        repmod._split_or_prove_local(m)


def test_local_residue_rejects_nilpotents_spanning_more_than_a_radical(monkeypatch):
    """For odd p, I, E12, E21 and [[1, 1], [-1, -1]] is a basis of M_2(k)
    whose shifted elements are nilpotent and span the codimension-1
    subspace sl_2, which is no ideal: E12 E21 = E11 is outside it."""
    a = algebra_semisimple(GF5, 1)
    m, _, _ = direct_sum([simple_module(a, 0), simple_module(a, 0)])
    basis = ([[1, 0], [0, 1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 1], [-1, -1]])
    _basis(monkeypatch, *(ModuleMap(m, m, [Matrix(GF5, x)]) for x in basis))
    with pytest.raises(CapExceeded, match="no Hom-basis element splits.*not proved local"):
        repmod._local_residue(m)


def test_decompose_exits_3_when_the_residue_field_is_larger(monkeypatch):
    """I and A with A^2 = 2 span a copy of GF(25) in End(S + S) over GF(5):
    a local ring whose residue field is not GF(p), so no shift proves it."""
    a = algebra_semisimple(GF5, 1)
    m, _, _ = direct_sum([simple_module(a, 0), simple_module(a, 0)])
    _basis(monkeypatch, ModuleMap.identity(m), ModuleMap(m, m, [Matrix(GF5, [[0, 2], [1, 0]])]))
    with pytest.raises(CapExceeded, match="not proved local") as err:
        decompose(m)
    assert err.value.exit_code == 3


@pytest.mark.parametrize(
    "make, dims",
    [(algebra_dual_numbers, [1, 2]), (_kx3, [1, 2, 3])],
    ids=["dual", "kx3"],
)
def test_knitting_over_a_large_prime(make, dims):
    a = make(FieldPrime(65521))
    mods = all_indecomposables(a, 12).modules
    assert sorted(m.total_dim for m in mods) == dims
    total, _, _ = direct_sum(mods)
    assert sorted(p.total_dim for p, _ in decompose(total)) == dims


def test_is_isomorphic_matches_summands_when_no_basis_map_is_invertible():
    """X + X over kA2, X of dimension vector (1, 1), against the same sum in
    a random basis: every Hom-basis map has rank 1 at a vertex, so the
    isomorphism comes from matching the summands (Krull-Schmidt)."""
    a = algebra_kA2(GF5)
    x = standard_modules(a).projectives[0]
    m, _, _ = direct_sum([x, x])
    rng = np.random.RandomState(3)
    while True:
        g = [Matrix(GF5, rng.randint(0, 5, size=(2, 2))) for _ in range(2)]
        if all(rank(gv) == 2 for gv in g):
            break
    b = a.radical_indices[0]
    n = Module(a, m.dims, {b: g[a.right[b]] @ m.act[b] @ inverse(g[a.left[b]])})
    assert not any(f.is_isomorphism() for f in hom_basis(m, n))
    f = is_isomorphic(m, n)
    check_map(f)
    assert f.is_isomorphism()
    s = direct_sum([simple_module(a, 0), simple_module(a, 1)])[0]
    assert is_isomorphic(s, m) is None and is_isomorphic(direct_sum([x, simple_module(a, 1)])[0], s) is None


@pytest.mark.parametrize(
    "make", [lambda: algebra_kA3(GF5, zero_relation=False), lambda: _kx3(GF5)], ids=["kA3-GF5", "kx3-GF5"]
)
def test_only_decompose_walks_endomorphisms(make, monkeypatch):
    """Knitting over GF(5): every least shift is taken by a decompose miss,
    at most dim End(m) of them for its module m, and none by is_isomorphic
    itself.  k[x]/(x^3) has members whose End has dimension 2 and 3."""
    a = make()
    stack, shifts = [], []
    least_shift = repmod._least_shift

    def spy_shift(f):
        shifts.append((stack[-1] if stack else None, f.source))
        return least_shift(f)

    def frame(name, fn):
        def wrapper(*args):
            stack.append(name)
            try:
                return fn(*args)
            finally:
                stack.pop()

        return wrapper

    monkeypatch.setattr(repmod, "_least_shift", spy_shift)
    monkeypatch.setattr(repmod, "decompose", frame("decompose", repmod.decompose))
    monkeypatch.setattr(repmod, "is_isomorphic", frame("is_isomorphic", repmod.is_isomorphic))
    all_indecomposables(a, 8)
    assert shifts and {caller for caller, _ in shifts} == {"decompose"}
    per_module = Counter(m.key() for _, m in shifts)
    walked = {m.key(): m for _, m in shifts}
    assert all(per_module[k] <= hom_dim(m, m) for k, m in walked.items())


def test_is_isomorphic_basics(kA2):
    std = standard_modules(kA2)
    s1, s2 = std.simples
    assert is_isomorphic(s1, s1) is not None
    assert is_isomorphic(s1, s2) is None


def test_find_isomorphic_returns_the_first_match_and_skips_other_dimension_vectors(kA2, monkeypatch):
    std = standard_modules(kA2)
    s1, s2 = std.simples
    p1 = std.projectives[0]
    pairs = []
    iso = repmod.is_isomorphic

    def spy(m, n):
        pairs.append((m.dims, n.dims))
        return iso(m, n)

    monkeypatch.setattr(repmod, "is_isomorphic", spy)
    modules = [p1, s2, s1, simple_module(kA2, 0)]
    assert find_isomorphic(simple_module(kA2, 0), modules) == 2
    assert find_isomorphic(s2, modules) == 1
    # S1 + S2 has the dimension vector of P1 but is not isomorphic to it
    assert find_isomorphic(direct_sum([s1, s2])[0], modules) is None
    assert find_isomorphic(p1, []) is None
    assert pairs and all(m == n for m, n in pairs)


def test_is_isomorphic_random_base_change():
    a = algebra_kA3(GF5, zero_relation=True)
    std = standard_modules(a)
    p1 = std.projectives[0]
    rng = np.random.RandomState(4)
    # conjugate the actions of P1 by a random invertible change of basis
    changes = []
    for d in p1.dims:
        while True:
            c = Matrix(a.field, rng.randint(0, 5, size=(d, d)))
            from exactcat.linalg import is_invertible, inverse

            if is_invertible(c):
                changes.append((c, inverse(c)))
                break
    act = {}
    for b in a.radical_indices:
        l, r = a.left[b], a.right[b]
        act[b] = changes[r][1] @ p1.act[b] @ changes[l][0]
    twisted = Module(a, p1.dims, act)
    check_module(twisted)
    witness = is_isomorphic(p1, twisted)
    assert witness is not None
    check_map(witness)


def test_projective_cover_of_projective(kA2):
    std = standard_modules(kA2)
    p1 = std.projectives[0]
    sp, cover = projective_cover(p1)
    assert cover.is_isomorphism()


def test_minimal_presentation_simple_kA2(kA2):
    std = standard_modules(kA2)
    pres = minimal_presentation(std.simples[0])
    assert pres.p0.verts == (0,)
    assert pres.p1.verts == (1,)
    check_map(pres.d)


def test_minimal_presentation_projective(kA2):
    std = standard_modules(kA2)
    pres = minimal_presentation(std.projectives[1])
    assert pres.p1.module.total_dim == 0


def test_minimal_presentation_dual_numbers(dual_numbers):
    std = standard_modules(dual_numbers)
    pres = minimal_presentation(std.simples[0])
    assert pres.p0.verts == (0,) and pres.p1.verts == (0,)
    # the differential is multiplication by x, so it is not zero
    assert not pres.d.is_zero()


def test_ext_zero_equals_hom(kA2):
    std = standard_modules(kA2)
    rng = np.random.RandomState(0)
    mods = std.simples + std.projectives + std.injectives
    for _ in range(20):
        m = mods[rng.randint(len(mods))]
        n = mods[rng.randint(len(mods))]
        assert ext_dim(0, m, n) == hom_dim(m, n)


def test_ext_one_kA2(kA2):
    std = standard_modules(kA2)
    s1, s2 = std.simples
    assert ext_dim(1, s1, s2) == 1
    assert ext_dim(1, s2, s1) == 0
    for n in std.simples:
        assert ext_dim(1, std.projectives[0], n) == 0


def test_proj_dims(kA2, dual_numbers):
    std = standard_modules(kA2)
    assert proj_dim(std.simples[0], 6) == 1
    assert proj_dim(std.projectives[0], 6) == 0
    sd = standard_modules(dual_numbers)
    assert proj_dim(sd.simples[0], 6) is None  # infinite


def test_homological_dims_semisimple():
    a = algebra_semisimple(GF2, 2)
    dims = homological_dims(a, 6)
    assert dims.global_dimension == 0
    assert dims.dominant_dimension is None  # at least the cutoff


def test_homological_dims_dual_numbers(dual_numbers):
    dims = homological_dims(dual_numbers, 6)
    assert dims.global_dimension is None  # infinite
    assert dims.dominant_dimension is None  # self-injective


def test_dominant_dimension_kA2(kA2):
    # I1 = S1 is not projective, and the cover data gives domdim(kA2) = 1:
    # 0 -> P2 -> P1 -> S1 with P1 projective-injective, next term not
    d = dominant_dimension(kA2, 6)
    assert d == 1


def test_transpose_of_projective_is_zero(kA2):
    std = standard_modules(kA2)
    assert transpose_module(std.projectives[0]).total_dim == 0


def test_transpose_dual_numbers(dual_numbers):
    std = standard_modules(dual_numbers)
    s = std.simples[0]
    tr = transpose_module(s)
    # presentation is multiplication by x, which is self-dual
    assert tr.total_dim == 1
    assert is_isomorphic(tr, simple_module(dual_numbers.opposite(), 0)) is not None


def test_transpose_simple_kA2(kA2):
    std = standard_modules(kA2)
    tr = transpose_module(std.simples[0])
    check_module(tr)
    # over kA2^op the transpose of S1 is the simple at vertex 2
    assert tr.dims == (0, 1)


def test_tau_kA2(kA2):
    std = standard_modules(kA2)
    tz = ar_translate(std.simples[0])
    assert is_isomorphic(tz, std.simples[1]) is not None


def test_ext_space_realize_round_trip(kA2):
    std = standard_modules(kA2)
    s1, s2 = std.simples
    ext = ExtSpace(s1, s2)
    assert ext.dim == 1
    ses = ext.realize([1])
    ses.validate()
    assert ses.mid.dims == (1, 1)
    assert not any(m.is_zero() for m in ses.mid.act.values())  # the middle is P1
    ctx = CategoryContext(AdditiveCategorySpec(kA2, [s1, s2]))
    assert [(z, a, v.tolist()) for z, a, v in componentwise_classes(ctx, ses)] == [(0, 1, [1])]
    split = ext.realize([0])
    assert [(z, a, v.tolist()) for z, a, v in componentwise_classes(ctx, split)] == [(0, 1, [0])]


@pytest.mark.parametrize(
    "make",
    [lambda: algebra_kA3(GF5, zero_relation=False), lambda: algebra_dual_numbers(FieldPrime(3)), lambda: _kx3(GF2)],
    ids=["kA3-GF5", "dual-GF3", "kx3-GF2"],
)
def test_hom_coords_solves_a_list_of_maps_at_once(make):
    alg = make()
    field, p = alg.field, alg.field.p
    rng = np.random.RandomState(0)
    mods = all_indecomposables(alg, 12).modules + [direct_sum(standard_modules(alg).projectives)[0], Module.zero(alg)]
    for m, n in itertools.product(mods, repeat=2):
        basis = hom_basis(m, n)
        if not basis:
            zero = ModuleMap.zero_map(m, n)
            assert hom_coords(field, [zero, zero], []) == Matrix.zeros(field, 0, 2)
            assert hom_coords(field, [], []) == Matrix.zeros(field, 0, 0)
            if zero.flat().size:
                ones = ModuleMap(m, n, [Matrix(field, np.ones(z.a.shape, dtype=np.int64)) for z in zero.mats])
                with pytest.raises(RepmodError):
                    hom_coords(field, [zero, ones], [])
            continue
        combos = rng.randint(0, p, size=(len(basis), 4))
        maps = [hom_from_coords(c, basis, m, n) for c in combos.T]
        assert hom_coords(field, maps, basis).a.tolist() == combos.tolist()
        assert hom_coords(field, [], basis) == Matrix.zeros(field, len(basis), 0)
        # each column is the solution of the solve for that map alone, on the
        # basis and on a dependent spanning list
        spanning = [basis[0] + basis[-1]] + basis + [basis[0]]
        for gens in (basis, spanning):
            stacked = Matrix(field, np.column_stack([g.flat() for g in gens]))
            per_map = [solve_right(stacked, Matrix(field, f.flat().reshape(-1, 1))).a[:, 0] for f in maps]
            assert hom_coords(field, maps, gens).a.tolist() == np.column_stack(per_map).tolist()
        with pytest.raises(RepmodError):
            hom_coords(field, maps + [basis[-1]], basis[:-1])


def test_ext_space_pushout_to_zero(kA2):
    std = standard_modules(kA2)
    s1, s2 = std.simples
    ext = ExtSpace(s1, s2)
    zero = Module.zero(kA2)
    other = ExtSpace(s1, zero)
    g = ModuleMap.zero_map(s2, zero)
    push = ext.pushout_matrix(other, g)
    assert push.cols == 1 and push.rows == 0  # Ext^1(S1, 0) = 0


def test_ar_sequence_kA2(kA2):
    index = all_indecomposables(kA2, dim_cap=6)
    std = standard_modules(kA2)
    s1 = index.modules[index.identify(std.simples[0])]
    ses = ar_sequence(s1, index)
    assert is_isomorphic(ses.sub, std.simples[1]) is not None
    assert is_isomorphic(ses.mid, std.projectives[0]) is not None
    # the middle is indecomposable: End is local of dimension 1
    assert len(decompose(ses.mid)) == 1


def test_ar_sequence_dual_numbers(dual_numbers):
    index = all_indecomposables(dual_numbers, dim_cap=6)
    std = standard_modules(dual_numbers)
    s = index.modules[index.identify(std.simples[0])]
    ses = ar_sequence(s, index)
    assert is_isomorphic(ses.sub, std.simples[0]) is not None
    assert is_isomorphic(ses.mid, std.projectives[0]) is not None


def test_ar_sequence_rejects_projective(kA2):
    index = all_indecomposables(kA2, dim_cap=6)
    std = standard_modules(kA2)
    with pytest.raises(RepmodError):
        ar_sequence(index.modules[index.identify(std.projectives[1])], index)


def test_ar_sequence_raises_when_the_socle_candidate_fails(monkeypatch):
    # a fresh algebra and an index found without knitting, since ar_candidate
    # is memoized on the algebra and ar_sequence on the index
    a = algebra_kA2(GF2)
    index = IndecIndex(a, brute_force_indecomposables(a, 2))
    s1 = index.modules[index.identify(standard_modules(a).simples[0])]
    realized = []
    realize = ExtSpace.realize
    monkeypatch.setattr(ExtSpace, "realize", lambda self, coords: realized.append(coords) or realize(self, coords))
    monkeypatch.setattr(repmod, "is_almost_split", lambda ses, index: False)
    with pytest.raises(RepmodError, match="no almost split sequence found"):
        ar_sequence(s1, index)
    assert len(realized) == 1  # the socle candidate only; no walk over the lines of Ext^1


def test_knitting_and_validation_realize_each_class_once(monkeypatch):
    # a fresh algebra, since ar_candidate is memoized on it: the validation
    # pass reuses the candidate knitting realized instead of realizing it again
    a = algebra_kA3(GF5, zero_relation=False)
    realized = []
    realize = ExtSpace.realize

    def spy(space, coords):
        realized.append((space.z.key(), space.a.key(), tuple(int(c) for c in coords)))
        return realize(space, coords)

    monkeypatch.setattr(ExtSpace, "realize", spy)
    index = all_indecomposables(a, 8)
    assert len(realized) == len([i for i, p in enumerate(index.is_projective) if not p]) > 0
    assert len(set(realized)) == len(realized)


def test_all_indecomposables_counts():
    assert len(all_indecomposables(algebra_kA2(GF2), 8).modules) == 3
    assert len(all_indecomposables(algebra_dual_numbers(GF2), 8).modules) == 2
    assert len(all_indecomposables(algebra_kA3(GF2, True), 8).modules) == 5
    assert len(all_indecomposables(algebra_kA3(GF2, False), 8).modules) == 6
    assert len(all_indecomposables(algebra_semisimple(GF2, 3), 8).modules) == 3


def test_all_indecomposables_gf5():
    assert len(all_indecomposables(algebra_kA3(GF5, True), 8).modules) == 5
    assert len(all_indecomposables(algebra_dual_numbers(GF5), 8).modules) == 2


def test_knitting_matches_brute_force():
    for alg, cap in [
        (algebra_kA2(GF2), 3),
        (algebra_dual_numbers(GF2), 3),
        (algebra_kA3(GF2, True), 3),
        (algebra_kA3(GF2, False), 3),
    ]:
        index = all_indecomposables(alg, 8)
        brute = brute_force_indecomposables(alg, cap)
        knitted = sorted(m.dims for m in index.modules if m.total_dim <= cap)
        assert sorted(m.dims for m in brute) == knitted
        for m in brute:
            assert index.identify(m) is not None


def test_tr_squared_on_indecomposables():
    for alg in (algebra_kA2(GF2), algebra_kA3(GF5, True)):
        index = all_indecomposables(alg, 8)
        for i in [i for i, p in enumerate(index.is_projective) if not p]:
            m = index.modules[i]
            back = transpose_module(transpose_module(m))
            assert is_isomorphic(back, m) is not None


def test_dual_module_involution(kA2):
    std = standard_modules(kA2)
    for m in std.projectives + std.simples:
        assert is_isomorphic(dual_module(dual_module(m)), m) is not None


def test_map_parts_random_property():
    # f = mono o epi and dim(source) = dim(kernel) + dim(image), on random maps
    from exactcat.repmod import hom_from_coords

    a = algebra_kA3(GF5, zero_relation=True)
    std = standard_modules(a)
    mods = std.simples + std.projectives + std.injectives
    rng = np.random.RandomState(17)
    for _ in range(30):
        m = mods[rng.randint(len(mods))]
        n = mods[rng.randint(len(mods))]
        homs = hom_basis(m, n)
        if not homs:
            continue
        f = hom_from_coords(rng.randint(0, 5, size=len(homs)), homs, m, n)
        parts = map_parts(f)
        recomposed = parts.mono_part @ parts.epi_part
        assert all((x - y).is_zero() for x, y in zip(recomposed.mats, f.mats))
        assert m.total_dim == parts.kernel.total_dim + parts.image.total_dim
        assert n.total_dim == parts.image.total_dim + parts.cokernel.total_dim


def test_homological_dims_per_indecomposable(kA2):
    index = all_indecomposables(kA2, 8)
    dims = homological_dims(kA2, 6, index)
    assert len(dims.proj_dims) == 3
    by_dims = {index.modules[i].dims: pd for i, pd in enumerate(dims.proj_dims)}
    assert by_dims[(1, 1)] == 0 and by_dims[(0, 1)] == 0 and by_dims[(1, 0)] == 1


def test_inverse_map_round_trip_kA3():
    a = algebra_kA3(GF5, zero_relation=False)
    std = standard_modules(a)
    m, _, _ = direct_sum([std.projectives[0], std.projectives[1]])
    end = hom_basis(m, m)
    f = hom_from_coords(list(range(1, len(end) + 1)), end, m, m)  # unitriangular up to scalars
    ident = ModuleMap.identity(m)
    assert f.is_isomorphism() and not (f - ident).is_zero()
    g = inverse_map(f)
    check_map(g)
    assert (g @ f - ident).is_zero()
    assert (f @ g - ident).is_zero()


def _gamma_kx3():
    """Gamma = End of the additive generator of mod k[x]/(x^3) over GF(2)."""
    a = _kx3(GF2)
    index = all_indecomposables(a, 12)
    return end_algebra(AdditiveCategorySpec(a, index.modules)).gamma


def _kron_hom_system(m, n, indices=None):
    """The intertwiner system as hom_basis built it with np.kron, one block per
    element of indices (by default all of rad A), kept as the reference."""
    alg = m.algebra
    sizes = [n.dims[v] * m.dims[v] for v in range(alg.nv)]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    rows = []
    for b in alg.radical_indices if indices is None else indices:
        l, r = alg.left[b], alg.right[b]
        block = np.zeros((n.dims[r] * m.dims[l], offsets[-1]), dtype=np.int64)
        block[:, offsets[r] : offsets[r + 1]] = np.kron(np.eye(n.dims[r], dtype=np.int64), m.act[b].a.T)
        block[:, offsets[l] : offsets[l + 1]] -= np.kron(n.act[b].a, np.eye(m.dims[l], dtype=np.int64))
        rows.append(block)
    return np.vstack(rows) % alg.field.p


def _row_space(field, rows):
    reduced, pivots = rref(Matrix(field, rows))
    return reduced.a[: len(pivots)]


def test_hom_system_matches_kron():
    # the system is the kron blocks of the generators, with the row space (so
    # the RREF, so the hom_basis output) of the system over all of rad A.
    # kA3 simples have zero components; the dual numbers' arrow is a loop (l == r)
    for alg in (algebra_kA3(GF5, zero_relation=False), algebra_dual_numbers(GF5), _gamma_kx3()):
        std = standard_modules(alg)
        regular, _, _ = direct_sum(std.projectives)
        mods = [Module.zero(alg), regular] + std.simples + std.projectives + std.injectives
        for m, n in itertools.product(mods, repeat=2):
            system = _hom_system(m, n)[0].a
            assert np.array_equal(system, _kron_hom_system(m, n, alg.generator_indices()))
            assert np.array_equal(_row_space(alg.field, system), _row_space(alg.field, _kron_hom_system(m, n)))


def _span_of_words(alg, indices):
    """Row space of every nonempty product of the given basis elements."""
    words = [np.eye(alg.dim, dtype=np.int64)[b] for b in indices]
    span = _row_space(alg.field, np.array(words).reshape(len(words), alg.dim))
    while True:
        products = [alg.multiply(x, w) for x in span for w in words]
        grown = _row_space(alg.field, np.vstack([span] + products)) if products else span
        if grown.shape == span.shape:
            return span
        span = grown


@pytest.mark.parametrize(
    "make, labels",
    [
        (lambda: algebra_kA3(GF5, zero_relation=False), ["a", "b"]),
        (lambda: algebra_dual_numbers(GF2), ["x"]),
        (lambda: algebra_semisimple(GF2, 3), []),
        (_gamma_kx3, ["r0.1.1", "r1.0.1", "r1.2.0", "r2.1.0"]),
    ],
    ids=["kA3-GF5", "dual-GF2", "semisimple-GF2", "gamma_kx3-GF2"],
)
def test_generator_indices_span_rad_mod_rad2_and_generate_rad(make, labels):
    alg = make()
    gens = alg.generator_indices()
    assert [alg.labels[b] for b in gens] == labels
    rad = list(alg.radical_indices)
    assert set(gens) <= set(rad)
    if rad:
        full = _row_space(alg.field, np.eye(alg.dim, dtype=np.int64)[rad])
        assert np.array_equal(_span_of_words(alg, gens), full)


def test_submodule_restricts_per_element_and_rejects_non_closed_subspaces():
    alg = algebra_kA3(GF5, zero_relation=False)
    std = standard_modules(alg)
    regular, _, _ = direct_sum(std.projectives)
    rad, incl = radical_submodule(regular)
    for b in alg.radical_indices:
        l, r = alg.left[b], alg.right[b]
        assert rad.act[b] == solve_right(incl.mats[r], regular.act[b] @ incl.mats[l])
    # the top of P_1 without its radical is not closed under the arrow a
    p1 = std.projectives[0]
    bases = [Matrix.identity(GF5, p1.dims[0])] + [Matrix.zeros(GF5, d, 0) for d in p1.dims[1:]]
    with pytest.raises(RepmodError, match="not closed under the action"):
        submodule(p1, bases)


PARTS_ALGEBRAS = {
    "kA3_gf2": lambda: algebra_kA3(GF2, zero_relation=False),
    "kA3_gf5": lambda: algebra_kA3(GF5, zero_relation=False),
    "kA3_relation": lambda: algebra_kA3(GF2, zero_relation=True),
    "dual_numbers": lambda: algebra_dual_numbers(GF2),
    "gamma_kx3": _gamma_kx3,
}


@pytest.mark.parametrize("name", sorted(PARTS_ALGEBRAS))
def test_parts_matches_decompose(name):
    index = all_indecomposables(PARTS_ALGEBRAS[name](), 40)
    mods = index.modules
    cases = list(mods)
    cases += [direct_sum([x, y])[0] for x, y in itertools.combinations_with_replacement(mods, 2)]
    cases.append(direct_sum([mods[0], mods[-1], mods[0]])[0])
    cases += [ar_sequence(mods[i], index).mid for i in [i for i, p in enumerate(index.is_projective) if not p]]
    for m in cases:
        assert index.parts(m) == sorted(index.identify(q) for q, _ in decompose(m))
    assert index.parts(Module.zero(index.algebra)) == []


@pytest.mark.parametrize("name", sorted(PARTS_ALGEBRAS))
def test_parts_rejects_summand_outside_index(name):
    alg = PARTS_ALGEBRAS[name]()
    mods = all_indecomposables(alg, 40).modules
    partial = IndecIndex(alg, mods[:-1])
    with pytest.raises(RepmodError):
        partial.parts(direct_sum([mods[0], mods[-1]])[0])


def _every_row_parts(index, m):
    """The reference for IndecIndex.parts: every relation row, on every h_j."""
    dm = dual_module(m)
    h = np.array([mat.cols - rank(mat) for mat in (hom_of_std_map(d, dm) for d in index._dual_presentations())])
    mult = index._relations() @ h
    assert (mult >= 0).all() and tuple(int(d) for d in mult @ index._dimvecs) == m.dims
    return [i for i, k in enumerate(mult) for _ in range(k)]


@pytest.mark.parametrize("name", sorted(path.stem for path in SESSIONS.glob("*.json")))
def test_candidate_rows_count_what_every_row_counts(name):
    """parts evaluates only the rows of the members whose dimension vector is
    at most dims(m): on every Gamma and Gamma^op member of a session algebra
    and every sum of two, it counts what all rows count, and a module with a
    summand outside the index still raises."""
    session = Session(json.loads((SESSIONS / f"{name}.json").read_text()))
    ctx = AuslanderContext(session.algebra, dim_cap=session.dim_cap, cutoff=session.resolution_cutoff)
    for index in (ctx.gamma_index, IndecIndex(ctx.gamma_op, [dual_module(m) for m in ctx.gamma_index.modules])):
        mods = index.modules
        cases = list(mods) + [direct_sum([x, y])[0] for x, y in itertools.combinations_with_replacement(mods, 2)]
        for m in cases:
            assert index.parts(m) == _every_row_parts(index, m)
    mods = ctx.gamma_index.modules
    partial = IndecIndex(ctx.gamma, mods[:-1])
    if name == "kA3_gf5":
        partial._relations()  # the last member is in no mesh of the others: the count itself raises
    for m in (mods[-1], direct_sum([mods[0], mods[-1]])[0]):
        with pytest.raises(RepmodError, match="outside the index"):
            partial.parts(m)


def _ext_dim_by_hom_bases(i, m, n):
    """dim Ext^i(m, n) through Hom bases, the reference for ext_dim: Hom(P_k, n)
    solved as intertwiner systems and phi -> phi o d_k written in them."""
    projs, diffs, _ = minimal_resolution(m, i + 1)
    homs = [hom_basis(sp.module, n) for sp in projs]
    mi, mi1 = (
        hom_coords(m.algebra.field, [phi @ diffs[k - 1] for phi in homs[k - 1]], homs[k]) for k in (i, i + 1)
    )
    return (len(homs[i]) - rank(mi1)) - rank(mi)


@pytest.mark.parametrize("name", sorted(PARTS_ALGEBRAS))
def test_presentation_hom_dims_match_hom_basis(name):
    """dim Hom(m, X) from the dual presentation of X equals the intertwiner
    count, and ext_dim from the resolution differentials equals both the
    ExtSpace dimension and the count through Hom bases."""
    alg = PARTS_ALGEBRAS[name]()
    index = all_indecomposables(alg, 40)
    mods = index.modules
    regular = direct_sum(standard_modules(alg).projectives)[0]
    cases = list(mods) + [regular, Module.zero(alg)]
    cases += [direct_sum([x, y])[0] for x, y in itertools.combinations_with_replacement(mods, 2)]
    presentations = []
    for x in mods:
        pres = minimal_presentation(dual_module(x))
        presentations.append(StdMapTerms.of(pres.d, pres.p1, pres.p0))
    assert index._dual_presentations() == presentations
    for m in cases:
        dm = dual_module(m)
        for x, d in zip(mods, presentations):
            mat = hom_of_std_map(d, dm)
            assert mat.cols == sum(m.dims[v] for v in d.tgt_verts)
            assert mat.cols - rank(mat) == len(hom_basis(m, x))
    for z, a in itertools.product(mods + [regular], mods):
        assert ext_dim(1, z, a) == ext_space(z, a).dim
        for i in (1, 2):
            assert ext_dim(i, z, a) == _ext_dim_by_hom_bases(i, z, a)


# -- subquotients from one elimination, lazy direct-sum maps, reduced arrays --


def _solve_submodule(m, bases):
    """The reference for submodule: each action restricted by its own solve."""
    alg = m.algebra
    act = {}
    for b in alg.radical_indices:
        l, r = alg.left[b], alg.right[b]
        x = solve_right(bases[r], m.act[b] @ bases[l])
        if x is None:
            raise RepmodError("subspaces are not closed under the action")
        act[b] = x
    sub = Module(alg, [u.cols for u in bases], act)
    return sub, ModuleMap(sub, m, bases)


def _two_elimination_quotient(m, bases):
    """The reference for quotient, with two eliminations per vertex:
    rref([u | I]) picks the complement w, then [u | w] is inverted."""
    alg = m.algebra
    field = alg.field
    projections, lifts = [], []
    for u, d in zip(bases, m.dims):
        _, pivots = rref(Matrix(field, np.hstack([u.a, np.eye(d, dtype=np.int64)])))
        if len([c for c in pivots if c < u.cols]) != u.cols:
            raise RepmodError("submodule basis is not independent")
        w = Matrix(field, np.eye(d, dtype=np.int64)[:, [c - u.cols for c in pivots if c >= u.cols]])
        inv = inverse(hstack(field, [u, w])) if d else Matrix.zeros(field, 0, 0)
        projections.append(Matrix(field, inv.a[u.cols :]))
        lifts.append(w)
    act = {b: projections[alg.right[b]] @ m.act[b] @ lifts[alg.left[b]] for b in alg.radical_indices}
    quot = Module(alg, [pi.rows for pi in projections], act)
    return quot, ModuleMap(m, quot, projections)


def _maps_equal(f, g):
    return f.source.key() == g.source.key() and f.target.key() == g.target.key() and f.mats == g.mats


def _random_basis_change(u, rng):
    """Another basis of the column space of u: u times a random invertible matrix."""
    p = u.field.p
    while True:
        c = Matrix(u.field, rng.randint(0, p, size=(u.cols, u.cols)))
        if rank(c) == u.cols:
            return u @ c


@pytest.mark.parametrize("p", [2, 5, 65521])
def test_subquotients_from_one_elimination_match_the_solve_based_versions(p):
    field = FieldPrime(p)
    alg = algebra_kA3(field, zero_relation=False)
    std = standard_modules(alg)
    mods = [std.projectives[0], std.simples[1], std.injectives[2]]
    # zero-dimensional vertices: the simples, and sums with a zero vertex
    mods += [direct_sum([std.simples[0], std.projectives[1]])[0], direct_sum(std.projectives)[0]]
    rng = np.random.RandomState(p)
    compared = 0
    for m, n in itertools.product(mods, repeat=2):
        basis = hom_basis(m, n)
        for _ in range(3):
            coeffs = rng.randint(-p, 2 * p, size=len(basis))
            f = hom_from_coords(coeffs, basis, m, n)
            naive = ModuleMap.zero_map(m, n)
            for c, g in zip(coeffs, basis):
                naive = naive + g.scale(int(c))
            assert f.mats == naive.mats
            # a spanning list with repeats: the int64 sums pass p before the one reduction
            assert hom_from_coords(np.concatenate([coeffs, coeffs]), basis + basis, m, n).mats == (naive + naive).mats
            # closed subspaces: the kernel of f in m and its image in n, in random bases
            for target, bases in (
                (m, [kernel(f)[1].mats[v] for v in range(alg.nv)]),
                (n, [image(f)[1].mats[v] for v in range(alg.nv)]),
            ):
                bases = [_random_basis_change(u, rng) for u in bases]
                for new, old in ((submodule, _solve_submodule), (quotient, _two_elimination_quotient)):
                    got, want = new(target, bases), old(target, bases)
                    assert got[0].key() == want[0].key()
                    assert _maps_equal(got[1], want[1])
                    compared += 1
        # a quotient by an independent subspace that need not be closed
        bases = []
        for d in m.dims:
            cols = Matrix(field, rng.randint(0, p, size=(d, rng.randint(0, d + 1))))
            bases.append(cols.take_columns(rref(cols)[1]))
        got, want = quotient(m, bases), _two_elimination_quotient(m, bases)
        assert got[0].key() == want[0].key() and _maps_equal(got[1], want[1])
    assert compared >= 4 * len(mods) ** 2 * 3

    regular = mods[-1]
    full = [Matrix.identity(field, d) for d in regular.dims]
    dependent = list(full)
    dependent[1] = hstack(field, [full[1], full[1].column(0)])  # vertex 2 has an incoming arrow
    for build in (submodule, quotient):
        with pytest.raises(RepmodError, match="not independent"):
            build(regular, dependent)
    # the top of P_1 without its radical is not closed under the arrow a
    p1 = std.projectives[0]
    with pytest.raises(RepmodError, match="not closed under the action"):
        submodule(p1, [Matrix.identity(field, 1), Matrix.zeros(field, 1, 0), Matrix.zeros(field, 1, 0)])


def _eliminating_frame(u, d):
    """The reference for frame: rref([u | I_d]) at every vertex."""
    k = u.cols
    r, pivots = rref(Matrix(u.field, np.hstack([u.a, np.eye(d, dtype=np.int64)])))
    assert pivots[:k] == list(range(k))
    inv = r.a[:, k:]
    return inv[:k], inv[k:], [c - k for c in pivots[k:]]


def _eliminating_map_parts(f):
    """The reference for map_parts: one rref of every vertex matrix and of
    every frame, and every action restricted or projected, zero or not."""
    alg = f.source.algebra
    field, p = alg.field, alg.field.p
    reduced = [rref(mat) for mat in f.mats]

    def sub(m, bases):
        frames = [_eliminating_frame(u, d) for u, d in zip(bases, m.dims)]
        act = {}
        for b in alg.radical_indices:
            image = m.act[b].a @ bases[alg.left[b]].a % p
            assert not (frames[alg.right[b]][1] @ image % p).any()
            act[b] = Matrix(field, frames[alg.right[b]][0] @ image)
        part = Module(alg, [u.cols for u in bases], act)
        return part, ModuleMap(part, m, bases), frames

    ker, ker_incl, _ = sub(f.source, [kernel_basis(mat, red) for mat, red in zip(f.mats, reduced)])
    img, mono, frames = sub(f.target, [mat.take_columns(pivots) for mat, (_, pivots) in zip(f.mats, reduced)])
    epi = ModuleMap(f.source, img, [Matrix(field, r.a[: len(pivots)]) for r, pivots in reduced])
    projections = [Matrix(field, proj) for _, proj, _ in frames]
    act = {
        b: Matrix(field, frames[alg.right[b]][1] @ np.take(f.target.act[b].a, frames[alg.left[b]][2], axis=1))
        for b in alg.radical_indices
    }
    cok = Module(alg, [pi.rows for pi in projections], act)
    return MapParts(ker, ker_incl, img, epi, mono, cok, ModuleMap(f.target, cok, projections))


@pytest.mark.parametrize(
    "make",
    [lambda: algebra_kA3(GF5, zero_relation=False), lambda: algebra_kA3(GF2, zero_relation=True), lambda: _kx3(GF2)],
    ids=["kA3-GF5", "kA3rel-GF2", "kx3-GF2"],
)
def test_map_parts_skipping_empty_vertices_matches_the_eliminating_path(make):
    """map_parts skips elimination at vertices where the source or the target
    is zero, and frames of the zero subspace or of a whole space on its
    identity basis; every term and map equals the path that eliminates
    everywhere, on maps with empty vertices and with zero kernels or cokernels."""
    alg = make()
    std = standard_modules(alg)
    mods = all_indecomposables(alg, 8).modules + [direct_sum(std.projectives)[0], direct_sum(std.simples)[0]]
    maps = []
    for m, n in itertools.product(mods, repeat=2):
        basis = hom_basis(m, n)
        maps += basis + [ModuleMap.zero_map(m, n), hom_from_coords([1] * len(basis), basis, m, n)]
    maps += [projective_cover(m)[1] for m in mods] + [radical_submodule(m)[1] for m in mods]
    seen = Counter()
    for f in maps:
        got, want = map_parts(f), _eliminating_map_parts(f)
        for field in dataclasses.fields(MapParts):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert a.key() == b.key(), field.name
        seen["empty vertex"] += any(s == 0 or t == 0 for s, t in zip(f.source.dims, f.target.dims))
        seen["zero kernel"] += got.kernel.is_zero()
        seen["zero cokernel"] += got.cokernel.is_zero()
    assert min(seen.values()) > 0 and len(seen) == 3


def _swept_shift(f):
    """The reference for _least_shift: the least root at -t of the minimal
    polynomial, found by evaluating it at every t in GF(p)."""
    field = f.source.algebra.field
    xs = (-np.arange(field.p, dtype=np.int64)) % field.p
    values = np.zeros(field.p, dtype=np.int64)
    for c in reversed(repmod._min_poly(block_diag(field, list(f.mats)).a, field)):
        values = (values * xs + c) % field.p
    roots = np.flatnonzero(values == 0)
    return int(roots[0]) if roots.size else None


@pytest.mark.parametrize("p", [2, 3, 5, 65521])
def test_least_shift_of_a_single_root_needs_no_sweep(p):
    """(x - lam)^k with p not dividing k gives t = -lam without a sweep; the
    least shift equals the swept one on endomorphisms of k[x]/(x^3) modules,
    including (x - lam)^k with p dividing k, several roots and no root."""
    field = FieldPrime(p)
    a = _kx3(field)
    mods = all_indecomposables(a, 8).modules
    mods += [direct_sum([x, y])[0] for x, y in itertools.combinations_with_replacement(mods, 2)]
    ends = [f for m in mods for f in hom_basis(m, m)]
    ends += [f + ModuleMap.identity(f.source).scale(3) for f in ends]
    one = algebra_semisimple(field, 1)
    square, _, _ = direct_sum([simple_module(one, 0), simple_module(one, 0)])
    ends += [ModuleMap(square, square, [Matrix(field, rows)]) for rows in ([[1, 0], [0, 2]], [[0, 1], [p - 1, 0]])]
    for f in ends:
        shift = repmod._least_shift(f)
        assert (None if shift is None else shift[0]) == _swept_shift(f)
def _eager_direct_sum(modules):
    """The reference for direct_sum: block_diag actions, every map built up front."""
    alg = modules[0].algebra
    field = alg.field
    dims = [sum(m.dims[v] for m in modules) for v in range(alg.nv)]
    act = {}
    for b in alg.radical_indices:
        act[b] = block_diag(field, [m.act[b] for m in modules])
    total = Module(alg, dims, act)
    injections, projections, offsets = [], [], [0] * alg.nv
    for m in modules:
        inj = []
        for v in range(alg.nv):
            e = np.zeros((dims[v], m.dims[v]), dtype=np.int64)
            e[offsets[v] : offsets[v] + m.dims[v]] = np.eye(m.dims[v], dtype=np.int64)
            inj.append(Matrix(field, e))
        injections.append(ModuleMap(m, total, inj))
        projections.append(ModuleMap(total, m, [mat.transpose() for mat in inj]))
        offsets = [o + d for o, d in zip(offsets, m.dims)]
    return total, injections, projections


def test_direct_sum_maps_split_the_sum_and_match_the_eager_construction():
    alg = algebra_kA3(GF5, zero_relation=True)
    std = standard_modules(alg)
    cases = [[std.projectives[0]], [std.simples[0], std.simples[2]], [std.projectives[0], std.simples[1], std.projectives[0]]]
    cases.append([Module.zero(alg), std.injectives[1], Module.zero(alg), std.projectives[2]])
    for modules in cases:
        total, injections, projections = direct_sum(modules)
        want_total, want_inj, want_proj = _eager_direct_sum(modules)
        assert total.key() == want_total.key()
        assert len(injections) == len(projections) == len(modules)
        # read out of order and twice: each map is built once and kept
        for i in reversed(range(len(modules))):
            assert _maps_equal(projections[i], want_proj[i]) and projections[i] is projections[i]
        assert all(_maps_equal(f, g) for f, g in zip(injections, want_inj))
        assert _maps_equal(injections[-1], want_inj[-1])
        with pytest.raises(IndexError):
            injections[len(modules)]
        for (i, pi), (j, iota) in itertools.product(enumerate(projections), enumerate(injections)):
            want = ModuleMap.identity(modules[i]) if i == j else ModuleMap.zero_map(modules[j], modules[i])
            assert (pi @ iota).mats == want.mats
        ident = ModuleMap.zero_map(total, total)
        for iota, pi in zip(injections, projections):
            ident = ident + iota @ pi
        assert ident.mats == ModuleMap.identity(total).mats


@pytest.mark.parametrize("session", ["kA2", "dual_numbers", "kA3_relation"])
def test_reduced_matrices_are_owned_read_only_residues(session, monkeypatch, tmp_path):
    """Every array wrapped without reduction is a fresh int64 array with
    entries in [0, p), read-only once wrapped and owning its memory."""
    import json
    from pathlib import Path

    from exactcat.cli import run_session

    original = Matrix.__init__
    wrapped = []

    def checked(self, field, data, *, reduced=False):
        original(self, field, data, reduced=reduced)
        if reduced:
            a = self.a
            assert a is data and a.dtype == np.int64 and a.ndim == 2
            assert a.base is None, "a view of another array was wrapped"
            assert not a.flags.writeable
            assert a.size == 0 or (a.min() >= 0 and a.max() < field.p)
            wrapped.append(a.size)

    monkeypatch.setattr(Matrix, "__init__", checked)
    payload = json.loads((Path(__file__).resolve().parents[1] / "sessions" / f"{session}.json").read_text())
    code, _ = run_session(payload, tmp_path)
    assert code == 0
    assert len(wrapped) > 1000
