"""Membership, torsion, transpose/grade, resolving subcategories, the
Auslander exact axioms and both correspondences, verified per exact structure.

Everything happens inside mod(Gamma) for Gamma = End(M), M the additive
generator of C = add(M) in mod(Lambda).  The admissibly presented objects of a
structure are the Gamma-modules whose transported minimal presentation
morphism is admissible in the structure; the effaceables are those presented
by deflations.  Ext groups of the inherited exact structure on the admissibly
presented subcategory agree with Ext over Gamma because the subcategory is
extension-closed in the abelian category mod(Gamma).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, Report
from .exactstruct import (
    ELEMENT_CAP,
    CategoryContext,
    ExactStructure,
    classify_morphism,
    enumerate_exact_structures,
    kinds_in,
    maximal_structure,
    morphism_classes,
)
from .functorcat import AdditiveCategorySpec, end_algebra
from .linalg import (
    ExactcatError,
    Matrix,
    line_representative,
    memo,
    rank,
    subspace_lines,
)
from .repmod import (
    Module,
    ModuleMap,
    RepmodError,
    ShortExactSeq,
    all_indecomposables,
    block_map,
    cokernel,
    descend,
    direct_sum,
    dual_module,
    dual_presentation,
    dual_std_map,
    ext_dim,
    ext_space,
    factor_through_mono,
    hom_basis,
    hom_coords,
    hom_dim,
    hom_from_coords,
    inverse_map,
    kernel,
    map_parts,
    minimal_presentation,
    proj_dim,
    projective_module,
    std_map_from_coeffs,
    std_projective,
    transpose_module,
)


class AuslanderError(ExactcatError):
    pass


@dataclass(frozen=True)
class SubcategorySpec:
    """A set of indecomposable ids over Gamma, Gamma^op or Lambda."""

    side: str  # "gamma", "gamma_op" or "lambda" (mod Lambda itself)
    ids: frozenset[int]

    def sorted_ids(self) -> list[int]:
        return sorted(self.ids)


@dataclass
class SubcategoryQuad:
    eff: SubcategorySpec
    smodad: SubcategorySpec
    cogen_q: SubcategorySpec
    torsion_free: SubcategorySpec


class AuslanderContext:
    """All derived data of one ground algebra: the category C = add of the
    given objects (Lambda-index ids, all of mod(Lambda) by default; C's object
    k is the k-th in increasing order), its endomorphism algebra, and the
    indecomposables on both sides.  Only C = mod(Lambda) keeps the Lambda
    index on cat, so structures() refuses a proper subcategory.

    Gamma = End(M) and what hangs off it, the attributes GAMMA_ATTRS, are
    built on first use (see __getattr__): the indecomposables and the exact
    structures of C need none of them, so only verify and smodad can reach
    the Gamma-side cap.

    Gamma^op is a view of Gamma through the duality D = Hom_k(-, k):
    mod(Gamma) -> mod(Gamma^op).  Its member i is D X_i for Gamma's member
    X_i, the ids of a Gamma^op-module N are those of DN over Gamma, and its
    projectives are D of Gamma's injectives (side_modules, side_parts,
    projective_ids)."""

    GAMMA_CAP = "the Gamma-side cap gamma_dim_cap"
    GAMMA_DIM_CAP = 40  # largest dimension of a Gamma-side indecomposable that is knitted
    GAMMA_ATTRS = frozenset({"ea", "gamma", "gamma_op", "gamma_index", "yoneda_ids"})

    def __init__(self, algebra: Algebra, dim_cap: int = 12, cutoff: int = 8, seed: int = 0, objects=None):
        # seed is ignored (nothing here is randomized); perfbench/run.py still passes it
        self.algebra = algebra
        self.dim_cap = dim_cap
        self.cutoff = cutoff
        self.index = all_indecomposables(algebra, dim_cap)
        n = len(self.index.modules)
        ids = range(n) if objects is None else sorted(frozenset(objects))
        self.spec = AdditiveCategorySpec(algebra, [self.index.modules[i] for i in ids])
        self.cat = CategoryContext(self.spec, self.index if len(ids) == n else None)

    def __getattr__(self, name: str):
        """Builds Gamma on the first read of one of GAMMA_ATTRS and sets them
        all, so every later read is a plain attribute read."""
        if name not in self.GAMMA_ATTRS:
            raise AttributeError(name)
        ea = end_algebra(self.spec)
        gamma_index = all_indecomposables(ea.gamma, self.GAMMA_DIM_CAP, cap_name=self.GAMMA_CAP)
        yoneda_ids = [gamma_index.identify(ea.yoneda(m)) for m in self.cat.objects]
        if any(i is None for i in yoneda_ids):
            raise AuslanderError("a representable functor is missing from the Gamma index")
        self.ea, self.gamma, self.gamma_op = ea, ea.gamma, ea.gamma.opposite()
        self.gamma_index, self.yoneda_ids = gamma_index, yoneda_ids
        return getattr(self, name)

    # -- bookkeeping ------------------------------------------------------------

    @memo()
    def structures(self) -> list[ExactStructure]:
        return enumerate_exact_structures(self.cat)

    @memo(lambda self, side: side)
    def side_modules(self, side: str) -> list[Module]:
        """The members of a side by id; over Gamma^op, D of Gamma's."""
        if side == "gamma_op":
            return [dual_module(m) for m in self.gamma_index.modules]
        return self.index.modules if side == "lambda" else self.gamma_index.modules

    def side_parts(self, side: str, m: Module) -> list[int]:
        """Ids of the summands of m, with multiplicity; a Gamma^op-module N
        has the ids of DN over Gamma."""
        if side == "gamma_op":
            return self.gamma_index.parts(dual_module(m))
        return (self.index if side == "lambda" else self.gamma_index).parts(m)

    def gamma_module(self, i: int) -> Module:
        return self.gamma_index.modules[i]

    def transported(self, f_mod: Module):
        return self.ea.presentation_in_category(f_mod)

    def projective_ids(self, side: str) -> frozenset[int]:
        """Over Gamma^op, the ids of Gamma's injectives: D sends them to the projectives."""
        index = self.index if side == "lambda" else self.gamma_index
        flags = index.is_injective if side == "gamma_op" else index.is_projective
        return frozenset(i for i, flag in enumerate(flags) if flag)

    @memo(lambda self, side: side)
    def p2_ids(self, side: str) -> frozenset[int]:
        dims = [proj_dim(m, self.cutoff) for m in self.side_modules(side)]
        return frozenset(i for i, pd in enumerate(dims) if pd is not None and pd <= 2)

    # -- memberships -------------------------------------------------------------

    @memo(lambda self, i: i)
    def _presentation_classes(self, i: int) -> dict[str, tuple]:
        """morphism_classes of the transported presentation morphism of F_i."""
        return morphism_classes(self.cat, self.transported(self.gamma_module(i)).f)

    @memo(lambda self, e: e.key())
    def build_subcategories(self, e: ExactStructure) -> SubcategoryQuad:
        eff, smodad, infl = set(), set(), set()
        for i in range(len(self.gamma_index.modules)):
            kinds = kinds_in(e, self._presentation_classes(i))
            if "deflation" in kinds:
                eff.add(i)
            if "admissible" in kinds:
                smodad.add(i)
            if "inflation" in kinds:
                infl.add(i)
        # an independent route; cogen Q lives inside the admissibly presented
        # subcategory, so the raw test is intersected with it
        cogen = {i for i in smodad if self._cogenerated(i)}
        return SubcategoryQuad(
            SubcategorySpec("gamma", frozenset(eff)),
            SubcategorySpec("gamma", frozenset(smodad)),
            SubcategorySpec("gamma", frozenset(cogen)),
            SubcategorySpec("gamma", frozenset(infl)),
        )

    @memo(lambda self, i: i)
    def _cogenerated(self, i: int) -> bool:
        """Does F_i embed in a sum of representables (the cogen Q test)?
        It depends on F_i only, not on the structure."""
        representables = [self.gamma_module(y) for y in self.yoneda_ids]
        return self._left_approximation(self.gamma_module(i), representables).is_injective()

    # -- torsion ------------------------------------------------------------------

    def torsion_decomposition(self, f_mod: Module, e: ExactStructure) -> ShortExactSeq:
        """The canonical sequence tF >-> F ->> fF from the deflation-inflation
        factorization of the presentation morphism."""
        if "admissible" not in classify_morphism(self.transported(f_mod).f, e):
            raise AuslanderError("module is not admissibly presented in this structure")
        return self._torsion_sequence(f_mod)

    def _torsion_sequence(self, f_mod: Module) -> ShortExactSeq:
        data = self.transported(f_mod)
        parts = map_parts(data.f)
        y_epi = self.ea.yoneda_map(parts.epi_part)
        y_mono = self.ea.yoneda_map(parts.mono_part)
        _, t_proj = cokernel(y_epi)
        _, mid_proj = cokernel(self.ea.yoneda_map(data.f))
        _, f_proj = cokernel(y_mono)
        # phi: coker(y_epi) -> coker(y_f) induced by postcomposition with the mono part
        phi = descend(mid_proj @ y_mono, t_proj)
        # psi: coker(y_f) -> coker(y_mono) induced by the identity on the cover
        psi = descend(f_proj, mid_proj)
        # transport onto the literal module via the canonical isomorphism
        mu = self._coker_iso(data, mid_proj)
        ses = ShortExactSeq(mu @ phi, psi @ inverse_map(mu))
        ses.validate()
        return ses

    @memo(lambda self, i: i)
    def _torsion_parts(self, i: int) -> tuple[frozenset[int], frozenset[int]] | None:
        """Summand ids (t, f) of the torsion sequence of F_i; None if it fails.
        The sequence depends on F_i only, not on the structure."""
        try:
            ses = self._torsion_sequence(self.gamma_module(i))
        except (AuslanderError, RepmodError):
            return None
        return self._summand_ids(ses.sub), self._summand_ids(ses.quot)

    def _summand_ids(self, m: Module) -> frozenset[int]:
        return self._interned(frozenset(self.gamma_index.parts(m)))

    @memo(lambda self, ids: ids)
    def _interned(self, ids: frozenset[int]) -> frozenset[int]:
        """The first equal id set seen: the stores repeat few distinct sets
        many times, so each is held once."""
        return ids

    def _coker_iso(self, data, mid_proj: ModuleMap) -> ModuleMap:
        """The isomorphism coker(yoneda(f)) -> F through the presentation."""
        pres = data.presentation
        _, can = self.ea.canonical_std_iso(pres.p0.verts)
        target = pres.aug @ can  # yoneda(Y) -> F
        return descend(target, mid_proj)

    # -- transpose, star, evaluation ------------------------------------------------

    def star_dual(self, f_mod: Module) -> Module:
        """F^* = ker of the Hom(-, Gamma) dual of the presentation (a module
        over the opposite side)."""
        return kernel(dual_presentation(f_mod))[0]

    def evaluation_map(self, f_mod: Module) -> ModuleMap:
        """The natural map F -> F** with its per-vertex matrices."""
        pres = minimal_presentation(f_mod)
        g = dual_presentation(f_mod)  # P0^ -> P1^ over the opposite algebra
        star, iota = kernel(g)
        star_pres = minimal_presentation(star)  # d: Q1 -> Q0 over the opposite algebra
        h = iota @ star_pres.aug  # Q0 -> P0^
        p0_dual = std_projective(g.source.algebra, pres.p0.verts)
        h_dual = dual_std_map(h, star_pres.p0, p0_dual)  # P0 -> Q0^ over the original algebra
        k = dual_presentation(star)  # Q0^ -> Q1^ over the original algebra
        _, j = kernel(k)  # F** inside Q0^
        e0 = factor_through_mono(h_dual, j)
        # descend e0: P0 -> F** through the augmentation P0 ->> F
        return descend(e0, pres.aug)

    def auslander_bridger_check(self, f_mod: Module) -> bool:
        """Pointwise exactness of 0 -> Ext^1(Tr F) -> F -> F** -> Ext^2(Tr F) -> 0."""
        ev = self.evaluation_map(f_mod)
        tr = transpose_module(f_mod)
        aop = f_mod.algebra.opposite()
        for v in range(f_mod.algebra.nv):
            k_dim = f_mod.dims[v] - rank(ev.mats[v])
            c_dim = ev.target.dims[v] - rank(ev.mats[v])
            e1 = ext_dim(1, tr, projective_module(aop, v))
            e2 = ext_dim(2, tr, projective_module(aop, v))
            if (k_dim, c_dim) != (e1, e2):
                return False
        return True

    @memo(lambda self, f_mod, side="gamma": (f_mod.key(), side))
    def grade(self, f_mod: Module, side: str = "gamma") -> int | None:
        """Least i <= cutoff with Ext^i(F, some representable) nonzero; None if all vanish."""
        alg = self.gamma if side == "gamma" else self.gamma_op
        for i in range(self.cutoff + 1):
            if any(ext_dim(i, f_mod, projective_module(alg, v)) > 0 for v in range(alg.nv)):
                return i
        return None

    # -- resolving subcategories ---------------------------------------------------

    @memo(lambda self, side, z, a, vec: (side, z, a, line_representative(vec, self.algebra.field.p)))
    def ext_middle_parts(self, side: str, z: int, a: int, vec) -> frozenset[int]:
        """Ids of the summands of the middle term of the realized class,
        cached per line: the middle term of c*xi is that of xi (pushout along
        c*id), so one class of each line is realized."""
        modules = self.side_modules(side)
        space = ext_space(modules[z], modules[a])
        return self._interned(frozenset(self.side_parts(side, space.realize(vec).mid)))

    @memo(lambda self, side, i: (side, i))
    def syzygy_parts(self, side: str, i: int) -> frozenset[int]:
        return frozenset(self.side_parts(side, minimal_presentation(self.side_modules(side)[i]).syz))

    @memo(lambda self, side, z, a: (side, z, a))
    def _ext1_dim(self, side: str, z: int, a: int) -> int:
        """dim Ext^1 between two members, counted without building the space:
        most pairs the closures walk have none."""
        modules = self.side_modules(side)
        return ext_dim(1, modules[z], modules[a])

    def _ext_closure(self, side: str, ids) -> tuple[frozenset[int], bool]:
        """Ids of the summands of the middle terms of the Ext^1 classes between
        members of ids, and whether every line was walked (each space walks
        its lines up to ELEMENT_CAP of them, a spanning set beyond).

        Over Gamma^op it is the closure over Gamma: D is an exact duality, so
        Ext^1(DX_z, DX_a) = Ext^1(X_a, X_z) with middle terms D of each other,
        which have the same ids; ids x ids is symmetric, so the middle ids and
        the exhaustive flag agree."""
        if side == "gamma_op":
            return self._ext_closure("gamma", ids)
        modules = self.side_modules(side)
        middles, exhaustive = set(), True
        for z in sorted(ids):
            for a in sorted(ids):
                if self._ext1_dim(side, z, a) == 0:
                    continue
                dim = ext_space(modules[z], modules[a]).dim
                vectors, walked_all = subspace_lines(Matrix.identity(self.algebra.field, dim), ELEMENT_CAP)
                exhaustive = exhaustive and walked_all
                for vec in vectors:
                    middles |= self.ext_middle_parts(side, z, a, vec)
        return frozenset(middles), exhaustive

    def _syzygy_closure(self, side: str, ids) -> frozenset[int]:
        """Ids of the summands of the syzygies of the members of ids."""
        return frozenset().union(*(self.syzygy_parts(side, i) for i in ids))

    def is_resolving(self, sub: SubcategorySpec, ambient_ids: frozenset[int]) -> Report:
        """Resolving in the ambient id-set: generating, extension-closed,
        summand-closed (by construction), closed under kernels of deflations.

        Kernels of deflations reduce to syzygy closure: for an epi B ->> C the
        pullback against the projective cover of C is an extension of B by the
        syzygy of C, so extension closure plus summand closure plus syzygies
        inside the subcategory give the kernel.
        """
        report = Report()
        ids = sub.ids
        report.add("inside the ambient subcategory", ids <= ambient_ids)
        report.add("generating (contains all projectives)", self.projective_ids(sub.side) <= ids)
        middles, exhaustive = self._ext_closure(sub.side, ids)
        if not exhaustive:
            report.note("extension closure: some Ext^1 walked on a spanning set only")
        report.add("extension closed", middles <= ids)
        report.add("kernels of deflations (via syzygy reduction)", self._syzygy_closure(sub.side, ids) <= ids)
        return report

    def resolving_closure(self, seed_ids, side: str, ambient_ids: frozenset[int]) -> frozenset[int]:
        """Least id-set containing the seed and the projectives, closed under
        extensions (summands of realized middle terms) and syzygies."""
        current = frozenset(seed_ids) | self.projective_ids(side)
        while True:
            grown = current | self._syzygy_closure(side, current) | self._ext_closure(side, current)[0]
            if grown == current:
                break
            current = grown
        if not current <= ambient_ids:
            raise AuslanderError("resolving closure escapes the ambient subcategory")
        return current

    def tr_subcategory(self, sub: SubcategorySpec) -> SubcategorySpec:
        """Tr(X) over the opposite side: projectives plus the summands of the
        transposes of the members.  Tr F_i = D tau F_i, the Gamma^op member
        with the id of tau F_i, and Tr F_i = 0 for F_i projective."""
        if sub.side != "gamma":
            raise AuslanderError("tr_subcategory expects a gamma-side subcategory")
        quiver = self.gamma_index.ar_quiver()
        taus = {quiver[i].tau for i in sub.ids} - {None}
        return SubcategorySpec("gamma_op", self.projective_ids("gamma_op") | taus)

    # -- reconstruction ---------------------------------------------------------------

    def reconstruct_structure(self, sub: SubcategorySpec) -> ExactStructure:
        """The exact structure whose conflations are the sequences with
        yoneda-monic inflation part and cokernel functor in add(X)."""
        pre = self.reconstruction_preconditions(sub)
        if not pre.ok:
            raise AuslanderError(
                "reconstruction preconditions fail: "
                + "; ".join(i.label for i in pre.failures())
            )
        return self._reconstruct_unchecked(sub)

    @memo(lambda self, z, a, vec: (z, a, tuple(int(c) for c in vec)))
    def _inflation_functor_parts(self, z: int, a: int, vec) -> frozenset[int]:
        """Summand ids of coker(yoneda(i)) for the realized class (cached)."""
        ses = self.cat.realize(self.cat.ext(z, a), vec)
        y_i = self.ea.yoneda_map(ses.i)
        if not y_i.is_injective():
            raise AuslanderError("yoneda image of an inflation is not monic")
        cok, _ = cokernel(y_i)
        return frozenset(self.gamma_index.parts(cok))

    def _reconstruct_unchecked(self, sub: SubcategorySpec) -> ExactStructure:
        field = self.algebra.field
        p = field.p
        subs = {}
        for (z, a) in self.cat.nonzero_pairs():
            lines, _ = subspace_lines(Matrix.identity(field, self.cat.ext_dim(z, a)))
            members = [vec for vec in lines if self._inflation_functor_parts(z, a, vec) <= sub.ids]
            if not members:
                continue
            rows = Matrix(field, np.vstack(members))
            span_dim = rank(rows)
            if len(members) != (p**span_dim - 1) // (p - 1):
                raise AuslanderError(f"reconstructed classes of Ext({z},{a}) are not a subspace")
            subs[(z, a)] = rows
        return ExactStructure(self.cat, subs)

    def reconstruction_preconditions(self, sub: SubcategorySpec) -> Report:
        report = Report()
        p2 = self.p2_ids("gamma")
        res = self.is_resolving(sub, p2)
        report.add("X resolving in P^2(Gamma)", res.ok)
        tr_sub = self.tr_subcategory(sub)
        res_op = self.is_resolving(tr_sub, self.p2_ids("gamma_op"))
        report.add("Tr(X) resolving in P^2(Gamma^op)", res_op.ok)
        g1, g2 = self.grade_one_ids(sub, tr_sub)
        report.add("no grade-1 objects in X", not g1, str(g1))
        report.add("no grade-1 objects in Tr(X)", not g2, str(g2))
        return report

    def grade_one_ids(self, sub: SubcategorySpec, tr_sub: SubcategorySpec) -> tuple[list[int], list[int]]:
        """The sorted ids of the grade-1 members of X = sub over Gamma and of
        Tr(X) = tr_sub, its tr_subcategory, over Gamma^op."""
        op_modules = self.side_modules("gamma_op")
        g1 = [i for i in sub.sorted_ids() if self.grade(self.gamma_module(i), "gamma") == 1]
        g2 = [i for i in tr_sub.sorted_ids() if self.grade(op_modules[i], "gamma_op") == 1]
        return g1, g2

    # -- the Auslander exact axioms ----------------------------------------------------

    def check_auslander_axioms(self, e: ExactStructure) -> Report:
        report = Report()
        quad = self.build_subcategories(e)
        smodad, eff = quad.smodad.ids, quad.eff.ids
        tf = quad.torsion_free.ids & smodad

        hom_vanishes = all(
            hom_dim(self.gamma_module(t), self.gamma_module(f)) == 0
            for t in sorted(eff)
            for f in sorted(tf)
        )
        decomp_ok = True
        for i in sorted(smodad):
            parts = self._torsion_parts(i)
            if parts is None or not (parts[0] <= eff and parts[1] <= tf):
                decomp_ok = False
        report.add("(i) torsion pair: Hom(eff, torsion-free) = 0", hom_vanishes)
        report.add("(i) torsion pair: decomposition exists with correct parts", decomp_ok)

        a2_ok = True
        for i in sorted(smodad):
            for t in sorted(eff):
                for summands, _ in self._basis_map_data(i, t):
                    if not _admissible_with_image_in(summands, smodad, eff):
                        a2_ok = False
        report.add("(ii) morphisms into eff objects are admissible with image in eff", a2_ok)

        report.add("(iii) Ext^1(eff, representables) = 0", self._eff_rigid(eff))

        omega1 = self._syzygy_closure("gamma", smodad)
        gl_ok = omega1 <= smodad and self._syzygy_closure("gamma", omega1) <= self.projective_ids("gamma")
        report.add("(iv) length-two projective resolutions inside the subcategory", gl_ok)
        return report

    def _eff_rigid(self, eff: frozenset[int]) -> bool:
        """Ext^1(eff, representables) = 0."""
        return all(self._ext1_dim("gamma", t, y) == 0 for t in sorted(eff) for y in self.yoneda_ids)

    def _map_summand_ids(self, g: ModuleMap) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
        """Summand ids of the image, kernel and cokernel of g."""
        parts = map_parts(g)
        return self._summand_ids(parts.image), self._summand_ids(parts.kernel), self._summand_ids(parts.cokernel)

    def _map_record(self, g: ModuleMap, l_g: ModuleMap) -> tuple:
        """The summand ids of the image, kernel and cokernel of g, and the
        classes that make its localization l_g admissible (None when it is
        admissible in no structure): all verify needs of g, none of it per
        structure."""
        return self._map_summand_ids(g), morphism_classes(self.cat, l_g).get("admissible")

    @memo(lambda self, i, j: (i, j))
    def _localized_basis(self, i: int, j: int) -> tuple[ModuleMap, ...]:
        """L(g): L(F_i) -> L(F_j) of each Hom-basis map g: F_i -> F_j, the one
        place verify localizes a map."""
        return tuple(self.ea.localize_map(g) for g in hom_basis(self.gamma_module(i), self.gamma_module(j)))

    @memo(lambda self, i, j: (i, j))
    def _basis_map_data(self, i: int, j: int) -> tuple:
        """The record of each Hom-basis map g: F_i -> F_j."""
        basis = hom_basis(self.gamma_module(i), self.gamma_module(j))
        return tuple(self._map_record(g, l_g) for g, l_g in zip(basis, self._localized_basis(i, j)))

    @memo(lambda self, s, t: (s, t))
    def _basis_sum(self, s: int, t: int) -> tuple[ModuleMap, ModuleMap]:
        """The sum of the Hom-basis maps F_s -> F_t, and its localization: the
        same sum of the localized basis maps (L is additive)."""
        source, target = self.gamma_module(s), self.gamma_module(t)
        basis = hom_basis(source, target)
        ones = [1] * len(basis)
        l_source, l_target = self.ea.localize(source), self.ea.localize(target)
        return (
            hom_from_coords(ones, basis, source, target),
            hom_from_coords(ones, self._localized_basis(s, t), l_source, l_target),
        )

    @memo(lambda self, a, b: (a, b))
    def _pair_sum(self, a: int, b: int) -> tuple[Module, Module]:
        """F_a + F_b and L(F_a) + L(F_b)."""
        members = [self.gamma_module(a), self.gamma_module(b)]
        return direct_sum(members)[0], direct_sum([self.ea.localize(m) for m in members])[0]

    @memo(lambda self, a, b, c, d: (a, b, c, d))
    def _sum_map_data(self, a: int, b: int, c: int, d: int) -> tuple | None:
        """The record of the map g: F_a + F_b -> F_c + F_d whose block (t, s)
        is the sum of the Hom-basis maps F_s -> F_t; None when g is zero.
        L(g) is assembled from the localized blocks between the sums of the
        localized members, which is L(g) up to isomorphism of arrows, and
        admissibility does not see that isomorphism."""
        (source, l_source), (target, l_target) = self._pair_sum(a, b), self._pair_sum(c, d)
        blocks = [[self._basis_sum(s, t) for s in (a, b)] for t in (c, d)]
        g = block_map(source, target, [[blk[0] for blk in row] for row in blocks])
        if g.is_zero():
            return None
        return self._map_record(g, block_map(l_source, l_target, [[blk[1] for blk in row] for row in blocks]))

    # -- Auslander's formula and the localization ---------------------------------------

    def verify_formula_and_localization(self, e: ExactStructure) -> Report:
        report = Report()
        quad = self.build_subcategories(e)
        smodad, eff = quad.smodad.ids, quad.eff.ids

        objects = self.cat.objects
        hom_bij = all(
            hom_dim(self.gamma_module(self.yoneda_ids[i]), self.gamma_module(self.yoneda_ids[j]))
            == hom_dim(objects[i], objects[j])
            for i in range(len(objects))
            for j in range(len(objects))
        )
        report.add("L is bijective on hom dimensions over representables", hom_bij)

        ids = sorted(smodad)
        ker_ok = all((self.ea.localize(self.gamma_module(i)).total_dim == 0) == (i in eff) for i in ids)
        report.add("ker L = eff (within the admissibly presented subcategory)", ker_ok)

        family, total = sum_family(ids)
        records = [r for i in ids for j in ids for r in self._basis_map_data(i, j)]
        records += [r for r in (self._sum_map_data(*t) for t in family) if r is not None]
        mismatches = sum(
            _admissible_with_image_in(summands, smodad, smodad) != (l_classes is not None and e.contains_all(l_classes))
            for summands, l_classes in records
        )
        report.add(f"admissibility reflection on {len(records)} morphisms", mismatches == 0, f"{mismatches} mismatches")
        if total > len(family):
            report.note(f"admissibility reflection bounded: {len(family)} of {total} maps between sums of two members")
        return report

    # -- injectives, projectives, dominant dimension -------------------------------------

    def e_injective_ids(self, e: ExactStructure) -> frozenset[int]:
        """The objects no class of e ends in: e keeps only nonzero subspaces."""
        return frozenset(range(len(self.cat.objects))) - {a for _, a in e.subspaces}

    def e_projective_ids(self, e: ExactStructure) -> frozenset[int]:
        """The objects no class of e starts from."""
        return frozenset(range(len(self.cat.objects))) - {z for z, _ in e.subspaces}

    def _left_approximation(self, m: Module, targets: list[Module]) -> ModuleMap:
        """The map from m into one copy of t per Hom-basis map m -> t, over
        the targets t; the zero map into zero when there is none."""
        maps = [f for t in targets for f in hom_basis(m, t)]
        total = direct_sum([f.target for f in maps])[0] if maps else Module.zero(m.algebra)
        return block_map(m, total, [[f] for f in maps])

    def _right_approximation(self, m: Module, sources: list[Module]) -> ModuleMap:
        """The map into m from one copy of s per Hom-basis map s -> m, over
        the sources s; the zero map from zero when there is none."""
        maps = [f for s in sources for f in hom_basis(s, m)]
        total = direct_sum([f.source for f in maps])[0] if maps else Module.zero(m.algebra)
        return block_map(total, m, [maps])

    def has_enough_injectives(self, e: ExactStructure) -> bool:
        """Every object admits an inflation into a sum of e-injectives; by the
        cancellation axiom for idempotent complete exact categories it is
        enough to test the universal map into the injectives."""
        inj = tuple(sorted(self.e_injective_ids(e)))
        return all(self._approximation_is(e, "inflation", z, inj) for z in range(len(self.cat.objects)))

    def has_enough_projectives(self, e: ExactStructure) -> bool:
        proj = tuple(sorted(self.e_projective_ids(e)))
        return all(self._approximation_is(e, "deflation", z, proj) for z in range(len(self.cat.objects)))

    def _approximation_is(self, e: ExactStructure, kind: str, z: int, ids: tuple[int, ...]) -> bool:
        """Is the left (kind "inflation") or right ("deflation") approximation
        of the object z by the objects ids of that kind in e?"""
        classes = self._approximation_classes(kind, z, ids)
        return kind in classes and e.contains_all(classes[kind])

    @memo(lambda self, kind, z, ids: (kind, z, ids))
    def _approximation_classes(self, kind: str, z: int, ids: tuple[int, ...]) -> dict[str, tuple]:
        """morphism_classes of the left (kind "inflation") or right
        ("deflation") approximation of the object z by the objects ids: it
        depends on z and the id tuple only, and structures repeat the tuples."""
        m, others = self.cat.objects[z], [self.cat.objects[i] for i in ids]
        approx = self._left_approximation(m, others) if kind == "inflation" else self._right_approximation(m, others)
        return morphism_classes(self.cat, approx)

    @memo(lambda self, e: e.key())
    def smodad_injective_ids(self, e: ExactStructure) -> frozenset[int]:
        smodad = self.build_subcategories(e).smodad.ids
        return frozenset(
            j
            for j in smodad
            if all(self._ext1_dim("gamma", i, j) == 0 for i in smodad)
        )

    def smodad_domdim_up_to(self, e: ExactStructure, n: int) -> int:
        """min(n, domdim) of the admissibly presented subcategory, by iterated
        minimal left approximations of the representables into the
        projective-injective representables: one walk answers every
        domdim >= k for k <= n."""
        smodad = self.build_subcategories(e).smodad.ids
        pi_ids = tuple(sorted(set(self.yoneda_ids) & self.smodad_injective_ids(e)))
        depth = n
        for y in self.yoneda_ids:
            for step, cok_ids in enumerate(self._domdim_chain(y, pi_ids, n)[:depth]):
                if cok_ids is None or not cok_ids <= smodad:
                    depth = step
                    break
        return depth

    @memo(lambda self, y, pi_ids, n: (y, pi_ids, n))
    def _domdim_chain(self, y: int, pi_ids: tuple[int, ...], n: int) -> tuple[frozenset[int] | None, ...]:
        """Up to n steps of the iterated minimal left approximations of F_y
        into the members pi_ids: per step the summand ids of its cokernel, or
        None where the approximation is not injective, which ends the chain,
        as a zero cokernel does.  It depends on pi_ids, not on a structure."""
        targets = [self.gamma_module(i) for i in pi_ids]
        current = self.gamma_module(y)
        chain = []
        while len(chain) < n and not current.is_zero():
            u = self._left_approximation(current, targets)
            if not u.is_injective():
                chain.append(None)
                break
            current, _ = cokernel(u)
            chain.append(self._summand_ids(current))
        return tuple(chain)

    def verify_injective_projective_correspondence(self, e: ExactStructure) -> Report:
        report = Report()
        quad = self.build_subcategories(e)
        eff = quad.eff.ids

        # each representable is in smodad (0 -> M_y needs no class), so
        # yoneda(I) is injective there exactly when it is in smodad_injective_ids
        e_inj, smodad_inj = self.e_injective_ids(e), self.smodad_injective_ids(e)
        transfer_inj = all((i in e_inj) == (y in smodad_inj) for i, y in enumerate(self.yoneda_ids))
        report.add("I injective in (C,e) iff yoneda(I) injective in the subcategory", transfer_inj)

        enough_inj = self.has_enough_injectives(e)
        depth = self.smodad_domdim_up_to(e, 2)
        dd2, dd1 = depth >= 2, depth >= 1
        report.add(
            "enough injectives iff domdim >= 2 iff domdim >= 1",
            enough_inj == dd2 == dd1,
            f"enough={enough_inj}, domdim>=2: {dd2}, domdim>=1: {dd1}",
        )

        e_proj, perp_reps = self.e_projective_ids(e), self._perp_eff_representables(eff)
        transfer_proj = all((z in e_proj) == (y in perp_reps) for z, y in enumerate(self.yoneda_ids))
        report.add("P projective in (C,e) iff yoneda(P) is in perp(eff)", transfer_proj)

        enough_proj = self.has_enough_projectives(e)
        gen_decomp = self._gen_torsion_decomposition_exists(quad, perp_reps)
        report.add(
            "enough projectives iff the (gen(Q cap perp-eff), eff) decomposition exists",
            enough_proj == gen_decomp,
            f"enough={enough_proj}, decomposition={gen_decomp}",
        )

        if dd2:
            report.add("domdim >= 2 forces Ext^1(perp P, P) = 0", self._eff_rigid(eff))
            closed = self._perp_closed_under_admissible_subobjects(e)
            report.add("perp P closed under admissible subobjects (bounded check)", closed)
            report.note("subobject check bounded: inflations into sums of two eff members")
        return report

    def _perp_eff_representables(self, eff: frozenset[int]) -> tuple[int, ...]:
        """The representables F_y with Hom(F_y, eff) = 0, in Yoneda order."""
        return tuple(
            y for y in self.yoneda_ids if all(hom_dim(self.gamma_module(y), self.gamma_module(t)) == 0 for t in eff)
        )

    def _gen_torsion_decomposition_exists(self, quad: SubcategoryQuad, p_ids: tuple[int, ...]) -> bool:
        smodad, eff = quad.smodad.ids, quad.eff.ids
        for i in sorted(smodad):
            trace, ker_u, quot = self._trace_parts(i, p_ids)
            if not (quot <= eff and trace <= smodad and ker_u <= smodad):
                return False
        return True

    @memo(lambda self, i, p_ids: (i, p_ids))
    def _trace_parts(self, i: int, p_ids: tuple[int, ...]) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
        """Summand ids of the image, kernel and cokernel of the right
        approximation u of F_i by the members p_ids.  The image is the trace
        of those members in F_i, and u's epi part is a right approximation of
        the trace, whose kernel is that of u."""
        sources = [self.gamma_module(y) for y in p_ids]
        return self._map_summand_ids(self._right_approximation(self.gamma_module(i), sources))

    def _perp_closed_under_admissible_subobjects(self, e: ExactStructure) -> bool:
        """No member outside eff is an admissible subobject of an eff member
        or a sum of two: an injective map whose cokernel lies in smodad."""
        quad = self.build_subcategories(e)
        smodad, eff = quad.smodad.ids, quad.eff.ids
        targets = sorted(eff)
        sums = [(t,) for t in targets] + [(a, b) for a in targets for b in targets]
        return not any(
            cok <= smodad
            for i in sorted(smodad - eff)
            for ts in sums
            for cok in self._injective_cokernel_ids(i, ts)
        )

    @memo(lambda self, i, ts: (i, ts))
    def _injective_cokernel_ids(self, i: int, ts: tuple[int, ...]) -> tuple[frozenset[int], ...]:
        """Cokernel summand ids of the injective Hom-basis maps F_i -> sum of F_t."""
        parts = [self.gamma_module(t) for t in ts]
        total = direct_sum(parts)[0] if len(parts) > 1 else parts[0]
        return tuple(
            self._summand_ids(cokernel(g)[0]) for g in hom_basis(self.gamma_module(i), total) if g.is_injective()
        )

    # -- restricted description -----------------------------------------------------------

    def restricted_description(self, x_ids) -> Report:
        """smodad of the maximal structure on a resolving subcategory X of
        mod(Lambda), computed in the context of C = add(X) (Gamma = End(M_X))
        both by the membership test and by the idempotent condition N*e in X,
        and compared."""
        x_ids = frozenset(x_ids)
        report = self.is_resolving(SubcategorySpec("lambda", x_ids), frozenset(range(len(self.index.modules))))
        if not report.ok:
            return report
        x_ctx = AuslanderContext(self.algebra, self.dim_cap, self.cutoff, objects=x_ids)
        route1 = x_ctx.build_subcategories(maximal_structure(x_ctx.cat)).smodad.ids
        # idempotent route: N*e as a Lambda-module, tested for membership in add(X);
        # X holds the projectives, so each P_v is one of its objects
        lam_pos = [x_ctx.spec.identify_summand(projective_module(self.algebra, v)) for v in range(self.algebra.nv)]
        route2 = {
            i
            for i, n_mod in enumerate(x_ctx.gamma_index.modules)
            if x_ctx.cat.contains(x_ctx._restrict_to_lambda(n_mod, lam_pos))
        }
        report.add(
            "membership route equals the idempotent route",
            route1 == route2,
            f"route1={sorted(route1)}, route2={sorted(route2)}",
        )
        return report

    def _restrict_to_lambda(self, n_mod: Module, lam_pos: list[int]) -> Module:
        """The Lambda-module N*e for e the idempotent of the projective
        objects of C, P_v being object lam_pos[v]."""
        alg, gamma = self.algebra, self.gamma
        dims = [n_mod.dims[lam_pos[v]] for v in range(alg.nv)]
        act = {}
        for b in alg.radical_indices:
            u, v = alg.left[b], alg.right[b]
            # left multiplication by b: P_v -> P_u, as an element of Gamma
            coeffs = np.zeros((1, 1, alg.dim), dtype=np.int64)
            coeffs[0, 0, b] = 1
            lmul = std_map_from_coeffs(std_projective(alg, (v,)), std_projective(alg, (u,)), coeffs)
            blk = [
                g
                for g in range(gamma.dim)
                if gamma.right[g] == lam_pos[v] and gamma.left[g] == lam_pos[u]
            ]
            coords = hom_coords(alg.field, [lmul], [self.ea.dictionary[g] for g in blk])
            mat = Matrix.zeros(alg.field, dims[v], dims[u])
            for row, g in enumerate(blk):
                c = int(coords.a[row, 0])
                if c:
                    mat = mat + n_mod.action(g).scale(c)
            act[b] = mat
        return Module(alg, dims, act)


# -- helpers ---------------------------------------------------------------------

FAMILY_CAP = 50  # maps between sums of two members that verify checks per structure


def sum_family(ids: list[int]) -> tuple[list[tuple[int, int, int, int]], int]:
    """The tuples (a, b, c, d) of sorted ids with a <= b and c <= d whose maps
    F_a + F_b -> F_c + F_d verify checks, and how many such tuples there are:
    the FAMILY_CAP of least _family_rank (all of them when there are no more),
    in lexicographic order.  The rank depends on the tuple alone, so a tuple
    picked for some ids is picked for every subset of them that holds it."""
    pairs = [(a, b) for a in ids for b in ids if a <= b]
    total = len(pairs) ** 2
    codes = np.array([(a << 16) | b for a, b in pairs], dtype=np.uint64)
    ranks = _family_rank((codes[:, None] << np.uint64(32)) | codes[None, :])
    picks = np.sort(np.argsort(ranks, axis=None)[:FAMILY_CAP])
    return [pairs[n // len(pairs)] + pairs[n % len(pairs)] for n in picks.tolist()], total


def _family_rank(codes: np.ndarray) -> np.ndarray:
    """splitmix64 of the codes a << 48 | b << 32 | c << 16 | d of tuples of
    ids below 2^16, a bijection of uint64 that scatters them: a fixed order on
    tuples, unlike Python's hash() the same in every process."""
    z = codes + np.uint64(0x9E3779B97F4A7C15)
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(0xBF58476D1CE4E5B9)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _admissible_with_image_in(summands, smodad: frozenset[int], target_class: frozenset[int]) -> bool:
    """Admissible in the subcategory, image in target_class, from the summand
    ids (image, kernel, cokernel) of a map."""
    image, kernel_ids, cokernel_ids = summands
    return image <= target_class and kernel_ids <= smodad and cokernel_ids <= smodad

