"""The bridge between an additive subcategory C = add(M) of mod(Lambda) and
mod(Gamma) for Gamma = End(M).

Gamma is assembled from the hom blocks between the generator summands, with
composition as multiplication; the Yoneda functor Hom(M, -) identifies add(M)
with the projective Gamma-modules, and the exact left adjoint L sends a
finitely presented Gamma-module back to the cokernel (in mod Lambda) of the
transported presentation morphism.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, validate_algebra
from .linalg import ExactcatError, Matrix, memo
from .repmod import (
    Module,
    ModuleMap,
    Presentation,
    StdProjective,
    _local_residue,
    block_map,
    cokernel,
    coeffs_of_std_map,
    descend,
    direct_sum,
    find_isomorphic,
    hom_basis,
    hom_coords,
    hom_from_coords,
    inverse_map,
    lift_through_epi,
    minimal_presentation,
    projective_cover,
    std_projective,
)


class FunctorcatError(ExactcatError):
    pass


@dataclass
class AdditiveCategorySpec:
    """C = add(M) for M the direct sum of pairwise non-isomorphic indecomposables."""

    algebra: Algebra
    generators: list[Module]

    def __post_init__(self):
        for i, m in enumerate(self.generators):
            if find_isomorphic(m, self.generators[i + 1 :]) is not None:
                raise FunctorcatError("generator summands are not pairwise non-isomorphic")

    def identify_summand(self, m: Module) -> int | None:
        return find_isomorphic(m, self.generators)


class EndAlgebra:
    """Gamma = End(M) together with its basis dictionary.

    Basis layout: the idempotents are the identity maps of the summands (one
    per summand, in order), followed by the radical part: the non-isomorphism
    basis maps between summands.  dictionary[b] is the underlying module map
    M_{src} -> M_{tgt} of basis element b; a basis element phi: M_i -> M_j
    sits in e_j Gamma e_i, so its vertex tags are (left, right) = (j, i).
    """

    def __init__(self, spec: AdditiveCategorySpec):
        self.spec = spec
        gens = spec.generators
        n = len(gens)
        field = spec.algebra.field

        dictionary: list[ModuleMap] = []
        labels: list[str] = []
        left: list[int] = []
        right: list[int] = []
        for i, g in enumerate(gens):
            dictionary.append(ModuleMap.identity(g))
            labels.append(f"id{i}")
            left.append(i)
            right.append(i)
        # diagonal radical parts: a basis of rad End(M_i) for each local summand
        for i, g in enumerate(gens):
            for k, r in enumerate(_local_residue(g)):
                dictionary.append(r)
                labels.append(f"r{i}.{i}.{k}")
                left.append(i)
                right.append(i)
        for i, gi in enumerate(gens):
            for j, gj in enumerate(gens):
                if i == j:
                    continue
                for k, h in enumerate(hom_basis(gi, gj)):
                    dictionary.append(h)
                    labels.append(f"r{i}.{j}.{k}")
                    left.append(j)
                    right.append(i)

        dim = len(dictionary)
        blocks = {(i, j): [b for b in range(dim) if right[b] == i and left[b] == j] for i in range(n) for j in range(n)}
        mult = np.zeros((dim, dim, dim), dtype=np.int64)
        for (i, j), tgt_block in blocks.items():
            # x*y is the composition dictionary[x] o dictionary[y] for
            # y: M_i -> M_k and x: M_k -> M_j, a map M_i -> M_j
            pairs = [(x, y) for k in range(n) for x in blocks[(k, j)] for y in blocks[(i, k)]]
            comps = [dictionary[x] @ dictionary[y] for x, y in pairs]
            coords = hom_coords(field, comps, [dictionary[b] for b in tgt_block])
            for col, (x, y) in enumerate(pairs):
                mult[x, y, tgt_block] = coords.a[:, col]

        self.gamma = Algebra(field, n, labels, left, right, mult)
        self.dictionary = dictionary
        report = validate_algebra(self.gamma)
        if not report.ok:
            raise FunctorcatError(
                "endomorphism algebra failed validation: "
                + "; ".join(i.label for i in report.failures())
            )
        expected = sum(len(hom_basis(a, b)) for a in gens for b in gens)
        if self.gamma.dim != expected:
            raise FunctorcatError("endomorphism algebra dimension mismatch")

    # -- Yoneda ---------------------------------------------------------------

    @memo(lambda self, x: x.key())
    def _yoneda_data(self, x: Module) -> tuple[Module, list[list[ModuleMap]]]:
        gens = self.spec.generators
        gamma = self.gamma
        bases = [hom_basis(g, x) for g in gens]
        act = {}
        for b in gamma.radical_indices:
            # b acts from component left[b] to right[b] by precomposition with
            # phi: M_{right[b]} -> M_{left[b]}
            phi = self.dictionary[b]
            act[b] = hom_coords(gamma.field, [h @ phi for h in bases[gamma.left[b]]], bases[gamma.right[b]])
        return Module(gamma, [len(b) for b in bases], act), bases

    def yoneda(self, x: Module) -> Module:
        """The right Gamma-module Hom(M, x)."""
        return self._yoneda_data(x)[0]

    def yoneda_map(self, u: ModuleMap) -> ModuleMap:
        """Hom(M, u): yoneda(source) -> yoneda(target)."""
        src, src_bases = self._yoneda_data(u.source)
        tgt, tgt_bases = self._yoneda_data(u.target)
        mats = [hom_coords(self.gamma.field, [u @ h for h in hs], ht) for hs, ht in zip(src_bases, tgt_bases)]
        return ModuleMap(src, tgt, mats)

    # -- transport of projective maps back to add(M) ---------------------------

    @memo(lambda self, verts: tuple(verts))
    def sum_of_generators(self, verts) -> tuple[Module, Sequence[ModuleMap], Sequence[ModuleMap]]:
        """The direct sum of the generators at verts with its lazy injections
        and projections, remembered per verts tuple."""
        mods = [self.spec.generators[v] for v in verts]
        if not mods:
            return Module.zero(self.spec.algebra), (), ()
        return direct_sum(mods)

    def unyoneda_std(self, d: ModuleMap, p1: StdProjective, p0: StdProjective) -> ModuleMap:
        """The map f in add(M) with yoneda(f) = d, for d between standard
        projectives: block (t, s) is the combination coeffs[t, s] of the
        dictionary maps M_{p1.verts[s]} -> M_{p0.verts[t]}."""
        coeffs = coeffs_of_std_map(d, p1, p0)
        gens = self.spec.generators
        blocks = [
            [hom_from_coords(coeffs[t, s], self.dictionary, gens[v], gens[u]) for s, v in enumerate(p1.verts)]
            for t, u in enumerate(p0.verts)
        ]
        return block_map(self.sum_of_generators(p1.verts)[0], self.sum_of_generators(p0.verts)[0], blocks)

    def canonical_std_iso(self, verts) -> tuple[Module, ModuleMap]:
        """yoneda(sum of M_v) with its canonical isomorphism onto the standard projective.

        A hom h: M_i -> sum M_v goes to the coordinate vector of its components
        in the Gamma basis dictionary; this is a Gamma-module map because the
        multiplication of Gamma was defined through exactly that dictionary.
        """
        verts = tuple(verts)
        x, _, projections = self.sum_of_generators(verts)
        yx, bases = self._yoneda_data(x)
        sp = std_projective(self.gamma, verts)
        gamma = self.gamma
        mats = []
        for i in range(len(self.spec.generators)):
            mat = np.zeros((sp.module.dims[i], len(bases[i])), dtype=np.int64)
            for s, v in enumerate(verts):
                blk = [b for b in range(gamma.dim) if gamma.left[b] == v and gamma.right[b] == i]
                comps = [projections[s] @ h for h in bases[i]]
                coords = hom_coords(gamma.field, comps, [self.dictionary[b] for b in blk])
                mat[[sp.block_index[(s, b)] for b in blk]] = coords.a
            mats.append(Matrix(gamma.field, mat))
        iso = ModuleMap(yx, sp.module, mats)
        if not iso.is_isomorphism():
            raise FunctorcatError("canonical identification is not invertible")
        return x, iso

    def unyoneda_map(self, g: ModuleMap) -> "TransportedMap":
        """Transport a map between projective Gamma-modules into add(M).

        Returns f: X -> Y in mod(Lambda) together with isomorphisms
        phi_src: yoneda(X) -> g.source and phi_tgt: yoneda(Y) -> g.target
        satisfying phi_tgt o yoneda(f) = g o phi_src.
        """
        src_std, src_iso = self._projectivize(g.source)
        tgt_std, tgt_iso = self._projectivize(g.target)
        conj = inverse_map(tgt_iso) @ g @ src_iso
        f = self.unyoneda_std(conj, src_std, tgt_std)
        yf = self.yoneda_map(f)
        _, x_can = self.canonical_std_iso(src_std.verts)
        _, y_can = self.canonical_std_iso(tgt_std.verts)
        phi_src = src_iso @ x_can
        phi_tgt = tgt_iso @ y_can
        lhs = phi_tgt @ yf
        rhs = g @ phi_src
        if any(not (a - b).is_zero() for a, b in zip(lhs.mats, rhs.mats)):
            raise FunctorcatError("unyoneda transport does not commute")
        return TransportedMap(f, phi_src, phi_tgt)

    def _projectivize(self, m: Module) -> tuple[StdProjective, ModuleMap]:
        """An isomorphism std_projective -> m for a projective Gamma-module m:
        its projective cover, which is invertible exactly when m is projective."""
        sp, cover = projective_cover(m)
        if not cover.is_isomorphism():
            raise FunctorcatError("module is not projective over the endomorphism algebra")
        return sp, cover

    # -- the left adjoint L -----------------------------------------------------

    def localize(self, f_mod: Module) -> Module:
        """L(F) = coker(f) for the transported minimal presentation morphism f."""
        return self.presentation_in_category(f_mod).cokernel

    @memo(lambda self, f_mod: f_mod.key())
    def presentation_in_category(self, f_mod: Module) -> "CategoryPresentation":
        pres = minimal_presentation(f_mod)
        f = self.unyoneda_std(pres.d, pres.p1, pres.p0)
        cok, proj = cokernel(f)
        return CategoryPresentation(pres, f, cok, proj)

    def localize_map(self, eta: ModuleMap) -> ModuleMap:
        """L on morphisms: the induced map coker(f_src) -> coker(f_tgt)."""
        src = self.presentation_in_category(eta.source)
        tgt = self.presentation_in_category(eta.target)
        # lift eta o aug_src through aug_tgt, then transport and descend
        alpha = lift_through_epi(eta @ src.presentation.aug, tgt.presentation.aug)
        a0 = self.unyoneda_std(alpha, src.presentation.p0, tgt.presentation.p0)
        return descend(tgt.projection @ a0, src.projection)


@dataclass
class TransportedMap:
    f: ModuleMap
    source_iso: ModuleMap
    target_iso: ModuleMap


@dataclass
class CategoryPresentation:
    presentation: Presentation
    f: ModuleMap
    cokernel: Module
    projection: ModuleMap


def end_algebra(spec: AdditiveCategorySpec) -> EndAlgebra:
    return EndAlgebra(spec)
