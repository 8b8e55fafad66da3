"""Exact structures on an additively finite idempotent complete category C = add(M).

An exact structure is stored as a family of subspaces of the Ext^1 groups
between the indecomposable objects, closed under the bimodule action (pushout
along maps out of the subobject, pullback along maps into the quotient).
Conflations are the short exact sequences of the ambient module category whose
componentwise classes lie in the family; this matches exact structures because
C is required to be extension-closed in mod(Lambda), so the kernel-cokernel
pairs of the maximal structure are exactly the ambient short exact sequences
with end terms in C.

Generation from a set of objects is the fast enumeration path: the
structure of a set S of non-projective objects has, in each Ext^1(z, a), the
common kernel of the pullback blocks Ext^1(z, a) -> Ext^1(w, a) along the Hom
basis maps w -> z, over all w outside S, so no sequence is realized.  Only
Ext^1 data is read, so C may be any extension-closed add(X).  The
independent oracle enumerates every action-stable subspace family and filters
through the bounded axiom checker.
"""
from __future__ import annotations

import itertools

import numpy as np

from .algebra import Report
from .linalg import (
    ExactcatError,
    Matrix,
    iterate_subspaces,
    kernel_basis,
    memo,
    row_space_contains,
    rref,
    subspace_lines,
    vstack,
)
from .repmod import (
    ExtSpace,
    IndecIndex,
    Module,
    ModuleMap,
    RepmodError,
    ShortExactSeq,
    block_map,
    cokernel,
    decompose,
    direct_sum,
    ext_space,
    factor_through_mono,
    hom_basis,
    is_isomorphic,
    kernel,
    lift_from_projective,
    map_parts,
)


class ExactstructError(ExactcatError):
    pass


class GuardExceeded(ExactstructError):
    exit_code = 3


# Caps of linalg.subspace_lines, in lines: closure checks walk every line of an
# Ext^1 space with at most ELEMENT_CAP lines, the axiom checker every line of a
# subspace with at most AXIOM_ELEMENT_CAP; beyond the cap both walk the basis
# and its pairwise sums, a spanning set, which their reports note.
ELEMENT_CAP = 64
AXIOM_ELEMENT_CAP = 32


class CategoryContext:
    """Ext^1 bifunctor data over C = add of the members object_ids of index,
    the indecomposable index of mod(Lambda).  C's object k is the k-th id in
    increasing order; members of one index are pairwise non-isomorphic, so
    the objects are."""

    def __init__(self, index: IndecIndex, object_ids):
        self.index = index
        self.algebra = index.algebra
        self.object_ids = sorted(frozenset(object_ids))
        self.objects = [index.modules[i] for i in self.object_ids]
        self._object_of_id = {i: k for k, i in enumerate(self.object_ids)}

    def identify(self, m: Module) -> int | None:
        """The object isomorphic to m; None when m is decomposable or outside C."""
        return self._object_of_id.get(self.index.identify(m))

    def parts(self, m: Module) -> list[tuple[int, Module, ModuleMap]] | None:
        """Summands of m as (object id, part, inclusion); None if one is outside."""
        out = []
        for part, incl in decompose(m):
            oid = self.identify(part)
            if oid is None:
                return None
            out.append((oid, part, incl))
        return out

    def contains(self, m: Module) -> bool:
        """Does m lie in the category?  Its summands are counted
        (IndecIndex.parts) rather than split off, and each is looked up among
        the objects."""
        try:
            ids = self.index.parts(m)
        except RepmodError:
            return False
        return all(i in self._object_of_id for i in ids)

    def ext(self, z_id: int, a_id: int) -> ExtSpace:
        return ext_space(self.objects[z_id], self.objects[a_id])

    @memo(lambda self, space, vec: (space.z.key(), space.a.key(), tuple(int(c) % self.algebra.field.p for c in vec)))
    def realize(self, space: ExtSpace, vec) -> ShortExactSeq:
        """space.realize(vec), remembered per reduced class vector: the axiom
        checks realize the same classes for every structure.  Only this
        context keeps them; callers must not mutate the sequence."""
        return space.realize(vec)

    def ext_dim(self, z_id: int, a_id: int) -> int:
        return self.ext(z_id, a_id).dim

    def nonzero_pairs(self) -> list[tuple[int, int]]:
        n = len(self.objects)
        return [(z, a) for z in range(n) for a in range(n) if self.ext_dim(z, a) > 0]

    def hom(self, i: int, j: int) -> list[ModuleMap]:
        return hom_basis(self.objects[i], self.objects[j])

    @memo(lambda self, z, a: (z, a))
    def push_matrices(self, z: int, a: int) -> list[tuple[int, Matrix]]:
        """All (a', matrix) of pushout actions Ext(z, a) -> Ext(z, a') along hom basis maps."""
        out = []
        src = self.ext(z, a)
        for a2 in range(len(self.objects)):
            tgt = self.ext(z, a2)
            if src.dim == 0 or tgt.dim == 0:
                continue
            for g in self.hom(a, a2):
                out.append((a2, src.pushout_matrix(tgt, g)))
        return out

    @memo(lambda self, z, a: (z, a))
    def pull_matrices(self, z: int, a: int) -> list[tuple[int, Matrix]]:
        """All (z', matrix) of pullback actions Ext(z, a) -> Ext(z', a) along hom basis maps."""
        out = []
        src = self.ext(z, a)
        for z2 in range(len(self.objects)):
            tgt = self.ext(z2, a)
            if src.dim == 0 or tgt.dim == 0:
                continue
            for h in self.hom(z2, z):
                out.append((z2, src.pullback_matrix(tgt, h)))
        return out

    @memo(lambda self, z, a, sources: (z, a, sources))
    def common_kernel(self, z: int, a: int, sources: tuple[int, ...]) -> Matrix:
        """Rows spanning the classes of Ext(z, a) that every pullback block
        from the given sources kills; all of Ext(z, a) when no block is left.
        Memoized, as many subsets of objects leave the same sources unchosen."""
        field = self.algebra.field
        blocks = [mat for w, mat in self.pull_matrices(z, a) if w in sources]
        if not blocks:
            return Matrix.identity(field, self.ext_dim(z, a))
        return kernel_basis(vstack(field, blocks)).transpose()

    def nonprojective_ids(self) -> list[int]:
        """The objects z with Ext^1(z, a) nonzero for some object a.  On
        mod(Lambda) these are the non-projectives, as Ext^1(z, tau z) is
        nonzero; on add(X) they are the objects that are not Ext-projective."""
        return sorted({z for z, _ in self.nonzero_pairs()})


class ExactStructure:
    """A family of action-closed subspaces of Ext^1, one per ordered object pair."""

    def __init__(self, ctx: CategoryContext, subspaces: dict[tuple[int, int], Matrix]):
        self.ctx = ctx
        canonical: dict[tuple[int, int], Matrix] = {}
        for pair, rows in subspaces.items():
            r, pivots = rref(rows)
            if pivots:
                canonical[pair] = Matrix(ctx.algebra.field, r.a[: len(pivots)])
        self.subspaces = canonical

    def subspace(self, z: int, a: int) -> Matrix:
        got = self.subspaces.get((z, a))
        if got is not None:
            return got
        return Matrix.zeros(self.ctx.algebra.field, 0, self.ctx.ext_dim(z, a))

    def contains(self, z: int, a: int, vec: np.ndarray) -> bool:
        vec = np.asarray(vec, dtype=np.int64)
        if not vec.any():
            return True
        rows = self.subspaces.get((z, a))
        if rows is None:
            return False
        return row_space_contains(rows, Matrix(self.ctx.algebra.field, vec.reshape(1, -1)))

    def contains_all(self, classes) -> bool:
        """Does the family contain every (z, a, vector) of classes?"""
        return all(self.contains(z, a, vec) for z, a, vec in classes)

    def projective_ids(self) -> frozenset[int]:
        """The objects no class of the family starts from: only nonzero
        subspaces are kept."""
        return frozenset(range(len(self.ctx.objects))) - {z for z, _ in self.subspaces}

    def injective_ids(self) -> frozenset[int]:
        """The objects no class of the family ends in."""
        return frozenset(range(len(self.ctx.objects))) - {a for _, a in self.subspaces}

    def total_dim(self) -> int:
        return sum(m.rows for m in self.subspaces.values())

    def key(self) -> tuple:
        return tuple(sorted((pair, m.key()) for pair, m in self.subspaces.items()))

    def leq(self, other: "ExactStructure") -> bool:
        return all(row_space_contains(other.subspace(*pair), rows) for pair, rows in self.subspaces.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactStructure) and self.key() == other.key()

    def as_payload(self) -> list:
        return [
            [z, a, m.a.tolist()]
            for (z, a), m in sorted(self.subspaces.items())
        ]


def split_structure(ctx: CategoryContext) -> ExactStructure:
    return ExactStructure(ctx, {})


def maximal_structure(ctx: CategoryContext) -> ExactStructure:
    subs = {}
    for pair in ctx.nonzero_pairs():
        subs[pair] = Matrix.identity(ctx.algebra.field, ctx.ext_dim(*pair))
    return ExactStructure(ctx, subs)


# -- classes of concrete short exact sequences --------------------------------


def _ses_key(ctx: CategoryContext, ses: ShortExactSeq) -> tuple:
    """The keys of the two maps of a sequence."""
    return ses.i.key(), ses.p.key()


@memo(_ses_key)
def componentwise_classes(ctx: CategoryContext, ses: ShortExactSeq) -> list[tuple[int, int, np.ndarray]]:
    """The classes (z_id, a_id, vector) of a short exact sequence along the
    indecomposable summands of its end terms.  Raises if an end term leaves
    the category.  The classes do not depend on an exact structure, so each
    sequence is classified once per context.

    The subobject side is one block map from the sum of the representatives:
    block j is ses.i o incl_j o iso(rep_j -> part_j).  On the quotient side
    the cover of rep_k, taken through iso(rep_k -> part_k) and incl_k, lifts
    straight through ses.p; the vector does not depend on the lift, as
    coords_of_homs reduces modulo the maps that factor through the cover."""
    sub_parts = ctx.parts(ses.sub)
    quot_parts = ctx.parts(ses.quot)
    if sub_parts is None or quot_parts is None:
        raise ExactstructError("end terms do not lie in the category")
    if not sub_parts or not quot_parts:
        return []
    reps = [ctx.objects[oid] for oid, _, _ in sub_parts]
    reps_sum, _, sub_proj = direct_sum(reps)
    into_mid = [ses.i @ incl @ is_isomorphic(rep, part) for rep, (_, part, incl) in zip(reps, sub_parts)]
    sub_conj = block_map(reps_sum, ses.mid, [into_mid])
    out = []
    for zid, part, incl in quot_parts:
        zk = ctx.objects[zid]
        espaces = [ext_space(zk, rep) for rep in reps]
        lam = lift_from_projective(espaces[0].p0, incl @ is_isomorphic(zk, part) @ espaces[0].cover, ses.p)
        phi = factor_through_mono(lam @ espaces[0].syz_incl, sub_conj)
        for (aid, _, _), proj, space in zip(sub_parts, sub_proj, espaces):
            out.append((zid, aid, space.coords_of_homs([proj @ phi]).a[:, 0]))
    return out


def conflation_classes(ctx: CategoryContext, ses: ShortExactSeq) -> list[tuple[int, int, np.ndarray]] | None:
    """The componentwise classes of a short exact sequence whose three terms
    lie in add(M): it is a conflation of e exactly when e contains them all.
    None when the sequence is not exact; raises when a term lies outside."""
    try:
        ses.validate()
    except RepmodError:
        return None
    if not ctx.contains(ses.mid):
        raise ExactstructError("middle term does not lie in the category")
    return componentwise_classes(ctx, ses)


def is_conflation(ses: ShortExactSeq, e: ExactStructure) -> bool:
    """Does the short exact sequence belong to the structure?  All three terms
    must lie in add(M) and every componentwise class must be in the family."""
    classes = conflation_classes(e.ctx, ses)
    return classes is not None and e.contains_all(classes)


@memo(lambda ctx, f: f.key())
def morphism_classes(ctx: CategoryContext, f: ModuleMap) -> dict[str, tuple]:
    """For each kind in {"inflation", "deflation", "admissible"} that f can
    have in some exact structure, the componentwise classes of the sequences
    the kind needs: f is of that kind in e exactly when e contains them all.
    None of this depends on a structure, so it is remembered on the context
    per map (ModuleMap.key).  The sequences come from map_parts, so they are
    exact, and their middle terms are f's endpoints, checked first."""
    if not (ctx.contains(f.source) and ctx.contains(f.target)):
        raise ExactstructError("endpoints do not lie in the category")
    parts = map_parts(f)
    kernel_in = ctx.contains(parts.kernel)
    cokernel_in = ctx.contains(parts.cokernel)

    def classes(i: ModuleMap, p: ModuleMap) -> tuple:
        return tuple(componentwise_classes(ctx, ShortExactSeq(i, p)))

    out: dict[str, tuple] = {}
    if parts.cokernel.is_zero() and kernel_in:  # f is onto
        out["deflation"] = classes(parts.kernel_inclusion, f)
    if parts.kernel.is_zero() and cokernel_in:  # f is one-to-one
        out["inflation"] = classes(f, parts.cokernel_projection)
    if kernel_in and cokernel_in and ctx.contains(parts.image):
        out["admissible"] = classes(parts.kernel_inclusion, parts.epi_part) + classes(
            parts.mono_part, parts.cokernel_projection
        )
    return out


def kinds_in(e: ExactStructure, classes_by_kind: dict[str, tuple]) -> set[str]:
    """The kinds of a morphism_classes result that hold in the structure e."""
    return {kind for kind, classes in classes_by_kind.items() if e.contains_all(classes)}


def classify_morphism(f: ModuleMap, e: ExactStructure) -> set[str]:
    """Subset of {"inflation", "deflation", "admissible"} for f, in the structure e."""
    return kinds_in(e, morphism_classes(e.ctx, f))


# -- generation and enumeration ------------------------------------------------


def generate_from_ar_subset(ctx: CategoryContext, chosen) -> ExactStructure:
    """The smallest exact structure containing the almost split conflations of
    the chosen non-projective objects, computed from the Ext^1 data alone.

    A class belongs to the structure exactly when its defect functor has all
    composition factors at chosen objects, i.e. every map from an unchosen w
    lifts through its deflation, i.e. the pullback of the class along every
    Hom basis map w -> z vanishes.  So the subspace of Ext(z, a) is the common
    kernel of the pullback blocks Ext(z, a) -> Ext(w, a) over all unchosen w;
    no almost split sequence is built.  The pullback along id_z kills every
    class at an unchosen z, so the chosen objects are those some class starts
    at.  This realizes the bijection between exact structures and sets of
    almost split sequences on an additively finite category.  Closing the AR
    classes under the Ext actions and addition alone is not enough:
    compositions of deflations force further classes in, which the defect
    criterion accounts for.
    """
    chosen_set = set(chosen)
    subs: dict[tuple[int, int], Matrix] = {}
    for (z, a) in ctx.nonzero_pairs():
        unchosen = tuple(sorted({w for w, _ in ctx.pull_matrices(z, a)} - chosen_set))
        subs[(z, a)] = ctx.common_kernel(z, a, unchosen)
    return ExactStructure(ctx, subs)


def enumerate_exact_structures(ctx: CategoryContext) -> list[ExactStructure]:
    """All exact structures, one per subset of non-projective objects, through
    generate_from_ar_subset; raises if two subsets give one structure."""
    nonproj = ctx.nonprojective_ids()
    seen: dict[tuple, tuple[int, ...]] = {}
    out = []
    for r in range(len(nonproj) + 1):
        for subset in itertools.combinations(nonproj, r):
            e = generate_from_ar_subset(ctx, subset)
            earlier = seen.setdefault(e.key(), subset)
            if earlier != subset:
                raise ExactstructError(
                    f"almost split classes of {list(subset)} generate the structure of {list(earlier)}"
                )
            out.append(e)
    return sorted(out, key=lambda e: (e.total_dim(), e.key()))


def brute_force_structures(ctx: CategoryContext, guard: int = 100000) -> list[ExactStructure]:
    """Independent oracle: enumerate every subspace family of the Ext bifunctor,
    keep the action-stable ones that pass the bounded axiom checker."""
    field = ctx.algebra.field
    pairs = ctx.nonzero_pairs()
    per_pair: list[list[Matrix]] = []
    total = 1
    for (z, a) in pairs:
        d = ctx.ext_dim(z, a)
        options = []
        for k in range(d + 1):
            for basis in iterate_subspaces(field, d, k):
                options.append(basis.transpose())  # rows
        per_pair.append(options)
        total *= len(options)
        if total > guard:
            raise GuardExceeded(f"subspace family count exceeds guard={guard}")
    out = []
    for choice in itertools.product(*per_pair):
        subs = {pair: rows for pair, rows in zip(pairs, choice)}
        e = ExactStructure(ctx, subs)
        if not _action_stable(e):
            continue
        if is_exact_structure(e).ok:
            out.append(e)
    return sorted(out, key=lambda e: (e.total_dim(), e.key()))


def _action_stable(e: ExactStructure) -> bool:
    ctx = e.ctx
    p = ctx.algebra.field.p
    for (z, a), rows in e.subspaces.items():
        for row in rows.a:
            for a2, mat in ctx.push_matrices(z, a):
                if not e.contains(z, a2, (mat.a @ row) % p):
                    return False
            for z2, mat in ctx.pull_matrices(z, a):
                if not e.contains(z2, a, (mat.a @ row) % p):
                    return False
    return True


def is_exact_structure(e: ExactStructure) -> Report:
    """Bounded-but-exhaustive verification of the exact category axioms.

    Bifunctor (action) closure is exact.  The composition axioms R1/L1 are
    checked over all composable pairs of realized conflations whose outer end
    terms are indecomposable and whose classes run over the stated subspaces
    up to scalar; the bound is recorded in the report.
    """
    ctx = e.ctx
    report = Report()
    report.note("composition checks: indecomposable outer end terms; class enumeration up to scalar")

    report.add("action closure (class-level R2/L2)", _action_stable(e))

    middles_ok = True
    for (z, a), rows in e.subspaces.items():
        vectors, exhaustive = subspace_lines(rows, AXIOM_ELEMENT_CAP)
        for vec in vectors:
            ses = ctx.realize(ctx.ext(z, a), vec)
            if not ctx.contains(ses.mid):
                middles_ok = False
        if not exhaustive:
            report.note(f"pair {(z, a)}: realization check on a spanning set only")
    report.add("realized middle terms stay in the category", middles_ok)

    comp_ok, n_checked, exhaustive = _composition_check(e, "deflation")
    report.add(f"deflation compositions (R1), {n_checked} composites", comp_ok)
    if not exhaustive:
        report.note("deflation compositions (R1): some Ext^1(E, -) walked on a spanning set only")
    dual_ok, n_dual, exhaustive = _composition_check(e, "inflation")
    report.add(f"inflation compositions (L1), {n_dual} composites", dual_ok)
    if not exhaustive:
        report.note("inflation compositions (L1): some Ext^1(-, E) walked on a spanning set only")
    return report


def _composition_check(e: ExactStructure, side: str) -> tuple[bool, int, bool]:
    """R1 (side "deflation": g o f for conflations f: B ->> E, g: E ->> D) or
    L1 (side "inflation": i2 o i1 for a >-> E, E >-> B) over conflations with
    indecomposable outer ends, from the structure-free _composition_records.
    Also returns whether every Ext^1 class of each middle term E was walked."""
    ctx = e.ctx
    checked = 0
    exhaustive = True
    for (z, a), rows in list(e.subspaces.items()):
        outer_classes, _ = subspace_lines(rows, AXIOM_ELEMENT_CAP)
        for vec in outer_classes:
            for other in range(len(ctx.objects)):
                records, walked_all = _composition_records(ctx, side, z, a, vec, other)
                exhaustive = exhaustive and walked_all
                for f_classes, closed, composite_classes in records:
                    if f_classes is None or not e.contains_all(f_classes):
                        continue
                    if not closed or composite_classes is None or not e.contains_all(composite_classes):
                        return False, checked, exhaustive
                    checked += 1
    return True, checked, exhaustive


@memo(
    lambda ctx, side, z, a, vec, other: (
        side, z, a, tuple(int(c) % ctx.algebra.field.p for c in vec), other, AXIOM_ELEMENT_CAP
    )
)
def _composition_records(ctx: CategoryContext, side: str, z: int, a: int, vec, other: int) -> tuple[tuple, bool]:
    """For the sequence g realizing vec in Ext(z, a), with middle term E, and
    each class walked in Ext(E, objects[other]) (side "deflation") or in
    Ext(objects[other], E) ("inflation"), the zero class first: the
    conflation_classes of its sequence f, whether the kernel of g o f (the
    cokernel of f o g) lies in the category, and if so the classes of the
    composite's sequence; with whether the walk was exhaustive.  None of it
    depends on a structure, so each is computed once per context and cap."""
    field = ctx.algebra.field
    ses_g = ctx.realize(ctx.ext(z, a), vec)
    if side == "deflation":
        full = ext_space(ses_g.mid, ctx.objects[other])
    else:
        full = ext_space(ctx.objects[other], ses_g.mid)
    inner, walked_all = subspace_lines(Matrix.identity(field, full.dim), AXIOM_ELEMENT_CAP)
    records = []
    for xf in [np.zeros(full.dim, dtype=np.int64)] + inner:
        ses_f = ctx.realize(full, xf)
        f_classes = conflation_classes(ctx, ses_f)
        if side == "deflation":
            composite = ses_g.p @ ses_f.p  # B ->> D
            end, incl = kernel(composite)
            seq = ShortExactSeq(incl, composite)
        else:
            composite = ses_f.i @ ses_g.i  # a >-> B
            end, proj = cokernel(composite)
            seq = ShortExactSeq(composite, proj)
        closed = ctx.contains(end)
        records.append((f_classes, closed, conflation_classes(ctx, seq) if closed else None))
    return tuple(records), walked_all
