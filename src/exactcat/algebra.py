"""Finite-dimensional basic algebras, presented by quivers or by raw tables.

An Algebra is a based algebra over GF(p): a labelled basis in which the first
nv elements are the primitive orthogonal idempotents (one per vertex) and the
rest span the radical.  Every basis element b satisfies e_l b e_r = b for a
pair of vertices (l, r); a right module then decomposes into per-vertex
components, with b acting from component l to component r.

Quiver presentations are turned into algebras by path rewriting: relations are
oriented by their length-then-lexicographic leading term, the basis is the set
of irreducible paths, and confluence of the rewriting system is validated by
resolving all overlap and inclusion ambiguities (no completion is attempted;
non-confluent input is rejected).
"""
from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .linalg import ExactcatError, FieldPrime, Matrix, memo, rref


class AlgebraError(ExactcatError):
    pass


@dataclass
class ReportItem:
    label: str
    ok: bool
    detail: str = ""


@dataclass
class Report:
    items: list[ReportItem] = dataclass_field(default_factory=list)
    notes: list[str] = dataclass_field(default_factory=list)

    def add(self, label: str, ok: bool, detail: str = ""):
        self.items.append(ReportItem(label, bool(ok), detail))

    def note(self, text: str):
        self.notes.append(text)

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    def failures(self) -> list[ReportItem]:
        return [item for item in self.items if not item.ok]


class Algebra:
    """A basic split finite-dimensional algebra with a distinguished basis.

    Fields:
      field          -- the ground field GF(p)
      nv             -- number of vertices; basis[0..nv-1] are the idempotents
      labels         -- basis labels, idempotents first
      left, right    -- vertex tags: basis[i] lies in e_left[i] * A * e_right[i]
      mult           -- (dim, dim, dim) tensor; mult[i, j] is the coefficient
                        vector of basis[i] * basis[j]
    """

    def __init__(self, field: FieldPrime, nv: int, labels, left, right, mult):
        self.field = field
        self.nv = nv
        self.labels = tuple(labels)
        self.left = tuple(left)
        self.right = tuple(right)
        m = np.mod(np.asarray(mult, dtype=np.int64), field.p)
        m.setflags(write=False)
        self.mult = m
        # the stores of hom_basis, decompose and is_isomorphic: one entry per miss
        self.hom_cache: dict = {}
        self.decompose_cache: dict = {}
        self.iso_cache: dict = {}
        if m.shape != (self.dim, self.dim, self.dim):
            raise AlgebraError("multiplication tensor has wrong shape")
        # (b, left, right) of each radical basis element: the shape of its
        # action on a module is (dims[right], dims[left])
        self.radical_tags = tuple((b, self.left[b], self.right[b]) for b in range(nv, self.dim))

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def radical_indices(self) -> range:
        return range(self.nv, self.dim)

    def radical_basis_labels(self) -> list[str]:
        return [self.labels[i] for i in self.radical_indices]

    def multiply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.einsum("i,j,ijk->k", x, y, self.mult) % self.field.p

    def unit(self) -> np.ndarray:
        u = np.zeros(self.dim, dtype=np.int64)
        u[: self.nv] = 1
        return u

    @memo()
    def generator_indices(self) -> tuple[int, ...]:
        """Radical basis elements whose classes span rad/rad^2, in increasing order.

        The pivots of one rref whose columns are the nonzero products of two
        radical basis elements (spanning rad^2) followed by the radical unit
        vectors.  The radical of a validated algebra is nilpotent, so these
        elements generate it: a linear map intertwining their actions
        intertwines every radical element.  The hom systems of repmod use only
        these; check_module, check_map, _action_closed, the brute-force oracle
        and validate_algebra keep every radical element, so the oracles stay
        independent of this cut.
        """
        rad = list(self.radical_indices)
        products = [self.mult[b, c] for b in rad for c in rad if self.mult[b, c].any()]
        units = np.eye(self.dim, dtype=np.int64)[:, rad]
        cols = np.column_stack(products + [units]) if products else units
        _, pivots = rref(Matrix(self.field, cols))
        return tuple(rad[c - len(products)] for c in pivots if c >= len(products))

    @memo()
    def opposite(self) -> "Algebra":
        """The opposite algebra: same basis, reversed products, swapped tags."""
        op = Algebra(self.field, self.nv, self.labels, self.right, self.left, np.swapaxes(self.mult, 0, 1))
        Algebra.opposite.record(self, op)
        return op


def radical_basis(a: Algebra) -> list[str]:
    """The stored radical basis, after re-checking nilpotency and the quotient."""
    report = validate_algebra(a)
    bad = [i for i in report.failures() if i.label in ("radical nilpotent", "split semisimple quotient")]
    if bad:
        raise AlgebraError("; ".join(f"{i.label}: {i.detail}" for i in bad))
    return a.radical_basis_labels()


def validate_algebra(a: Algebra) -> Report:
    """Check the algebra axioms exhaustively on the basis."""
    report = Report()
    p = a.field.p
    d = a.dim

    # grading: e_l b e_r = b, read off the idempotent rows/columns of mult
    graded = True
    for i in range(d):
        lhs = a.mult[a.left[i], i]
        rhs = a.mult[i, a.right[i]]
        want = np.zeros(d, dtype=np.int64)
        want[i] = 1
        if not (np.array_equal(lhs, want) and np.array_equal(rhs, want)):
            graded = False
            break
    report.add("vertex grading", graded)

    # idempotents: orthogonal, complete
    ortho = True
    for u in range(a.nv):
        for v in range(a.nv):
            prod = a.mult[u, v]
            want = np.zeros(d, dtype=np.int64)
            if u == v:
                want[u] = 1
            if not np.array_equal(prod, want):
                ortho = False
    report.add("idempotents orthogonal", ortho)

    unit = a.unit()
    unit_ok = all(
        np.array_equal(a.multiply(unit, _basis_vec(d, i)), _basis_vec(d, i))
        and np.array_equal(a.multiply(_basis_vec(d, i), unit), _basis_vec(d, i))
        for i in range(d)
    )
    report.add("unit", unit_ok)

    # associativity: (bi bj) bk = bi (bj bk), contracted through the tensor
    lhs = np.einsum("ijm,mkl->ijkl", a.mult, a.mult) % p
    rhs = np.einsum("jkm,iml->ijkl", a.mult, a.mult) % p
    report.add("associativity", bool(np.array_equal(lhs, rhs)))

    # products respect the grading (zero unless right tag meets left tag)
    compat = True
    for i in range(d):
        for j in range(d):
            prod = a.mult[i, j]
            if a.right[i] != a.left[j]:
                if prod.any():
                    compat = False
            else:
                for k in np.nonzero(prod)[0]:
                    if a.left[k] != a.left[i] or a.right[k] != a.right[j]:
                        compat = False
    report.add("product grading", compat)

    # radical: span of the non-idempotent basis is a two-sided nilpotent ideal
    rad = list(a.radical_indices)
    ideal = True
    for i in range(d):
        for j in rad:
            if a.mult[i, j][: a.nv].any() or a.mult[j, i][: a.nv].any():
                ideal = False
    report.add("radical is an ideal", ideal)

    nilpotent = False
    if ideal:
        span = np.zeros((len(rad), d), dtype=np.int64)
        for t, j in enumerate(rad):
            span[t, j] = 1
        for _ in range(d + 1):
            if not span.any():
                nilpotent = True
                break
            nxt = []
            for row in span:
                for j in rad:
                    prod = a.multiply(row, _basis_vec(d, j))
                    if prod.any():
                        nxt.append(prod)
            if not nxt:
                nilpotent = True
                break
            reduced, pivots = rref(Matrix(a.field, np.array(nxt, dtype=np.int64)))
            span = reduced.a[: len(pivots)]
    report.add("radical nilpotent", nilpotent)

    # quotient by the radical: spanned by idempotent images, product of GF(p)'s
    report.add(
        "split semisimple quotient",
        ideal and all(a.left[i] == a.right[i] for i in range(a.nv)),
    )
    return report


def _basis_vec(dim: int, i: int) -> np.ndarray:
    v = np.zeros(dim, dtype=np.int64)
    v[i] = 1
    return v


# -- quiver presentations ----------------------------------------------------


@dataclass
class QuiverPresentation:
    """A quiver with admissible relations over GF(p).

    arrows are (label, source, target) with vertex labels; relations are lists
    of (coefficient, path) terms, a path being a source-to-target composable
    tuple of arrow labels of length >= 2, all terms parallel.
    """

    field: FieldPrime
    vertices: list[str]
    arrows: list[tuple[str, str, str]]
    relations: list[list[tuple[int, tuple[str, ...]]]] = dataclass_field(default_factory=list)
    path_length_cap: int = 8

    def vertex_index(self, label: str) -> int:
        return self.vertices.index(label)


def build_from_quiver(q: QuiverPresentation) -> Algebra:
    """The path algebra of q modulo its relations, with basis the irreducible paths.

    Paths compose left to right (a path 1 -> 2 -> 3 is the word (a, b) with
    a: 1 -> 2 first), so right modules over the result are representations of
    the quiver with arrow maps in the arrow direction.
    """
    p = q.field.p
    nv = len(q.vertices)
    if len(set(q.vertices)) != nv:
        raise AlgebraError("duplicate vertex labels")
    arrow_names = [a[0] for a in q.arrows]
    if len(set(arrow_names)) != len(arrow_names):
        raise AlgebraError("duplicate arrow labels")
    arrow_src = {a[0]: q.vertex_index(a[1]) for a in q.arrows}
    arrow_tgt = {a[0]: q.vertex_index(a[2]) for a in q.arrows}
    order = {name: i for i, name in enumerate(arrow_names)}

    def path_src(path):
        return arrow_src[path[0]]

    def path_tgt(path):
        return arrow_tgt[path[-1]]

    def sort_key(path):
        return (len(path), tuple(order[x] for x in path))

    # orient relations: leading term is the largest path in length-then-lex order
    rules: dict[tuple[str, ...], dict[tuple[str, ...], int]] = {}
    for rel in q.relations:
        terms = {}
        for coeff, path in rel:
            path = tuple(path)
            if len(path) < 2:
                raise AlgebraError(f"non-admissible relation: path {path} has length < 2")
            for x, y in zip(path, path[1:]):
                if arrow_tgt[x] != arrow_src[y]:
                    raise AlgebraError(f"relation path {path} is not composable")
            terms[path] = (terms.get(path, 0) + coeff) % p
        terms = {pa: c for pa, c in terms.items() if c % p != 0}
        if not terms:
            continue
        ends = {(path_src(pa), path_tgt(pa)) for pa in terms}
        if len(ends) != 1:
            raise AlgebraError("relation terms are not parallel")
        lead = max(terms, key=sort_key)
        lc_inv = pow(terms[lead], p - 2, p)
        rest = {pa: (-c * lc_inv) % p for pa, c in terms.items() if pa != lead}
        if lead in rules:
            raise AlgebraError(f"two relations share the leading term {lead}")
        rules[lead] = rest

    def reducible(path) -> bool:
        return any(
            path[i : i + len(lead)] == lead
            for lead in rules
            for i in range(len(path) - len(lead) + 1)
        )

    def normal_form(combo: dict[tuple[str, ...], int]) -> dict[tuple[str, ...], int]:
        combo = {pa: c % p for pa, c in combo.items() if c % p != 0}
        while True:
            target = None
            for pa in combo:
                for lead in rules:
                    for i in range(len(pa) - len(lead) + 1):
                        if pa[i : i + len(lead)] == lead:
                            target = (pa, lead, i)
                            break
                    if target:
                        break
                if target:
                    break
            if target is None:
                return combo
            pa, lead, i = target
            c = combo.pop(pa)
            for tpath, tcoeff in rules[lead].items():
                new = pa[:i] + tpath + pa[i + len(lead) :]
                combo[new] = (combo.get(new, 0) + c * tcoeff) % p
                if combo[new] == 0:
                    del combo[new]

    # confluence: every overlap and inclusion ambiguity must resolve
    rule_list = list(rules)
    for lead1 in rule_list:
        for lead2 in rule_list:
            for k in range(1, min(len(lead1), len(lead2))):
                if lead1[len(lead1) - k :] == lead2[:k]:
                    word = lead1 + lead2[k:]
                    via1 = {t + lead2[k:]: c for t, c in rules[lead1].items()}
                    via2 = {lead1[:-k] + t: c for t, c in rules[lead2].items()}
                    if normal_form(via1) != normal_form(via2):
                        raise AlgebraError(
                            f"non-confluent relations: overlap of {lead1} and {lead2} at {word}"
                        )
            if lead1 != lead2:
                for i in range(len(lead1) - len(lead2) + 1):
                    if lead1[i : i + len(lead2)] == lead2:
                        via1 = dict(rules[lead1])
                        via2 = {lead1[:i] + t + lead1[i + len(lead2) :]: c for t, c in rules[lead2].items()}
                        if normal_form(via1) != normal_form(via2):
                            raise AlgebraError(
                                f"non-confluent relations: {lead2} sits inside {lead1}"
                            )

    # irreducible paths, breadth-first by length
    paths: list[tuple[str, ...]] = []
    frontier = [()]
    for length in range(1, q.path_length_cap + 2):
        nxt = []
        for stem in frontier:
            for name in arrow_names:
                if stem and arrow_tgt[stem[-1]] != arrow_src[name]:
                    continue
                cand = stem + (name,)
                if not reducible(cand):
                    nxt.append(cand)
        if length == q.path_length_cap + 1 and nxt:
            raise AlgebraError(
                f"irreducible path of length {length} exceeds path_length_cap={q.path_length_cap}"
            )
        paths.extend(nxt)
        frontier = nxt
        if not frontier:
            break
    paths.sort(key=sort_key)

    labels = [f"e_{v}" for v in q.vertices] + ["*".join(pa) for pa in paths]
    left = list(range(nv)) + [path_src(pa) for pa in paths]
    right = list(range(nv)) + [path_tgt(pa) for pa in paths]
    dim = len(labels)
    index_of = {pa: nv + i for i, pa in enumerate(paths)}

    mult = np.zeros((dim, dim, dim), dtype=np.int64)
    items: list[tuple[int, tuple[str, ...] | None, int]] = [(v, None, v) for v in range(nv)]
    items += [(path_src(pa), pa, path_tgt(pa)) for pa in paths]
    for i, (s1, pa1, t1) in enumerate(items):
        for j, (s2, pa2, t2) in enumerate(items):
            if t1 != s2:
                continue
            if pa1 is None and pa2 is None:
                if i == j:
                    mult[i, j, i] = 1
                continue
            if pa1 is None:
                mult[i, j, j] = 1
                continue
            if pa2 is None:
                mult[i, j, i] = 1
                continue
            for pa, c in normal_form({pa1 + pa2: 1}).items():
                mult[i, j, index_of[pa]] = c

    algebra = Algebra(q.field, nv, labels, left, right, mult)
    report = validate_algebra(algebra)
    if not report.ok:
        raise AlgebraError(
            "quiver algebra failed validation: "
            + "; ".join(i.label for i in report.failures())
        )
    return algebra


# -- stock examples used across the test suite -------------------------------


def algebra_kA2(field: FieldPrime) -> Algebra:
    q = QuiverPresentation(field, ["1", "2"], [("a", "1", "2")])
    return build_from_quiver(q)


def algebra_dual_numbers(field: FieldPrime) -> Algebra:
    q = QuiverPresentation(field, ["1"], [("x", "1", "1")], [[(1, ("x", "x"))]], path_length_cap=2)
    return build_from_quiver(q)


def algebra_kA3(field: FieldPrime, zero_relation: bool) -> Algebra:
    rels = [[(1, ("a", "b"))]] if zero_relation else []
    q = QuiverPresentation(
        field, ["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")], rels, path_length_cap=3
    )
    return build_from_quiver(q)


def algebra_semisimple(field: FieldPrime, n: int) -> Algebra:
    q = QuiverPresentation(field, [str(i + 1) for i in range(n)], [])
    return build_from_quiver(q)
