"""The module category mod(A) of a based algebra.

Right modules are stored as per-vertex spaces with one action matrix per
radical basis element (idempotents act as the component projections).  A
basis element b with vertex tags (l, r) acts from component l to component r,
so for quiver algebras modules are exactly quiver representations.

This module supplies hom spaces, kernels/images/cokernels, Krull-Schmidt
decomposition, projectives/injectives/simples, minimal presentations and
resolutions, Ext, homological dimensions, the Auslander-Bridger transpose,
Ext^1 class coordinates with their pushout/pullback actions, almost split
sequences, and enumeration of all indecomposables (knitting plus an
independent brute-force oracle).
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import Algebra
from .linalg import (
    ExactcatError,
    Matrix,
    block_diag,
    column_space_basis,
    count_subspaces,
    hstack,
    inverse,
    is_invertible,
    iterate_subspaces,
    kernel_basis,
    memo,
    rank,
    rref,
    solve_right,
    vstack,
)


class RepmodError(ExactcatError):
    pass


class CapExceeded(RepmodError):
    exit_code = 3


def _algebra(m: Module, n: Module) -> Algebra:
    """The algebra of two modules, which must be the same."""
    if m.algebra is not n.algebra:
        raise RepmodError("modules over different algebras")
    return m.algebra


# -- modules and maps ---------------------------------------------------------


class Module:
    """A finite-dimensional right module over a based algebra."""

    __slots__ = ("algebra", "dims", "act", "_key")

    def __init__(self, algebra: Algebra, dims, act: dict[int, Matrix]):
        self.algebra = algebra
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != algebra.nv:
            raise RepmodError("dimension vector length does not match vertex count")
        self.act = act = dict(act)
        dims = self.dims
        for b, l, r in algebra.radical_tags:
            mat = act.get(b)
            if mat is None:
                act[b] = Matrix.zeros(algebra.field, dims[r], dims[l])
            elif mat.a.shape != (dims[r], dims[l]):
                raise RepmodError(f"action matrix for basis {b} has shape {mat.a.shape}, expected {(dims[r], dims[l])}")
        self._key = None

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def key(self) -> bytes:
        if self._key is None:
            parts = [bytes(str(self.dims), "ascii")]
            for b in self.algebra.radical_indices:
                parts.append(self.act[b].key())
            self._key = b"|".join(parts)
        return self._key

    def action(self, b: int) -> Matrix:
        """Action matrix of basis element b (idempotents included)."""
        alg = self.algebra
        if b < alg.nv:
            d = self.dims[b]
            return Matrix.identity(alg.field, d)
        return self.act[b]

    def element_action(self, vec: np.ndarray, l: int, r: int) -> Matrix:
        """Action of an algebra element supported in e_l A e_r, as a map V_l -> V_r."""
        alg = self.algebra
        out = Matrix.zeros(alg.field, self.dims[r], self.dims[l])
        for b in np.nonzero(np.asarray(vec))[0]:
            b = int(b)
            if alg.left[b] != l or alg.right[b] != r:
                raise RepmodError("element is not supported in the requested block")
            out = out + self.action(b).scale(int(vec[b]))
        return out

    @classmethod
    def zero(cls, algebra: Algebra) -> "Module":
        return cls(algebra, [0] * algebra.nv, {})


class ModuleMap:
    """A homomorphism of modules, one matrix per vertex."""

    __slots__ = ("source", "target", "mats", "_key")

    def __init__(self, source: Module, target: Module, mats):
        self.source = source
        self.target = target
        self.mats = tuple(mats)
        shapes = list(zip(target.dims, source.dims))
        if [m.a.shape for m in self.mats] != shapes:
            wrong = (v for v, (m, shape) in enumerate(zip(self.mats, shapes)) if m.a.shape != shape)
            v = next(wrong, min(len(self.mats), len(shapes)))  # else a matrix is missing or extra
            raise RepmodError(f"map matrix at vertex {v} has wrong shape")
        self._key = None

    def key(self) -> tuple:
        """The keys of the source, the target and the per-vertex matrices:
        equal keys mean equal maps."""
        if self._key is None:
            self._key = (self.source.key(), self.target.key(), tuple(m.key() for m in self.mats))
        return self._key

    @classmethod
    def identity(cls, m: Module) -> "ModuleMap":
        f = m.algebra.field
        return cls(m, m, [Matrix.identity(f, d) for d in m.dims])

    @classmethod
    def zero_map(cls, source: Module, target: Module) -> "ModuleMap":
        f = source.algebra.field
        return cls(source, target, [Matrix.zeros(f, target.dims[v], source.dims[v]) for v in range(source.algebra.nv)])

    def __matmul__(self, other: "ModuleMap") -> "ModuleMap":
        """Composition self after other."""
        return ModuleMap(other.source, self.target, [a @ b for a, b in zip(self.mats, other.mats)])

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        return ModuleMap(self.source, self.target, [a + b for a, b in zip(self.mats, other.mats)])

    def __sub__(self, other: "ModuleMap") -> "ModuleMap":
        return ModuleMap(self.source, self.target, [a - b for a, b in zip(self.mats, other.mats)])

    def scale(self, c: int) -> "ModuleMap":
        return ModuleMap(self.source, self.target, [m.scale(c) for m in self.mats])

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats)

    def is_injective(self) -> bool:
        return all(rank(m) == m.cols for m in self.mats)

    def is_surjective(self) -> bool:
        return all(rank(m) == m.rows for m in self.mats)

    def is_isomorphism(self) -> bool:
        return all(is_invertible(m) for m in self.mats)

    def flat(self) -> np.ndarray:
        if not self.mats:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate([m.a.reshape(-1) for m in self.mats])


def check_module(m: Module) -> None:
    """Assert the module axioms (products act compatibly, relations act as zero)."""
    alg = m.algebra
    for b in alg.radical_indices:
        for c in alg.radical_indices:
            if alg.right[b] != alg.left[c]:
                continue
            prod = alg.mult[b, c]
            lhs = m.element_action(prod, alg.left[b], alg.right[c])
            rhs = m.action(c) @ m.action(b)
            if lhs != rhs:
                raise RepmodError(f"module violates relation {alg.labels[b]}*{alg.labels[c]}")


def check_map(f: ModuleMap) -> None:
    alg = f.source.algebra
    for b in alg.radical_indices:
        l, r = alg.left[b], alg.right[b]
        if f.mats[r] @ f.source.action(b) != f.target.action(b) @ f.mats[l]:
            raise RepmodError(f"map does not intertwine basis element {alg.labels[b]}")


def _unit_columns(d: int, cols) -> np.ndarray:
    """The identity columns of I_d at cols."""
    out = np.zeros((d, len(cols)), dtype=np.int64)
    out[cols, np.arange(len(cols))] = 1
    return out


class SumMaps(Sequence):
    """The injections or the projections of a direct sum, each map built the
    first time it is read: most callers use one of the two lists, or none."""

    def __init__(self, build, n: int):
        self._build = build
        self._maps: list[ModuleMap | None] = [None] * n

    def __len__(self) -> int:
        return len(self._maps)

    def __getitem__(self, i: int) -> ModuleMap:
        i = range(len(self._maps))[i]  # IndexError past the end ends iteration
        if self._maps[i] is None:
            self._maps[i] = self._build(i)
        return self._maps[i]


def _offsets(dims: list, nv: int) -> list[list[int]]:
    """offsets[i][v]: where summand i of a sum with the given dimension
    vectors starts at vertex v; offsets[-1] is the dimension vector of the sum."""
    out = [[0] * nv]
    for d in dims:
        out.append([o + k for o, k in zip(out[-1], d)])
    return out


def direct_sum(modules: list[Module]) -> tuple[Module, SumMaps, SumMaps]:
    """Direct sum with its injections and projections."""
    if not modules:
        raise RepmodError("direct sum of no modules needs an algebra; use Module.zero")
    alg = modules[0].algebra
    field = alg.field
    offsets = _offsets([m.dims for m in modules], alg.nv)
    dims = offsets[-1]
    act = {}
    for b in alg.radical_indices:
        l, r = alg.left[b], alg.right[b]
        arr = np.zeros((dims[r], dims[l]), dtype=np.int64)
        for m, o in zip(modules, offsets):
            arr[o[r] : o[r] + m.dims[r], o[l] : o[l] + m.dims[l]] = m.act[b].a
        act[b] = Matrix(field, arr, reduced=True)
    total = Module(alg, dims, act)

    def unit_blocks(i: int, transpose: bool) -> list[Matrix]:
        """Per vertex, the identity columns of summand i in the sum (the
        injection), or their transpose (the projection)."""
        out = []
        for v in range(alg.nv):
            e = _unit_columns(dims[v], range(offsets[i][v], offsets[i + 1][v]))
            out.append(Matrix(field, e.T.copy() if transpose else e, reduced=True))
        return out

    injections = SumMaps(lambda i: ModuleMap(modules[i], total, unit_blocks(i, False)), len(modules))
    projections = SumMaps(lambda i: ModuleMap(total, modules[i], unit_blocks(i, True)), len(modules))
    return total, injections, projections


def block_map(source: Module, target: Module, blocks: list[list[ModuleMap]]) -> ModuleMap:
    """The map between direct sums whose block (t, s), from the s-th summand
    of source to the t-th summand of target, is blocks[t][s]: a zero array per
    vertex with the blocks' reduced entries copied in at their offsets, so no
    rows, or rows of no blocks, give the zero map.  The blocks of a column
    share their source and those of a row their target, and these add up to
    source and target; raises RepmodError otherwise."""
    alg = source.algebra
    mats = [np.zeros((target.dims[v], source.dims[v]), dtype=np.int64) for v in range(alg.nv)]
    if blocks and blocks[0]:
        col_dims = [f.source.dims for f in blocks[0]]
        row_dims = [line[0].target.dims for line in blocks]
        cols, rows = _offsets(col_dims, alg.nv), _offsets(row_dims, alg.nv)
        if tuple(cols[-1]) != source.dims or tuple(rows[-1]) != target.dims:
            raise RepmodError("blocks do not add up to the source and target")
        for t, line in enumerate(blocks):
            if [f.source.dims for f in line] != col_dims or any(f.target.dims != row_dims[t] for f in line):
                raise RepmodError(f"blocks of row {t} do not match their row and columns")
            for s, f in enumerate(line):
                for v, (out, mat) in enumerate(zip(mats, f.mats)):
                    out[rows[t][v] : rows[t + 1][v], cols[s][v] : cols[s + 1][v]] = mat.a
    return ModuleMap(source, target, [Matrix(alg.field, out, reduced=True) for out in mats])


def _hom_system(m: Module, n: Module) -> tuple[Matrix, np.ndarray]:
    """The intertwiner equations f_r A_b = B_b f_l on the stacked vec(f_v),
    with the offset of each vertex block of unknowns.  Only the generators of
    the radical get a block: a map intertwining them intertwines all of it."""
    alg = m.algebra
    sizes = [n.dims[v] * m.dims[v] for v in range(alg.nv)]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    rows = []
    for b in alg.generator_indices():
        l, r = alg.left[b], alg.right[b]
        n_r, m_l, n_l, m_r = n.dims[r], m.dims[l], n.dims[l], m.dims[r]
        if n_r * m_l == 0:
            continue
        block = np.zeros((n_r * m_l, total), dtype=np.int64)
        # f_r @ A_b: coefficient kron(I_{n_r}, A_b^T) on vec(f_r)
        i = np.arange(n_r)
        block[:, offsets[r] : offsets[r + 1]].reshape(n_r, m_l, n_r, m_r)[i, :, i, :] = m.act[b].a.T
        # minus B_b @ f_l: coefficient kron(B_b, I_{m_l}) on vec(f_l)
        j = np.arange(m_l)
        block[:, offsets[l] : offsets[l + 1]].reshape(n_r, m_l, n_l, m_l)[:, j, :, j] -= n.act[b].a
        rows.append(block)
    system = np.vstack(rows) if rows else np.zeros((0, total), dtype=np.int64)
    return Matrix(alg.field, system), offsets


@memo(lambda m, n: (m.key(), n.key()), owner=_algebra, store="hom_cache")
def hom_basis(m: Module, n: Module) -> list[ModuleMap]:
    """A deterministic basis of Hom(m, n), by solving the intertwiner equations."""
    alg = m.algebra
    system, offsets = _hom_system(m, n)
    basis = kernel_basis(system)
    maps = []
    for j in range(basis.cols):
        col = basis.a[:, j]
        mats = []
        for v in range(alg.nv):
            chunk = col[offsets[v] : offsets[v + 1]].reshape(n.dims[v], m.dims[v])
            mats.append(Matrix(alg.field, chunk))
        maps.append(ModuleMap(m, n, mats))
    return maps


def hom_dim(m: Module, n: Module) -> int:
    return len(hom_basis(m, n))


def hom_coords(field, maps: list[ModuleMap], basis: list[ModuleMap]) -> Matrix:
    """Coordinates of maps in basis, one column per map, from one solve.

    basis may be a dependent spanning list: each column is then the one
    solving for that map alone gives, with the free coordinates zero.  Raises
    RepmodError when a map lies outside the span.
    """
    if not basis:
        if not all(f.is_zero() for f in maps):
            raise RepmodError("nonzero map in zero hom space")
        return Matrix.zeros(field, 0, len(maps))
    if not maps:
        return Matrix.zeros(field, len(basis), 0)
    mat = Matrix(field, np.column_stack([b.flat() for b in basis]))
    x = solve_right(mat, Matrix(field, np.column_stack([f.flat() for f in maps])))
    if x is None:
        raise RepmodError("map does not lie in the span of the given hom basis")
    return x


def hom_from_coords(coords, basis: list[ModuleMap], source: Module, target: Module) -> ModuleMap:
    """The map sum c_i basis_i, summed per vertex in int64 and reduced once:
    each term is below p^2 < 2^32."""
    p = source.algebra.field.p
    sums = [np.zeros((target.dims[v], source.dims[v]), dtype=np.int64) for v in range(source.algebra.nv)]
    coords = np.asarray(coords).reshape(-1)
    for i in np.flatnonzero(coords % p):
        c = int(coords[i]) % p
        for acc, mat in zip(sums, basis[i].mats):
            acc += c * mat.a
    for acc in sums:
        acc %= p
    return ModuleMap(source, target, [Matrix(source.algebra.field, acc, reduced=True) for acc in sums])


# -- submodules, quotients, kernels, images ----------------------------------


@dataclass
class Frame:
    """A basis u (k independent columns) of a subspace of GF(p)^d completed
    by identity columns w: the rows of [u | w]^-1 split into coords (the
    first k, coordinates along u) and proj (the rest, along w, which is the
    projection onto the quotient), and extra lists the columns of w."""

    coords: np.ndarray
    proj: np.ndarray
    extra: list[int]


def frame(u: Matrix, d: int) -> Frame:
    """The frame of u in GF(p)^d from one rref([u | I_d]).  Its pivots are u's
    columns, then the identity columns w that complete them, so the reduced
    matrix is E [u | I_d] with E [u | w] = I_d: its last d columns are
    E = [u | w]^-1.  Raises RepmodError when u is dependent.  The zero
    subspace (w = I_d) and the whole space on the identity basis (w empty)
    need no elimination: E is I_d there."""
    k = u.cols
    if k == 0:
        return Frame(np.zeros((0, d), dtype=np.int64), np.eye(d, dtype=np.int64), list(range(d)))
    if k == d and np.array_equal(u.a, np.eye(d, dtype=np.int64)):
        return Frame(np.eye(d, dtype=np.int64), np.zeros((0, d), dtype=np.int64), [])
    aug = np.zeros((d, k + d), dtype=np.int64)
    aug[:, :k] = u.a
    aug.reshape(-1)[k :: k + d + 1] = 1  # the entries (i, k + i): I_d
    r, pivots = rref(Matrix(u.field, aug, reduced=True))
    if pivots[:k] != list(range(k)):
        raise RepmodError("subspace basis is not independent")
    inv = r.a[:, k:]
    return Frame(inv[:k], inv[k:], [c - k for c in pivots[k:]])


def _submodule_in_frames(m: Module, bases: list[Matrix], frames: list[Frame]) -> tuple[Module, ModuleMap]:
    """The submodule spanned by the bases, each with its frame in m.  The
    images of the actions into each vertex r are tested against the
    projection of r's frame (closure) and restricted through its coordinates.
    An action with no image (zero source or target space) is zero and needs
    neither; at a vertex where the submodule is zero the projection is the
    identity, and where it is everything there is nothing to test."""
    alg = m.algebra
    p = alg.field.p
    dims = [u.cols for u in bases]
    into: dict[int, list[int]] = {}
    for b, l, r in alg.radical_tags:
        if dims[l] and m.dims[r]:
            into.setdefault(r, []).append(b)
    act = {}
    for r, elements in into.items():
        images = np.concatenate([m.act[b].a @ bases[alg.left[b]].a for b in elements], axis=1) % p
        # the projection of the zero subspace is the identity
        if dims[r] < m.dims[r] and (images if dims[r] == 0 else frames[r].proj @ images % p).any():
            raise RepmodError("subspaces are not closed under the action")
        if dims[r] == 0:
            continue
        restricted = frames[r].coords @ images % p
        lo = 0
        for b in elements:
            hi = lo + dims[alg.left[b]]
            act[b] = Matrix(alg.field, restricted[:, lo:hi].copy(), reduced=True)
            lo = hi
    sub = Module(alg, dims, act)
    return sub, ModuleMap(sub, m, bases)


def _quotient_in_frames(m: Module, frames: list[Frame]) -> tuple[Module, ModuleMap]:
    """The quotient of m by the subspaces of the frames: the action of b is
    pi_r A_b w_l, zero where the quotient is zero at l or r, and A_b w_l
    itself where pi_r is the identity."""
    alg = m.algebra
    field = alg.field
    projections = [Matrix(field, fr.proj.copy(), reduced=True) for fr in frames]
    dims = [pi.rows for pi in projections]
    act = {}
    for b, l, r in alg.radical_tags:
        if not (dims[l] and dims[r]):
            continue
        # A_b w_l picks the columns of A_b at w_l
        lifted = np.take(m.act[b].a, frames[l].extra, axis=1)
        act[b] = Matrix(field, lifted if dims[r] == m.dims[r] else frames[r].proj @ lifted % field.p, reduced=True)
    quot = Module(alg, dims, act)
    return quot, ModuleMap(m, quot, projections)


def submodule(m: Module, bases: list[Matrix]) -> tuple[Module, ModuleMap]:
    """The submodule spanned per vertex by the given independent columns.
    The actions into each vertex are restricted through its frame, which
    also proves them closed; raises RepmodError when a basis is dependent or
    the span is not closed under the action."""
    return _submodule_in_frames(m, bases, [frame(u, d) for u, d in zip(bases, m.dims)])


def quotient(m: Module, bases: list[Matrix]) -> tuple[Module, ModuleMap]:
    """The quotient of m by the submodule spanned by the given independent
    columns: at each vertex the projection is the last rows of the frame's
    inverse and the quotient basis lifts to its identity columns."""
    return _quotient_in_frames(m, [frame(u, d) for u, d in zip(bases, m.dims)])


def kernel(f: ModuleMap) -> tuple[Module, ModuleMap]:
    return submodule(f.source, [kernel_basis(mat) for mat in f.mats])


def image(f: ModuleMap) -> tuple[Module, ModuleMap, ModuleMap]:
    """(image module, inclusion into target, epi part source ->> image)."""
    bases = [column_space_basis(mat) for mat in f.mats]
    img, incl = submodule(f.target, bases)
    epi_mats = []
    for v in range(f.source.algebra.nv):
        x = solve_right(bases[v], f.mats[v])
        epi_mats.append(x)
    return img, incl, ModuleMap(f.source, img, epi_mats)


def cokernel(f: ModuleMap) -> tuple[Module, ModuleMap]:
    bases = [column_space_basis(mat) for mat in f.mats]
    return quotient(f.target, bases)


@dataclass
class MapParts:
    kernel: Module
    kernel_inclusion: ModuleMap
    image: Module
    epi_part: ModuleMap
    mono_part: ModuleMap
    cokernel: Module
    cokernel_projection: ModuleMap


def map_parts(f: ModuleMap) -> MapParts:
    """kernel, image and cokernel of f from one rref per vertex: the pivot
    columns span the image, and the nonzero reduced rows are the coordinates
    of f's columns in them, i.e. the epi part.  The image and the cokernel
    share the frames of the image basis.  A vertex where the source or the
    target is zero needs no elimination: the kernel is the whole source there
    and the image zero."""
    field = f.source.algebra.field
    ker_bases, bases, epi_mats = [], [], []
    for mat in f.mats:
        rows, cols = mat.a.shape
        if rows and cols:
            r, pivots = rref(mat)
            ker_bases.append(kernel_basis(mat, (r, pivots)))
            bases.append(mat.take_columns(pivots))
            epi_mats.append(Matrix(field, r.a[: len(pivots)].copy(), reduced=True))
        else:
            ker_bases.append(Matrix.identity(field, cols))
            bases.append(Matrix.zeros(field, rows, 0))
            epi_mats.append(Matrix.zeros(field, 0, cols))
    ker, ker_incl = submodule(f.source, ker_bases)
    frames = [frame(u, d) for u, d in zip(bases, f.target.dims)]
    img, mono = _submodule_in_frames(f.target, bases, frames)
    epi = ModuleMap(f.source, img, epi_mats)
    cok, proj = _quotient_in_frames(f.target, frames)
    return MapParts(ker, ker_incl, img, epi, mono, cok, proj)


@dataclass
class ShortExactSeq:
    """A kernel-cokernel pair i: A -> B, p: B -> C in mod(A)."""

    i: ModuleMap
    p: ModuleMap

    def validate(self) -> None:
        if not self.i.is_injective():
            raise RepmodError("SES: i is not injective")
        if not self.p.is_surjective():
            raise RepmodError("SES: p is not surjective")
        if not (self.p @ self.i).is_zero():
            raise RepmodError("SES: p o i != 0")
        if self.i.source.total_dim + self.p.target.total_dim != self.i.target.total_dim:
            raise RepmodError("SES: dimensions do not add up")

    @property
    def sub(self) -> Module:
        return self.i.source

    @property
    def mid(self) -> Module:
        return self.i.target

    @property
    def quot(self) -> Module:
        return self.p.target


# -- shifts of endomorphisms, for Fitting's lemma -----------------------------


def _min_poly(mat: np.ndarray, field) -> list[int]:
    """Minimal polynomial of a square matrix over GF(p), lowest coefficient first."""
    p = field.p
    powers = [np.eye(mat.shape[0], dtype=np.int64)]
    for _ in range(mat.shape[0]):
        powers.append((powers[-1] @ mat) % p)
    r, pivots = rref(Matrix(field, np.column_stack([w.reshape(-1) for w in powers])))
    d = len(pivots)  # the first d powers are independent, the next depends on them
    return [(-int(c)) % p for c in r.a[:d, d]] + [1]


def _least_shift(f: ModuleMap) -> tuple[int, list[np.ndarray]] | None:
    """The least t in GF(p) with f + t singular, with the per-vertex matrices
    of (f + t)^N for an N >= dim; None when f + t is invertible for every t.

    The t are the roots at -t of the minimal polynomial.  When it is
    (x - lam)^k with p not dividing k, lam = -c_{k-1}/k is its only root and
    the comparison with the expanded power proves the form; otherwise it is
    evaluated at all of GF(p) at once.
    """
    field = f.source.algebra.field
    p = field.p
    total = block_diag(field, list(f.mats)).a
    poly = _min_poly(total, field)
    k = len(poly) - 1
    lam = -poly[k - 1] * pow(k, -1, p) % p if k % p else None
    if lam is not None and poly == [math.comb(k, j) * pow(-lam, k - j, p) % p for j in range(k + 1)]:
        t = -lam % p
    else:
        xs = (-np.arange(p, dtype=np.int64)) % p
        values = np.zeros(p, dtype=np.int64)
        for c in reversed(poly):
            values = (values * xs + c) % p
        roots = np.flatnonzero(values == 0)
        if not roots.size:
            return None
        t = int(roots[0])
    powers = []
    for mat in f.mats:
        power = (mat.a + t * np.eye(mat.rows, dtype=np.int64)) % p
        for _ in range(max(total.shape[0].bit_length(), 1)):
            power = (power @ power) % p
        powers.append(power)
    return t, powers


def _fitting_projection(field, power: np.ndarray) -> Matrix:
    """The projection onto ker(power) along im(power), for power = g^N with
    N >= dim, where the two are complements (Fitting's lemma)."""
    w = Matrix(field, power)
    r, pivots = rref(w)
    rows = Matrix(field, r.a[: len(pivots)])
    cols = w.take_columns(pivots)  # w = cols @ rows
    return Matrix.identity(field, w.rows) - cols @ inverse(rows @ cols) @ rows


# -- Krull-Schmidt decomposition ----------------------------------------------


@memo(Module.key, owner=lambda m: m.algebra)
def _split_or_prove_local(m: Module) -> tuple[ModuleMap | None, list[ModuleMap]]:
    """(e, []) for a nontrivial idempotent e of m, or (None, a basis of
    rad End(m)) with a proof that End(m) is local with residue field GF(p).

    Walks hom_basis(m, m) in order, with the least shift t of each h.  The
    first h with (h + t)^N nonzero splits m along the projection onto
    ker (h + t)^N along im (h + t)^N (Fitting's lemma); raises RepmodError
    when that is not a nontrivial idempotent.  Otherwise every h + t is
    nilpotent, and End(m) is local exactly when every h has a shift and the
    h + t span a subspace J of codimension 1 closed under composition: J is
    then a two-sided ideal with End/J = k, so it contains rad End(m), and
    J/rad, an ideal of the semisimple End/rad spanned by nilpotents (trace 0
    in every matrix factor), is zero.  The basis is J's pivot basis.  Raises
    CapExceeded when End(m) is not proved local.
    """
    field = m.algebra.field
    end = hom_basis(m, m)
    ident = ModuleMap.identity(m)
    shifted, every_shift = [], True
    for h in end:
        shift = _least_shift(h)
        if shift is None:
            every_shift = False
            continue
        t, powers = shift
        if any(w.any() for w in powers):
            e = ModuleMap(m, m, [_fitting_projection(field, w) for w in powers])
            if e.is_zero() or (e - ident).is_zero() or not (e @ e - e).is_zero():
                raise RepmodError("Fitting's lemma gave no nontrivial idempotent")
            return e, []
        cand = h + ident.scale(t)
        if not cand.is_zero():
            shifted.append(cand)
    rad, closed = [], True
    if shifted:
        span = Matrix(field, np.column_stack([r.flat() for r in shifted]))
        _, pivots = rref(span)
        rad = [shifted[j] for j in pivots]
        products = Matrix(field, np.column_stack([(a @ b).flat() for a in rad for b in rad]))
        closed = solve_right(span.take_columns(pivots), products) is not None
    if not (every_shift and closed and len(rad) == len(end) - 1):
        raise CapExceeded(
            f"no Hom-basis element splits a module of dimension vector {m.dims}, "
            "and its endomorphism ring is not proved local"
        )
    return None, rad


def _local_residue(m: Module) -> list[ModuleMap]:
    """Basis of rad End(m) for m with local endomorphism ring; raises
    RepmodError when m splits."""
    e, rad = _split_or_prove_local(m)
    if e is not None:
        raise RepmodError("endomorphism ring is not local; module is decomposable")
    return rad


@memo(Module.key, owner=lambda m: m.algebra, store="decompose_cache")
def decompose(m: Module) -> list[tuple[Module, ModuleMap]]:
    """Indecomposable summands of m, each with its inclusion map.

    The direct sum of the returned summands is isomorphic to m; stacking the
    inclusions gives the isomorphism (see decompose_iso).  Each module is
    split, or proved indecomposable, by _split_or_prove_local.
    """
    if m.is_zero():
        return []
    e, _ = _split_or_prove_local(m)
    if e is None:
        return [(m, ModuleMap.identity(m))]
    result = []
    for part_map in (e, ModuleMap.identity(m) - e):
        bases = [column_space_basis(mat) for mat in part_map.mats]
        part, incl = submodule(m, bases)
        for piece, piece_incl in decompose(part):
            result.append((piece, incl @ piece_incl))
    return result


def decompose_iso(m: Module, parts: list[tuple[Module, ModuleMap]]) -> ModuleMap:
    """The isomorphism (direct sum of parts) -> m whose blocks are the inclusions."""
    total = direct_sum([p for p, _ in parts])[0] if parts else Module.zero(m.algebra)
    f = block_map(total, m, [[incl for _, incl in parts]])
    if not f.is_isomorphism():
        raise RepmodError("decompose produced a non-isomorphism")
    return f


@memo(lambda m, n: (m.key(), n.key()), owner=_algebra, store="iso_cache")
def is_isomorphic(m: Module, n: Module) -> ModuleMap | None:
    """An isomorphism m -> n if one exists, else None.

    Quick invariants (dimension vectors, hom dimensions) are checked first,
    then the Hom(m, n) basis for an isomorphism.  When none is one and m or
    n is indecomposable, there is none: an isomorphism identifies Hom(m, n)
    with End(m), whose non-units form a proper subspace.  Two decomposable
    modules are matched summand by summand (Krull-Schmidt).
    """
    if m.dims != n.dims:
        return None
    if m.is_zero():
        return ModuleMap.zero_map(m, n)
    homs = hom_basis(m, n)
    if not homs:
        return None
    if len(hom_basis(n, m)) != len(homs) or len(hom_basis(m, m)) != len(hom_basis(n, n)):
        return None
    for f in homs:
        if f.is_isomorphism():
            return f
    if len(decompose(m)) == 1 or len(decompose(n)) == 1:
        return None
    return _match_summands(m, n)


def _match_summands(m: Module, n: Module) -> ModuleMap | None:
    """An isomorphism m -> n, for m and n of one dimension vector, that sends
    each summand of decompose(m) onto an isomorphic summand of decompose(n),
    else None."""
    parts_m, parts_n = decompose(m), decompose(n)
    unmatched = list(range(len(parts_n)))
    blocks = [[ModuleMap.zero_map(a, b) for a, _ in parts_m] for b, _ in parts_n]
    for s, (a, _) in enumerate(parts_m):
        k = find_isomorphic(a, [parts_n[t][0] for t in unmatched])
        if k is None:
            return None
        t = unmatched.pop(k)
        blocks[t][s] = is_isomorphic(a, parts_n[t][0])
    to_m, to_n = decompose_iso(m, parts_m), decompose_iso(n, parts_n)
    return to_n @ block_map(to_m.source, to_n.source, blocks) @ inverse_map(to_m)


def find_isomorphic(m: Module, modules: Sequence[Module]) -> int | None:
    """The first position in modules of a module isomorphic to m, else None;
    only modules with m's dimension vector are searched."""
    for i, n in enumerate(modules):
        if n.dims == m.dims and is_isomorphic(m, n) is not None:
            return i
    return None


# -- standard modules ---------------------------------------------------------


def projective_module(a: Algebra, v: int) -> Module:
    """The indecomposable projective e_v A."""
    return std_projective(a, (v,)).module


def simple_module(a: Algebra, v: int) -> Module:
    dims = [1 if w == v else 0 for w in range(a.nv)]
    return Module(a, dims, {})


def dual_module(n: Module) -> Module:
    """The linear dual, a module over the opposite algebra."""
    aop = n.algebra.opposite()
    act = {b: n.act[b].transpose() for b in n.algebra.radical_indices}
    return Module(aop, n.dims, act)


def injective_module(a: Algebra, v: int) -> Module:
    return dual_module(projective_module(a.opposite(), v))


@dataclass
class StandardModules:
    simples: list[Module]
    projectives: list[Module]
    injectives: list[Module]


@memo()
def standard_modules(a: Algebra) -> StandardModules:
    return StandardModules(
        [simple_module(a, v) for v in range(a.nv)],
        [projective_module(a, v) for v in range(a.nv)],
        [injective_module(a, v) for v in range(a.nv)],
    )


# -- standard projectives with generator bookkeeping --------------------------


@dataclass
class StdProjective:
    """A direct sum of indecomposable projectives e_v A with slot bookkeeping.

    block_index[(t, b)] gives, for slot t and algebra basis element b with
    left tag verts[t], the row of the corresponding module basis vector inside
    component right[b].
    """

    module: Module
    verts: tuple[int, ...]
    block_index: dict


@memo(lambda a, verts: tuple(int(v) for v in verts), owner=lambda a, verts: a)
def std_projective(a: Algebra, verts) -> StdProjective:
    """The standard projective on verts, remembered per vertex tuple; callers
    must not mutate it."""
    verts = tuple(int(v) for v in verts)
    per_vertex_basis: dict[int, list[tuple[int, int]]] = {w: [] for w in range(a.nv)}
    for t, v in enumerate(verts):
        for b in range(a.dim):
            if a.left[b] == v:
                per_vertex_basis[a.right[b]].append((t, b))
    dims = [len(per_vertex_basis[w]) for w in range(a.nv)]
    index = {}
    for w in range(a.nv):
        for row, (t, b) in enumerate(per_vertex_basis[w]):
            index[(t, b)] = row
    act = {}
    for c in a.radical_indices:
        l, r = a.left[c], a.right[c]
        mat = np.zeros((dims[r], dims[l]), dtype=np.int64)
        for col, (t, b) in enumerate(per_vertex_basis[l]):
            prod = a.mult[b, c]
            for k in np.nonzero(prod)[0]:
                mat[index[(t, int(k))], col] = prod[k]
        act[c] = Matrix(a.field, mat)
    return StdProjective(Module(a, dims, act), verts, index)


def coeffs_of_std_map(f: ModuleMap, src: StdProjective, tgt: StdProjective) -> np.ndarray:
    """The algebra-element coefficient matrix of a map between standard projectives.

    coeffs[t, s] is the element x_ts in e_{tgt.verts[t]} A e_{src.verts[s]}
    with f(gen_s) = sum_t gen_t * x_ts.
    """
    a = f.source.algebra
    coeffs = np.zeros((len(tgt.verts), len(src.verts), a.dim), dtype=np.int64)
    for s, v in enumerate(src.verts):
        col = src.block_index[(s, v)]
        img = f.mats[v].a[:, col] if f.mats[v].cols else np.zeros(0, dtype=np.int64)
        for (t, b), row in tgt.block_index.items():
            if a.right[b] == v:
                coeffs[t, s, b] = img[row]
    return coeffs


def std_map_from_coeffs(src: StdProjective, tgt: StdProjective, coeffs: np.ndarray) -> ModuleMap:
    """The map sending gen_s to sum_t gen_t * x_ts, coeffs as coeffs_of_std_map
    gives them: the image of gen_s is the vector of tgt at src.verts[s] whose
    entry at gen_t * b is coeffs[t, s, b]."""
    a = src.module.algebra
    images = [np.zeros(tgt.module.dims[v], dtype=np.int64) for v in src.verts]
    for (t, b), row in tgt.block_index.items():
        for s, v in enumerate(src.verts):
            if a.right[b] == v:
                images[s][row] = coeffs[t, s, b]
    return map_from_generators(src, tgt.module, images)


def map_from_generators(sp: StdProjective, target: Module, images) -> ModuleMap:
    """The map sp -> target sending generator t to images[t], a vector of
    target at vertex sp.verts[t]: by Yoneda, gen_t * b goes to images[t]
    acted on by b."""
    alg = target.algebra
    mats = [np.zeros((target.dims[w], sp.module.dims[w]), dtype=np.int64) for w in range(alg.nv)]
    for (t, b), col in sp.block_index.items():
        mats[alg.right[b]][:, col] = images[t] if b < alg.nv else target.act[b].a @ images[t]
    return ModuleMap(sp.module, target, [Matrix(alg.field, mat) for mat in mats])


def lift_from_projective(sp: StdProjective, f: ModuleMap, p: ModuleMap) -> ModuleMap:
    """A map lam: sp -> p.source with p o lam = f, for f a map out of the
    standard projective sp: generator t goes to a solution x of
    p_v x = f(gen_t), v = sp.verts[t].  Raises when some f(gen_t) has none."""
    images = []
    for t, v in enumerate(sp.verts):
        x = solve_right(p.mats[v], f.mats[v].take_columns([sp.block_index[(t, v)]]))
        if x is None:
            raise RepmodError("map does not lift through the epi")
        images.append(x.a[:, 0])
    return map_from_generators(sp, p.source, images)


@dataclass(frozen=True)
class StdMapTerms:
    """A map d: Q1 -> Q0 between standard projectives on the vertices
    src_verts and tgt_verts, by its nonzero coefficients: d(gen_s) is the sum
    of gen_t * c b over its terms (s, t, b, c)."""

    src_verts: tuple[int, ...]
    tgt_verts: tuple[int, ...]
    terms: tuple[tuple[int, int, int, int], ...]

    @classmethod
    def of(cls, f: ModuleMap, src: StdProjective, tgt: StdProjective) -> "StdMapTerms":
        coeffs = coeffs_of_std_map(f, src, tgt)
        terms = tuple((int(s), int(t), int(b), int(coeffs[t, s, b])) for t, s, b in zip(*np.nonzero(coeffs)))
        return cls(src.verts, tgt.verts, terms)


def hom_of_std_map(d: StdMapTerms, n: Module) -> Matrix:
    """The matrix of Hom(d, n): Hom(Q0, n) -> Hom(Q1, n), phi -> phi o d.

    Hom(e_v A, n) is n_v through phi -> phi(e_v), so the columns are the sum
    of n_v over Q0's vertices and the rows that over Q1's; as
    (phi o d)(gen_s) = sum_t phi(gen_t) x_ts, block (s, t) is the sum of
    x_ts[b] times the action of b on n.  Its kernel is Hom(coker d, n).
    """
    rows = [0, *itertools.accumulate(n.dims[u] for u in d.src_verts)]
    cols = [0, *itertools.accumulate(n.dims[v] for v in d.tgt_verts)]
    out = np.zeros((rows[-1], cols[-1]), dtype=np.int64)
    for s, t, b, c in d.terms:
        out[rows[s] : rows[s + 1], cols[t] : cols[t + 1]] += c * n.action(b).a
    return Matrix(n.algebra.field, out)


def dual_std_map(d: ModuleMap, p1: StdProjective, p0: StdProjective) -> ModuleMap:
    """The Hom(-, A)-dual of d: p1 -> p0, a map p0^ -> p1^ between the standard
    projectives on the same vertices over the opposite algebra."""
    aop = d.source.algebra.opposite()
    coeffs = np.swapaxes(coeffs_of_std_map(d, p1, p0), 0, 1)
    return std_map_from_coeffs(std_projective(aop, p0.verts), std_projective(aop, p1.verts), coeffs)


# -- projective covers, presentations, resolutions ----------------------------


def radical_submodule(m: Module) -> tuple[Module, ModuleMap]:
    """The submodule m * rad(A)."""
    alg = m.algebra
    bases = []
    for v in range(alg.nv):
        cols = [m.act[b] for b in alg.radical_indices if alg.right[b] == v and m.act[b].cols]
        if cols:
            stacked = hstack(alg.field, cols)
            bases.append(column_space_basis(stacked))
        else:
            bases.append(Matrix.zeros(alg.field, m.dims[v], 0))
    return submodule(m, bases)


def top_data(m: Module) -> tuple[list[int], list[Matrix]]:
    """Top dimension vector of m and lifted generators (columns per vertex)."""
    alg = m.algebra
    field = alg.field
    _, rad_incl = radical_submodule(m)
    tops, reps = [], []
    for v in range(alg.nv):
        extra = frame(rad_incl.mats[v], m.dims[v]).extra
        tops.append(len(extra))
        reps.append(Matrix(field, _unit_columns(m.dims[v], extra), reduced=True))
    return tops, reps


@memo(Module.key, owner=lambda m: m.algebra)
def projective_cover(m: Module) -> tuple[StdProjective, ModuleMap]:
    """The minimal surjection P ->> m from a standard projective."""
    alg = m.algebra
    tops, reps = top_data(m)
    verts = [v for v in range(alg.nv) for _ in range(tops[v])]
    sp = std_projective(alg, verts)
    cover = map_from_generators(sp, m, [gen for v in range(alg.nv) for gen in reps[v].a.T])
    if not cover.is_surjective():
        raise RepmodError("projective cover is not surjective")
    return sp, cover


@dataclass
class Presentation:
    """A minimal projective presentation P1 -> P0 -> m -> 0, with the first
    syzygy syz = ker(aug) it goes through: d = syz_incl o (cover of syz)."""

    p1: StdProjective
    p0: StdProjective
    d: ModuleMap
    aug: ModuleMap
    syz: Module
    syz_incl: ModuleMap

    @property
    def module(self) -> Module:
        return self.aug.target


@memo(Module.key, owner=lambda m: m.algebra)
def minimal_presentation(m: Module) -> Presentation:
    p0, cover = projective_cover(m)
    syz, incl = kernel(cover)
    p1, cover1 = projective_cover(syz)
    return Presentation(p1, p0, incl @ cover1, cover, syz, incl)


def dual_presentation(m: Module) -> ModuleMap:
    """The Hom(-, A)-dual P0^ -> P1^ of the minimal presentation of m, over
    the opposite algebra: its cokernel is the transpose of m, its kernel
    m^* = Hom(m, A)."""
    pres = minimal_presentation(m)
    return dual_std_map(pres.d, pres.p1, pres.p0)


@memo(lambda m, length: (m.key(), length), owner=lambda m, length: m.algebra)
def minimal_resolution(m: Module, length: int) -> tuple[list[StdProjective], list[ModuleMap], ModuleMap]:
    """Minimal projective resolution P_length -> ... -> P_0 -> m -> 0.

    Returns (projectives, differentials d_k: P_k -> P_{k-1} for k >= 1, aug).
    d_k is the presentation map of the (k-1)-st syzygy, so every length
    shares the memoized presentations.  Trailing zero projectives appear once
    the resolution has terminated.
    """
    chain = [minimal_presentation(m)]
    while len(chain) < length:
        chain.append(minimal_presentation(chain[-1].syz))
    first, chain = chain[0], chain[:length]
    return [first.p0] + [pres.p1 for pres in chain], [pres.d for pres in chain], first.aug


def ext_dim(i: int, m: Module, n: Module) -> int:
    """dim Ext^i(m, n), from a minimal projective resolution of m."""
    if i < 0:
        raise RepmodError("ext_dim: negative degree")
    if i == 0:
        return hom_dim(m, n)
    projs, diffs, _ = minimal_resolution(m, i + 1)
    # the matrices of Hom(P_{k-1}, n) -> Hom(P_k, n), phi -> phi o d_k, for k = i, i + 1
    mi, mi1 = (hom_of_std_map(StdMapTerms.of(diffs[k - 1], projs[k], projs[k - 1]), n) for k in (i, i + 1))
    return (mi1.cols - rank(mi1)) - rank(mi)


def proj_dim(m: Module, cutoff: int) -> int | None:
    """Projective dimension of m; None means 'at least cutoff + 1'.  The
    syzygies are walked only until one vanishes, so the cost does not grow
    with the cutoff."""
    syz = m
    for k in range(cutoff + 1):
        syz = minimal_presentation(syz).syz
        if syz.is_zero():
            return k
    return None


@dataclass
class HomologicalDims:
    proj_dims: list[int | None]
    global_dimension: int | None
    dominant_dimension: int | None
    cutoff: int


def dominant_dimension(a: Algebra, cutoff: int) -> int | None:
    """Largest n <= cutoff with 0 -> P -> I_1 -> ... -> I_n, all I_k projective-injective.

    Computed through the duality D: the minimal injective coresolution of P is
    the dual of the minimal projective resolution of D(P) over the opposite
    algebra.  Returns None for 'at least cutoff'.
    """
    std = standard_modules(a)
    inj_is_proj = [find_isomorphic(iv, std.projectives) is not None for iv in std.injectives]
    best: int | None = None
    for v in range(a.nv):
        dp = dual_module(std.projectives[v])
        projs, _, _ = minimal_resolution(dp, cutoff)
        steps = 0
        for k in range(cutoff):
            qk = projs[k]
            if qk.module.is_zero():
                steps = None  # coresolution has ended: infinitely many zero steps
                break
            if all(inj_is_proj[w] for w in qk.verts):
                steps += 1
            else:
                break
        if steps is None:
            continue
        best = steps if best is None else min(best, steps)
    return best


def homological_dims(a: Algebra, cutoff: int, index: "IndecIndex | None" = None) -> HomologicalDims:
    std = standard_modules(a)
    simple_pds = [proj_dim(s, cutoff) for s in std.simples]
    gldim: int | None
    if any(pd is None for pd in simple_pds):
        gldim = None
    else:
        gldim = max(simple_pds) if simple_pds else 0
    per_indec: list[int | None] = []
    if index is not None:
        per_indec = [proj_dim(m, cutoff) for m in index.modules]
    return HomologicalDims(per_indec, gldim, dominant_dimension(a, cutoff), cutoff)


# -- transpose and AR translate -----------------------------------------------


@memo(Module.key, owner=lambda m: m.algebra)
def transpose_module(m: Module) -> Module:
    """The Auslander-Bridger transpose, a module over the opposite algebra.

    Computed by applying Hom(-, A) to a minimal projective presentation; with
    minimal presentations the transpose of a projective is exactly zero.
    """
    return cokernel(dual_presentation(m))[0]


def ar_translate(z: Module) -> Module:
    """tau(z) = D Tr z."""
    return dual_module(transpose_module(z))


def ar_translate_inverse(m: Module) -> Module:
    """tau^{-1}(m) = Tr D m."""
    return transpose_module(dual_module(m))


# -- Ext^1 classes with coordinates -------------------------------------------


class ExtSpace:
    """Ext^1(z, a) with explicit coordinates.

    Classes are coordinatised through the minimal cover 0 -> K -> P0 -> z -> 0:
    Ext^1(z, a) = Hom(K, a) / restriction of Hom(P0, a).  realize() builds the
    pushout extension of a representative; exactstruct.componentwise_classes
    recovers the coordinates of a sequence by lifting the cover through its
    deflation.
    """

    def __init__(self, z: Module, a: Module):
        self.alg = _algebra(z, a)
        self.z = z
        self.a = a
        pres = minimal_presentation(z)
        self.p0, self.cover, self.syz, self.syz_incl = pres.p0, pres.aug, pres.syz, pres.syz_incl
        self.hom_k = hom_basis(self.syz, a)
        restrictions = [psi @ self.syz_incl for psi in hom_basis(self.p0.module, a)]
        restricted = hom_coords(self.alg.field, restrictions, self.hom_k)
        r, pivots = rref(restricted.transpose())
        self.reduced_rows = r.a[: len(pivots)]
        self.pivots = pivots
        self.free = [c for c in range(len(self.hom_k)) if c not in pivots]
        self.dim = len(self.free)

    def coords_of_homs(self, phis: list[ModuleMap]) -> Matrix:
        """Class coordinates of maps syz -> a, one column per map: their Hom
        coordinates reduced modulo the restricted rows, at the free columns.
        The rows are in reduced echelon form, so the reduction subtracts each
        pivot entry times its row."""
        full = hom_coords(self.alg.field, phis, self.hom_k).a
        return Matrix(self.alg.field, full[self.free] - self.reduced_rows[:, self.free].T @ full[self.pivots])

    def lift(self, coords) -> ModuleMap:
        coords = np.asarray(coords, dtype=np.int64).reshape(-1)
        full = np.zeros(len(self.hom_k), dtype=np.int64)
        for c, f in zip(coords, self.free):
            full[f] = c
        return hom_from_coords(full, self.hom_k, self.syz, self.a)

    def realize(self, coords) -> ShortExactSeq:
        """A short exact sequence 0 -> a -> E -> z -> 0 with the given class."""
        phi = self.lift(coords)
        total, injections, _ = direct_sum([self.a, self.p0.module])
        kappa = block_map(self.syz, total, [[phi.scale(self.alg.field.p - 1)], [self.syz_incl]])
        _, proj = cokernel(kappa)
        # the deflation E -> z is induced by (0, cover) on a + P0
        deflation = block_map(total, self.z, [[ModuleMap.zero_map(self.a, self.z), self.cover]])
        ses = ShortExactSeq(proj @ injections[0], descend(deflation, proj))
        ses.validate()
        return ses

    def pushout_matrix(self, other: "ExtSpace", g: ModuleMap) -> Matrix:
        """Matrix of the pushout action Ext^1(z, a) -> Ext^1(z, a') along g: a -> a'.
        The lift of the f-th unit vector is hom_k[free[f]]."""
        return other.coords_of_homs([g @ self.hom_k[f] for f in self.free])

    def pullback_matrix(self, other: "ExtSpace", h: ModuleMap) -> Matrix:
        """Matrix of the pullback action Ext^1(z, a) -> Ext^1(z', a) along h: z' -> z."""
        lam = lift_from_projective(other.p0, h @ other.cover, self.cover)
        kappa = factor_through_mono(lam @ other.syz_incl, self.syz_incl)
        return other.coords_of_homs([self.hom_k[f] @ kappa for f in self.free])


@memo(lambda z, a: (z.key(), a.key()), owner=_algebra)
def ext_space(z: Module, a: Module) -> "ExtSpace":
    """Cached ExtSpace(z, a)."""
    return ExtSpace(z, a)


def inverse_map(f: ModuleMap) -> ModuleMap:
    """The inverse of an isomorphism."""
    return ModuleMap(f.target, f.source, [inverse(m) for m in f.mats])


def factor_through_mono(f: ModuleMap, mono: ModuleMap) -> ModuleMap:
    """The unique g with mono o g = f; raises unless f lands in the image of mono."""
    mats = [solve_right(mv, fv) for fv, mv in zip(f.mats, mono.mats)]
    if any(x is None for x in mats):
        raise RepmodError("map does not factor through the mono")
    return ModuleMap(f.source, mono.source, mats)


def descend(f: ModuleMap, epi: ModuleMap) -> ModuleMap:
    """The unique g with g o epi = f; raises unless f vanishes on the kernel of epi."""
    mats = []
    for ev, fv in zip(epi.mats, f.mats):
        sol = solve_right(ev.transpose(), fv.transpose())
        if sol is None:
            raise RepmodError("map does not descend along the epi")
        mats.append(sol.transpose())
    return ModuleMap(epi.target, f.target, mats)


# -- almost split sequences ----------------------------------------------------


def is_almost_split(ses: ShortExactSeq, index: "IndecIndex") -> bool:
    """The defining test: non-split, and every non-retraction from an
    indecomposable of the index lifts through the deflation."""
    z = ses.quot
    # split: id_z is p o h for some h: z -> E
    try:
        hom_coords(z.algebra.field, [ModuleMap.identity(z)], [ses.p @ h for h in hom_basis(z, ses.mid)])
        return False
    except RepmodError:
        pass
    z_id = index.identify(z)
    for w_id, w in enumerate(index.modules):
        homs = hom_basis(w, z)
        if not homs:
            continue
        if w_id == z_id:
            u = is_isomorphic(w, z)
            required = [u @ r for r in _local_residue(w)]
        else:
            required = homs
        images = [ses.p @ h for h in hom_basis(w, ses.mid)]
        try:
            hom_coords(z.algebra.field, required, images)
        except RepmodError:
            return False
    return True


@memo(Module.key, owner=lambda z: z.algebra)
def ar_candidate(z: Module) -> ShortExactSeq:
    """An almost-split candidate ending at z: realize a socle class of Ext^1(z, tau z).

    The socle is taken with respect to the right action of rad End(z) by
    pullback; for split algebras every nonzero socle class is almost split.
    Validation against the full indecomposable list happens separately.
    """
    tz = ar_translate(z)
    ext = ext_space(z, tz)
    if ext.dim == 0:
        raise RepmodError("Ext^1(z, tau z) = 0; no almost split sequence")
    field = z.algebra.field
    rad = _local_residue(z)
    stacked = [ext.pullback_matrix(ext, r) for r in rad]
    if stacked:
        socle = kernel_basis(vstack(field, stacked))
    else:
        socle = Matrix.identity(field, ext.dim)
    if socle.cols == 0:
        raise RepmodError("socle of Ext^1(z, tau z) is zero")
    return ext.realize(socle.a[:, 0])


@memo(lambda z, index: index.identify(z), owner=lambda z, index: index)
def ar_sequence(z: Module, index: "IndecIndex") -> ShortExactSeq:
    """The almost split sequence 0 -> tau z -> E -> z -> 0, validated by definition.

    z must be indecomposable and non-projective.  Every almost split class
    lies in the socle of Ext^1(z, tau z), the common kernel of the pullbacks
    along rad End(z), and the candidate realizes a nonzero socle vector; so
    when the candidate fails validation no other class can pass, and this
    raises.
    """
    z_id = index.identify(z)
    if z_id is None:
        raise RepmodError("ar_sequence: z is not in the indecomposable index")
    if index.is_projective[z_id]:
        raise RepmodError("ar_sequence: z is projective")
    candidate = ar_candidate(z)
    if not is_almost_split(candidate, index):
        raise RepmodError("no almost split sequence found (is the list complete?)")
    return candidate


# -- the indecomposable index ---------------------------------------------------


class Mesh(NamedTuple):
    """The AR quiver at one member: the id of its translate (None when it is
    projective) and the sorted ids, with multiplicity, of the arrows into it."""

    tau: int | None
    arrows: tuple[int, ...]


class IndecIndex:
    """All indecomposables of a representation-finite algebra, with stable ids."""

    def __init__(self, algebra: Algebra, modules: list[Module]):
        self.algebra = algebra
        self.modules = modules
        self._id_by_key = {m.key(): i for i, m in enumerate(modules)}
        self._dimvecs = np.array([m.dims for m in modules], dtype=np.int64).reshape(len(modules), algebra.nv)
        std = standard_modules(algebra)
        self.is_projective = [find_isomorphic(m, std.projectives) is not None for m in modules]
        self.is_injective = [find_isomorphic(m, std.injectives) is not None for m in modules]
        self.is_simple = [find_isomorphic(m, std.simples) is not None for m in modules]

    def identify(self, m: Module) -> int | None:
        hit = self._id_by_key.get(m.key())
        return hit if hit is not None else find_isomorphic(m, self.modules)

    def parts(self, m: Module) -> list[int]:
        """Iso classes (with multiplicity) of the summands of m, as a new list."""
        return list(self._parts(m))

    @memo(lambda self, m: m.key())
    def _parts(self, m: Module) -> tuple[int, ...]:
        """Iso classes (with multiplicity) of the summands of m.

        Counted, not split.  The simple functor S_X at a member X has the
        projective resolution (-, tau X) -> (-, E) -> (-, X) -> S_X -> 0 from
        the almost split sequence ending at X, or (-, rad X) -> (-, X) -> S_X
        -> 0 for X projective.  Evaluated at m it gives
        dim S_X(m) = mult_X(m) * dim End(X)/rad End(X) = mult_X(m)
        (End(X)/rad End(X) = k for the summands decompose returns and for
        each e_v A) as a fixed integer combination of the h_j =
        dim Hom(m, X_j).  Equal dimension vectors then prove, by
        Krull-Schmidt, that m has no summand outside the index.

        Each h_j comes from the dual presentation, not from an intertwiner
        system: Hom(m, X_j) = Hom(DX_j, Dm) is the kernel of Hom(d_j, Dm) for
        the minimal presentation d_j: Q1 -> Q0 of DX_j over the opposite
        algebra, a matrix with sum_t m_{v_t} columns over the vertices of Q0.

        Only the rows of the candidates, the members whose dimension vector
        is at most dims(m), are evaluated, and only the h_j their rows touch:
        a summand of m has a dimension vector at most dims(m), so every other
        member has multiplicity zero.
        """
        candidates = np.flatnonzero((self._dimvecs <= np.array(m.dims, dtype=np.int64)).all(axis=1))
        rows = self._relations()[candidates]
        touched = np.flatnonzero(rows.any(axis=0))
        dm = dual_module(m)
        presentations = self._dual_presentations()
        homs = [hom_of_std_map(presentations[j], dm) for j in touched]
        h = np.array([mat.cols - rank(mat) for mat in homs], dtype=np.int64)
        mult = rows[:, touched] @ h
        if (mult < 0).any() or tuple(int(d) for d in mult @ self._dimvecs[candidates]) != m.dims:
            raise RepmodError("module has a summand outside the index")
        return tuple(int(i) for i, k in zip(candidates, mult) for _ in range(k))

    @memo()
    def ar_quiver(self) -> list[Mesh]:
        """The mesh at each member X_i: the id of tau X_i and the arrows into
        X_i, from the almost split sequence ending at X_i, or from rad X_i for
        X_i projective."""
        meshes = []
        for x, projective in zip(self.modules, self.is_projective):
            if projective:
                tau, middle = None, radical_submodule(x)[0]
            else:
                ses = ar_sequence(x, self)
                tau, middle = self._member(ses.sub), ses.mid
            meshes.append(Mesh(tau, tuple(sorted(self._member(part) for part, _ in decompose(middle)))))
        return meshes

    @memo()
    def _relations(self) -> np.ndarray:
        """Row i gives dim S_{X_i}(m) from the h_j: e_i - [E_i] + [tau X_i] for the
        almost split sequence ending at X_i, e_i - [rad X_i] for X_i projective."""
        rows = np.eye(len(self.modules), dtype=np.int64)
        for i, mesh in enumerate(self.ar_quiver()):
            if mesh.tau is not None:
                rows[i, mesh.tau] += 1
            for j in mesh.arrows:
                rows[i, j] -= 1
        return rows

    @memo()
    def _dual_presentations(self) -> list[StdMapTerms]:
        """The minimal presentation of DX over the opposite algebra, for each
        member X."""
        out = []
        for x in self.modules:
            pres = minimal_presentation(dual_module(x))
            out.append(StdMapTerms.of(pres.d, pres.p1, pres.p0))
        return out

    def _member(self, m: Module) -> int:
        i = self.identify(m)
        if i is None:
            raise RepmodError("module has a summand outside the index")
        return i


@memo(lambda a, dim_cap, cap_name="dim_cap": dim_cap)
def all_indecomposables(a: Algebra, dim_cap: int, cap_name: str = "dim_cap") -> IndecIndex:
    """Enumerate the indecomposables by knitting from the projectives.

    The closure adds, for each known indecomposable: the summands of rad P for
    projectives, of I/soc for injectives, the AR translate and the middle of
    the almost split sequence for non-projectives, and the inverse translate
    for non-injectives.  The result is validated by running the definitional
    almost-split test for every non-projective member.  Raises CapExceeded,
    naming the cap by cap_name, if a module above the dimension cap shows up.
    """
    std = standard_modules(a)
    known: list[Module] = []

    def add(m: Module) -> None:
        if m.is_zero():
            return
        if m.total_dim > dim_cap:
            raise CapExceeded(
                f"indecomposable of dimension {m.total_dim} exceeds {cap_name}={dim_cap}"
            )
        if find_isomorphic(m, known) is None:
            known.append(m)

    for pv in std.projectives:
        add(pv)
    # known grows while it is walked, so each member is processed once
    for m in known:
        proj = find_isomorphic(m, std.projectives) is not None
        inj = find_isomorphic(m, std.injectives) is not None
        if proj:
            radm, _ = radical_submodule(m)
            for part, _ in decompose(radm):
                add(part)
        if inj:
            radop, _ = radical_submodule(dual_module(m))
            for part, _ in decompose(dual_module(radop)):
                add(part)
        if not proj:
            for part, _ in decompose(ar_translate(m)):
                add(part)
            ses = ar_candidate(m)
            for part, _ in decompose(ses.mid):
                add(part)
        if not inj:
            for part, _ in decompose(ar_translate_inverse(m)):
                add(part)

    index = IndecIndex(a, known)
    index.ar_quiver()  # validation: an almost split sequence at every non-projective member
    return index


def brute_force_indecomposables(a: Algebra, dim_cap: int, guard: int = 300000) -> list[Module]:
    """Independent oracle: every indecomposable of total dimension <= dim_cap.

    Enumerates, for every possible top, the radical submodules of the matching
    projective cover whose quotient stays under the cap, and decomposes the
    quotients.  Independent of the knitting path (no AR theory involved).
    """
    found: list[Module] = []

    def add(m):
        for cand in found:
            if cand.dims == m.dims and is_isomorphic(cand, m) is not None:
                return
        found.append(m)

    work = 0
    tops = [t for t in itertools.product(range(dim_cap + 1), repeat=a.nv) if 0 < sum(t) <= dim_cap]
    for top in tops:
        verts = [v for v in range(a.nv) for _ in range(top[v])]
        sp = std_projective(a, verts)
        radp, rad_incl = radical_submodule(sp.module)
        budget = dim_cap - sum(top)
        for codim in range(budget + 1):
            for split in _compositions(codim, [radp.dims[v] for v in range(a.nv)]):
                count = 1
                for v in range(a.nv):
                    count *= count_subspaces(a.field.p, radp.dims[v], radp.dims[v] - split[v])
                work += count
                if work > guard:
                    raise CapExceeded(f"brute-force enumeration exceeds guard={guard}")
                for bases in _subspace_tuples(a.field, radp.dims, split):
                    if not _action_closed(radp, bases):
                        continue
                    in_p = [rad_incl.mats[v] @ bases[v] for v in range(a.nv)]
                    quot, _ = quotient(sp.module, in_p)
                    for part, _ in decompose(quot):
                        add(part)
    found.sort(key=lambda m: (m.total_dim, m.dims, m.key()))
    return found


def _compositions(total, caps):
    if not caps:
        if total == 0:
            yield ()
        return
    for first in range(min(total, caps[0]) + 1):
        for rest in _compositions(total - first, caps[1:]):
            yield (first,) + rest


def _subspace_tuples(field, dims, codims):
    gens = [list(iterate_subspaces(field, dims[v], dims[v] - codims[v])) for v in range(len(dims))]
    return itertools.product(*gens)


def _action_closed(m: Module, bases) -> bool:
    alg = m.algebra
    for b in alg.radical_indices:
        l, r = alg.left[b], alg.right[b]
        if solve_right(bases[r], m.act[b] @ bases[l]) is None:
            return False
    return True
