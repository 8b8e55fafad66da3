"""Exact linear algebra over prime fields GF(p).

Everything downstream (modules, hom spaces, Ext groups, exact structures)
reduces to the operations in this module.  Matrices carry their field and are
immutable after construction; all arithmetic is done on reduced residues, so
comparisons are exact equality.  Row reduction runs on lists of Python ints
rather than numpy, because its inputs are tiny and sparse: per-call numpy
overhead would outweigh the arithmetic.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np


class ExactcatError(Exception):
    """Root of every exactcat error; the CLI exits with its exit_code."""

    exit_code = 1


class LinalgError(ExactcatError):
    pass


def memo(key=lambda *args, **kwargs: (), owner=lambda obj, *args, **kwargs: obj, store=None):
    """Decorator remembering a function's results on the object they belong to.

    Results live in a dict attribute of owner(*args, **kwargs) (by default the
    first argument) named store (by default "_<function name>_memo"), under
    key(*args, **kwargs) (by default one entry per owner).  The key must pin
    down everything the result depends on; a None result is remembered like
    any other.  The dict goes away with its owner, so nothing outlives a
    session.  wrapper.record(value, *args, **kwargs) stores a result that is
    known without calling the function.
    """

    def decorate(fn):
        name = store or f"_{fn.__name__}_memo"

        def cache(args, kwargs) -> dict:
            return vars(owner(*args, **kwargs)).setdefault(name, {})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            results = cache(args, kwargs)
            k = key(*args, **kwargs)
            if k in results:
                return results[k]
            value = results[k] = fn(*args, **kwargs)
            return value

        def record(value, *args, **kwargs):
            cache(args, kwargs)[key(*args, **kwargs)] = value

        wrapper.record = record
        return wrapper

    return decorate


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldPrime:
    """The prime field GF(p)."""

    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise LinalgError(f"{self.p} is not prime")


class Matrix:
    """A rows x cols matrix over GF(p), stored as reduced residues.

    Instances are immutable; operations return new matrices.  Vectors are
    columns (shape (n, 1)).  reduced=True wraps data as it is: the caller
    vouches that it is a fresh 2-dimensional int64 array owning its memory
    (no view), with entries in [0, p), as the output of rref, of a solve or
    of an operation after its one % p is; every other caller gets its data
    converted and reduced.
    """

    __slots__ = ("field", "a")

    def __init__(self, field: FieldPrime, data, *, reduced: bool = False):
        if reduced:
            arr = data
        else:
            arr = np.asarray(data, dtype=np.int64)
            if arr.ndim != 2:
                raise LinalgError(f"matrix data must be 2-dimensional, got shape {arr.shape}")
            arr = np.mod(arr, field.p)
        arr.setflags(write=False)
        self.field = field
        self.a = arr

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, field: FieldPrime, rows: int, cols: int) -> "Matrix":
        return cls(field, np.zeros((rows, cols), dtype=np.int64), reduced=True)

    @classmethod
    def identity(cls, field: FieldPrime, n: int) -> "Matrix":
        return cls(field, np.eye(n, dtype=np.int64), reduced=True)

    # -- basic properties ---------------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def is_zero(self) -> bool:
        return not self.a.any()

    def key(self) -> bytes:
        return self.a.shape[0].to_bytes(4, "little") + self.a.shape[1].to_bytes(4, "little") + self.a.tobytes()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.a.shape == other.a.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __repr__(self) -> str:
        return f"Matrix(GF({self.field.p}), {self.a.tolist()})"

    # -- arithmetic ---------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise LinalgError(f"shape mismatch in product: {self.a.shape} @ {other.a.shape}")
        return Matrix(self.field, self.a @ other.a % self.field.p, reduced=True)

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix(self.field, (self.a + other.a) % self.field.p, reduced=True)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix(self.field, (self.a - other.a) % self.field.p, reduced=True)

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, -self.a % self.field.p, reduced=True)

    def scale(self, c: int) -> "Matrix":
        return Matrix(self.field, self.a * (c % self.field.p) % self.field.p, reduced=True)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.a.T.copy(), reduced=True)

    def column(self, j: int) -> "Matrix":
        return Matrix(self.field, self.a[:, j : j + 1].copy(), reduced=True)

    def take_columns(self, indices) -> "Matrix":
        return Matrix(self.field, np.take(self.a, list(indices), axis=1), reduced=True)


def hstack(field: FieldPrime, mats) -> Matrix:
    mats = list(mats)
    if not mats:
        raise LinalgError("hstack of no matrices")
    return Matrix(field, np.concatenate([m.a for m in mats], axis=1), reduced=True)


def vstack(field: FieldPrime, mats) -> Matrix:
    mats = list(mats)
    if not mats:
        raise LinalgError("vstack of no matrices")
    return Matrix(field, np.concatenate([m.a for m in mats]), reduced=True)


def block_diag(field: FieldPrime, mats) -> Matrix:
    mats = list(mats)
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = np.zeros((rows, cols), dtype=np.int64)
    r = c = 0
    for m in mats:
        out[r : r + m.rows, c : c + m.cols] = m.a
        r += m.rows
        c += m.cols
    return Matrix(field, out, reduced=True)


# -- row reduction ----------------------------------------------------


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form of m together with its pivot columns."""
    if m.a.size == 0:
        return m, []
    p = m.field.p
    a = m.a.tolist()
    rows, cols = m.a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        for i in range(r, rows):
            if a[i][c]:
                break
        else:
            continue
        a[r], a[i] = a[i], a[r]
        # rows r and below are zero left of c, so scaling the pivot row and
        # subtracting it change only the columns from c on
        pivot_row = a[r]
        v = pivot_row[c]
        if v != 1:
            v = pow(v, p - 2, p)
            pivot_row[c:] = [x * v % p for x in pivot_row[c:]]
        tail = pivot_row[c:]
        for row in a:
            f = row[c]
            if f and row is not pivot_row:
                row[c:] = [(x - f * y) % p for x, y in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
    return Matrix(m.field, np.array(a, dtype=np.int64), reduced=True), pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Matrix, reduced: tuple[Matrix, list[int]] | None = None) -> Matrix:
    """Basis of the right null space of m, as columns.

    The basis is the standard one read off the reduced row echelon form (one
    column per free variable, in increasing column order), so it is
    deterministic in the input's column order.  reduced is rref(m), when the
    caller has it already.
    """
    r, pivots = reduced or rref(m)
    taken = set(pivots)
    free = [c for c in range(m.cols) if c not in taken]
    k = np.zeros((m.cols, len(free)), dtype=np.int64)
    for j, c in enumerate(free):
        k[c, j] = 1
    if pivots and free:
        k[pivots] = -r.a[: len(pivots), free] % m.field.p
    return Matrix(m.field, k, reduced=True)


def solve_right(a: Matrix, b: Matrix) -> Matrix | None:
    """One solution x of a @ x = b, or None when the system is inconsistent."""
    if a.rows != b.rows:
        raise LinalgError(f"solve_right: row mismatch {a.rows} vs {b.rows}")
    aug = Matrix(a.field, np.concatenate([a.a, b.a], axis=1), reduced=True)
    r, pivots = rref(aug)
    if any(c >= a.cols for c in pivots):
        return None
    x = np.zeros((a.cols, b.cols), dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = r.a[i, a.cols :]
    return Matrix(a.field, x, reduced=True)


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise LinalgError("inverse of non-square matrix")
    x = solve_right(m, Matrix.identity(m.field, m.rows))
    if x is None:
        raise LinalgError("matrix is singular")
    return x


def is_invertible(m: Matrix) -> bool:
    return m.rows == m.cols and rank(m) == m.rows


def column_space_basis(m: Matrix) -> Matrix:
    """Basis of the column space: the input columns at the rref pivot positions."""
    _, pivots = rref(m)
    return m.take_columns(pivots)


def row_space_contains(a: Matrix, b: Matrix) -> bool:
    """True when every row of b lies in the row space of a."""
    if b.rows == 0:
        return True
    return solve_right(a.transpose(), b.transpose()) is not None


def random_matrix(field: FieldPrime, rows: int, cols: int, rng) -> Matrix:
    return Matrix(field, rng.randint(0, field.p, size=(rows, cols)))


def iterate_subspaces(field: FieldPrime, dim: int, k: int):
    """Yield basis matrices (columns) of every k-dimensional subspace of GF(p)^dim.

    Subspaces are enumerated through their reduced-echelon basis (one matrix
    per subspace), in a fixed deterministic order.
    """
    if k < 0 or k > dim:
        return
    if k == 0:
        yield Matrix.zeros(field, dim, 0)
        return
    p = field.p
    for pivots in itertools.combinations(range(dim), k):
        free_positions = [
            (i, r)
            for i, pc in enumerate(pivots)
            for r in range(pc + 1, dim)
            if r not in pivots
        ]
        nfree = len(free_positions)
        for values in itertools.product(range(p), repeat=nfree):
            basis = np.zeros((dim, k), dtype=np.int64)
            for i, pc in enumerate(pivots):
                basis[pc, i] = 1
            for (i, r), val in zip(free_positions, values):
                basis[r, i] = val
            yield Matrix(field, basis)


def count_subspaces(p: int, dim: int, k: int) -> int:
    """Gaussian binomial coefficient: number of k-dim subspaces of GF(p)^dim."""
    if k < 0 or k > dim:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (dim - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def line_representative(vec, p: int) -> tuple[int, ...]:
    """The multiple of vec whose first nonzero coordinate is 1, the form of the
    coordinates subspace_lines walks; the zero vector stays zero."""
    coords = [int(c) % p for c in vec]
    inv = pow(next((c for c in coords if c), 1), -1, p)
    return tuple(c * inv % p for c in coords)


def subspace_lines(rows: Matrix, cap: int | None = None) -> tuple[list[np.ndarray], bool]:
    """The Ext^1 classes to walk in the row space of rows (a basis): one vector
    per line, c @ rows for the coordinates c whose first nonzero entry is 1 in
    lexicographic order, and True; beyond cap lines, the rows and their
    pairwise sums, a spanning set, and False.  The middle term of c*xi is that
    of xi, so walking lines meets every middle term that walking every element
    meets."""
    p = rows.field.p
    d = rows.rows
    if cap is not None and (p**d - 1) // (p - 1) > cap:
        sums = [(rows.a[i] + rows.a[j]) % p for i in range(d) for j in range(i + 1, d)]
        return list(rows.a) + sums, False
    coords = (
        np.array((0,) * lead + (1,) + tail, dtype=np.int64)
        for lead in range(d - 1, -1, -1)
        for tail in itertools.product(range(p), repeat=d - 1 - lead)
    )
    return [(c @ rows.a) % p for c in coords], True
