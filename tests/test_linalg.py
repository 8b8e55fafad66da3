import itertools

import numpy as np
import pytest

from exactcat.algebra import algebra_kA3
from exactcat.linalg import (
    FieldPrime,
    LinalgError,
    Matrix,
    count_subspaces,
    inverse,
    is_invertible,
    iterate_subspaces,
    kernel_basis,
    random_matrix,
    rank,
    rref,
    solve_right,
)
from exactcat.repmod import _hom_system, direct_sum, standard_modules

GF2 = FieldPrime(2)
GF3 = FieldPrime(3)
GF5 = FieldPrime(5)


def naive_row_reduce(entries, p):
    """Independent fraction-free Gaussian elimination oracle.

    Works on plain python ints, clearing pivots by cross-multiplication and
    only normalising at the very end.  Shares no code with exactcat.linalg.
    """
    m = [[e % p for e in row] for row in entries]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pr = next((i for i in range(r, rows) if m[i][c] % p != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        for i in range(rows):
            if i != r and m[i][c] % p != 0:
                f, g = m[r][c], m[i][c]
                m[i] = [(f * m[i][j] - g * m[r][j]) % p for j in range(cols)]
        pivots.append(c)
        r += 1
    for i, c in enumerate(pivots):
        inv = pow(m[i][c], p - 2, p)
        m[i] = [(inv * x) % p for x in m[i]]
    return m, pivots


def test_fieldprime_rejects_composite():
    with pytest.raises(LinalgError):
        FieldPrime(4)
    with pytest.raises(LinalgError):
        FieldPrime(1)


def test_rref_identity_gf2():
    m = Matrix.identity(GF2, 2)
    r, pivots = rref(m)
    assert r == m
    assert pivots == [0, 1]


def test_rref_all_ones_gf2():
    m = Matrix(GF2, [[1, 1], [1, 1]])
    r, pivots = rref(m)
    assert r == Matrix(GF2, [[1, 1], [0, 0]])
    assert pivots == [0]


def _oracle_kernel(oracle, pivots, cols, p):
    """The standard kernel basis read off the oracle's reduced form."""
    free = [c for c in range(cols) if c not in pivots]
    k = [[0] * len(free) for _ in range(cols)]
    for j, f in enumerate(free):
        k[f][j] = 1
        for i, c in enumerate(pivots):
            k[c][j] = -oracle[i][f] % p
    return k


def _oracle_solution(a, b, p):
    """The solution solve_right reads off the oracle's reduced [a | b], or None."""
    cols = a.shape[1]
    reduced, pivots = naive_row_reduce(np.hstack([a, b]).tolist(), p)
    if any(c >= cols for c in pivots):
        return None
    x = [[0] * b.shape[1] for _ in range(cols)]
    for i, c in enumerate(pivots):
        x[c] = reduced[i][cols:]
    return x


def _sparse_hom_systems(field):
    """Intertwiner systems as hom_basis builds them: sparse kron-style blocks."""
    alg = algebra_kA3(field, zero_relation=False)
    std = standard_modules(alg)
    regular, _, _ = direct_sum(std.projectives)
    mods = [regular] + std.simples + std.projectives + std.injectives
    return [_hom_system(m, n)[0].a for m, n in itertools.product(mods, repeat=2)]


def _oracle_cases(field, rng):
    p = field.p
    cases = [rng.randint(0, p, size=(4, 5)) for _ in range(30)]
    for rows, cols in [(0, 0), (0, 4), (4, 0), (1, 1), (1, 7), (7, 1), (9, 3), (3, 9), (12, 12), (20, 6), (6, 20)]:
        cases.append(rng.randint(0, p, size=(rows, cols)))
        cases.append(np.zeros((rows, cols), dtype=np.int64))
        for k in range(min(rows, cols)):
            # rank at most k < min(rows, cols)
            cases.append(rng.randint(0, p, size=(rows, k)) @ rng.randint(0, p, size=(k, cols)))
    cases.append(np.eye(6, dtype=np.int64) * (p - 1))
    return cases + _sparse_hom_systems(field)


@pytest.mark.parametrize("field", [GF2, GF5, FieldPrime(65521)], ids=["GF2", "GF5", "GF65521"])
def test_rref_matches_naive_oracle(field):
    p = field.p
    rng = np.random.RandomState(7)
    for data in _oracle_cases(field, rng):
        data = np.asarray(data, dtype=np.int64) % p
        rows, cols = data.shape
        m = Matrix(field, data)
        r, pivots = rref(m)
        oracle, oracle_pivots = naive_row_reduce(data.tolist(), p)
        assert pivots == oracle_pivots
        assert all(type(c) is int for c in pivots) and pivots == sorted(set(pivots))
        assert r.a.shape == (rows, cols) and r.a.tolist() == oracle
        assert r.a.dtype == np.int64 and not r.a.flags.writeable
        assert ((r.a >= 0) & (r.a < p)).all()
        assert rank(m) == len(oracle_pivots)
        assert kernel_basis(m).a.tolist() == _oracle_kernel(oracle, oracle_pivots, cols, p)
        # one consistent right-hand side, and one that usually is not
        for b in (data @ rng.randint(0, p, size=(cols, 2)) % p, rng.randint(0, p, size=(rows, 2))):
            x = solve_right(m, Matrix(field, b))
            expected = _oracle_solution(data, b, p)
            assert (x is None) == (expected is None)
            if x is not None:
                assert x.a.tolist() == expected


def test_rref_idempotent():
    rng = np.random.RandomState(3)
    for field in (GF2, GF5):
        for _ in range(20):
            m = random_matrix(field, 5, 4, rng)
            r, _ = rref(m)
            assert rref(r)[0] == r


def test_rank_examples():
    assert rank(Matrix.zeros(GF3, 3, 3)) == 0
    assert rank(Matrix.identity(GF5, 4)) == 4
    # [[1,2],[2,4]] has zero determinant over GF(5): 1*4 - 2*2 = 0
    assert rank(Matrix(GF5, [[1, 2], [2, 4]])) == 1


def test_kernel_identity_and_zero():
    assert kernel_basis(Matrix.identity(GF2, 3)).cols == 0
    k = kernel_basis(Matrix.zeros(GF3, 2, 3))
    assert k.cols == 3
    assert rank(k) == 3


def test_kernel_row_vector_gf2_exhaustive():
    m = Matrix(GF2, [[1, 1]])
    k = kernel_basis(m)
    # exhaustive oracle over the 4 vectors of GF(2)^2
    null = [v for v in [(0, 0), (0, 1), (1, 0), (1, 1)] if (v[0] + v[1]) % 2 == 0]
    assert len(null) == 2  # including zero, so the kernel is 1-dimensional
    assert k.cols == 1
    assert k.a[:, 0].tolist() == [1, 1]


def test_solve_right_identity():
    b = Matrix(GF5, [[2], [3]])
    assert solve_right(Matrix.identity(GF5, 2), b) == b


def test_solve_right_inconsistent():
    a = Matrix(GF2, [[1, 0], [0, 0]])
    b = Matrix(GF2, [[0], [1]])
    assert solve_right(a, b) is None


def test_solve_right_residual_zero_gf3():
    rng = np.random.RandomState(11)
    for _ in range(25):
        a = random_matrix(GF3, 4, 3, rng)
        x0 = random_matrix(GF3, 3, 2, rng)
        b = a @ x0
        x = solve_right(a, b)
        assert x is not None
        assert (a @ x - b).is_zero()


def test_solve_right_shape_mismatch():
    with pytest.raises(LinalgError):
        solve_right(Matrix.zeros(GF2, 2, 2), Matrix.zeros(GF2, 3, 1))


def test_rank_nullity():
    rng = np.random.RandomState(5)
    for field in (GF2, GF5):
        for _ in range(40):
            m = random_matrix(field, rng.randint(0, 5), rng.randint(0, 5), rng)
            assert rank(m) + kernel_basis(m).cols == m.cols
            assert (m @ kernel_basis(m)).is_zero()


def test_inverse_round_trip():
    rng = np.random.RandomState(13)
    found = 0
    while found < 10:
        m = random_matrix(GF5, 3, 3, rng)
        if not is_invertible(m):
            continue
        found += 1
        assert m @ inverse(m) == Matrix.identity(GF5, 3)


def test_subspace_enumeration_counts():
    for p, dim, k in [(2, 3, 1), (2, 4, 2), (3, 3, 2), (5, 2, 1)]:
        field = FieldPrime(p)
        spaces = list(iterate_subspaces(field, dim, k))
        assert len(spaces) == count_subspaces(p, dim, k)
        keys = {s.key() for s in spaces}
        assert len(keys) == len(spaces)
        for s in spaces:
            assert rank(s) == k


def _kernel_basis_loop(m):
    """The per-free-column loop that kernel_basis replaced, kept as its reference."""
    r, pivots = rref(m)
    p = m.field.p
    cols = []
    for f in [c for c in range(m.cols) if c not in pivots]:
        v = np.zeros(m.cols, dtype=np.int64)
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-r.a[i, f]) % p
        cols.append(v)
    return Matrix(m.field, np.column_stack(cols) if cols else np.zeros((m.cols, 0), dtype=np.int64))


@pytest.mark.parametrize("field", [GF2, GF5], ids=["GF2", "GF5"])
def test_kernel_basis_matches_loop(field):
    rng = np.random.RandomState(11)
    shapes = [(0, 4), (4, 0), (0, 0), (1, 1), (3, 5), (5, 3), (6, 6), (2, 9)]
    for rows, cols in shapes:
        for k in range(min(rows, cols) + 1):
            for _ in range(5):
                # rank at most k, so the free columns vary
                m = random_matrix(field, rows, k, rng) @ random_matrix(field, k, cols, rng)
                assert kernel_basis(m) == _kernel_basis_loop(m)


def test_rref_of_empty_matrix():
    for rows, cols in [(0, 0), (0, 3), (3, 0)]:
        m = Matrix.zeros(GF5, rows, cols)
        r, pivots = rref(m)
        assert r == m and pivots == []
