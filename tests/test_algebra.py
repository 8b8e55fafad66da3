import numpy as np
import pytest

from exactcat.algebra import (
    Algebra,
    AlgebraError,
    QuiverPresentation,
    algebra_dual_numbers,
    algebra_kA2,
    algebra_kA3,
    algebra_semisimple,
    build_from_quiver,
    radical_basis,
    validate_algebra,
)
from exactcat.linalg import FieldPrime

GF2 = FieldPrime(2)
GF5 = FieldPrime(5)


def test_kA2_dimension_and_basis():
    a = algebra_kA2(GF2)
    assert a.dim == 3
    assert a.nv == 2
    assert a.labels == ("e_1", "e_2", "a")
    assert validate_algebra(a).ok


def test_dual_numbers():
    a = algebra_dual_numbers(GF5)
    assert a.dim == 2
    assert a.radical_basis_labels() == ["x"]
    # x * x = 0
    assert not a.mult[1, 1].any()
    assert validate_algebra(a).ok


def test_kA3_with_relation_dimension():
    # irreducible paths: 3 vertices + 2 arrows (the composite is killed)
    a = algebra_kA3(GF2, zero_relation=True)
    assert a.dim == 5
    assert validate_algebra(a).ok
    b = algebra_kA3(GF2, zero_relation=False)
    assert b.dim == 6  # the length-2 path survives


def test_cap_exceeded_for_free_loop():
    q = QuiverPresentation(GF2, ["1"], [("x", "1", "1")], [], path_length_cap=3)
    with pytest.raises(AlgebraError, match="path_length_cap"):
        build_from_quiver(q)


def test_non_admissible_relation_rejected():
    q = QuiverPresentation(GF2, ["1"], [("x", "1", "1")], [[(1, ("x",))]], path_length_cap=2)
    with pytest.raises(AlgebraError, match="non-admissible"):
        build_from_quiver(q)


def test_non_parallel_relation_rejected():
    q = QuiverPresentation(
        GF2,
        ["1", "2", "3"],
        [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "2")],
        [[(1, ("a", "b")), (1, ("c",) * 2)]],
        path_length_cap=3,
    )
    with pytest.raises(AlgebraError):
        build_from_quiver(q)


def test_commutative_square_confluent():
    # two paths around a square identified: a confluent non-monomial relation
    q = QuiverPresentation(
        GF5,
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")],
        [[(1, ("a", "b")), (-1, ("c", "d"))]],
        path_length_cap=2,
    )
    a = build_from_quiver(q)
    # 4 vertices + 4 arrows + one surviving length-2 path
    assert a.dim == 9
    assert validate_algebra(a).ok


def test_validate_catches_broken_idempotent():
    a = algebra_kA2(GF2)
    mult = np.array(a.mult, dtype=np.int64)
    mult[0, 0] = 0
    mult[0, 0, 1] = 1  # e1*e1 = e2
    broken = Algebra(a.field, a.nv, a.labels, a.left, a.right, mult)
    report = validate_algebra(broken)
    assert not report.ok
    assert any(not i.ok for i in report.items if "idempotent" in i.label or "grading" in i.label)


def test_opposite_involution_and_validation():
    for a in (algebra_kA2(GF2), algebra_kA3(GF5, True), algebra_dual_numbers(GF2)):
        op = a.opposite()
        assert validate_algebra(op).ok
        back = op.opposite()
        assert back.labels == a.labels
        assert np.array_equal(back.mult, a.mult)
        assert back.left == a.left and back.right == a.right


def test_opposite_commutative_is_same_table():
    a = algebra_dual_numbers(GF5)
    op = a.opposite()
    assert np.array_equal(op.mult, a.mult)


def test_opposite_kA2_swaps_arrow_endpoints():
    a = algebra_kA2(GF2)
    op = a.opposite()
    arrow = a.labels.index("a")
    assert (op.left[arrow], op.right[arrow]) == (a.right[arrow], a.left[arrow])


def test_radical_basis():
    assert radical_basis(algebra_semisimple(GF2, 3)) == []
    assert radical_basis(algebra_dual_numbers(GF2)) == ["x"]
    assert radical_basis(algebra_kA3(GF5, True)) == ["a", "b"]


def test_quiver_structure_constants_monomial():
    # for monomial-relation quivers every product of basis paths is a path or zero
    for a in (algebra_kA2(GF2), algebra_kA3(GF5, True), algebra_kA3(GF2, False)):
        for i in range(a.dim):
            for j in range(a.dim):
                assert int(np.count_nonzero(a.mult[i, j])) <= 1


def test_radical_basis_rejects_non_nilpotent():
    # a fake table where the "radical" element is idempotent: x*x = x
    a = algebra_dual_numbers(GF2)
    mult = np.array(a.mult, dtype=np.int64)
    mult[1, 1] = 0
    mult[1, 1, 1] = 1
    broken = Algebra(a.field, a.nv, a.labels, a.left, a.right, mult)
    with pytest.raises(AlgebraError):
        radical_basis(broken)
