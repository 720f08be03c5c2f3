"""Exact linear algebra: elimination, nullspaces, solves, Gaussian rationals."""

import random
from fractions import Fraction

import numpy as np
import pytest

from kzmono.exact import (QQi, SRMatrix, ZZi, bareiss_echelon, commutator,
                          nullspace)


def random_fraction_matrix(rng, n, m, density=0.6):
    rows = []
    for _ in range(n):
        rows.append([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     if rng.random() < density else Fraction(0)
                     for _ in range(m)])
    return rows


def test_qqi_field_ops():
    a = QQi(Fraction(1, 2), Fraction(-3, 4))
    b = QQi(2, 1)
    assert a + b == QQi(Fraction(5, 2), Fraction(1, 4))
    assert a * b - b * a == QQi(0)
    assert (a / b) * b == a
    assert complex(QQi(1, 2)) == 1 + 2j
    # floats convert exactly
    z = QQi.from_complex(0.1 + 0.25j)
    assert z.im == Fraction(1, 4)
    assert float(z.re) == 0.1
    with pytest.raises(ZeroDivisionError):
        a / QQi(0)


def test_qqi_interops_with_fraction():
    a = QQi(1, 1)
    assert Fraction(1, 2) * a == QQi(Fraction(1, 2), Fraction(1, 2))
    assert a + Fraction(1) == QQi(2, 1)
    assert 1 - a == QQi(0, -1)


def test_srmatrix_matmul_against_numpy():
    rng = random.Random(7)
    for _ in range(20):
        n, k, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a = random_fraction_matrix(rng, n, k)
        b = random_fraction_matrix(rng, k, m)
        sa = SRMatrix.from_rows(a, k)
        sb = SRMatrix.from_rows(b, m)
        prod = (sa @ sb).to_complex()
        ref = np.array([[float(v) for v in row] for row in a]) @ \
            np.array([[float(v) for v in row] for row in b])
        assert np.allclose(prod, ref)


def test_srmatrix_add_scale_transpose():
    a = SRMatrix.from_rows([[Fraction(1), Fraction(0)],
                            [Fraction(2), Fraction(-1)]])
    b = a.scale(Fraction(1, 2))
    assert (b + b) == a
    assert (a - a).is_zero()
    assert a.transpose().get(0, 1) == Fraction(2)
    assert commutator(a, SRMatrix.identity(2)).is_zero()


def test_bareiss_stays_integral_on_integer_input():
    rows = [[2, 3, 1], [4, 1, -2], [6, 7, 1]]
    bareiss_echelon(rows, 3)
    for row in rows:
        for v in row:
            assert type(v) is int


@pytest.mark.parametrize("bad", [
    [[Fraction(1, 2), 1], [1, 1]],
    [[Fraction(2), 1], [1, 1]],
    [[ZZi(1, 1), 1], [ZZi(0, 1), ZZi(2)]],
    [[1.0, 1], [1, 1]],
], ids=["non-integral", "integral-fraction", "int-mixed-into-zzi", "float"])
def test_bareiss_rejects_entries_outside_one_integer_ring(bad):
    # `//` on a non-integral Fraction floors silently; the kernel refuses it
    with pytest.raises(TypeError):
        bareiss_echelon(bad, 2)


def test_bareiss_over_gaussian_integers_divides_exactly():
    rows = [[ZZi(1, 1), ZZi(2), ZZi(0, 3)],
            [ZZi(2, -1), ZZi(1, 1), ZZi(1)],
            [ZZi(0, 1), ZZi(3, 3), ZZi(-1, 2)]]
    pivots = bareiss_echelon(rows, 3)
    assert [c for (_r, c) in pivots] == [0, 1, 2]
    for row in rows:
        assert all(type(v) is ZZi and type(v.real) is int
                   and type(v.imag) is int for v in row)
    # the last pivot of a full-rank Bareiss echelon is the determinant
    assert rows[2][2] == ZZi(-10, 14)


def test_nullspace_matches_rank_and_annihilates():
    rng = random.Random(3)
    for _ in range(30):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        rows = random_fraction_matrix(rng, n, m)
        mat = SRMatrix.from_rows(rows, m)
        ns = nullspace(mat)
        assert (mat @ ns).is_zero()
        # numpy cross-check of the rank
        dense = np.array([[float(v) for v in row] for row in rows])
        assert m - ns.ncols == np.linalg.matrix_rank(dense)


def test_nullspace_over_gaussian_rationals():
    i = QQi(0, 1)
    rows = [[QQi(1), i, QQi(0)],
            [QQi(2), QQi(0, 2), QQi(0)]]  # second row = 2 * first
    cols = nullspace(SRMatrix.from_rows(rows)).transpose().to_rows()
    assert len(cols) == 2
    for col in cols:
        for row in rows:
            s = sum((row[j] * col[j] for j in range(3)), start=QQi(0))
            assert s == QQi(0)
    # the blocks of a joint kernel must share their column count
    with pytest.raises(ValueError, match="column count"):
        nullspace(SRMatrix.from_rows(rows), SRMatrix(1, 2))


def test_nullspace_has_one_value_type_per_field():
    # over Q(i) the free coordinates hold QQi(1), like the pivot entries;
    # blocks of Gaussian integers (ZZi) give the same Q(i) kernel, and
    # integer blocks the Fraction kernel of their rationals
    i = QQi(0, 1)
    rows = [[QQi(1), i, QQi(2), QQi(0)],
            [QQi(0), QQi(1), Fraction(1, 2), i]]
    kernel = nullspace(SRMatrix.from_rows(rows))
    assert kernel.ncols == 2
    assert {type(v) for v in kernel.data.values()} == {QQi}
    assert {type(v) for row in kernel.to_rows() for v in row} == {QQi}
    integral = [[ZZi(int(2 * v.re), int(2 * v.im))
                 for v in map(QQi.from_complex, row)] for row in rows]
    assert nullspace(SRMatrix.from_rows(integral)) == kernel
    assert {type(v) for v in
            nullspace(SRMatrix.from_rows(integral)).data.values()} == {QQi}
    ints = nullspace(SRMatrix.from_rows([[1, 2, 0], [0, 0, 3]]))
    assert {type(v) for v in ints.data.values()} == {Fraction}
    # to_rows fills with the zero of the entries' ring, whatever the
    # dict order of a matrix mixing Q and Q(i) values
    mixed = SRMatrix(1, 3, {(0, 0): Fraction(1), (0, 1): QQi(0, 1)})
    assert {type(v) for v in mixed.to_rows()[0][1:]} == {QQi}
    assert {type(v) for v in SRMatrix(1, 2, {(0, 0): 3}).to_rows()[0]} \
        == {int}
