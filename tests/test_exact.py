"""Exact linear algebra: elimination, nullspaces, solves, Gaussian rationals."""

import random
from fractions import Fraction

import numpy as np
import pytest

from kzmono.exact import QQi, ZZi, bareiss_echelon, nullspace, to_float


def random_integer_matrix(rng, n, m, density=0.6):
    return np.array([[rng.randint(-4, 4) if rng.random() < density else 0
                      for _ in range(m)] for _ in range(n)],
                    dtype=np.int64).reshape(n, m)


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
        mat = random_integer_matrix(rng, n, m)
        delta, kernel = nullspace(mat)
        assert delta >= 1 and not (mat @ kernel).any()
        # numpy cross-check of the rank
        assert m - kernel.shape[1] == np.linalg.matrix_rank(mat)


def test_nullspace_over_gaussian_rationals():
    # rows 1, i, 0 and twice it: the Z[i] equations as real and imaginary
    # parts, the kernel delta^-1 (K_re + i K_im) over Q(i)
    re = np.array([[1, 0, 0], [2, 0, 0]])
    im = np.array([[0, 1, 0], [0, 2, 0]])
    delta, k_re, k_im = nullspace(re, im)
    assert k_re.shape == k_im.shape == (3, 2)
    assert not (re @ k_re - im @ k_im).any()
    assert not (re @ k_im + im @ k_re).any()
    # the reduced basis: -i e_0 + e_1 and e_2
    assert delta == 1
    assert k_re.tolist() == [[0, 0], [1, 0], [0, 1]]
    assert k_im.tolist() == [[-1, 0], [0, 0], [0, 0]]


def test_nullspace_has_one_value_type_per_field():
    # over Z the kernel is (delta, K), over Z[i] (delta, K_re, K_im), every
    # entry an integer; Z[i] equations with no imaginary part give the
    # kernel of their real parts, and entries past int64 come back as
    # Python ints
    re = np.array([[2, 4, 1, 0], [0, 2, 1, 3]])
    delta, k = nullspace(re)
    assert (delta, k.dtype, k.shape) == (2, np.int64, (4, 2))
    assert k.tolist() == [[1, 6], [-1, -3], [2, 0], [0, 2]]
    gaussian = nullspace(re, 0 * re)
    assert gaussian[0] == delta and np.array_equal(gaussian[1], k)
    assert gaussian[2].shape == k.shape and not gaussian[2].any()
    wide = nullspace(np.array([[2 ** 70, 1]], dtype=object))
    assert wide[0] == 2 ** 70 and wide[1].dtype == object
    assert wide[1].tolist() == [[-1], [2 ** 70]]
    assert {type(v) for v in wide[1].ravel()} == {int}


@pytest.mark.parametrize("denom, ints", [
    (12, np.array([[1, -7], [0, 2 ** 52 + 1]], dtype=np.int64)),
    # past 2^53 an int64 entry or the denominator is no float64: Python
    # divides the ints, still once
    (3, np.array([2 ** 60 + 1, -(2 ** 54) - 1], dtype=np.int64)),
    (3, np.array([2 ** 80 + 1, 5], dtype=object)),
    (2 ** 60 + 3, np.array([1, -(2 ** 61)], dtype=np.int64)),
], ids=["int64", "int64-past-2^53", "python-ints", "wide-denominator"])
def test_to_float_is_the_float_of_each_fraction(denom, ints):
    got = to_float(denom, ints)
    assert got.dtype == float and got.shape == ints.shape
    assert got.ravel().tolist() == [float(Fraction(int(x), denom))
                                    for x in ints.ravel()]
