"""The integer invariant form against the rational one it replaced.

The references below are the earlier `algebra.pairing`, `weyl_dimension`
and `casimir_scalar`, which summed `Fraction` pairings over the Gram matrix
of the fundamental weights, kept here as the oracle. The library reads the
same form as L * gram over integers (`LieAlgebra.form`, `root_rows`,
`rho_pairings`); values and their types must agree exactly on every
supported type and on E6, E7 and E8.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kzmono.algebra import (build_algebra, casimir_scalar, pairing,
                            weight_add, weyl_dimension)
from kzmono.errors import ConstructionError

TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
         ("C", 3), ("D", 4), ("G", 2), ("F", 4), ("E", 6), ("E", 7),
         ("E", 8)]


def ref_pairing(alg, lam, mu):
    g = alg.gram
    return sum(Fraction(lam[i]) * g[i][j] * mu[j]
               for i in range(alg.rank) for j in range(alg.rank)
               if lam[i] and mu[j])


def ref_weyl_dimension(alg, lam):
    rho = alg.weyl_vector
    num = Fraction(1)
    lam_rho = weight_add(lam, rho)
    for a in alg.positive_roots:
        num *= ref_pairing(alg, lam_rho, a) / ref_pairing(alg, rho, a)
    if num.denominator != 1 or num <= 0:
        raise ConstructionError(f"Weyl dimension product {num}")
    return int(num)


def ref_casimir_scalar(alg, lam):
    two_rho = tuple(2 for _ in range(alg.rank))
    return ref_pairing(alg, lam, weight_add(lam, two_rho))


def same(got, want):
    return got == want and type(got) is type(want)


@st.composite
def algebra_and_weights(draw, lo, hi):
    alg = build_algebra(*draw(st.sampled_from(TYPES)))
    weight = st.tuples(*[st.integers(lo, hi) for _ in range(alg.rank)])
    return alg, draw(weight), draw(weight)


@settings(max_examples=150, deadline=None)
@given(algebra_and_weights(0, 4))
def test_dimension_and_casimir_match_fraction_reference(case):
    alg, lam, mu = case
    assert same(weyl_dimension(alg, lam), ref_weyl_dimension(alg, lam))
    assert same(casimir_scalar(alg, lam), ref_casimir_scalar(alg, lam))
    assert same(pairing(alg, lam, mu), ref_pairing(alg, lam, mu))


@settings(max_examples=150, deadline=None)
@given(algebra_and_weights(-4, 4))
def test_pairing_of_any_weights_matches_fraction_reference(case):
    # zero weights included: the empty sum of the reference is the int 0
    alg, lam, mu = case
    assert same(pairing(alg, lam, mu), ref_pairing(alg, lam, mu))


@pytest.mark.parametrize("series,rank", TYPES)
def test_integer_rows_match_the_form(series, rank):
    alg = build_algebra(series, rank)
    scale = alg.form_scale
    assert all(type(x) is int for row in alg.form for x in row)
    assert [[Fraction(x, scale) for x in row] for row in alg.form] == \
        [list(row) for row in alg.gram]
    rho = alg.weyl_vector
    for a, row, rho_a in zip(alg.positive_roots, alg.root_rows,
                             alg.rho_pairings):
        assert rho_a > 0
        assert Fraction(rho_a, scale) == ref_pairing(alg, rho, a)
        for i in range(rank):
            unit = tuple(int(i == j) for j in range(rank))
            assert Fraction(row[i], scale) == ref_pairing(alg, unit, a)
    # the adjoint module has the dimension of the algebra
    assert weyl_dimension(alg, alg.highest_root) == alg.dimension
