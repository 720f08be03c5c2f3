"""Root data: normalisation, scalar formulas, lattice and parity tests."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kzmono.algebra import (ParityReport, build_algebra, casimir_scalar,
                            codim_bound, in_root_lattice, is_admissible,
                            metaplectic_parity, pairing, simple_reflection,
                            theta_level, weyl_dimension)
from kzmono.errors import (ConstructionError, InvalidAlgebraError,
                           NonDominantWeightError)

SUPPORTED = [("A", 1), ("A", 2), ("A", 3), ("A", 4),
             ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]


def st_algebra():
    return st.sampled_from(SUPPORTED).map(lambda sr: build_algebra(*sr))


def st_weight(alg, lo=-4, hi=4):
    return st.tuples(*[st.integers(lo, hi) for _ in range(alg.rank)])


def test_a1_fixed_data():
    a1 = build_algebra("A", 1)
    assert a1.highest_root == (2,)
    assert a1.weyl_vector == (1,)
    assert a1.dual_coxeter == 2
    assert pairing(a1, (1,), (1,)) == Fraction(1, 2)
    assert pairing(a1, a1.highest_root, a1.highest_root) == 2


def test_a2_fixed_data():
    a2 = build_algebra("A", 2)
    assert a2.dual_coxeter == 3
    assert len(a2.positive_roots) == 3
    assert a2.highest_root == (1, 1)


def test_invalid_types_rejected():
    for series, rank in [("G", 3), ("G", 1), ("F", 5), ("E", 5), ("E", 9),
                         ("B", 1), ("D", 2), ("A", 0), ("H", 2)]:
        with pytest.raises(InvalidAlgebraError):
            build_algebra(series, rank)


@pytest.mark.parametrize("series,rank", SUPPORTED + [("E", 6)])
def test_structural_invariants(series, rank):
    alg = build_algebra(series, rank)
    # theta normalisation, dual Coxeter identity, positive root count
    assert pairing(alg, alg.highest_root, alg.highest_root) == 2
    assert 1 + pairing(alg, alg.weyl_vector, alg.highest_root) \
        == alg.dual_coxeter
    assert len(alg.positive_roots) == (alg.dimension - alg.rank) // 2
    # gram symmetric positive (diagonal entries positive suffices here)
    for i in range(alg.rank):
        assert alg.gram[i][i] > 0
        for j in range(alg.rank):
            assert alg.gram[i][j] == alg.gram[j][i]
    # cartan[i][j] = 2<a_i,a_j>/<a_j,a_j>, with a_i located by its coords
    by_coords = dict(zip(alg.positive_root_coords, alg.positive_roots))
    simple = [by_coords[tuple(int(i == j) for j in range(alg.rank))]
              for i in range(alg.rank)]
    for i, ai in enumerate(simple):
        for j, aj in enumerate(simple):
            lhs = Fraction(2) * pairing(alg, ai, aj) / pairing(alg, aj, aj)
            assert lhs == alg.cartan[i][j]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pairing_symmetric_bilinear_weyl_invariant(data):
    alg = data.draw(st_algebra())
    lam = data.draw(st_weight(alg))
    mu = data.draw(st_weight(alg))
    nu = data.draw(st_weight(alg))
    assert pairing(alg, lam, mu) == pairing(alg, mu, lam)
    s = tuple(a + b for a, b in zip(mu, nu))
    assert pairing(alg, lam, s) == pairing(alg, lam, mu) + pairing(alg, lam, nu)
    zero = tuple(0 for _ in range(alg.rank))
    assert pairing(alg, zero, mu) == 0
    for i in range(alg.rank):
        assert pairing(alg, simple_reflection(alg, lam, i),
                       simple_reflection(alg, mu, i)) == pairing(alg, lam, mu)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_root_lattice_closed_under_addition(data):
    alg = data.draw(st_algebra())
    lam = data.draw(st_weight(alg))
    mu = data.draw(st_weight(alg))
    if in_root_lattice(alg, lam) and in_root_lattice(alg, mu):
        assert in_root_lattice(alg, tuple(a + b for a, b in zip(lam, mu)))
    # all roots live in the root lattice
    for r in alg.positive_roots:
        assert in_root_lattice(alg, r)


def test_admissibility():
    a1 = build_algebra("A", 1)
    assert is_admissible(a1, (1,), 1)
    assert not is_admissible(a1, (3,), 2)
    assert theta_level(a1, (1,)) == 1
    for series, rank in SUPPORTED:
        alg = build_algebra(series, rank)
        assert is_admissible(alg, tuple(0 for _ in range(rank)), 0)
    with pytest.raises(NonDominantWeightError):
        is_admissible(a1, (-1,), 3)


def test_root_lattice_examples():
    a1 = build_algebra("A", 1)
    assert in_root_lattice(a1, (2,))
    assert not in_root_lattice(a1, (1,))
    a2 = build_algebra("A", 2)
    assert in_root_lattice(a2, (1, 1))
    assert not in_root_lattice(a2, (1, 0))


def test_codim_bound_values():
    assert codim_bound(3, 2, 1, 6) == 1
    assert codim_bound(3, 2, 1, 4) == 0
    assert codim_bound(8, 6, 2, 2) == -2
    # odd product rounds up
    assert codim_bound(4, 3, 0, 3) == 1
    with pytest.raises(ValueError):
        codim_bound(3, 3, 0, 4)
    with pytest.raises(ValueError):
        codim_bound(3, 2, 0, 1)
    with pytest.raises(ValueError):
        codim_bound(0, -1, 0, 4)


def test_metaplectic_parity():
    a1 = build_algebra("A", 1)
    assert metaplectic_parity(a1, 4).descends
    assert not metaplectic_parity(a1, 3).descends
    report = metaplectic_parity(a1, 2)
    assert report == ParityReport(descends=True, n_even=True)
    assert bool(report)
    # even n descends on every supported algebra
    for series, rank in SUPPORTED:
        alg = build_algebra(series, rank)
        for n in (2, 4, 6):
            assert metaplectic_parity(alg, n).descends
    # A2: rho = (1,1) is already in the root lattice, so every n works
    a2 = build_algebra("A", 2)
    assert metaplectic_parity(a2, 3).descends
    with pytest.raises(ValueError):
        metaplectic_parity(a1, 0)


def test_weyl_dimension_and_casimir():
    a1 = build_algebra("A", 1)
    for m in range(7):
        assert weyl_dimension(a1, (m,)) == m + 1
    assert casimir_scalar(a1, (1,)) == Fraction(3, 2)
    assert casimir_scalar(a1, (2,)) == 4
    a2 = build_algebra("A", 2)
    assert weyl_dimension(a2, (1, 0)) == 3
    assert weyl_dimension(a2, (1, 1)) == 8
    g2 = build_algebra("G", 2)
    assert weyl_dimension(g2, (1, 0)) == 7
    assert weyl_dimension(g2, (0, 1)) == 14
    for series, rank in SUPPORTED:
        alg = build_algebra(series, rank)
        zero = tuple(0 for _ in range(rank))
        assert weyl_dimension(alg, zero) == 1
        assert casimir_scalar(alg, zero) == 0


@pytest.mark.parametrize("shift, sign", [(1, 1), (0, -1)])
def test_weyl_dimension_rejects_bad_product(shift, sign):
    # negative control: on A1 (1) the product is <lam+rho, a>/<rho, a> = 2/1,
    # read as (lam . r + rho . r)/rho . r over the integer root row r and
    # rho pairing of the root. A copy of A1 whose row and rho pairing shift
    # both pairings by 1 makes it 3/2, one that flips the numerator's sign
    # makes it -2, and neither is a dimension
    a1 = build_algebra("A", 1)
    lam = (1,)
    scale = a1.form_scale
    (row,), (rho_a,) = a1.root_rows, a1.rho_pairings
    top = sign * (lam[0] * row[0] + rho_a + shift * scale)
    low = rho_a + shift * scale
    bad = dataclasses.replace(a1, root_rows=((top - low,),),
                              rho_pairings=(low,))
    product = Fraction(top, low)
    assert product == (Fraction(3, 2) if sign > 0 else -2)
    with pytest.raises(ConstructionError,
                       match=f"Weyl dimension product {product} of"):
        weyl_dimension(bad, lam)
    assert weyl_dimension(a1, lam) == 2


def test_adjoint_casimir_is_two_dual_coxeter():
    # <theta, theta + 2 rho> = 2h, a classical identity tying the pieces
    for series, rank in SUPPORTED:
        alg = build_algebra(series, rank)
        assert casimir_scalar(alg, alg.highest_root) == 2 * alg.dual_coxeter


def test_g2_short_long_data():
    g2 = build_algebra("G", 2)
    assert g2.symmetrizers == (Fraction(1, 3), Fraction(1))
    assert g2.highest_root_coords == (3, 2)
    assert theta_level(g2, (1, 0)) == 1
    assert theta_level(g2, (0, 1)) == 2


def test_equal_algebras_hash_equal():
    for sr in SUPPORTED:
        alg = build_algebra(*sr)
        twin = dataclasses.replace(alg)
        assert twin is not alg and twin == alg
        assert hash(twin) == hash(alg)
        assert {alg: sr}[twin] == sr
