"""Rank-1 section model: sl2 relations, Casimir, intertwiners."""

from fractions import Fraction

import pytest

from kzmono.algebra import build_algebra, casimir_scalar
from kzmono.errors import NoIntertwinerError
from kzmono.exact import SRMatrix, commutator, nullspace
from kzmono.reps import irrep
from kzmono.sections import SectionSpace, intertwiner, verify_bbw

A1 = build_algebra("A", 1)


def test_degree_zero_is_trivial():
    ss = SectionSpace(0)
    assert ss.dim == 1
    assert ss.e.is_zero() and ss.f.is_zero() and ss.h.is_zero()


@pytest.mark.parametrize("m", range(7))
def test_sl2_relations_exact(m):
    ss = SectionSpace(m)
    assert commutator(ss.e, ss.f) == ss.h
    assert commutator(ss.h, ss.e) == ss.e.scale(Fraction(2))
    assert commutator(ss.h, ss.f) == ss.f.scale(Fraction(-2))


def test_casimir_values():
    assert SectionSpace(1).casimir() == \
        SRMatrix.identity(2).scale(Fraction(3, 2))
    for m in range(7):
        expected = SRMatrix.identity(m + 1).scale(casimir_scalar(A1, (m,)))
        assert SectionSpace(m).casimir() == expected


def test_h_spectrum():
    ss = SectionSpace(2)
    assert sorted(ss.h.get(j, j) for j in range(3)) == [-2, 0, 2]


@pytest.mark.parametrize("m", range(7))
def test_intertwiner_exists_and_unique(m):
    t = intertwiner(SectionSpace(m), irrep(A1, (m,)))
    d = m + 1
    assert nullspace(SRMatrix.from_rows(t, d)).ncols == 0
    # T really intertwines: check the e generator explicitly
    ss = SectionSpace(m)
    rep = irrep(A1, (m,))
    ts = SRMatrix.from_rows(t, d)
    assert ts @ ss.e == rep.e[0] @ ts


def test_intertwiner_mismatch_rejected():
    with pytest.raises(NoIntertwinerError):
        intertwiner(SectionSpace(2), irrep(A1, (3,)))


def test_verify_bbw_runs():
    assert verify_bbw(6) == list(range(7))
