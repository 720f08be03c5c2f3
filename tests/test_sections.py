"""Rank-1 section model: sl2 relations, Casimir, intertwiners."""

from fractions import Fraction

import numpy as np
import pytest

from kzmono.algebra import build_algebra, casimir_scalar
from kzmono.errors import NoIntertwinerError
from kzmono.exact import SRMatrix, nullspace
from kzmono.reps import irrep
from kzmono.sections import SectionSpace, intertwiner, verify_bbw

from fraction_reference import commutator, view

A1 = build_algebra("A", 1)


def test_degree_zero_is_trivial():
    ss = SectionSpace(0)
    assert ss.dim == 1
    assert not (ss.e.any() or ss.f.any() or ss.h.any())


@pytest.mark.parametrize("m", range(7))
def test_sl2_relations_exact(m):
    ss = SectionSpace(m)
    assert ss.e.dtype == ss.f.dtype == ss.h.dtype == np.int64
    assert np.array_equal(commutator(ss.e, ss.f), ss.h)
    assert np.array_equal(commutator(ss.h, ss.e), 2 * ss.e)
    assert np.array_equal(commutator(ss.h, ss.f), -2 * ss.f)


def test_casimir_values():
    assert np.array_equal(SectionSpace(1).casimir(),
                          Fraction(3, 2) * np.eye(2, dtype=int))
    for m in range(7):
        expected = casimir_scalar(A1, (m,)) * np.eye(m + 1, dtype=int)
        got = SectionSpace(m).casimir()
        assert np.array_equal(got, expected)
        assert {type(v) for v in got.flat} == {Fraction}


def test_h_spectrum():
    ss = SectionSpace(2)
    assert sorted(np.diag(ss.h).tolist()) == [-2, 0, 2]


@pytest.mark.parametrize("m", range(7))
def test_intertwiner_exists_and_unique(m):
    t = intertwiner(SectionSpace(m), irrep(A1, (m,)))
    d = m + 1
    assert nullspace(SRMatrix.from_rows(t, d)).ncols == 0
    # T really intertwines: check the e generator explicitly
    ss = SectionSpace(m)
    rep = irrep(A1, (m,))
    ts = np.array(t, dtype=object)
    assert np.array_equal(ts @ ss.e, view(rep, "e")[0].to_array(object) @ ts)


def test_intertwiner_mismatch_rejected():
    with pytest.raises(NoIntertwinerError):
        intertwiner(SectionSpace(2), irrep(A1, (3,)))


def test_verify_bbw_runs():
    assert verify_bbw(6) == list(range(7))
