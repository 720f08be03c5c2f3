"""Vectorised Kac-Walton fusion against the scalar route it replaced.

The references below are the earlier `blocks._reflect_to_alcove` and
`blocks._fusion_row`, kept here as test-only copies: they reflected one
rho-shifted weight lam + phi + rho at a time, for every basis weight phi of
V_mu. The library reflects the whole stack of admissible lam against the
distinct weights of a run of V_mu as one int64 array. Fusion tensors and
classical multiplicities must be exactly equal.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kzmono import algebra as la
from kzmono import blocks
from kzmono.algebra import build_algebra
from kzmono.blocks import (admissible_weights, classical_tensor_multiplicities,
                           fusion_ring)
from kzmono.errors import FusionValidationError
from kzmono.reps import irrep

_MAX_REFLECTIONS = 10_000


def ref_reflect_to_alcove(alg, xi, m):
    rank = alg.rank
    theta = alg.highest_root
    xi = list(xi)
    sign = 1
    for _ in range(_MAX_REFLECTIONS):
        neg = next((i for i in range(rank) if xi[i] < 0), None)
        if neg is not None:
            c = xi[neg]
            row = alg.cartan[neg]
            for j in range(rank):
                xi[j] -= c * row[j]
            sign = -sign
            continue
        if any(x == 0 for x in xi):
            return None, 0
        if m > 0:
            lvl = la.theta_level(alg, xi)
            if lvl == m:
                return None, 0
            if lvl > m:
                c = m - lvl
                for j in range(rank):
                    xi[j] += c * theta[j]
                sign = -sign
                continue
        return tuple(xi), sign
    raise FusionValidationError("alcove reflection did not terminate")


def ref_fusion_row(alg, lam, mu, k):
    rep = irrep(alg, mu)
    rho = alg.weyl_vector
    m = k + alg.dual_coxeter if k > 0 else 0
    out = {}
    for phi in rep.basis_weights:
        xi = tuple(lam[i] + phi[i] + rho[i] for i in range(alg.rank))
        res, sign = ref_reflect_to_alcove(alg, xi, m)
        if sign:
            nu = tuple(res[i] - rho[i] for i in range(alg.rank))
            out[nu] = out.get(nu, 0) + sign
    return {nu: n for nu, n in sorted(out.items()) if n}


def ref_fusion_tensor(alg, k):
    weights = admissible_weights(alg, k)
    index = {w: a for a, w in enumerate(weights)}
    N = np.zeros((len(weights),) * 3, dtype=np.int64)
    for a, lam in enumerate(weights):
        for b, mu in enumerate(weights):
            for nu, n in ref_fusion_row(alg, lam, mu, k).items():
                N[a, b, index[nu]] = n
    return N


RINGS = [("A", 1, k) for k in range(1, 7)] + [
    ("A", 2, 5), ("A", 3, 2), ("G", 2, 3), ("F", 4, 2),
    ("B", 3, 2), ("C", 3, 2), ("D", 4, 2), ("E", 6, 1)]


@pytest.mark.parametrize("series, rank, k", RINGS,
                         ids=[f"{s}{r}-k{k}" for s, r, k in RINGS])
def test_fusion_tensor_matches_scalar_route(series, rank, k):
    alg = build_algebra(series, rank)
    N = fusion_ring(alg, k).N
    assert N.dtype == np.int64
    assert np.array_equal(N, ref_fusion_tensor(alg, k))


@pytest.mark.parametrize("rows", [1, 50])
def test_fusion_tensor_is_the_same_in_short_runs(monkeypatch, rows):
    # every ring above fits one stack; a small row budget cuts A2 k=5 into
    # runs of a few mu (50) or of one mu each, larger than the budget (1)
    monkeypatch.setattr(blocks, "_STACK_ROWS", rows)
    alg = build_algebra("A", 2)
    N = fusion_ring.__wrapped__(alg, 5).N
    assert np.array_equal(N, ref_fusion_tensor(alg, 5))


# (algebra, largest Dynkin label of lam, of mu): mu's module is built, so
# its labels stay small
CLASSICAL = {"A1": (build_algebra("A", 1), 8, 6),
             "A2": (build_algebra("A", 2), 4, 2),
             "B2": (build_algebra("B", 2), 3, 2),
             "G2": (build_algebra("G", 2), 3, 1)}


@st.composite
def weight_pairs(draw):
    alg, top_lam, top_mu = CLASSICAL[draw(st.sampled_from(sorted(CLASSICAL)))]
    labels = st.lists(st.integers(0, top_lam), min_size=alg.rank,
                      max_size=alg.rank)
    small = st.lists(st.integers(0, top_mu), min_size=alg.rank,
                     max_size=alg.rank)
    return alg, tuple(draw(labels)), tuple(draw(small))


@settings(max_examples=80, deadline=None)
@given(case=weight_pairs())
def test_classical_multiplicities_match_scalar_route(case):
    alg, lam, mu = case
    got = classical_tensor_multiplicities(alg, lam, mu)
    assert got == ref_fusion_row(alg, lam, mu, 0)
    assert list(got) == sorted(got)
    assert {type(n) for n in got.values()} <= {int}


def test_reflection_bound_is_enforced(monkeypatch):
    # A1 k=2 needs a second step on some rows (a reflection, then a stop)
    monkeypatch.setattr(blocks, "_MAX_REFLECTIONS", 1)
    with pytest.raises(FusionValidationError,
                       match="alcove reflection did not terminate"):
        fusion_ring.__wrapped__(build_algebra("A", 1), 2)
