"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
The test matrix is: type A1 with up to six spin-half points at levels 1-3,
the rank-two case (1,0),(0,1),(1,0),(0,1) at level 2, and the G2 case
(1,0),(1,0),(0,0) at level 1. All tolerances are fixed here, not tuned.
"""

import random
import time

import numpy as np

from kzmono.algebra import (build_algebra, casimir_scalar, codim_bound,
                            metaplectic_parity, weyl_dimension)
from kzmono.blocks import block_dim, block_subspace, fusion_ring
from kzmono.connection import flatness_check, kz_form, rotation_monodromy
from kzmono.errors import NoIntertwinerError
from kzmono.exact import SRMatrix
from kzmono.monodromy import (braid_generator, projective_compare,
                              rotation_path, transport)
from kzmono.reps import _irrep, casimir_constants, casimir_matrix, irrep, \
    tensor_system
from kzmono.sections import SectionSpace, intertwiner

from fraction_reference import omega_of, rational

A1 = build_algebra("A", 1)
A2 = build_algebra("A", 2)
G2 = build_algebra("G", 2)

# (algebra, weights, levels) across the whole suite
TEST_MATRIX = [
    (A1, tuple(((1,),) * n), (1, 2, 3)) for n in range(2, 7)
] + [
    (A2, ((1, 0), (0, 1), (1, 0), (0, 1)), (2,)),
    (G2, ((1, 0), (1, 0), (0, 0)), (1,)),
]

# geometrically growing gaps keep every exchange circle clear of the other
# marked points, so the half-twists represent the standard braid generators
GENERIC_POINTS = {
    2: (0 + 0j, 1 + 0j),
    3: (0 + 0j, 1 + 0j, 3 + 0j),
    4: (0 + 0j, 1 + 0j, 3 + 0j, 7 + 0j),
    5: (0 + 0j, 1 + 0j, 3 + 0j, 7 + 0j, 15 + 0j),
    6: (0 + 0j, 1 + 0j, 3 + 0j, 7 + 0j, 15 + 0j, 31 + 0j),
}


def report(num, ok, text):
    print(f"criterion {num} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_1_exact_flatness():
    # Omega^{ij} does not depend on k: every level's form holds the
    # system's own restricted matrices, so one check per system covers all
    checked = 0
    for alg, weights, levels in TEST_MATRIX:
        system = tensor_system(alg, weights)
        forms = [kz_form(system, k) for k in levels]
        for form in forms:
            assert omega_of(form) == {p: rational(system.omega_restricted(*p))
                                      for p in form.pairs}
        rep = flatness_check(forms[0])
        assert rep.max_abs_full == 0 and rep.max_abs_restricted == 0
        checked += rep.checks
    report(1, checked > 0,
           f"all {checked} Kohno commutators exactly zero across the test "
           "matrix, at every level")


def test_criterion_2_casimir_identity():
    weights = [(A1, (m,)) for m in range(5)]
    weights += [(A2, (1, 0)), (A2, (0, 1)), (A2, (1, 1)), (A2, (2, 1)),
                (G2, (1, 0)), (G2, (0, 1))]
    for alg, lam in weights:
        rep = irrep(alg, lam)
        assert rep.dim == weyl_dimension(alg, lam)
        expected = casimir_scalar(alg, lam) * np.eye(rep.dim, dtype=int)
        assert np.array_equal(casimir_matrix(rep).to_array(object), expected)
    report(2, True,
           f"Casimir scalar and Weyl dimension exact on {len(weights)} "
           "modules")


def test_criterion_3_oracle_equivalence():
    rng = random.Random(2024)
    frozen = {(4, 1): 1, (4, 2): 2}
    cases = 0
    for n in range(2, 7):
        system = tensor_system(A1, ((1,),) * n)
        for k in (1, 2, 3):
            expected = block_dim(fusion_ring(A1, k), system.weights)
            if (n, k) in frozen:
                assert expected == frozen[(n, k)]
            for _ in range(3):
                pts = [complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
                       for _ in range(n)]
                bs = block_subspace(system, k, pts)
                assert bs.dim == expected
                cases += 1
    report(3, cases == 45,
           f"block dimension equals the fusion dimension in {cases} "
           "random configurations (n <= 6, k <= 3)")


def test_criterion_4_rotation_monodromy():
    worst = 0.0
    for alg, weights, levels in TEST_MATRIX:
        system = tensor_system(alg, weights)
        if system.invariant_dim == 0:
            continue
        pts = GENERIC_POINTS[system.n]
        for k in levels:
            form = kz_form(system, k)
            rot = rotation_monodromy(form)
            res = transport(form, rotation_path(pts), tol=1e-10)
            dev = np.linalg.norm(
                res.matrix - rot.scalar * np.eye(form.dim))
            worst = max(worst, dev)
            if (alg, weights, k) == (A1, ((1,),) * 4, 2):
                assert abs(rot.scalar - (-1j)) < 1e-12
    report(4, worst < 1e-8,
           f"numerical rotation transport matches the exact scalar, worst "
           f"deviation {worst:.2e} (spin-half 4-point k=2 scalar is -i)")


def test_criterion_5_subbundle_preservation():
    worst = 0.0
    transports = 0
    for alg, weights, levels in TEST_MATRIX:
        system = tensor_system(alg, weights)
        if system.invariant_dim == 0:
            continue
        pts = GENERIC_POINTS[system.n]
        for k in levels:
            bs = block_subspace(system, k, pts)
            if bs.dim == 0:
                continue
            form = kz_form(system, k)
            for i in range(1, system.n):
                res = braid_generator(form, bs, i, tol=1e-10,
                                      block_tol=1e-8)
                worst = max(worst, res.block_residual)
                transports += 1
    report(5, worst < 1e-8,
           f"block residual below 1e-8 for all {transports} braid "
           f"generator transports (worst {worst:.2e})")


def test_criterion_6_projective_braid_relations():
    worst_rel = 0.0
    worst_far = 0.0
    for n, k in [(4, 1), (4, 2), (6, 2)]:
        system = tensor_system(A1, ((1,),) * n)
        bs = block_subspace(system, k, GENERIC_POINTS[n])
        form = kz_form(system, k)
        mats = {i: braid_generator(form, bs, i, tol=1e-11).matrix
                for i in range(1, n)}
        for i in range(1, n - 1):
            _c, resid = projective_compare(
                mats[i] @ mats[i + 1] @ mats[i],
                mats[i + 1] @ mats[i] @ mats[i + 1])
            worst_rel = max(worst_rel, resid)
        for i in range(1, n):
            for j in range(i + 2, n):
                worst_far = max(worst_far, np.linalg.norm(
                    mats[i] @ mats[j] - mats[j] @ mats[i]))
    ok = worst_rel < 1e-8 and worst_far < 1e-8
    report(6, ok,
           f"braid relations after scalar alignment (worst {worst_rel:.2e})"
           f" and far commutativity (worst {worst_far:.2e}) below 1e-8")


def test_criterion_7_codim_and_parity():
    ok = codim_bound(3, 2, 1, 6) == 1
    for series, rank in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2),
                         ("C", 3), ("D", 4), ("G", 2), ("F", 4)]:
        alg = build_algebra(series, rank)
        for n in (2, 4, 6, 8):
            ok = ok and metaplectic_parity(alg, n).descends
    report(7, ok,
           "codimension formula reproduces (3,2,1,6) -> 1 and even point "
           "counts always admit the square root")


def test_criterion_8_bbw_rank_one():
    ok = True
    for m in range(7):
        try:
            intertwiner(SectionSpace(m), irrep(A1, (m,)))
        except NoIntertwinerError:
            ok = False
    report(8, ok,
           "section-model intertwiner exists and is unique for degrees 0-6")


def test_criterion_9_performance_guard():
    # fresh caches so the pipeline timing is honest
    _irrep.cache_clear()
    casimir_constants.cache_clear()
    fusion_ring.cache_clear()
    start = time.perf_counter()
    system = tensor_system(A1, ((1,),) * 6)
    bs = block_subspace(system, 2, GENERIC_POINTS[6])
    form = kz_form(system, 2)
    braid_generator(form, bs, 3, tol=1e-10)
    elapsed = time.perf_counter() - start
    dense_entries = system.total_dim ** 2
    sparse_ok = True
    for pair in form.pairs:
        full = form.omega_full[pair]
        sparse_ok = sparse_ok and isinstance(full, SRMatrix)
        sparse_ok = sparse_ok and full.nnz < dense_entries // 4
    ok = elapsed < 60.0 and sparse_ok
    report(9, ok,
           f"six-point pipeline in {elapsed:.2f}s (< 60s) with sparse "
           "two-slot Casimirs (no dense total-space matrix in the exact "
           "layer)")
