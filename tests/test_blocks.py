"""Fusion rules and block subspaces against independent oracles."""

import hashlib
import itertools
import random

import numpy as np
import pytest

from kzmono import blocks
from kzmono.algebra import build_algebra, weyl_dimension
from kzmono.blocks import (admissible_weights, block_dim, block_subspace,
                           block_to_json, classical_tensor_multiplicities,
                           fusion_ring, fusion_to_csv)
from kzmono.errors import (CoincidentPointsError, FusionValidationError,
                           InadmissibleWeightError, ValidationError)
from kzmono.reps import tensor_system

A1 = build_algebra("A", 1)
A2 = build_algebra("A", 2)
G2 = build_algebra("G", 2)


def su2k_fusion(k, a, b, c):
    """Closed-form su(2) level-k fusion rule (labels are Dynkin, 2*spin)."""
    if (a + b + c) % 2:
        return 0
    ok = abs(a - b) <= c <= min(a + b, 2 * k - a - b)
    return int(ok)


def su2k_block_dim(k, labels):
    """n-point dimension by explicit channel sum over the alcove walk."""
    vec = {0: 1}
    for m in labels:
        nxt = {}
        for s, n in vec.items():
            for t in range(k + 1):
                n2 = su2k_fusion(k, s, m, t)
                if n2:
                    nxt[t] = nxt.get(t, 0) + n * n2
        vec = nxt
    return vec.get(0, 0)


def test_admissible_weight_sets():
    assert admissible_weights(A1, 1) == ((0,), (1,))
    assert admissible_weights(A1, 3) == ((0,), (1,), (2,), (3,))
    assert admissible_weights(G2, 1) == ((0, 0), (1, 0))
    assert len(admissible_weights(A2, 2)) == 6


def test_classical_multiplicities_against_dimension_count():
    cases = [(A1, (3,), (2,)), (A2, (1, 0), (0, 1)), (A2, (1, 1), (1, 1)),
             (G2, (1, 0), (1, 0))]
    for alg, lam, mu in cases:
        mults = classical_tensor_multiplicities(alg, lam, mu)
        total = sum(n * weyl_dimension(alg, nu) for nu, n in mults.items())
        assert total == weyl_dimension(alg, lam) * weyl_dimension(alg, mu)
    # 7 x 7 of G2 = 1 + 7 + 14 + 27
    mults = classical_tensor_multiplicities(G2, (1, 0), (1, 0))
    assert mults == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (2, 0): 1}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a1_fusion_matches_closed_form(k):
    ring = fusion_ring(A1, k)
    for a, b, c in itertools.product(range(k + 1), repeat=3):
        assert ring.coefficient((a,), (b,), (c,)) == su2k_fusion(k, a, b, c)


def test_fusion_examples_frozen():
    r1 = fusion_ring(A1, 1)
    assert r1.weights == ((0,), (1,))
    assert r1.coefficient((1,), (1,), (0,)) == 1
    assert r1.coefficient((1,), (1,), (1,)) == 0
    r2 = fusion_ring(A1, 2)
    assert r2.coefficient((1,), (1,), (2,)) == 1
    for alg, k in [(A1, 1), (A2, 2), (G2, 1)]:
        ring = fusion_ring(alg, k)
        vac = ring.vacuum
        assert ring.coefficient(vac, vac, vac) == 1


def test_g2_level_one_is_fibonacci():
    ring = fusion_ring(G2, 1)
    tau = (1, 0)
    assert ring.row(tau, tau) == {(0, 0): 1, (1, 0): 1}


def _corrupt_rows(monkeypatch, rows):
    """Replace whole rows (lam, mu) -> {nu: n} of the fusion tensor at the
    Kac-Walton seam, which returns the coefficients of every lam against a
    run of mu."""
    true_sums = blocks._kac_walton

    def corrupted(alg, lams, mus, m):
        nus, counts = true_sums(alg, lams, mus, m)
        nus = list(nus)
        added = sorted({nu for row in rows.values() for nu in row} - set(nus))
        nus += added
        counts = np.concatenate([counts, np.zeros(
            (len(lams), len(mus), len(added)), dtype=np.int64)], axis=2)
        for (lam, mu), row in rows.items():
            if mu in mus:
                a, b = lams.index(lam), mus.index(mu)
                counts[a, b] = 0
                for nu, n in row.items():
                    counts[a, b, nus.index(nu)] = n
        return tuple(nus), counts

    monkeypatch.setattr(blocks, "_kac_walton", corrupted)


@pytest.mark.parametrize("rows, message", [
    ({((1,), (2,)): {(1,): 2}}, "fusion not symmetric at ((1,), (2,))"),
    ({((1,), (0,)): {(1,): 2}, ((0,), (1,)): {(1,): 2}},
     "vacuum not a unit at (1,)"),
    ({((2,), (2,)): {(0,): 1, (2,): 1}},
     "fusion not associative at ((1,), (1,), (2,))"),
    ({((1,), (2,)): {(1,): -1}, ((2,), (1,)): {(1,): -1}},
     "bad coefficient N_((1,),(2,))^(1,) = -1"),
    ({((1,), (2,)): {(3,): 1}, ((2,), (1,)): {(3,): 1}},
     "bad coefficient N_((1,),(2,))^(3,) = 1"),
])
def test_fusion_ring_rejects_corrupted_rows(monkeypatch, rows, message):
    _corrupt_rows(monkeypatch, rows)
    with pytest.raises(FusionValidationError) as info:
        fusion_ring.__wrapped__(A1, 2)
    assert str(info.value) == message


def test_fusion_ring_guards_exact_float_products(monkeypatch):
    # N_((1,),(1,))^(0,) = 2^26 on A1 k=2 (m = 3) is symmetric and leaves the
    # unit intact, but 3 * 2^52 >= 2^53: the float64 products could round,
    # so the associativity check runs on Python ints and still rejects it
    _corrupt_rows(monkeypatch, {((1,), (1,)): {(0,): 2 ** 26}})
    with pytest.raises(FusionValidationError) as info:
        fusion_ring.__wrapped__(A1, 2)
    assert str(info.value) == "fusion not associative at ((1,), (1,), (2,))"


# sha256 of fusion_to_csv, frozen from the dict-of-dicts fusion table (F4 k=2
# as pinned by the benchmark and CI)
@pytest.mark.parametrize("series, rank, k, digest", [
    ("A", 2, 5,
     "9cceb0181f18c63929b8e87b436bd9ffdeaa0a54f9e9c94d345f02efb1134cff"),
    ("A", 3, 2,
     "e4c4eba4013d1dc4e982f33c9a18e89a7b188d18bff438fae864f5f87c0809c4"),
    ("G", 2, 3,
     "f349a2ab18b6225ed348b003c7f60627cd3148554bc71bd66d5a2b2fe2143d19"),
    ("B", 2, 3,
     "d603b7e54af4eb58fa04063ed218c118037f1511764c801cf3d968417f758813"),
    ("F", 4, 2,
     "9127e732a46443971e5a31d075d1eeb8294a4ea65f94eab3516aa286ca0bef01"),
])
def test_fusion_csv_frozen(series, rank, k, digest):
    text = fusion_to_csv(fusion_ring(build_algebra(series, rank), k))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_block_dim_examples_and_permutation_invariance():
    r1 = fusion_ring(A1, 1)
    assert block_dim(r1, ((1,),) * 4) == 1
    r2 = fusion_ring(A1, 2)
    assert block_dim(r2, ((1,),) * 4) == 2
    for ring in (r1, r2):
        lam = (1,)
        assert block_dim(ring, (lam, ring.dual(lam), (0,))) == 1
    rng = random.Random(5)
    for _ in range(10):
        k = rng.randint(1, 3)
        ring = fusion_ring(A1, k)
        n = rng.randint(1, 6)
        weights = tuple((rng.randint(0, k),) for _ in range(n))
        d = block_dim(ring, weights)
        perm = list(weights)
        rng.shuffle(perm)
        assert block_dim(ring, tuple(perm)) == d
        assert d == su2k_block_dim(k, [w[0] for w in weights])


def test_block_dim_monotone_in_k_stabilizing_at_invariants():
    weights = ((1,),) * 6
    sys = tensor_system(A1, weights)
    dims = [block_dim(fusion_ring(A1, k), weights) for k in range(1, 6)]
    assert dims == sorted(dims)
    assert dims[-1] == sys.invariant_dim
    assert dims[-2] == sys.invariant_dim  # stabilises by k = 4
    assert dims[0] == 1


def test_inadmissible_weight_rejected():
    ring = fusion_ring(A1, 1)
    with pytest.raises(InadmissibleWeightError):
        block_dim(ring, ((2,),))
    sys = tensor_system(A1, ((2,), (2,)))
    with pytest.raises(InadmissibleWeightError):
        block_subspace(sys, 1, (0, 1))


def test_block_subspace_a1_four_points():
    sys = tensor_system(A1, ((1,),) * 4)
    bs = block_subspace(sys, 1, (0, 1, 3, 7))
    assert bs.dim == 1
    assert sys.invariant_dim == 2
    bs2 = block_subspace(sys, 2, (0, 1, 3, 7))
    assert bs2.dim == 2
    # basis columns really live in the invariants and are independent
    total = bs.basis_in_total_space()
    assert total.ncols == 1 and not total.is_zero()


def test_block_subspace_z_dependence_and_genericity():
    sys = tensor_system(A1, ((1,),) * 4)
    rng = random.Random(17)
    dims = set()
    for _ in range(4):
        pts = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
               for _ in range(4)]
        bs = block_subspace(sys, 1, pts)
        dims.add(bs.dim)
    assert dims == {1}
    # the k=1 line inside the 2-dim invariants genuinely moves with z
    b1 = block_subspace(sys, 1, (0, 1, 3, 7)).coeffs_complex()
    b2 = block_subspace(sys, 1, (0, 1, 3, 12)).coeffs_complex()
    import numpy as np
    c1 = b1[:, 0] / np.linalg.norm(b1[:, 0])
    c2 = b2[:, 0] / np.linalg.norm(b2[:, 0])
    assert abs(abs(np.vdot(c1, c2))) < 1 - 1e-6


def test_block_subspace_vacuum_propagation():
    sys = tensor_system(A1, ((1,), (1,), (0,)))
    bs = block_subspace(sys, 1, (0.0, 1.5, -2.0))
    assert bs.dim == 1


def test_block_subspace_empty_invariants():
    # odd spin-half counts have no invariants at all; the block space is
    # zero dimensional and the fusion oracle agrees
    sys = tensor_system(A1, ((1,), (1,), (1,)))
    assert sys.invariant_dim == 0
    bs = block_subspace(sys, 1, (0, 1, 3))
    assert bs.dim == 0
    assert bs.coeffs.ncols == 0


def test_block_subspace_rank2_cases():
    bs = block_subspace(tensor_system(A2, ((1, 0), (0, 1), (1, 0), (0, 1))),
                        2, (0, 1, 3, 7))
    assert bs.dim == 2
    bs = block_subspace(tensor_system(G2, ((1, 0), (1, 0), (0, 0))),
                        1, (0, 1, 2))
    assert bs.dim == 1


def test_block_subspace_infinity_chart():
    sys = tensor_system(A1, ((1,),) * 4)
    bs = block_subspace(sys, 1, (0, 1, 3, 999), at_infinity=3)
    assert bs.dim == 1
    assert bs.chart_center is not None
    assert bs.points[3] == __import__("kzmono.exact",
                                      fromlist=["QQi"]).QQi(0)


@pytest.mark.parametrize("n, k, finite", [(4, 1, (0, 1, 3)),
                                          (6, 2, (0, 1, 3, 7, 15))])
def test_block_subspace_infinity_chart_is_the_far_point_limit(n, k, finite):
    # the block space with the last point at infinity is the limit of the
    # block spaces with that point at R; the principal angle decays as 1/R
    from scipy.linalg import subspace_angles
    sys = tensor_system(A1, ((1,),) * n)
    inf = block_subspace(sys, k, finite + (0,),
                         at_infinity=n - 1).coeffs_complex()
    for r in (10**2, 10**4, 10**8):
        far = block_subspace(sys, k, finite + (r,)).coeffs_complex()
        assert max(subspace_angles(inf, far)) < 5 / r


def test_block_subspace_validation():
    sys = tensor_system(A1, ((1,),) * 4)
    with pytest.raises(CoincidentPointsError):
        block_subspace(sys, 1, (0, 1, 1, 2))
    with pytest.raises(CoincidentPointsError):
        block_subspace(sys, 1, (0, 1, 2))


@pytest.mark.parametrize("flag", [1.7, "1"])
def test_block_subspace_rejects_non_integer_infinity_flag(flag):
    # only an integer names a point: int() would read 1.7 as point 1
    sys = tensor_system(A1, ((1,),) * 4)
    with pytest.raises(ValidationError,
                       match="at_infinity must be an integer"):
        block_subspace(sys, 1, (0, 1, 3, 7), at_infinity=flag)


def test_full_a1_matrix_against_fusion():
    rng = random.Random(23)
    for n in range(2, 7):
        for k in (1, 2, 3):
            sys = tensor_system(A1, ((1,),) * n)
            ring = fusion_ring(A1, k)
            expected = block_dim(ring, sys.weights)
            for trial in range(3):
                pts = [complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
                       for _ in range(n)]
                bs = block_subspace(sys, k, pts)
                assert bs.dim == expected


def test_exports():
    ring = fusion_ring(A1, 1)
    text = fusion_to_csv(ring)
    assert text.splitlines()[0] == "lambda,mu,nu,N"
    assert "1,1,0,1" in text.replace('"', "")
    sys = tensor_system(A1, ((1,),) * 4)
    bs = block_subspace(sys, 1, (0, 1, 3, 7))
    doc = block_to_json(bs)
    import json
    parsed = json.loads(doc)
    assert parsed["dim"] == 1
    assert parsed["invariant_dim"] == 2
