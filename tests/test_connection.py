"""KZ form evaluation, exact flatness, rotation monodromy."""

import random
from fractions import Fraction

import numpy as np
import pytest

from kzmono.algebra import build_algebra, casimir_scalar
from kzmono.blocks import block_subspace
from kzmono import reps
from kzmono.connection import (_kohno_relations, _kohno_residual,
                               flatness_check, kz_form, rotation_monodromy)
from kzmono.errors import CoincidentPointsError, KzmonoError
from kzmono.exact import integral
from kzmono.monodromy import braid_generator
from kzmono.reps import tensor_system

from fraction_reference import dense, omega_of

A1 = build_algebra("A", 1)
A2 = build_algebra("A", 2)
G2 = build_algebra("G", 2)


def test_prefactor():
    form = kz_form(tensor_system(A1, ((1,),) * 4), 2)
    assert form.prefactor == Fraction(1, 4)
    assert form.h == 2
    with pytest.raises(ValueError):
        kz_form(tensor_system(A1, ((1,), (1,))), 0)


def test_evaluate_translation_direction_vanishes():
    form = kz_form(tensor_system(A1, ((1,),) * 4), 1)
    z = [0 + 0j, 1 + 0j, 3 + 0j, 7 + 0j]
    out = form.evaluate(z, [2 + 1j] * 4)
    assert np.allclose(out, 0)


def test_evaluate_scaling_direction_is_casimir_scalar():
    sys = tensor_system(A1, ((1,),) * 4)
    for k in (1, 2, 3):
        form = kz_form(sys, k)
        z = [0.5 + 0.1j, 1 + 0j, 3 - 2j, 7 + 0.3j]
        out = form.evaluate(z, z)
        scalar = -float(sys.sum_casimirs() / (2 * (k + form.h)))
        assert np.allclose(out, scalar * np.eye(form.dim), atol=1e-12)


def test_evaluate_linear_in_velocity_and_pole_error():
    form = kz_form(tensor_system(A1, ((1,),) * 3), 1)
    z = [0 + 0j, 1 + 0j, 2.5 + 1j]
    rng = random.Random(1)
    v1 = [complex(rng.random(), rng.random()) for _ in range(3)]
    v2 = [complex(rng.random(), rng.random()) for _ in range(3)]
    lhs = form.evaluate(z, [a + 2 * b for a, b in zip(v1, v2)])
    rhs = form.evaluate(z, v1) + 2 * form.evaluate(z, v2)
    assert np.allclose(lhs, rhs)
    with pytest.raises(CoincidentPointsError):
        form.evaluate([0, 0, 1], v1)
    with pytest.raises(ValueError):
        form.evaluate([0, 1], v1)


def test_coefficients_at_subnormal_separation():
    # numpy divides through 1/dz, which overflows for a subnormal dz; the
    # coefficients must still be Python's quotients (finite here)
    form = kz_form(tensor_system(A1, ((1,),) * 4), 2)
    z = [0, 1j, 2.225073858507e-311, 3]
    v = [0, 0, 1e-300, 0]
    pref = float(form.prefactor)
    expected = [pref * (complex(v[i]) - complex(v[j]))
                / (complex(z[i]) - complex(z[j])) for i, j in form.pairs]
    coef = form.coefficients(z, v)
    assert np.isfinite(coef).all()
    assert coef.tolist() == expected


def test_trivial_slot_contributes_nothing():
    form = kz_form(tensor_system(A1, ((1,), (1,), (0,))), 1)
    for (i, j) in form.pairs:
        if 2 in (i, j):
            assert not form.omega_full[(i, j)].data


@pytest.mark.parametrize("alg,weights,k", [
    (A1, ((1,),) * 4, 1),
    (A1, ((1,),) * 5, 2),
    (A1, ((1,),) * 6, 3),
    (A1, ((2,), (1,), (1,), (2,)), 2),
    (A2, ((1, 0), (0, 1), (1, 0), (0, 1)), 2),
    (G2, ((1, 0), (1, 0), (0, 0)), 1),
    (build_algebra("B", 2), ((0, 1), (0, 1), (0, 0)), 1),
])
def test_flatness_exact(alg, weights, k):
    report = flatness_check(kz_form(tensor_system(alg, weights), k))
    assert report.exact
    assert report.max_abs_full == 0
    assert report.max_abs_restricted == 0
    assert report.checks > 0


def test_flatness_random_small_systems_property():
    rng = random.Random(9)
    for _ in range(5):
        n = rng.randint(3, 4)
        weights = tuple((rng.randint(0, 2),) for _ in range(n))
        report = flatness_check(kz_form(tensor_system(A1, weights), 2))
        assert report.exact


def ref_max_abs_full(form):
    """Test-only Kohno residual on the full space: dense int64 products of
    D Omega, D the lcm of the denominators (every entry far below 2^20, so
    no product or sum leaves int64), divided by D^2 at the end."""
    denom, mats = integral(form.omega_full.values())
    omega = {p: m.to_array(np.int64) for p, m in zip(form.omega_full, mats)}
    assert max(np.abs(m).max() for m in omega.values()) < 2 ** 20

    def commutator(a, b):
        return int(np.abs(a @ b - b @ a).max())

    worst = 0
    for p in form.pairs:
        for q in form.pairs:
            if q > p and not set(p) & set(q):
                worst = max(worst, commutator(omega[p], omega[q]))
        for k2 in range(form.n):
            if k2 not in p:
                rest = omega[(min(p[0], k2), max(p[0], k2))] \
                    + omega[(min(p[1], k2), max(p[1], k2))]
                worst = max(worst, commutator(omega[p], rest))
    return Fraction(worst, denom * denom)


def test_flatness_negative_control():
    form = kz_form(tensor_system(A1, ((1,),) * 4), 1)
    # inject a sign error into one exact off-diagonal coefficient
    bad = form.omega_full[(0, 1)].copy()
    (r, c) = next((r, c) for (r, c) in sorted(bad.data) if r != c)
    bad.data[(r, c)] = -bad.data[(r, c)]
    form.omega_full[(0, 1)] = bad
    report = flatness_check(form)
    assert not report.exact
    assert report.max_abs_full > 0
    assert type(report.max_abs_full) is Fraction
    assert report.max_abs_full == ref_max_abs_full(form)


@pytest.mark.parametrize("alg,weights,k,how,expect", [
    (A1, ((1,),) * 6, 2, "flip", 2),
    (A1, ((1,),) * 6, 2, "move", 1),
    (G2, ((1, 0),) * 3, 1, "flip", Fraction(2, 9)),
    (G2, ((1, 0),) * 3, 1, "move", Fraction(1, 9)),
], ids=["A1^6-flip", "A1^6-move", "G2^3-flip", "G2^3-move"])
def test_altered_full_omega_over_weight_classes(alg, weights, k, how,
                                                expect):
    # an altered omega_full runs over the total-weight classes of the
    # total space; an entry moved to a column of another total weight
    # joins two classes, and the residual over the joined ones is exact
    form = kz_form(tensor_system(alg, weights), k)
    bad = form.omega_full[(0, 1)].copy()
    r, c = next(rc for rc in sorted(bad.data) if rc[0] != rc[1])
    if how == "flip":
        bad.data[(r, c)] = -bad.data[(r, c)]
    else:
        total = reps.total_weights([f.basis_weights
                                    for f in form.system.factors])
        c2 = int(np.flatnonzero((total != total[r]).any(axis=1))[0])
        bad.data[(r, c2)] = bad.data.pop((r, c))
    form.omega_full[(0, 1)] = bad
    report = flatness_check(form)
    assert report.max_abs_full == expect == ref_max_abs_full(form)
    assert type(report.max_abs_full) is Fraction
    assert report.max_abs_restricted == 0


def test_braid_run_builds_no_total_space_omega():
    system = tensor_system(A1, ((1,),) * 4)
    form = kz_form(system, 2)
    braid_generator(form, block_subspace(system, 2, (0, 1, 3, 7)), 1)
    assert "omega_full" not in form.__dict__
    # built on first access, then cached
    assert form.omega_full[(0, 1)] == system.omega_pair(0, 1)
    assert form.__dict__["omega_full"] is form.omega_full


def test_rotation_monodromy_examples():
    sys = tensor_system(A1, ((1,),) * 4)
    report = rotation_monodromy(kz_form(sys, 2))
    # sum of Casimirs 6, k+h = 4: exp(3 pi i/2) = -i
    assert abs(report.scalar - (-1j)) < 1e-14
    assert report.max_residual == 0

    sys = tensor_system(A1, ((1,), (1,), (0,)))
    report = rotation_monodromy(kz_form(sys, 1))
    assert abs(report.scalar - (-1)) < 1e-14
    assert report.max_residual == 0

    sys = tensor_system(A1, ((0,), (0,), (0,)))
    report = rotation_monodromy(kz_form(sys, 1))
    assert abs(report.scalar - 1) < 1e-14
    assert report.max_residual == 0


def shift(form, pair, by):
    """Add by * Id to the stored Omega of `pair`, in place."""
    denom, stack = form.omega_inv
    stack[form.pairs.index(pair)] += by * denom * np.eye(form.dim,
                                                         dtype=stack.dtype)


def test_rotation_residual_is_the_exact_deviation():
    # Omega^{01} + Id moves sum_{i<j} Omega^{ij} + (sum_i c_i)/2 Id from 0
    # to Id: the residual is that deviation, exactly, as a float; a scalar
    # commutes with every Omega, so flatness cannot see it
    form = kz_form(tensor_system(A1, ((1,),) * 4), 2)
    shift(form, (0, 1), 1)
    report = rotation_monodromy(form)
    assert report.max_residual == 1.0
    assert type(report.max_residual) is float
    assert abs(report.scalar - (-1j)) < 1e-14
    assert flatness_check(form).exact


def test_rotation_residual_misses_a_compensated_shift():
    # the known gap named in ROADMAP items 4, 5 and 13: Omega^{01} + Id
    # with Omega^{23} - Id leaves sum_{i<j} Omega^{ij} as it was, so the
    # rotation identity holds exactly and flatness too; only the per-pair
    # spectra of item 4 or the exact scalars of item 5 can catch it
    form = kz_form(tensor_system(A1, ((1,),) * 4), 2)
    shift(form, (0, 1), 1)
    shift(form, (2, 3), -1)
    assert rotation_monodromy(form).max_residual == 0
    assert flatness_check(form).exact


def test_rotation_monodromy_needs_invariants():
    sys = tensor_system(A1, ((1,),))
    form = kz_form(sys, 1)
    with pytest.raises(KzmonoError):
        rotation_monodromy(form)


@pytest.mark.parametrize("alg, weights, k", [
    (A1, ((1,),) * 6, 2), (A1, ((1,), (2,), (1,), (2,)), 2),
    (A2, ((1, 0), (0, 1), (1, 0), (0, 1)), 2), (G2, ((1, 0),) * 3, 1),
], ids=["A1^6", "A1-mixed", "A2-mixed", "G2^3"])
def test_residue_norms_bound_the_gram_residue_norms(alg, weights, k):
    # the bound on the largest |eigenvalue| of R_p, shared by the pairs of
    # equal slot weights, bounds the 2-norm of the symmetric S_p within
    # d^(1/256), for one pair or a sum; and the Gram residues are built
    # only on request
    form = kz_form(tensor_system(alg, weights), k)
    groups = [(r,) for r in range(len(form.pairs))]
    groups += [tuple(range(len(form.pairs))), (0, len(form.pairs) - 1)]
    norms = form.residue_norms(groups)
    assert "gram_residues" not in form.__dict__
    _chol, res = form.gram_residues
    for g, norm in zip(groups, norms):
        exact = np.linalg.norm(res[list(g)].sum(axis=0), 2)
        assert exact * (1 - 1e-12) <= norm
        assert norm <= exact * form.dim ** (1 / 256) * (1 + 1e-12)


def test_rotation_scalar_matches_casimirs_generic():
    rng = random.Random(4)
    for _ in range(5):
        n = rng.randint(2, 4)
        weights = tuple((rng.randint(0, 2),) for _ in range(n))
        sys = tensor_system(A1, weights)
        if sys.invariant_dim == 0:
            continue
        k = rng.randint(1, 3)
        report = rotation_monodromy(kz_form(sys, k))
        csum = sum(casimir_scalar(A1, w) for w in weights)
        expect = np.exp(1j * np.pi * float(csum) / (k + 2))
        assert abs(report.scalar - expect) < 1e-13
        assert report.max_residual == 0


def ref_max_abs_restricted(form):
    """Test-only copy of the old dense-row restricted Kohno residual."""
    n, d = form.n, form.dim
    rows = {p: dense(m).tolist() for p, m in omega_of(form).items()}

    def restr_comm(p, qs):
        a = rows[p]
        b = [[sum(rows[q][x][y] for q in qs) for y in range(d)]
             for x in range(d)]
        out = Fraction(0)
        for x in range(d):
            for y in range(d):
                v = sum(a[x][t] * b[t][y] - b[x][t] * a[t][y]
                        for t in range(d))
                out = max(out, abs(v))
        return out

    worst = Fraction(0)
    for (i, j) in form.pairs:
        for (k2, l2) in form.pairs:
            if (k2, l2) > (i, j) and not {i, j} & {k2, l2}:
                worst = max(worst, restr_comm((i, j), [(k2, l2)]))
        for k2 in range(n):
            if k2 not in (i, j):
                worst = max(worst, restr_comm(
                    (i, j), [(min(i, k2), max(i, k2)),
                             (min(j, k2), max(j, k2))]))
    return worst


@pytest.mark.parametrize("alg,weights,k", [
    (A1, ((1,),) * 4, 1),
    (A2, ((1, 0), (0, 1), (1, 0), (0, 1)), 2),
], ids=["A1^4", "A2-4pt"])
def test_flatness_restricted_negative_control(alg, weights, k):
    # a sign error in one restricted off-diagonal coefficient leaves the
    # full space flat, so only the restricted residual can catch it
    form = kz_form(tensor_system(alg, weights), k)
    stack = form.omega_inv[1]     # Omega^{01} is its first matrix
    (r, c) = next((r, c) for r, c in zip(*np.nonzero(stack[0])) if r != c)
    stack[0, r, c] = -stack[0, r, c]
    report = flatness_check(form)
    assert report.max_abs_restricted == ref_max_abs_restricted(form)
    assert report.max_abs_restricted > 0
    assert report.max_abs_full == 0
    assert not report.exact


def _flip_local_omega(monkeypatch):
    """Make every local Omega come back with its first off-diagonal entry
    (its entries run by row, then column) negated, as a copy: the cached
    arrays stay as they are."""
    clean = reps.local_omega

    def flipped(alg, lam, mu):
        denom, size, rows, cols, values = clean(alg, lam, mu)
        values = values.copy()
        off = np.flatnonzero(rows != cols)[:1]
        values[off] = -values[off]
        return denom, size, rows, cols, values

    monkeypatch.setattr(reps, "local_omega", flipped)


@pytest.mark.parametrize("alg,weights,k", [
    (A1, ((1,), (2,), (1,), (2,)), 2),
    (A1, ((2,), (1,), (1,), (0,), (2,)), 2),
    (A1, ((1,), (1,), (2,), (1,), (1,)), 3),
    (A2, ((1, 0), (0, 1), (1, 0), (0, 1)), 2),
], ids=["A1-mixed-4pt", "A1-mixed-5pt-trivial", "A1-mixed-5pt", "A2-4pt"])
def test_flatness_local_route_matches_full_route(monkeypatch, alg, weights,
                                                 k):
    # a corrupted local Omega reaches both routes: the per-triple residual
    # must be the full-space residual of the embedded matrices, exactly;
    # those are built on a second form, so the first takes the local route
    form = kz_form(tensor_system(alg, weights), k)
    _flip_local_omega(monkeypatch)
    ref = kz_form(form.system, k)
    omega = ref.omega_full
    report = flatness_check(form)
    assert "omega_full" not in form.__dict__
    full = _kohno_residual(omega, _kohno_relations(form.n),
                           [f.basis_weights for f in form.system.factors])
    assert type(report.max_abs_full) is Fraction
    assert report.max_abs_full == full == ref_max_abs_full(ref)
    assert report.max_abs_full > 0
    assert report.max_abs_restricted == 0
    monkeypatch.undo()
    assert flatness_check(kz_form(tensor_system(alg, weights), k)).exact


@pytest.mark.parametrize("alg,weights,k", [
    (A1, ((1,),) * 6, 2),
    (A1, ((1,), (2,), (1,), (2,)), 2),
    (A2, ((1, 0), (0, 1), (1, 0), (0, 1)), 2),
    (G2, ((1, 0),) * 3, 1),
    (A1, ((1,), (1,)), 1),
], ids=["A1^6", "A1-mixed", "A2-4pt", "G2^3", "A1^2-no-triple"])
def test_flatness_builds_no_total_space_omega(alg, weights, k):
    system = tensor_system(alg, weights)
    form = kz_form(system, k)
    report = flatness_check(form)
    assert "omega_full" not in form.__dict__
    assert report.exact
    assert type(report.max_abs_full) is Fraction
    # a built but unmodified omega_full gives the same report
    built = kz_form(system, k)
    built.omega_full
    assert flatness_check(built) == report

