"""The array tensor layer against the sparse and rational routes it replaced.

The references below are the earlier routes, kept here as test-only
copies. The invariants were the joint kernel of the diagonal e_i and f_i
(`fraction_reference.ref_invariant_basis`); the library solves the e_i
alone and checks the f_i after. `ref_apply_local` and `ref_slot_sum`
applied a local matrix to
sparse columns by splitting every total index into slot digits in a
Python loop. On them, `restrict_local` formed the image of the `Fraction`
invariant basis and its witness in `Fraction` arithmetic, and later the
image of the integral basis and a sparse integer witness
(`ref_integer_restrict_local`); `invariant_gram` applied the factor Gram
matrices slot by slot; `block_subspace` applied
F(z) = sum_s z_s f_theta^(s) to the basis in `QQi` arithmetic; the
restricted Kohno residual ran sparse commutators on Python ints, and the
full-space one did the same on each three-factor system, its Omega
embedded from the local matrices. The library holds the integral basis
as one dense integer array and applies every local matrix to it as one
contraction (restriction, Gram matrix, and the block image over Z[i] as
real and imaginary arrays), and runs both Kohno residuals as float64 BLAS
products under an exactness bound, the full-space one over the
total-weight blocks of each three-factor space. Every output must be
exactly equal, value types included. Restrictions and the Gram matrix come
as (denominator, integer array), compared as the Fractions they stand for
(`rational`); `KZForm` keeps the restricted Omega as one integer stack over
one denominator, whose float rows and Gram residues must be bit for bit
those of the former route, each Fraction rounded to a float on its own.
"""

import itertools
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np
import pytest

from kzmono import connection, reps
from kzmono.algebra import build_algebra
from kzmono.blocks import block_subspace
from kzmono.connection import (_kohno_relations, _restricted_residual,
                               _triple_residual, flatness_check, kz_form)
from kzmono.errors import ConstructionError
from kzmono.exact import (QQi, SRMatrix, exact_dtype, exact_matmul, integral,
                          nullspace)
from kzmono.reps import TensorSystem, irrep, tensor_system

from fraction_reference import (dense, entries, local_of, omega_matrix,
                                omega_of, product, rational,
                                ref_invariant_basis, ref_root_vectors,
                                scaled, view)

A1 = build_algebra("A", 1)
A2 = build_algebra("A", 2)
B2 = build_algebra("B", 2)
C3 = build_algebra("C", 3)
G2 = build_algebra("G", 2)


# -- references (the sparse and rational routes) ----------------------------

def ref_apply_local(system, slots, local, cols):
    """local (x) Id applied to the columns of cols, by a Python digit loop
    over the total indices of cols; local, cols and the result are object
    arrays."""
    strides = [1] * system.n
    for s in range(system.n - 2, -1, -1):
        strides[s] = strides[s + 1] * system.dims[s + 1]
    dims = [system.dims[s] for s in slots]
    strides = [strides[s] for s in slots]
    offset = [sum(d * st for d, st in zip(digits, strides))
              for digits in itertools.product(*map(range, dims))]
    if local.shape != (len(offset), len(offset)):
        raise ValueError(f"local matrix is not {len(offset)} square")
    hits = {}
    for r, c in zip(*np.nonzero(local)):
        hits.setdefault(c, []).append((r, local[r, c]))
    out = np.zeros((system.total_dim, cols.shape[1]), dtype=object)
    for g, c in zip(*np.nonzero(cols)):
        loc = 0
        for d, st in zip(dims, strides):
            loc = loc * d + (g // st) % d
        for r, w in hits.get(loc, ()):
            out[g - offset[loc] + offset[r], c] += w * cols[g, c]
    return out


def ref_slot_sum(system, mats, cols):
    """Sum over slots s of mats[s] acting on slot s, via ref_apply_local."""
    return sum(ref_apply_local(system, (s,), m, cols)
               for s, m in enumerate(mats))


def ref_restrict_local(system, slots, local):
    basis = dense(system.invariant_basis)
    image = ref_apply_local(system, slots, dense(local), basis)
    xs = image[system._unit_rows]
    if not np.array_equal(product(basis, xs), image):
        raise ValueError("operator does not preserve the subspace")
    return SRMatrix.from_rows(xs.tolist(), xs.shape[1])


def ref_integer_restrict_local(system, slots, local):
    """The restriction over Z with an integer witness."""
    delta, (ints,) = integral([system.invariant_basis])
    scale, (op,) = integral([local])
    b = dense(ints)
    image = ref_apply_local(system, slots, dense(op), b)
    xs = image[system._unit_rows]
    if not np.array_equal(product(b, xs), delta * image):
        raise ValueError("operator does not preserve the subspace")
    denom = scale * delta
    return SRMatrix(*xs.shape, {(i, j): Fraction(xs[i, j], denom)
                                for i, j in zip(*np.nonzero(xs))})


def ref_invariant_gram(system):
    b = dense(system.invariant_basis)
    image = b
    for s, rep in enumerate(system.factors):
        image = ref_apply_local(system, (s,), dense(view(rep, "gram")), image)
    return SRMatrix.from_rows(product(b.T, image).tolist(), b.shape[1])


def ref_block_coeffs(system, k, points):
    """Block coefficients at the (already charted) points, over Q(i)."""
    step = [scaled(ref_root_vectors(rep)[1][-1], z)
            for rep, z in zip(system.factors, points)]
    image = scaled(dense(system.invariant_basis), QQi(1))
    for _ in range(k + 1):
        image = ref_slot_sum(system, step, image)
    kernel = nullspace(SRMatrix.from_rows(image.tolist(), image.shape[1]))
    return SRMatrix(kernel.nrows, kernel.ncols, {
        rc: QQi.from_complex(v) for rc, v in kernel.data.items()})


def ref_kohno_residual(omega, relations):
    denom = lcm(*{v.denominator for m in omega.values()
                  for v in m.data.values()})
    ints = {}
    for p, m in omega.items():
        ints[p] = np.zeros((m.nrows, m.ncols), dtype=object)
        for (r, c), v in m.data.items():
            ints[p][r, c] = int(v * denom)
    worst = 0
    for p, qs in relations:
        rest = sum(ints[q] for q in qs)
        residual = product(ints[p], rest) - product(rest, ints[p])
        worst = max(worst, int(np.abs(residual).max(initial=0)))
    return Fraction(worst, denom * denom)


def ref_full_residual(form):
    system = form.system
    worst = Fraction(0)
    for ws in {tuple(system.weights[s] for s in t)
               for t in itertools.combinations(range(form.n), 3)}:
        sub = TensorSystem(system.alg, ws)
        omega = {p: sub.omega_pair(*p)
                 for p in itertools.combinations(range(3), 2)}
        worst = max(worst, ref_kohno_residual(omega, _kohno_relations(3)))
    return worst


def kinds(value):
    if isinstance(value, QQi):
        return (QQi, type(value.re), type(value.im))
    return (type(value),)


def assert_identical(got, ref):
    """Equal matrices whose every entry has the reference's value types."""
    assert (got.nrows, got.ncols) == (ref.nrows, ref.ncols)
    assert got.data.keys() == ref.data.keys()
    for key, v in ref.data.items():
        assert got.data[key] == v
        assert kinds(got.data[key]) == kinds(v)


# -- the systems ------------------------------------------------------------

SYSTEMS = {
    # A1^3 has no invariants
    **{f"A1^{n}": (A1, ((1,),) * n, 2) for n in range(3, 9)},
    # invariant bases with denominator lcm delta = 2, 2, 6 and 6
    "A1-mixed": (A1, ((1,), (2,), (1,), (2,)), 2),
    "G2-mixed": (G2, ((0, 1), (1, 0), (1, 0)), 2),
    "A2-adjoint^3": (A2, ((1, 1),) * 3, 2),
    "C3-mixed": (C3, ((1, 0, 0), (1, 0, 0), (0, 1, 0)), 1),
    "A2-4pt": (A2, ((1, 0), (0, 1), (1, 0), (0, 1)), 2),
    "A2^6": (A2, ((1, 0),) * 6, 1),
    "G2^3": (G2, ((1, 0),) * 3, 1),
    "G2^4": (G2, ((1, 0),) * 4, 1),
    "B2^4": (B2, ((0, 1),) * 4, 1),
}
DELTA = {"A1-mixed": 2, "G2-mixed": 2, "A2-adjoint^3": 6, "C3-mixed": 6}


@lru_cache(maxsize=None)
def system_of(name):
    alg, weights, _k = SYSTEMS[name]
    return tensor_system(alg, weights)


@pytest.fixture(scope="module", params=sorted(SYSTEMS))
def case(request):
    return request.param, system_of(request.param), SYSTEMS[request.param][2]


def test_integral_basis(case):
    name, system, _k = case
    delta, ints = system.integral_basis
    assert delta == DELTA.get(name, 1)
    assert ints.shape == (system.total_dim, system.invariant_dim)
    assert ints.dtype == np.int64
    assert np.array_equal(ints, delta * dense(system.invariant_basis))


def test_invariant_basis_matches_digit_loop_reference(case):
    # the e-rows alone against the joint kernel of the e- and f-rows
    _name, system, _k = case
    assert_identical(system.invariant_basis, ref_invariant_basis(system))


def test_invariants_solve_the_e_rows_alone(monkeypatch):
    # one block per simple root goes to the kernel, so the f-rows cannot
    # come back unnoticed
    calls = []

    def counting(*blocks):
        calls.append(len(blocks))
        return nullspace(*blocks)

    monkeypatch.setattr(reps, "nullspace", counting)
    for name in ("A1^4", "G2-mixed", "C3-mixed"):
        alg, weights, _k = SYSTEMS[name]
        calls.clear()
        assert tensor_system(alg, weights).invariant_dim
        assert calls == [alg.rank], name


@pytest.mark.parametrize("name", ["A1^4", "G2-mixed"])
@pytest.mark.parametrize("corrupt", [False, True], ids=["copy", "corrupt"])
def test_f_post_check_rejects_a_corrupted_f_column(name, corrupt):
    # slot 0 gets a copy of its module whose f_i v_lam (column 0, nonzero
    # as lam_i > 0) is doubled; the invariants always meet that column, so
    # the e-only kernel comes out as before and only the f check sees it
    alg, weights, _k = SYSTEMS[name]
    system = tensor_system(alg, weights)
    rep = system.factors[0]
    i = next(i for i, label in enumerate(rep.highest_weight) if label)
    f_int = list(rep.f_int)
    nums, dens = f_int[i]
    if corrupt:
        f_int[i] = ({rc: 2 * v if rc[1] == 0 else v
                     for rc, v in nums.items()}, dens)
    system.factors = (reps.Representation(
        alg, rep.highest_weight, rep.basis_weights, rep.e_int, f_int,
        rep.gram_int), *system.factors[1:])
    if not corrupt:
        assert system.invariant_basis == system_of(name).invariant_basis
        return
    with pytest.raises(ConstructionError, match=f"not killed by f_{i + 1}"):
        system.invariant_basis


def test_restriction_matches_rational_route(case):
    _name, system, _k = case
    for i, j in itertools.combinations(range(system.n), 2):
        key, local = system._pair(i, j)
        local = omega_matrix(local)
        got = rational(system.omega_restricted(i, j))
        assert_identical(got, ref_restrict_local(system, key, local))
        assert_identical(got, ref_integer_restrict_local(system, key, local))
    for i in range(system.n - 1):
        if system.weights[i] == system.weights[i + 1]:
            d = system.dims[i]
            flip = SRMatrix(d * d, d * d, {(b * d + a, a * d + b): Fraction(1)
                                           for a in range(d)
                                           for b in range(d)})
            got = rational(system.swap_restricted(i))
            assert_identical(got, ref_restrict_local(system, (i, i + 1),
                                                     flip))
            assert_identical(got, ref_integer_restrict_local(
                system, (i, i + 1), flip))


def test_gram_matches_sparse_route(case):
    _name, system, _k = case
    assert_identical(rational(system.invariant_gram()),
                     ref_invariant_gram(system))


def test_stack_matches_rational_route(case):
    # KZForm keeps every restricted Omega in one integer stack over one
    # denominator: entry for entry the rational restriction, and its float
    # rows and Gram residues bit for bit the former Fraction -> float route
    _name, system, k = case
    form = kz_form(system, k)
    denom, stack = form.omega_inv
    d = system.invariant_dim
    assert stack.shape == (len(form.pairs), d, d)
    assert stack.dtype == np.int64
    refs = {p: ref_restrict_local(system, p, omega_matrix(system._pair(*p)[1]))
            for p in form.pairs}
    for p, got in omega_of(form).items():
        assert_identical(got, refs[p])
    rows = np.array([refs[p].to_array(complex).ravel() for p in form.pairs],
                    dtype=complex).reshape(len(form.pairs), d * d)
    assert form._omega_rows.dtype == complex
    assert form._omega_rows.tobytes() == rows.tobytes()
    if d == 0:
        return
    chol = np.linalg.cholesky(ref_invariant_gram(system).to_array(float))
    res = chol.T @ (float(form.prefactor) * rows.real.reshape(-1, d, d)) \
        @ np.linalg.inv(chol).T
    got_chol, got_res = form.gram_residues
    assert got_chol.tobytes() == chol.tobytes()
    assert got_res.tobytes() == ((res + res.transpose(0, 2, 1)) / 2).tobytes()


def flip_first(form):
    """Negate the first off-diagonal entry of the stored Omega^{01}, by
    row, then column; False if it has none."""
    stack = form.omega_inv[1]
    hits = [(r, c) for r, c in zip(*np.nonzero(stack[0])) if r != c]
    if hits:
        stack[(0, *hits[0])] *= -1
    return bool(hits)


@pytest.mark.parametrize("flip", [False, True], ids=["clean", "flip"])
def test_restricted_residual_matches_rational_route(case, flip):
    _name, system, k = case
    form = kz_form(system, k)
    relations = _kohno_relations(form.n)
    flipped = flip and flip_first(form)
    got = _restricted_residual(form.omega_inv, form.pairs, relations)
    ref = ref_kohno_residual(omega_of(form), relations)
    assert got == ref
    assert type(got) is type(ref) is Fraction
    assert (got == 0) == (not flipped)
    assert flatness_check(form).max_abs_restricted == got


def test_restriction_witness_rejects_what_leaves_the_span():
    # Omega^{01} plus a stray entry between two zero-weight vectors of
    # V_1 (x) V_1 no longer preserves the invariants of A1 (1)^4; both
    # the array witness and the sparse one refuse it
    system = system_of("A1^4")
    _key, local = system._pair(0, 1)
    bad = omega_matrix(local)
    bad.data[(1, 1)] += 1
    with pytest.raises(ValueError, match="preserve"):
        system.restrict_local((0, 1), local_of(bad))
    with pytest.raises(ValueError, match="preserve"):
        ref_integer_restrict_local(system, (0, 1), bad)


def test_flatness_matches_rational_route(case):
    _name, system, k = case
    form = kz_form(system, k)
    relations = _kohno_relations(form.n)
    report = flatness_check(form)
    assert report.checks == len(relations)
    for got, ref in ((report.max_abs_restricted,
                      ref_kohno_residual(omega_of(form), relations)),
                     (report.max_abs_full, ref_full_residual(form))):
        assert got == ref == 0
        assert type(got) is type(ref) is Fraction


# Gaussian-integer points, float points, and float points whose exact
# images carry coefficients of more than 700 bits
POINTS = {
    "gaussian": [complex(2 ** s - 1, s % 3 - 1) for s in range(8)],
    "float": [0.1 + 0.05j, 1.03 - 0.02j, 3.07 + 0.01j, 6.95 + 0.08j,
              15.02 - 0.06j, 31.1 + 0.03j, 63.3 - 0.07j, 127.9 + 0.02j],
    "wide": [3e-220 + 0.5j, 1.1, 3.3e-5 + 2j, 7.7 - 1e-230j, 15.1,
             31.7 + 4e-215j, 63.3, 127.9],
}


# every system at every kind of points, in both charts; the 700-bit
# points in the infinity chart of A1^8 are left out for time (the chart
# inverts each point, so every coefficient grows far past 700 bits)
BLOCK_CASES = [(name, points, at_infinity) for name in sorted(SYSTEMS)
               for points in sorted(POINTS) for at_infinity in (None, 0)
               if (name, points, at_infinity) != ("A1^8", "wide", 0)]


@pytest.mark.parametrize("name, points, at_infinity", BLOCK_CASES)
def test_block_kernel_matches_rational_route(name, points, at_infinity):
    system, k = system_of(name), SYSTEMS[name][2]
    bs = block_subspace(system, k, POINTS[points][:system.n],
                        at_infinity=at_infinity)
    assert_identical(bs.coeffs, ref_block_coeffs(system, k, bs.points))


def test_wide_points_give_wide_coefficients():
    system = tensor_system(A1, ((1,),) * 6)
    bs = block_subspace(system, 2, POINTS["wide"][:6])
    bits = max(x.bit_length() for v in bs.coeffs.data.values()
               for x in (v.re.numerator, v.re.denominator,
                         v.im.numerator, v.im.denominator))
    assert bits > 700
    assert_identical(bs.coeffs, ref_block_coeffs(system, 2, bs.points))


def test_zero_image_block_kernel_is_the_gaussian_identity():
    # at A1 (1)^2, k=1, every invariant is a block: F^2 kills the basis
    system = tensor_system(A1, ((1,), (1,)))
    bs = block_subspace(system, 1, (0, 1))
    assert bs.dim == system.invariant_dim == 1
    assert_identical(bs.coeffs, ref_block_coeffs(system, 1, bs.points))
    assert bs.coeffs.data == {(0, 0): QQi(1)}


def test_flipped_restricted_omega_matches_rational_route(monkeypatch):
    form = kz_form(tensor_system(A1, ((1,),) * 6), 2)
    assert flip_first(form)
    report = flatness_check(form)
    assert report.max_abs_restricted == 4
    assert report.max_abs_restricted == ref_kohno_residual(
        omega_of(form), _kohno_relations(form.n))
    assert report.max_abs_full == 0
    # the invariants are one class of size 5: with the cap at 1 it runs as
    # sparse products on Python ints, to the same residual
    monkeypatch.setattr(connection, "_DENSE_MAX", 1)
    assert flatness_check(form) == report


def test_bound_failure_falls_back_to_exact_integers():
    # entries near 2^26 break 2 d q A^2 < 2^53; the exact residual
    # a (b + b') = 2^53 + 5 * 2^26 + 3 is odd and above 2^53, so no
    # float64 product can carry it
    a, b, b2 = 2 ** 26 + 1, 2 ** 26 + 2, 2 ** 26 + 1
    pairs = [(0, 1), (2, 3)]
    stack = np.zeros((2, 3, 3), dtype=np.int64)
    stack[0, 0, 1:] = a
    stack[1, 1:, 0] = b, b2
    big = {p: rational((1, m)) for p, m in zip(pairs, stack)}
    relations = [((0, 1), [(2, 3)])]
    got = _restricted_residual((1, stack), pairs, relations)
    assert got == ref_kohno_residual(big, relations) == a * (b + b2)
    assert a * (b + b2) > 2 ** 53 and a * (b + b2) % 2
    assert type(got) is Fraction
    # entries beyond int64 stay Python ints
    huge = stack.astype(object) * 2 ** 40
    assert _restricted_residual((1, huge), pairs, relations) \
        == a * (b + b2) * 2 ** 80


def test_exact_matmul_falls_back_to_python_ints():
    # the same odd sum above 2^53 as one int64 product: it comes back as a
    # Python int; scaled down it runs in float64 and comes back as int64
    a, b, b2 = 2 ** 26 + 1, 2 ** 26 + 2, 2 ** 26 + 1
    left = np.array([[a, a]], dtype=np.int64)
    got = exact_matmul(left, np.array([[b], [b2]], dtype=np.int64))
    assert got.dtype == object and got[0, 0] == a * (b + b2)
    assert type(got[0, 0]) is int
    small = exact_matmul(left // 2 ** 20, np.array([[5], [4]]))
    assert small.dtype == np.int64 and small[0, 0] == 64 * 9
    # an operand beyond 2^53 is not held by float64, even against zeros
    assert exact_dtype(1, 0, 2 ** 60) is object
    huge = np.array([[2 ** 60 + 1]], dtype=np.int64)
    assert exact_matmul(huge, np.ones((1, 1), dtype=np.int64))[0, 0] \
        == 2 ** 60 + 1


@pytest.mark.parametrize("weights", [((1,),) * 3, ((1,),) * 2],
                         ids=["no-invariants", "no-relations"])
def test_degenerate_restricted_residuals(weights):
    form = kz_form(tensor_system(A1, weights), 1)
    report = flatness_check(form)
    assert report.max_abs_restricted == 0
    assert type(report.max_abs_restricted) is Fraction
    assert report.exact
    relations = _kohno_relations(form.n)
    assert report.max_abs_restricted == ref_kohno_residual(omega_of(form),
                                                           relations)


# -- the full-space residual over weight blocks -------------------------------

FULL_SYSTEMS = {
    "G2^3": (G2, ((1, 0),) * 3, 1),
    "G2^4": (G2, ((1, 0),) * 4, 1),
    "B2^4": (B2, ((0, 1),) * 4, 1),
    "A1-mixed": SYSTEMS["A1-mixed"],
    "A2-4pt": SYSTEMS["A2-4pt"],
    "A1^6": SYSTEMS["A1^6"],
}


def flip_entry(alg, lam, mu, bad):
    """Negate the first off-diagonal entry (as test_connection does)."""
    entry = next((rc for rc in sorted(bad.data) if rc[0] != rc[1]), None)
    if entry is not None:
        bad.data[entry] = -bad.data[entry]


def move_entry(alg, lam, mu, bad):
    """Move the first off-diagonal entry to the first column of another
    total weight in its row: the matrix no longer preserves weight."""
    wts = [tuple(map(sum, zip(a, b)))
           for a in irrep(alg, lam).basis_weights
           for b in irrep(alg, mu).basis_weights]
    r, c = next(rc for rc in sorted(bad.data) if rc[0] != rc[1])
    c2 = next(j for j, w in enumerate(wts) if w != wts[r])
    bad.data[(r, c2)] = bad.data.pop((r, c))


def corrupt_local_omega(monkeypatch, how):
    """Make every local Omega come back corrupted by `how`, as a copy: the
    cached matrices stay as they are."""
    clean = reps.local_omega

    def corrupted(alg, lam, mu):
        denom, size, rows, cols, values = clean(alg, lam, mu)
        bad = SRMatrix(size, size, dict(zip(zip(rows.tolist(), cols.tolist()),
                                      values.tolist())))
        how(alg, lam, mu, bad)
        return (denom, *entries(bad))

    monkeypatch.setattr(reps, "local_omega", corrupted)


def block_sizes(monkeypatch):
    """Record the block size s of each `exact_dtype` call of connection:
    the largest block of each three-factor check of `_full_residual`,
    whose commutator entries are sums of 2 s products."""
    sizes = []
    clean = connection.exact_dtype

    def spy(terms, *factors):
        sizes.append(terms // 2)
        return clean(terms, *factors)

    monkeypatch.setattr(connection, "exact_dtype", spy)
    return sizes


@pytest.mark.parametrize("name", sorted(FULL_SYSTEMS))
@pytest.mark.parametrize("how", [None, flip_entry, move_entry],
                         ids=["clean", "flip", "move"])
def test_full_residual_matches_rational_route(monkeypatch, name, how):
    alg, weights, k = FULL_SYSTEMS[name]
    form = kz_form(tensor_system(alg, weights), k)
    relations = _kohno_relations(form.n)
    spy = block_sizes(monkeypatch)
    connection._full_residual(form, relations)
    clean = spy[:]
    if how is not None:
        corrupt_local_omega(monkeypatch, how)
    connection._full_residual(form, relations)
    sizes = spy[len(clean):]
    report = flatness_check(form)
    ref = ref_full_residual(form)
    assert report.max_abs_full == ref
    assert type(report.max_abs_full) is type(ref) is Fraction
    assert (ref == 0) == (how is None)
    assert report.max_abs_restricted == 0
    # the weight blocks are smaller than the three-factor space; a moved
    # entry joins the blocks it connects, which stay smaller than the space
    spaces = [irrep(alg, a).dim * irrep(alg, b).dim * irrep(alg, c).dim
              for a, b, c in dict.fromkeys(itertools.combinations(weights,
                                                                  3))]
    assert len(sizes) == len(clean) == len(spaces)
    assert all(s < space for s, space in zip(sizes, spaces))
    if how is move_entry:
        assert all(s >= c for s, c in zip(sizes, clean)) and sizes != clean
    else:
        assert sizes == clean


@pytest.mark.parametrize("how", [None, flip_entry, move_entry],
                         ids=["clean", "flip", "move"])
def test_full_residual_sparse_blocks(monkeypatch, how):
    # blocks above _DENSE_MAX run as sparse products on Python ints; with
    # the cap at 1 every block does, and the residual is the same
    alg, weights, k = FULL_SYSTEMS["G2^3"]
    form = kz_form(tensor_system(alg, weights), k)
    if how is not None:
        corrupt_local_omega(monkeypatch, how)
    dense = flatness_check(form)
    monkeypatch.setattr(connection, "_DENSE_MAX", 1)
    sparse = flatness_check(form)
    assert sparse == dense
    assert sparse.max_abs_full == ref_full_residual(form)


def test_triple_residual_memory_follows_the_blocks():
    # A1 (40) (40) (1): the local matrix on V_0 (x) V_1 is 1681 x 1681,
    # 22.6 MB as float64, while no weight block exceeds 82; entries are
    # scattered straight to their blocks, so no local matrix is densified
    ws = [(40,), (40,), (1,)]
    local = [reps.local_omega(A1, ws[i], ws[j])
             for i, j in ((0, 1), (0, 2), (1, 2))]
    denom = lcm(*(d for d, *_entries in local))
    mats = [(n, r, c, v * (denom // d)) for d, n, r, c, v in local]
    weights = [irrep(A1, w).basis_weights for w in ws]
    tracemalloc.start()
    try:
        got = _triple_residual(mats, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == 0
    assert peak < 1681 * 1681 * 8 // 3


def test_restricted_residual_memory_follows_the_batch():
    # A1 (1)^10: 990 relations on the 42 x 42 restricted Omega; their
    # right-hand sums alone are 990 * 42^2 * 8 bytes as float64, 14 MB,
    # while a stack of products holds at most _BATCH entries
    form = kz_form(tensor_system(A1, ((1,),) * 10), 2)
    relations = _kohno_relations(form.n)
    assert (len(relations), form.dim) == (990, 42)
    tracemalloc.start()
    try:
        got = _restricted_residual(form.omega_inv, form.pairs, relations)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == 0
    assert peak < 990 * 42 * 42 * 8 // 3


def test_triple_bound_failure_falls_back_to_exact_integers():
    # as test_bound_failure_falls_back_to_exact_integers, on three slots of
    # dimensions 1, 3 and 1 and weight 0: Omega^{01} and Omega^{12} are the
    # local matrices, Omega^{02} is 0, and 2 s q A^2 >= 2^53 for the one
    # block of size 3; the residual a (b + b') is odd and above 2^53
    a, b, b2 = 2 ** 26 + 1, 2 ** 26 + 2, 2 ** 26 + 1
    l01 = SRMatrix(3, 3, {(0, 1): a, (0, 2): a})
    l12 = SRMatrix(3, 3, {(1, 0): b, (2, 0): b2})
    weights = [[(0,)], [(0,)] * 3, [(0,)]]
    assert exact_dtype(2 * 3, b, 2 * b) is object
    got = _triple_residual([entries(l01), entries(SRMatrix(1, 1)),
                            entries(l12)], weights)
    embedded = {p: SRMatrix(3, 3, {k: Fraction(v) for k, v in m.data.items()})
                for p, m in (((0, 1), l01), ((0, 2), SRMatrix(3, 3)),
                             ((1, 2), l12))}
    assert got == ref_kohno_residual(embedded, _kohno_relations(3)) \
        == a * (b + b2)
    assert type(got) is int
    assert got > 2 ** 53 and got % 2
    # the same matrices scaled down pass the bound and run in float64
    assert exact_dtype(2 * 3, 2 ** 20, 2 * 2 ** 20) is float
    small = _triple_residual([
        entries(SRMatrix(3, 3, {(0, 1): 3, (0, 2): 3})),
        entries(SRMatrix(1, 1)),
        entries(SRMatrix(3, 3, {(1, 0): 5, (2, 0): 4}))], weights)
    assert small == 3 * (5 + 4) and type(small) is int
