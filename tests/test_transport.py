"""Numerical transport: oracles, braid relations, block preservation."""

import numpy as np
import pytest

import kzmono.monodromy as monodromy
from kzmono._integrators import dop853
from kzmono.algebra import build_algebra
from kzmono.blocks import block_subspace
from kzmono.connection import _Points, kz_form, rotation_monodromy
from kzmono.errors import (PathSingularError, TransportError,
                           ValidationError)
from kzmono.monodromy import (_FormOnPath, _arc_transport, _in_block_basis,
                              _twist_poles, braid_generator, braid_path,
                              braid_word_transport, concat_paths,
                              constant_path, magnus_fixed_steps,
                              monodromy_to_json, parse_braid_word,
                              projective_compare, reparametrize,
                              require_tol, reverse_path, rotation_path,
                              transport)
from kzmono.reps import tensor_system

from fraction_reference import rational
from taylor_reference import step_by_step

A1 = build_algebra("A", 1)
A2 = build_algebra("A", 2)
G2 = build_algebra("G", 2)

Z4 = (0 + 0j, 1 + 0j, 3 + 0j, 7 + 0j)


@pytest.fixture(scope="module")
def form_k2():
    return kz_form(tensor_system(A1, ((1,),) * 4), 2)


@pytest.fixture(scope="module")
def block_k2(form_k2):
    return block_subspace(form_k2.system, 2, Z4)


def _sampled(path):
    """The same path without its pole record: `transport` samples it and
    runs DOP853 or Magnus on it."""
    return reparametrize(path, lambda t: t, np.ones_like)


@pytest.mark.parametrize("path", [
    constant_path(Z4), rotation_path(Z4), braid_path(Z4, 2),
    braid_path(Z4, 1, clockwise=True, wobble=0.25),
    reverse_path(braid_path(Z4, 3)),
    reparametrize(rotation_path(Z4), lambda t: t * t, lambda t: 2 * t),
], ids=["constant", "rotation", "braid", "wobble", "reverse", "warped"])
def test_segments_take_stacks_of_times(path):
    # one row of points per time, each as the time gives alone
    ts = np.array([0.0, 0.25, 0.5, 1.0])
    for fn in (path.segments[0].z, path.segments[0].dz):
        stack = fn(ts)
        assert stack.shape == (len(ts), 4) and stack.dtype == complex
        for t, row in zip(ts, stack):
            assert np.array_equal(fn(np.array([t]))[0], row)


def test_constant_path_gives_identity(form_k2):
    res = transport(form_k2, constant_path(Z4), tol=1e-10)
    assert np.allclose(res.matrix, np.eye(form_k2.dim), atol=1e-12)
    assert res.est_error < 1e-12


def test_rotation_path_matches_exact_scalar(form_k2):
    res = transport(form_k2, rotation_path(Z4), tol=1e-10)
    report = rotation_monodromy(form_k2)
    assert abs(report.scalar - (-1j)) < 1e-14
    assert report.max_residual == 0
    assert np.linalg.norm(
        res.matrix - report.scalar * np.eye(form_k2.dim)) < 1e-8


def test_rotation_path_magnus_method(form_k2):
    res = transport(form_k2, rotation_path(Z4), tol=1e-9, method="magnus")
    assert np.linalg.norm(
        res.matrix - (-1j) * np.eye(form_k2.dim)) < 1e-7


@pytest.mark.parametrize("end", [(0, 1, 3, 8), (0, 1, 3, float("nan"))],
                         ids=["gap", "nan"])
def test_concat_paths_refuses_a_gap(end):
    # a NaN endpoint makes a NaN gap, which compares false to any bound
    with pytest.raises(ValidationError, match="do not concatenate"):
        concat_paths(constant_path(Z4), constant_path(end))


def test_reverse_path_inverts(form_k2):
    path = braid_path(Z4, 2)
    res = transport(form_k2, concat_paths(path, reverse_path(path)),
                    tol=1e-10)
    assert np.linalg.norm(res.matrix - np.eye(form_k2.dim)) < 1e-8


def test_concatenation_multiplicative(form_k2):
    p1 = braid_path(Z4, 1)
    z1 = p1.end()
    p2 = rotation_path(z1)
    t1 = transport(form_k2, p1, tol=1e-11).matrix
    t2 = transport(form_k2, p2, tol=1e-11).matrix
    t12 = transport(form_k2, concat_paths(p1, p2), tol=1e-11).matrix
    assert np.linalg.norm(t12 - t2 @ t1) < 1e-8


def test_reparametrization_free(form_k2):
    path = rotation_path(Z4)
    warped = reparametrize(path, lambda t: t * t * (3 - 2 * t),
                           lambda t: 6 * t * (1 - t))
    a = transport(form_k2, path, tol=1e-11).matrix
    b = transport(form_k2, warped, tol=1e-11).matrix
    assert np.linalg.norm(a - b) < 1e-9


def test_magnus_exact_on_rotation(form_k2):
    # the rotation loop has constant A(t), which one Magnus step integrates
    # exactly up to the matrix exponential
    exact = -1j * np.eye(form_k2.dim)
    assert np.linalg.norm(
        magnus_fixed_steps(form_k2, rotation_path(Z4), 1) - exact) < 1e-12


def test_magnus_convergence_order(form_k2):
    # a braid path has genuinely time-dependent A(t); fixed-step Magnus is
    # fourth order, so doubling steps divides the error by about 16
    path = braid_path(Z4, 2)
    ref = transport(form_k2, path, tol=1e-12).matrix
    errs = [np.linalg.norm(magnus_fixed_steps(form_k2, path, n) - ref)
            for n in (8, 16, 32)]
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    assert 8 < r1 < 40
    assert 8 < r2 < 40


def _count_evaluations(monkeypatch, form):
    # one entry per evaluated matrix: a call evaluates a stack of them
    calls = []
    evaluate = form.evaluate

    def counted(z, v):
        out = evaluate(z, v)
        calls.extend([1] * len(out))
        return out

    monkeypatch.setattr(form, "evaluate", counted)
    return calls


def test_magnus_runs_one_ladder(form_k2, monkeypatch):
    # A(t) is constant on the rotation loop, so the ladder stops at its
    # second rung: two Gauss nodes per step at 8 and then 16 steps
    calls = _count_evaluations(monkeypatch, form_k2)
    transport(form_k2, rotation_path(Z4), tol=1e-9, method="magnus")
    assert len(calls) == 2 * (8 + 16)


@pytest.mark.parametrize("tol", [1e-5, 1e-9, 1e-12])
def test_adaptive_runs_one_solve(form_k2, monkeypatch, tol):
    # one DOP853 solve at rtol max(tol/100, 1e-13): as many evaluated
    # matrices as a direct run at that rtol, and its matrix bit for bit
    path = braid_path(Z4, 2)
    calls = _count_evaluations(monkeypatch, form_k2)
    res = transport(form_k2, path, tol=tol, dual=True)
    solved = len(calls)
    calls.clear()
    rtol = max(tol * 1e-2, 1e-13)
    direct, _ = dop853(_FormOnPath(form_k2, path.segments[0], 1e-30),
                       np.eye(form_k2.dim, dtype=complex), rtol=rtol,
                       atol=rtol * 1e-2)
    assert len(calls) == solved
    assert np.array_equal(res.matrix, direct)


def test_magnus_step_budget(form_k2, monkeypatch):
    monkeypatch.setattr(monodromy, "_MAGNUS_MAX_STEPS", 16)
    calls = _count_evaluations(monkeypatch, form_k2)
    with pytest.raises(TransportError):
        transport(form_k2, braid_path(Z4, 2), tol=1e-12, method="magnus")
    assert len(calls) == 2 * (8 + 16)


@pytest.mark.parametrize("method", ["adaptive", "magnus"])
@pytest.mark.parametrize("tol", [1e-13, 1e-15, 0.0, -1.0])
def test_transport_rejects_unrefinable_tol(form_k2, method, tol):
    # at or below 1e-13 Magnus has no finer rung, and DOP853 no finer rtol
    with pytest.raises(ValidationError):
        transport(form_k2, braid_path(Z4, 2), tol=tol, method=method)


HONEST_SYSTEMS = pytest.mark.parametrize("alg, weights, k", [
    (A1, ((1,),) * 4, 1), (A1, ((1,),) * 4, 2), (A1, ((1,),) * 6, 2),
    (A1, ((1,),) * 6, 3), (A1, ((1,), (2,), (1,), (2,)), 2),
    (G2, ((1, 0),) * 3, 1),
], ids=["4k1", "4", "6", "6k3", "1212k2", "G2k1"])


@HONEST_SYSTEMS
@pytest.mark.parametrize("method", ["adaptive", "magnus"])
def test_error_estimates_are_honest(alg, weights, k, method):
    # open paths only: on a path followed by its reverse the symmetric
    # Magnus scheme cancels exactly and the estimate says nothing. The
    # adaptive estimate must also stay within 10 tol, which the undamped
    # fifth-order local error fails on these paths
    form = kz_form(tensor_system(alg, weights), k)
    pts = (0, 1, 3, 7, 12, 20)[:len(weights)]
    paths = [braid_path(pts, i) for i in range(1, len(pts))]
    paths += [rotation_path(pts), braid_path(pts, 1, wobble=0.25)]
    for path in paths:
        ref = transport(form, path, tol=1e-12).matrix
        for tol in (1e-5, 1e-7, 1e-9, 1e-10, 1e-11):
            res = transport(form, path, tol=tol, method=method)
            assert np.linalg.norm(res.matrix - ref) <= res.est_error + 1e-12
            if method == "adaptive":
                assert res.est_error <= 10 * tol


def _half_twist(form, pts, i, clockwise, frame, tol):
    """The arc solver on the half-twist of slots i - 1, i, as
    braid_generator runs it: the moved frame and its error bound relative
    to ||frame||_2."""
    z0 = tuple(map(complex, pts))
    floor = 1e-9 * _Points(form, z0).sep
    size = np.linalg.norm(frame, 2)
    moved, bound = _arc_transport(
        form, -np.pi if clockwise else np.pi, 1.0,
        *_twist_poles(form, z0, i - 1, i), floor, frame,
        max(tol / 100, 1e-13) * size)
    return moved, bound / size


@HONEST_SYSTEMS
def test_braid_letter_error_bounds_are_honest(alg, weights, k):
    # the Taylor bound of a braid letter is on its transported block frame
    # B, relative to ||B||_2; DOP853 at tol 1.01e-11 is the reference, and
    # its own estimate of the fundamental matrix covers its frame
    form = kz_form(tensor_system(alg, weights), k)
    pts = (0, 1, 3, 7, 12, 20)[:len(weights)]
    block = block_subspace(form.system, k, pts)
    cols = block.coeffs.to_array(complex)
    size = np.linalg.norm(cols, 2)
    letters = [(i, False) for i in range(1, len(pts))] + [(1, True)]
    for i, clockwise in letters:
        ref = transport(form, braid_path(pts, i, clockwise=clockwise),
                        tol=1.01e-11, dual=True)
        for tol in (1e-5, 1e-7, 1e-9, 1e-10, 1e-11):
            frame, est = _half_twist(form, pts, i, clockwise, cols, tol)
            dist = np.linalg.norm(frame - ref.matrix @ cols) / size
            assert est >= dist - ref.est_error
            assert 0 < est <= 10 * tol


def test_adaptive_error_decreases_with_tol(form_k2):
    # DOP853's convergence in tol, on a sampled copy of the rotation loop
    exact = -1j * np.eye(form_k2.dim)
    path = _sampled(rotation_path(Z4))
    coarse = np.linalg.norm(
        transport(form_k2, path, tol=1e-5).matrix - exact)
    fine = np.linalg.norm(
        transport(form_k2, path, tol=1e-11).matrix - exact)
    assert fine < 1e-8
    assert fine <= coarse + 1e-14


@pytest.mark.parametrize("method", ["adaptive", "magnus"])
def test_path_singular_guard(method):
    form = kz_form(tensor_system(A1, ((1,),) * 4), 1)
    # the third point sits on the braid circle of the first pair, so the
    # form has a pole on the path; the adaptive solver must sample near it
    # while shrinking its steps, and the Magnus ladder refines until a
    # Gauss node of some rung lands inside the guard
    z = (0 + 0j, 2 + 0j, 1 + 1j, 7 + 0j)
    with pytest.raises(PathSingularError) as info:
        transport(form, braid_path(z, 1), tol=1e-8, min_separation=1e-3,
                  method=method)
    # the first time inside the guard, in the order the integrator asks:
    # for DOP853 that of its one solve, at rtol 1e-10
    assert info.value.t == {"adaptive": 0.49955181012379163,
                            "magnus": 0.4995872561222555}[method]


@pytest.mark.parametrize("method", ["adaptive", "magnus"])
def test_non_finite_form_fails_the_integrator(form_k2, monkeypatch, method):
    # DOP853 gets a NaN first step, which no step-size rule shrinks, and
    # Magnus a NaN stack of cores, which expm refuses
    d = form_k2.dim
    monkeypatch.setattr(form_k2, "evaluate", lambda z, v: np.full(
        (len(v), d, d), np.nan, dtype=complex))
    with pytest.raises(TransportError, match="integrator failed"):
        transport(form_k2, braid_path(Z4, 2), tol=1e-8, method=method)


def test_projective_compare():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    c, r = projective_compare(m, m)
    assert abs(c - 1) < 1e-14 and r < 1e-12
    c, r = projective_compare(1j * m, m)
    assert abs(c - 1j) < 1e-14 and r < 1e-12
    pert = m + 1e-9 * rng.normal(size=(3, 3))
    _c, r = projective_compare(pert, m)
    assert r < 5e-9
    with pytest.raises(ValidationError):
        projective_compare(np.zeros((2, 2)), m[:2, :2])


def test_braid_generator_k1_scalar():
    sys = tensor_system(A1, ((1,),) * 4)
    form = kz_form(sys, 1)
    block = block_subspace(sys, 1, Z4)
    assert block.dim == 1
    for i in (1, 2, 3):
        res = braid_generator(form, block, i, tol=1e-11)
        assert res.matrix.shape == (1, 1)
        assert abs(abs(res.matrix[0, 0]) - 1) < 1e-8
        assert res.block_residual < 1e-8


def test_braid_relations_projective(form_k2, block_k2):
    mats = {i: braid_generator(form_k2, block_k2, i, tol=1e-11).matrix
            for i in (1, 2, 3)}
    lhs = mats[1] @ mats[2] @ mats[1]
    rhs = mats[2] @ mats[1] @ mats[2]
    _c, resid = projective_compare(lhs, rhs)
    assert resid < 1e-8
    far = np.linalg.norm(mats[1] @ mats[3] - mats[3] @ mats[1])
    assert far < 1e-8


def test_braid_generator_inverse(form_k2, block_k2):
    fwd = braid_generator(form_k2, block_k2, 1, tol=1e-11).matrix
    bwd = braid_generator(form_k2, block_k2, 1, tol=1e-11,
                          clockwise=True).matrix
    assert np.linalg.norm(fwd @ bwd - np.eye(block_k2.dim)) < 1e-8


def test_braid_homotopy_invariance(form_k2, block_k2):
    plain = transport(form_k2, braid_path(Z4, 2), tol=1e-11).matrix
    bulged = transport(form_k2, braid_path(Z4, 2, wobble=0.25),
                       tol=1e-11).matrix
    assert np.linalg.norm(plain - bulged) < 1e-7


def test_braid_unitarity_proxy(form_k2, block_k2):
    # eigenvalue moduli (the basis-free unitarity proxy) cluster at a common
    # positive constant; the flat Hermitian metric itself is never built, so
    # singular values in any constant metric need not cluster
    for i in (1, 2, 3):
        mat = braid_generator(form_k2, block_k2, i, tol=1e-11).matrix
        moduli = np.abs(np.linalg.eigvals(mat))
        assert moduli.max() - moduli.min() < 1e-6
        assert moduli.min() > 0
        assert abs(moduli.mean() - 1) < 1e-6  # dual transport: unit phases


def test_braid_word_matches_generator_products(form_k2, block_k2):
    res = braid_word_transport(form_k2, block_k2, "1 2 1", tol=1e-11)
    alt = braid_word_transport(form_k2, block_k2, "2 1 2", tol=1e-11)
    _c, resid = projective_compare(res.matrix, alt.matrix)
    assert resid < 1e-8
    assert res.block_residual < 1e-8
    inv = braid_word_transport(form_k2, block_k2, "1 -1", tol=1e-11)
    assert np.linalg.norm(inv.matrix - np.eye(block_k2.dim)) < 1e-8


def test_braid_word_validation(form_k2, block_k2):
    with pytest.raises(ValidationError):
        parse_braid_word("1 x 2")
    with pytest.raises(ValidationError):
        parse_braid_word("0")
    with pytest.raises(ValidationError):
        braid_word_transport(form_k2, block_k2, "5", tol=1e-9)
    mixed = tensor_system(A1, ((1,), (1,), (2,), (2,)))
    mform = kz_form(mixed, 2)
    mblock = block_subspace(mixed, 2, Z4)
    with pytest.raises(ValidationError):
        braid_word_transport(mform, mblock, "1 2", tol=1e-9)


def test_braid_word_accepts_any_integer_sequence(form_k2, block_k2):
    ref = braid_word_transport(form_k2, block_k2, "1 2 1", tol=1e-11)
    for word in ((1, 2, 1), np.array([1, 2, 1])):
        res = braid_word_transport(form_k2, block_k2, word, tol=1e-11)
        assert np.array_equal(res.matrix, ref.matrix)
    for word in ((1, 1.0), (1, 5)):
        with pytest.raises(ValidationError):
            braid_word_transport(form_k2, block_k2, word, tol=1e-11)


@pytest.mark.parametrize("alg, weight, n, k", [
    (A1, (1,), 4, 2), (A1, (1,), 6, 3), (A2, (1, 0), 3, 2),
    (A1, (2,), 4, 3), (G2, (1, 0), 4, 1),
], ids=["A1(1)^4k2", "A1(1)^6k3", "A2(1,0)^3k2", "A1(2)^4k3", "G2(1,0)^4k1"])
def test_full_twist_is_the_conjugate_rotation_scalar(alg, weight, n, k):
    # the full twist (s_1 ... s_{n-1})^n is central in the braid group: it
    # turns all points once around, so with equal weights it acts on the
    # block as conj(s) Id, s the rotation scalar exp(pi i sum c_i/(k+h))
    system = tensor_system(alg, (weight,) * n)
    form = kz_form(system, k)
    points = [complex(2 ** j - 1, 0.3 * j) for j in range(n)]
    block = block_subspace(system, k, points)
    scalar = rotation_monodromy(form).scalar
    twist = braid_word_transport(form, block, list(range(1, n)) * n).matrix
    eye = np.eye(block.dim)
    assert np.max(np.abs(twist - np.conj(scalar) * eye)) < 1e-9
    # negative control: the unconjugated scalar is far off
    assert np.max(np.abs(twist - scalar * eye)) > 0.5


def test_dual_transport_is_form_contragredient():
    # along any path, dual transport equals G^{-1} T^{-T} G for the
    # invariant contravariant Gram G, because the form coefficients of the
    # connection are symmetric; checked on a rank-two mixed-weight system
    sys = tensor_system(A2, ((1, 0), (0, 1), (1, 0), (0, 1)))
    form = kz_form(sys, 2)
    path = braid_path((0, 1, 3, 7), 2)
    t_sec = transport(form, path, tol=1e-11).matrix
    t_dual = transport(form, path, tol=1e-11, dual=True).matrix
    g = rational(sys.invariant_gram()).to_array(float)
    expected = np.linalg.inv(g) @ np.linalg.inv(t_sec).T @ g
    assert np.linalg.norm(t_dual - expected) < 1e-8


def test_braid_generator_unequal_weights_block_preserved():
    # exchanged slots carry different weights: the generator maps into the
    # block at the permuted configuration, and must still preserve it
    sys = tensor_system(A2, ((1, 0), (0, 1), (1, 0), (0, 1)))
    form = kz_form(sys, 2)
    block = block_subspace(sys, 2, Z4)
    res = braid_generator(form, block, 2, tol=1e-11)
    assert res.block_residual < 1e-8
    assert res.matrix.shape == (block.dim, block.dim)


def test_braid_generator_rejects_empty_block():
    sys = tensor_system(A1, ((1,), (1,), (1,)))
    form = kz_form(sys, 1)
    block = block_subspace(sys, 1, (0, 1, 3))
    with pytest.raises(ValidationError):
        braid_generator(form, block, 1)


def test_braid_generator_residual_rejection():
    # a proper subspace (k=1) makes the residual integration-limited, so an
    # absurdly tight block tolerance must reject the result
    sys = tensor_system(A1, ((1,),) * 4)
    form = kz_form(sys, 1)
    block = block_subspace(sys, 1, Z4)
    with pytest.raises(TransportError):
        braid_generator(form, block, 1, tol=1e-4, block_tol=1e-15)


@pytest.mark.parametrize("clockwise", [False, True])
def test_braid_letter_path_singular_guard(clockwise):
    # the third point sits on the braid circle of the first pair, which
    # one moving point meets at t = 1/2 either way round; the guard, 1e-9
    # times the starting separation sqrt(2), is entered in closed form at
    # 1/2 - (2/pi) asin(sqrt(2) 1e-9 / 2) on the unit radius
    form = kz_form(tensor_system(A1, ((1,),) * 4), 1)
    block = block_subspace(form.system, 1, (0, 2, 1 + 1j, 7))
    with pytest.raises(PathSingularError) as info:
        braid_generator(form, block, 1, clockwise=clockwise)
    first = 0.5 - 2 / np.pi * np.arcsin(np.sqrt(2) * 1e-9 / 2)
    assert info.value.t == pytest.approx(first, rel=1e-15)
    # a point just off the circle is passed, with more steps
    block = block_subspace(form.system, 1, (0, 2, 1 + 1.000001j, 7))
    assert braid_generator(form, block, 1).block_residual < 1e-8


def test_braid_letter_step_budget(form_k2, block_k2, monkeypatch):
    # a half-twist takes at least seven steps of chord rho/2 <= 1/2
    monkeypatch.setattr(monodromy, "_TAYLOR_MAX_STEPS", 4)
    with pytest.raises(TransportError, match="step budget"):
        braid_generator(form_k2, block_k2, 2)


def test_braid_letter_non_finite_residue_fails(block_k2):
    form = kz_form(block_k2.system, 2)
    chol, res = form.gram_residues
    res = res.copy()
    res[0, 0, 0] = np.nan
    form.__dict__["gram_residues"] = chol, res
    with pytest.raises(TransportError, match="integrator failed"):
        braid_generator(form, block_k2, 1)


def test_braid_letter_wrong_pole_fails_the_block_residual(monkeypatch):
    # negative control: the residue of each pair (a, j) placed at the pole
    # of (b, j) moves the frame off the block subspace (a proper one: at
    # k=1 it is one of the two invariant dimensions)
    form = kz_form(tensor_system(A1, ((1,),) * 4), 1)
    block = block_subspace(form.system, 1, Z4)
    twist = _twist_poles

    def misplaced(form, z0, a, b):
        poles, rows, spans = twist(form, z0, a, b)
        moving_a = [a in form.pairs[r] and b not in form.pairs[r]
                    for r in rows]
        return np.where(moving_a, -poles, poles), rows, spans

    assert braid_generator(form, block, 2).block_residual < 1e-12
    monkeypatch.setattr(monodromy, "_twist_poles", misplaced)
    with pytest.raises(TransportError, match="block residual"):
        braid_generator(form, block, 2, block_tol=1e-8)


@HONEST_SYSTEMS
def test_rotation_arc_solver_matches_dop853(alg, weights, k):
    # the arc solver on the exact pole u = 0 and DOP853 on a sampled copy
    # of the same loop: both within their estimates of the exact scalar,
    # and of each other
    form = kz_form(tensor_system(alg, weights), k)
    pts = (0, 1, 3, 7, 12, 20)[:len(weights)]
    exact = rotation_monodromy(form).scalar * np.eye(form.dim)
    for tol in (1e-5, 1e-8, 1e-10, 1e-11):
        arc = transport(form, rotation_path(pts), tol=tol)
        dop = transport(form, _sampled(rotation_path(pts)), tol=tol)
        assert 0 < arc.est_error <= tol / 100
        assert np.linalg.norm(arc.matrix - exact) <= arc.est_error + 1e-12
        assert np.linalg.norm(dop.matrix - exact) <= dop.est_error + 1e-12
        assert np.linalg.norm(arc.matrix - dop.matrix) <= \
            arc.est_error + dop.est_error + 1e-12


def test_rotation_arc_solver_evaluates_no_form(form_k2, monkeypatch):
    calls = _count_evaluations(monkeypatch, form_k2)
    for dual in (False, True):
        transport(form_k2, rotation_path(Z4), dual=dual)
    assert not calls


def test_rotation_dual_transport_is_the_conjugate_scalar(form_k2):
    # the dual transport of the loop is the inverse transpose of the
    # sections' one, conj(s) Id for the unit scalar s
    res = transport(form_k2, rotation_path(Z4), dual=True)
    scalar = rotation_monodromy(form_k2).scalar
    assert np.linalg.norm(res.matrix - np.conj(scalar) * np.eye(
        form_k2.dim)) <= res.est_error + 1e-12


def test_rotation_past_the_crossover_runs_dop853(form_k2, monkeypatch):
    # past the multiply-add crossover the loop is DOP853, bit for bit as
    # on its sampled copy, and the Gram residues are never built
    monkeypatch.setattr(monodromy, "_TAYLOR_MAX_MADDS", 0)
    form = kz_form(form_k2.system, 2)
    res = transport(form, rotation_path(Z4))
    ref = transport(form, _sampled(rotation_path(Z4)))
    assert np.array_equal(res.matrix, ref.matrix)
    assert res.est_error == ref.est_error
    assert "gram_residues" not in form.__dict__


def test_rotation_guard_matches_dop853(form_k2):
    # a guard of at least the starting separation is entered at t = 0 on
    # either route; below it the loop never comes closer
    for path in (rotation_path(Z4), _sampled(rotation_path(Z4))):
        with pytest.raises(PathSingularError) as info:
            transport(form_k2, path, min_separation=2.0)
        assert info.value.t == 0.0
    res = transport(form_k2, rotation_path(Z4), min_separation=0.5)
    assert np.linalg.norm(res.matrix + 1j * np.eye(form_k2.dim)) < 1e-12


def test_rotation_corrupted_residue_misses_the_scalar(form_k2):
    # negative control: one entry of one Gram residue off by 0.01 (and its
    # mirror, keeping it symmetric) moves the loop off the exact scalar
    form = kz_form(form_k2.system, 2)
    chol, res = form.gram_residues
    res = res.copy()
    res[0, 0, 1] += 0.01
    res[0, 1, 0] += 0.01
    form.__dict__["gram_residues"] = chol, res
    moved = transport(form, rotation_path(Z4))
    scalar = rotation_monodromy(form).scalar
    assert np.linalg.norm(moved.matrix - scalar * np.eye(form.dim)) > 1e-8


def test_half_twist_with_coincident_poles(form_k2, monkeypatch):
    # points 0, 1, 2, 3 and sigma_2: pairs (0, 1) and (2, 3) share the
    # pole 3, (0, 2) and (1, 3) the pole -3, so five pairs give three
    # poles; summing their residues moves the frame as the five apart do
    pts = (0, 1, 2, 3)
    block = block_subspace(form_k2.system, 2, pts)
    cols = block.coeffs.to_array(complex)
    poles, _rows, _spans = _twist_poles(form_k2, tuple(map(complex, pts)),
                                        1, 2)
    assert len(monodromy._merge_poles(poles)[1]) == 3 < len(poles) == 5
    for clockwise in (False, True):
        merged, merged_est = _half_twist(form_k2, pts, 2, clockwise, cols,
                                         1e-10)
        monkeypatch.setattr(monodromy, "_merge_poles", lambda p: (
            p, [[pos] for pos in range(len(p))]))
        apart, apart_est = _half_twist(form_k2, pts, 2, clockwise, cols,
                                       1e-10)
        monkeypatch.undo()
        assert np.linalg.norm(merged - apart) / np.linalg.norm(cols, 2) \
            <= merged_est + apart_est + 1e-12
        assert braid_generator(form_k2, block, 2, clockwise=clockwise
                               ).block_residual < 1e-10


@pytest.mark.parametrize("alg, weights, k, letter", [
    (A1, ((1,),) * 4, 1, None), (A1, ((1,),) * 4, 2, None),
    (A1, ((1,),) * 6, 2, None), (A1, ((1,),) * 6, 3, None),
    (A1, ((1,), (2,), (1,), (2,)), 2, None), (G2, ((1, 0),) * 3, 1, None),
    (A1, ((1,),) * 8, 2, None), (G2, ((1, 0),) * 3, 1, 1),
    (A1, ((1,),) * 4, 2, 2), (A1, ((1,),) * 6, 2, 2),
], ids=["4k1", "4", "6", "6k3", "1212k2", "G2k1", "8", "G2k1-s1", "4-s2",
        "6-s2"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_stacked_steps_match_step_by_step(alg, weights, k, letter, sign,
                                          monkeypatch):
    # the stacked recurrence against the former step-by-step one on the
    # solver's own plans: rotation loops and square letters (b = d = 1 at
    # G2, b = d = 2 at A1 (1)^4, where the step maps do not commute) run
    # one recurrence for all steps, the A1 (1)^6 letter (b = 4 < d = 5)
    # one step at a time; every plan ends on a shorter step, so a step
    # that summed terms past its count would show at tol 1e-5
    form = kz_form(tensor_system(alg, weights), k)
    pts = (0, 1, 3, 7, 12, 20, 30, 42)[:len(weights)]
    calls = []
    stacked = monodromy._taylor_frame

    def record(*args):
        calls.append((args, stacked(*args)))
        return calls[-1][1]

    monkeypatch.setattr(monodromy, "_taylor_frame", record)
    for tol in (1e-5, 1e-10):
        if letter is None:
            transport(form, rotation_path(pts), tol=tol, dual=sign > 0)
        else:
            z0 = tuple(map(complex, pts))
            cols = block_subspace(form.system, k, pts).coeffs.to_array(
                complex)
            _arc_transport(form, np.pi, sign,
                           *_twist_poles(form, z0, letter - 1, letter),
                           1e-9 * _Points(form, z0).sep, cols, tol / 100)
    assert len(calls) == 2
    for (res, poles, us, counts, x), (frame, starts) in calls:
        assert counts[-1] < counts.max()
        ref, ref_starts = step_by_step(res, poles, us, counts, x)
        assert np.linalg.norm(frame - ref) <= 1e-13 * np.linalg.norm(x)
        assert np.allclose(starts, ref_starts, rtol=1e-14, atol=0)


def test_braid_letter_past_the_crossover_runs_dop853(form_k2, block_k2,
                                                     monkeypatch):
    # past the multiply-add crossover a letter is DOP853 on the
    # fundamental matrix, bit for bit, with its estimate; and the Taylor
    # route evaluates the form nowhere
    calls = _count_evaluations(monkeypatch, form_k2)
    taylor = braid_generator(form_k2, block_k2, 2)
    assert not calls
    monkeypatch.setattr(monodromy, "_TAYLOR_MAX_MADDS", 0)
    res = braid_generator(form_k2, block_k2, 2)
    ref = transport(form_k2, braid_path(Z4, 2), dual=True)
    cols = block_k2.coeffs.to_array(complex)
    swap = rational(form_k2.system.swap_restricted(1)).to_array(complex)
    mat, residual = _in_block_basis(cols, swap @ ref.matrix @ cols)
    assert np.array_equal(res.matrix, mat)
    assert res.est_error == ref.est_error
    assert res.block_residual == residual
    assert np.abs(res.matrix - taylor.matrix).max() < 1e-10


def test_dop853_letter_builds_no_gram_residues(block_k2, monkeypatch):
    # the plan needs only the residue norms, so a letter sent to DOP853
    # leaves the Gram residues unbuilt
    monkeypatch.setattr(monodromy, "_TAYLOR_MAX_MADDS", 0)
    form = kz_form(block_k2.system, 2)
    braid_generator(form, block_k2, 2)
    assert "gram_residues" not in form.__dict__
    monkeypatch.undo()
    braid_generator(form, block_k2, 2)
    assert "gram_residues" in form.__dict__


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0, True,
                                 "1e-8", None, 1e-8 + 0j])
def test_tolerances_must_be_finite_and_positive(form_k2, block_k2, bad):
    # refused before any integration, so no numpy warning is raised either;
    # True is refused although it compares as 1.0, a str, None or a complex
    # number is refused although it cannot be compared, and braid_word_transport
    # refuses tol before it parses the word, even an empty one
    with pytest.raises(ValidationError, match="finite"):
        require_tol(bad)
    with pytest.raises(ValidationError, match="finite"):
        transport(form_k2, braid_path(Z4, 1), tol=bad)
    # a NaN or negative pole guard would be off, and this path runs into a
    # pole of the form at t = 1/2
    pole = braid_path((0, 2, 1 + 1j, 7), 1)
    with pytest.raises(ValidationError, match="finite"):
        transport(form_k2, pole, tol=1e-8, min_separation=bad)
    with pytest.raises(ValidationError, match="finite"):
        braid_generator(form_k2, block_k2, 1, block_tol=bad)
    with pytest.raises(ValidationError, match="finite"):
        braid_word_transport(form_k2, block_k2, "", block_tol=bad)
    for word in ("", "1 x"):
        with pytest.raises(ValidationError, match="finite"):
            braid_word_transport(form_k2, block_k2, word, tol=bad)


def test_monodromy_json(form_k2, block_k2):
    import json
    res = braid_generator(form_k2, block_k2, 1, tol=1e-10)
    doc = json.loads(monodromy_to_json(res, manifest={"k": 2}))
    assert doc["manifest"]["k"] == 2
    assert len(doc["matrix_re"]) == block_k2.dim
