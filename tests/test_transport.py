"""Numerical transport: oracles, braid relations, block preservation."""

import importlib

import numpy as np
import pytest

from kzmono.algebra import build_algebra
from kzmono.blocks import block_subspace
from kzmono.connection import kz_form, rotation_monodromy
from kzmono.errors import (PathSingularError, TransportError,
                           ValidationError)
from kzmono.reps import tensor_system
from kzmono.transport import (braid_generator, braid_path,
                              braid_word_transport, concat_paths,
                              constant_path, magnus_fixed_steps,
                              monodromy_to_json, parse_braid_word,
                              projective_compare, reparametrize,
                              require_tol, reverse_path, rotation_path,
                              transport)

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


def test_constant_path_gives_identity(form_k2):
    res = transport(form_k2, constant_path(Z4), tol=1e-10)
    assert np.allclose(res.matrix, np.eye(form_k2.dim), atol=1e-12)
    assert res.est_error < 1e-12


def test_rotation_path_matches_exact_scalar(form_k2):
    res = transport(form_k2, rotation_path(Z4), tol=1e-10)
    report = rotation_monodromy(form_k2)
    assert abs(report.scalar - (-1j)) < 1e-14
    assert np.linalg.norm(res.matrix - report.matrix) < 1e-8
    assert np.linalg.norm(
        res.matrix - report.scalar * np.eye(form_k2.dim)) < 1e-8


def test_rotation_path_magnus_method(form_k2):
    res = transport(form_k2, rotation_path(Z4), tol=1e-9, method="magnus")
    assert np.linalg.norm(
        res.matrix - (-1j) * np.eye(form_k2.dim)) < 1e-7


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


def test_magnus_step_budget(form_k2, monkeypatch):
    # the package re-exports the transport function under the module's name
    module = importlib.import_module("kzmono.transport")
    monkeypatch.setattr(module, "_MAGNUS_MAX_STEPS", 16)
    calls = _count_evaluations(monkeypatch, form_k2)
    with pytest.raises(TransportError):
        transport(form_k2, braid_path(Z4, 2), tol=1e-12, method="magnus")
    assert len(calls) == 2 * (8 + 16)


@pytest.mark.parametrize("method", ["adaptive", "magnus"])
@pytest.mark.parametrize("tol", [1e-13, 1e-15, 0.0, -1.0])
def test_transport_rejects_unrefinable_tol(form_k2, method, tol):
    # at or below the floor of the ladder the finer rung would be no finer
    with pytest.raises(ValidationError):
        transport(form_k2, braid_path(Z4, 2), tol=tol, method=method)


@pytest.fixture(scope="module")
def form6_k2():
    return kz_form(tensor_system(A1, ((1,),) * 6), 2)


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("method", ["adaptive", "magnus"])
def test_error_estimates_are_honest(form_k2, form6_k2, n, method):
    # open braid paths only: on a path followed by its reverse the
    # symmetric Magnus scheme cancels exactly and the estimate says nothing
    form = form_k2 if n == 4 else form6_k2
    pts = (0, 1, 3, 7, 12, 20)[:n]
    for i in range(1, n):
        path = braid_path(pts, i)
        ref = transport(form, path, tol=1e-12).matrix
        for tol in (1e-5, 1e-7, 1e-9):
            res = transport(form, path, tol=tol, method=method)
            assert np.linalg.norm(res.matrix - ref) <= res.est_error + 1e-12


def test_adaptive_error_decreases_with_tol(form_k2):
    exact = -1j * np.eye(form_k2.dim)
    path = rotation_path(Z4)
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
    # the first time inside the guard, in the order the integrator asks
    assert info.value.t == {"adaptive": 0.49957226853461323,
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
    g = sys.invariant_gram().to_complex().real
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_tolerances_must_be_finite_and_positive(form_k2, block_k2, bad):
    # refused before any integration, so no numpy warning is raised either
    with pytest.raises(ValidationError, match="finite"):
        require_tol(bad)
    with pytest.raises(ValidationError, match="finite"):
        transport(form_k2, braid_path(Z4, 1), tol=bad)
    with pytest.raises(ValidationError, match="finite"):
        braid_generator(form_k2, block_k2, 1, block_tol=bad)
    with pytest.raises(ValidationError, match="finite"):
        braid_word_transport(form_k2, block_k2, "", block_tol=bad)


def test_monodromy_json(form_k2, block_k2):
    import json
    res = braid_generator(form_k2, block_k2, 1, tol=1e-10)
    doc = json.loads(monodromy_to_json(res, manifest={"k": 2}))
    assert doc["manifest"]["k"] == 2
    assert len(doc["matrix_re"]) == block_k2.dim
