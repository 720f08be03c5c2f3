"""Differential tests: the array evaluation of the KZ form against loops.

`KZForm.coefficients`, `KZForm.evaluate` and the transport pole monitor
work on whole arrays of pairs. The reference copies below are the scalar
versions they replaced: one Python loop over the pairs with a tensordot
contraction, and a double loop for the minimum separation. numpy's complex
division may round a coefficient differently from Python's in the last
place, and the contraction may sum the pairs in another order, so the
coefficients must agree to 1e-15 relative and the form to 1e-15 relative to
the size of its terms, sum_p |c_p| |Omega_p|; both stay within about
3e-16 over 20000 random configurations. The separation uses the same hypot
and must agree exactly. The braid matrices of A1 (1)^6 at k=2 are pinned to
values frozen from the loop version.

Points can lie a subnormal or near-subnormal distance apart, where a
coefficient overflows to inf. The reference treats a non-finite quotient
like a coincidence and names its pair (the first in pair order; an exact
coincidence anywhere takes precedence), and a form that overflows with
finite quotients names the pair of the largest one.

Both methods also take stacks of configurations. Each row of a stack must
be bitwise the row evaluated alone, and a failing stack must raise the
error of its first failing row, as a loop over the rows would; the path
monitor likewise names the first time inside its guard.

The frozen braid matrices came from DOP853; they stay pinned at 1e-13 on
that route, and `braid_generator`, which now solves its letters by Taylor
series, is held to them within its error bound.
"""

import cmath
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kzmono.algebra import build_algebra
from kzmono.blocks import block_subspace
from kzmono.connection import _Points, kz_form
from kzmono.errors import CoincidentPointsError, PathSingularError
from kzmono.monodromy import (Segment, _FormOnPath, _in_block_basis,
                              braid_generator, braid_path, transport)
from kzmono.reps import tensor_system

from fraction_reference import omega_of, rational

A1 = build_algebra("A", 1)
FROZEN = pathlib.Path(__file__).with_name("braid_a1_6pt_k2_frozen.json")


def reference_coefficients(form, z, v):
    if len(z) != form.n or len(v) != form.n:
        raise ValueError(f"need {form.n} points and velocities")
    out = np.empty(len(form.pairs), dtype=complex)
    pref = float(form.prefactor)
    for idx, (i, j) in enumerate(form.pairs):
        dz = z[i] - z[j]
        if dz == 0:
            raise CoincidentPointsError(
                f"points {i} and {j} coincide at z={z}")
        out[idx] = pref * (v[i] - v[j]) / dz
    for idx, (i, j) in enumerate(form.pairs):
        if not cmath.isfinite(out[idx]):
            raise CoincidentPointsError(f"points {i} and {j} coincide "
                                        "(the quotient overflows)")
    return out


def reference_evaluate(form, z, v):
    coef = reference_coefficients(form, z, v)
    omega = np.array([m.to_array(complex)
                      for m in omega_of(form).values()])
    out = np.tensordot(coef, omega, axes=(0, 0))
    if not np.isfinite(out).all():
        i, j = form.pairs[max(range(len(coef)), key=lambda p: abs(coef[p]))]
        raise CoincidentPointsError(f"points {i} and {j} coincide "
                                    "(the form overflows)")
    return out


def reference_min_separation(z):
    best = math.inf
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            d = abs(z[i] - z[j])
            if d < best:
                best = d
    return best


_FORMS = {}


def form_for(n):
    # spin 1/2 at every point has no invariants for odd n; a spin-1 last
    # point keeps the invariant space nonzero for every n from 3 to 7
    if n not in _FORMS:
        weights = ((1,),) * n if n % 2 == 0 else ((1,),) * (n - 1) + ((2,),)
        _FORMS[n] = kz_form(tensor_system(A1, weights), 2)
    return _FORMS[n]


@st.composite
def configurations(draw, n=None):
    """n points and velocities, some far out, some nearly or fully equal."""
    n = draw(st.integers(3, 7)) if n is None else n
    scale = draw(st.sampled_from([1.0, 1e3, 1e6]))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    z = [scale * complex(draw(unit), draw(unit)) for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.permutations(range(n)))[:2]
        gap = draw(st.sampled_from([0.0, 1e-9, 1e-9j, 3e-9 - 2e-9j]))
        z[j] = z[i] + gap
    v = [scale * complex(draw(unit), draw(unit)) for _ in range(n)]
    return z, v


@settings(max_examples=300, deadline=None)
@given(configurations())
# a coefficient overflows at a subnormal separation (Python division) and
# at a normal one (numpy division)
@example(([0, 2.2e-311, 0.5, 0.7], [1, 0, 0, 0]))
@example(([0, 3e-308, 0.5, 0.7], [40, 0, 0, 0]))
# a quotient with a subnormal imaginary part, which numpy's division
# rounded one unit off the correctly rounded value Python's gives
@example(([0, 560.5653578369689j, 401.61404149214184 + 390.625j],
          [0, 0, 2.2250738585072033e-306j]))
def test_form_matches_scalar_reference(config):
    z, v = config
    form = form_for(len(z))
    try:
        ref_coef = reference_coefficients(form, z, v)
        ref = reference_evaluate(form, z, v)
    except CoincidentPointsError as exc:
        named = str(exc).split(" coincide")[0]
        with pytest.raises(CoincidentPointsError) as info:
            form.evaluate(z, v)
        assert str(info.value).split(" coincide")[0] == named
        return
    coef = form.coefficients(z, v)
    assert np.all(np.abs(coef - ref_coef) <= 1e-15 * np.abs(ref_coef))
    omega = np.array([m.to_array(complex)
                      for m in omega_of(form).values()])
    terms = np.tensordot(np.abs(ref_coef), np.abs(omega), axes=(0, 0))
    out = form.evaluate(z, v)
    assert out.shape == ref.shape == (form.dim, form.dim)
    assert np.abs(out - ref).max() <= 1e-15 * terms.max()


@settings(max_examples=300, deadline=None)
@given(configurations())
def test_min_separation_matches_scalar_reference(config):
    z, _v = config
    form = form_for(len(z))
    assert _Points(form, np.array(z)).sep == reference_min_separation(z)


@st.composite
def edge_configurations(draw, n):
    """Points 0 and 1 a subnormal or near-subnormal distance apart, moving
    at a speed that keeps the coefficients finite, overflows a quotient
    or overflows only the contraction."""
    gap = draw(st.sampled_from([2.225073858507e-311, 2.2e-311, 1e-320j,
                                3e-308, -3e-308j]))
    speed = draw(st.sampled_from([1e-300, 1.0, 20.0, 40.0]))
    z = [0, gap] + [2 + 3j * s for s in range(n - 2)]
    return z, [speed] + [0] * (n - 1)


@st.composite
def stacks(draw):
    """1 to 16 configurations on the same number of points."""
    n = draw(st.integers(3, 7))
    return draw(st.lists(st.one_of(configurations(n), edge_configurations(n)),
                         min_size=1, max_size=16))


def _row_by_row(fn, stack):
    """fn on each row in order: the values, or the first row's error."""
    out = []
    for z, v in stack:
        try:
            out.append(fn(z, v))
        except CoincidentPointsError as exc:
            return out, str(exc)
    return out, None


@settings(max_examples=300, deadline=None)
@given(stacks())
def test_stack_matches_row_by_row(stack):
    # a stack's rows are bitwise the rows evaluated one by one, and a
    # failing stack raises the error of its first failing row
    form = form_for(len(stack[0][0]))
    z = np.array([row[0] for row in stack], dtype=complex)
    v = np.array([row[1] for row in stack], dtype=complex)
    for fn in (form.coefficients, form.evaluate):
        rows, error = _row_by_row(fn, stack)
        if error is not None:
            with pytest.raises(CoincidentPointsError) as info:
                fn(z, v)
            assert str(info.value) == error
            continue
        got = fn(z, v)
        assert got.shape == (len(stack),) + rows[0].shape
        assert all(np.array_equal(g, r) for g, r in zip(got, rows))
        if len(stack) % 2 == 0:
            grid = (2, len(stack) // 2, form.n)
            assert np.array_equal(fn(z.reshape(grid), v.reshape(grid)),
                                  got.reshape(grid[:2] + got.shape[1:]))


def _stepped_segment(gaps):
    """A segment at the times 1..len(gaps) whose points 0 and 1 are
    gaps[t - 1] apart, point 0 moving at speed 1e300."""
    def z(ts):
        return np.array([[0, gaps[int(t) - 1], 2, 5] for t in ts],
                        dtype=complex)

    return Segment(z, lambda ts: np.repeat(
        np.array([[1e300, 0, 0, 0]], dtype=complex), len(ts), axis=0))


def test_path_monitor_names_the_first_time_in_the_guard():
    form = form_for(4)
    afun = _FormOnPath(form, _stepped_segment([1, 1e-9, 1, 1, 1e-12]), 1e-6)
    with pytest.raises(PathSingularError) as info:
        afun([1.0, 2.0, 3.0, 4.0, 5.0])
    assert info.value.t == 2.0
    # the form overflows at time 2, before the guard is reached at 3; and
    # the other way round
    afun = _FormOnPath(form, _stepped_segment([1, 1e-20, 0, 1]), 1e-30)
    with pytest.raises(CoincidentPointsError, match="points 0 and 1 .*"
                       "overflows"):
        afun([1.0, 2.0, 3.0, 4.0])
    afun = _FormOnPath(form, _stepped_segment([1, 0, 1e-20, 1]), 1e-30)
    with pytest.raises(PathSingularError) as info:
        afun([1.0, 2.0, 3.0, 4.0])
    assert info.value.t == 2.0


def test_first_coincident_pair_is_named():
    # pairs (0, 2) and (3, 4) both coincide; (0, 2) comes first in pair order
    form = form_for(5)
    z = [0, 1, 0, 5, 5]
    with pytest.raises(CoincidentPointsError, match="points 0 and 2 "):
        form.evaluate(z, [1, 2, 3, 4, 5])


def _frozen_case():
    doc = json.loads(FROZEN.read_text())
    system = tensor_system(build_algebra(*doc["algebra"]),
                           tuple(map(tuple, doc["weights"])))
    form = kz_form(system, doc["level"])
    block = block_subspace(system, doc["level"], doc["points"])
    return doc, form, block


def _dop853_letter(form, block, i, tol):
    """A braid letter by the route that froze the values: DOP853 on the
    fundamental matrix, then the slot swap, then block coordinates."""
    path = braid_path(tuple(complex(p) for p in block.points), i)
    res = transport(form, path, tol=tol, dual=True)
    cols = block.coeffs.to_array(complex)
    swap = rational(form.system.swap_restricted(i - 1)).to_array(complex)
    return _in_block_basis(cols, swap @ res.matrix @ cols)[0], res.est_error


def test_braid_generators_match_frozen_loop_version():
    doc, form, block = _frozen_case()
    for i, frozen in doc["generators"].items():
        expected = np.array(frozen["re"]) + 1j * np.array(frozen["im"])
        got, _est = _dop853_letter(form, block, int(i), doc["tol"])
        assert np.abs(got - expected).max() <= 1e-13


def test_taylor_braid_generators_match_frozen_values():
    # braid_generator solves its letters by Taylor series now; both
    # routes' error estimates, carried to block coordinates by the
    # condition number of the block basis, cover the distance
    doc, form, block = _frozen_case()
    cond = np.linalg.cond(block.coeffs.to_array(complex))
    for i, frozen in doc["generators"].items():
        expected = np.array(frozen["re"]) + 1j * np.array(frozen["im"])
        got = braid_generator(form, block, int(i), tol=doc["tol"])
        _mat, dop_est = _dop853_letter(form, block, int(i), doc["tol"])
        assert np.abs(got.matrix - expected).max() <= cond * (
            got.est_error + dop_est)
