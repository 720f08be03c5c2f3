"""The in-package float kernels against scipy, which stays the reference.

`dop853` must take the steps of `solve_ivp(method="DOP853")` on the
transport right-hand side: the same number of evaluated A(t), the same
floats, bit for bit. `expm` must match `scipy.linalg.expm` on single
matrices and on stacks, at norms reaching every Pade degree and several
squarings. A Magnus rung must not depend on how its steps are cut into
exponentiated stacks.
"""

import importlib
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp

from kzmono._integrators import dop853, expm
from kzmono.algebra import build_algebra
from kzmono.connection import kz_form
from kzmono.reps import tensor_system
from kzmono.transport import (_FormOnPath, braid_path, magnus_fixed_steps,
                              rotation_path)

A1 = build_algebra("A", 1)
G2 = build_algebra("G", 2)
PTS6 = (0, 1, 3, 7, 12, 20)


@pytest.fixture(scope="module")
def form_a1_6():
    return kz_form(tensor_system(A1, ((1,),) * 6), 2)


@pytest.fixture(scope="module")
def form_g2_3():
    return kz_form(tensor_system(G2, ((1, 0),) * 3), 1)


class _CountedForm:
    """sign * A(t) on the transport path, counting evaluated matrices up
    to a limit; called on a stack of times by `dop853`, and as the
    right-hand side of solve_ivp on one-row stacks of the same path."""

    def __init__(self, form, path, sign):
        self.afun = _FormOnPath(form, path.segments[0], 1e-30)
        self.shape = (form.dim, form.dim)
        self.sign = sign
        self.count = 0
        self.limit = math.inf

    def amats(self, ts):
        self.count += len(ts)
        # a wrong tableau can shrink the steps without end; stop it early
        assert self.count <= self.limit, "more evaluations than solve_ivp"
        return self.sign * self.afun(ts)

    def rhs(self, t, y):
        return (self.amats([t])[0] @ y.reshape(self.shape)).ravel()


def _assert_matches_solve_ivp(form, path, sign):
    counted = _CountedForm(form, path, sign)
    y0 = np.eye(form.dim, dtype=complex)
    # both rungs of the transport ladder at its default tolerance
    for rtol in (1e-10, 1e-12):
        counted.count, counted.limit = 0, math.inf
        sol = solve_ivp(counted.rhs, (0.0, 1.0), y0.ravel(), method="DOP853",
                        rtol=rtol, atol=rtol * 1e-2)
        assert sol.success
        ref = sol.y[:, -1].reshape(y0.shape)
        counted.count, counted.limit = 0, sol.nfev
        got = dop853(counted.amats, y0, rtol=rtol, atol=rtol * 1e-2)
        assert counted.count == sol.nfev
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("i", [1, 2, 3, 4, 5])
def test_dop853_matches_solve_ivp_on_braid_paths(form_a1_6, i):
    # the dual transport of braid_generator
    _assert_matches_solve_ivp(form_a1_6, braid_path(PTS6, i), 1.0)


def test_dop853_matches_solve_ivp_on_rotation(form_g2_3):
    _assert_matches_solve_ivp(form_g2_3, rotation_path((0, 1, 3)), -1.0)


def _matrix(rng, d, norm):
    """A random complex d x d matrix of the given 1-norm."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return a * (norm / np.abs(a).sum(axis=0).max())


# 0, 1e-3 and 0.0149 take Pade degree 3; 0.25, 0.9 and 2 take 5, 7 and 9,
# each just below its degree's norm bound, where the next lower degree
# would miss 1e-13; from 5 on degree 13, with 0, 1, 2, 3 and 4 squarings
# at 5, 8, 20, 40 and 50
NORMS = (0.0, 1e-3, 0.0149, 0.25, 0.9, 2.0, 5.0, 8.0, 20.0, 40.0, 50.0)


def _rel_err(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize("d", [1, 2, 5, 14])
def test_expm_matches_scipy(d):
    rng = np.random.default_rng(d)
    for norm in NORMS:
        a = _matrix(rng, d, norm)
        assert _rel_err(expm(a), scipy.linalg.expm(a)) <= 1e-13, norm


@pytest.mark.parametrize("d", [1, 2, 5, 14])
def test_expm_of_a_stack_matches_scipy(d):
    # a stack takes the degree and squarings of its largest norm, so each
    # matrix is also checked on every rung above its own
    rng = np.random.default_rng(100 + d)
    stack = np.array([_matrix(rng, d, norm) for norm in NORMS])
    for top in range(1, len(NORMS) + 1):
        for a, got in zip(stack[:top], expm(stack[:top])):
            assert _rel_err(got, scipy.linalg.expm(a)) <= 1e-13, top
    grid = stack[1:].reshape(2, len(NORMS) // 2, d, d)
    assert np.array_equal(expm(grid),
                          expm(stack[1:]).reshape(grid.shape))


def test_magnus_chunks_do_not_change_a_rung(form_a1_6, monkeypatch):
    path = braid_path(PTS6, 2)
    whole = magnus_fixed_steps(form_a1_6, path, 16, dual=True)
    module = importlib.import_module("kzmono.transport")
    monkeypatch.setattr(module, "_MAGNUS_CHUNK", 3)
    chunked = magnus_fixed_steps(form_a1_6, path, 16, dual=True)
    assert np.linalg.norm(chunked - whole) <= 1e-14 * np.linalg.norm(whole)


def test_cli_import_loads_no_scipy():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    code = ("import sys, kzmono.cli; "
            "bad = [m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')]; "
            "sys.exit(f'scipy modules loaded: {bad}' if bad else 0)")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
