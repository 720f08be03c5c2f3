"""The KZ one-form on configuration space and its exact consistency checks.

The form is (1/(k+h)) sum_{i<j} Omega^{ij} (dz_i - dz_j)/(z_i - z_j) on the
trivial bundle of tensor invariants. The Casimir coefficients stay exact
rational until the z-dependent scalar factors are mixed in, which happens in
floating point as the very last step.

Flatness is equivalent to the Kohno commutation relations
    [Omega^{ij}, Omega^{kl}] = 0            for disjoint pairs,
    [Omega^{ij}, Omega^{ik} + Omega^{jk}] = 0   for distinct i, j, k,
which are verified exactly in rational arithmetic, on the full tensor space
and restricted to the invariants.

Around the global rotation loop z_i(t) = exp(2 pi i t) z_i the tangent is
dz = 2 pi i z, so the form is the constant (2 pi i/(k+h)) sum Omega^{ij} and
transport equals exp(-(2 pi i/(k+h)) sum Omega^{ij}). On invariants the sum
of all Omega^{ij} is the scalar -(sum_i c_i)/2 (the diagonal Casimir
vanishes there), so the loop acts as exp(pi i sum_i c_i/(k+h)).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

from .errors import CoincidentPointsError, KzmonoError
from .exact import commutator


class KZForm:
    """KZ connection data for a tensor system at level k.

    Eagerly assembles every Omega^{ij} (exact) and keeps float copies of the
    restrictions for the integrator.
    """

    def __init__(self, system, k):
        k = int(k)
        if k < 1:
            raise ValueError("level must be a positive integer")
        self.system = system
        self.k = k
        self.h = system.alg.dual_coxeter
        self.prefactor = Fraction(1, k + self.h)
        assert self.prefactor * (k + self.h) == 1
        n = system.n
        self.pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        self.omega_full = {p: system.omega_pair(*p)[0] for p in self.pairs}
        self.omega_inv = {p: system.omega_restricted(*p) for p in self.pairs}
        d = system.invariant_dim
        self.dim = d
        self._omega_float = np.zeros((len(self.pairs), d, d), dtype=complex)
        for idx, p in enumerate(self.pairs):
            block = self.omega_inv[p]
            for a in range(d):
                for b in range(d):
                    if block[a][b]:
                        self._omega_float[idx, a, b] = float(block[a][b])

    @property
    def n(self):
        return self.system.n

    def coefficients(self, z, v):
        """(1/(k+h)) (v_i - v_j)/(z_i - z_j) per pair, as a float vector."""
        if len(z) != self.n or len(v) != self.n:
            raise ValueError(f"need {self.n} points and velocities")
        out = np.empty(len(self.pairs), dtype=complex)
        pref = float(self.prefactor)
        for idx, (i, j) in enumerate(self.pairs):
            dz = z[i] - z[j]
            if dz == 0:
                raise CoincidentPointsError(
                    f"points {i} and {j} coincide at z={z}")
            out[idx] = pref * (v[i] - v[j]) / dz
        return out

    def evaluate(self, z, v):
        """Value of the form on the invariants: a complex matrix."""
        coef = self.coefficients(z, v)
        return np.tensordot(coef, self._omega_float, axes=(0, 0))

    def sum_omega_restricted(self):
        d = self.dim
        total = [[Fraction(0)] * d for _ in range(d)]
        for p in self.pairs:
            block = self.omega_inv[p]
            for a in range(d):
                for b in range(d):
                    total[a][b] += block[a][b]
        return total


def kz_form(system, k):
    return KZForm(system, k)


@dataclass
class FlatnessReport:
    """Exact Kohno-relation residuals; zero means flat, always exactly."""

    checks: int
    max_abs_full: Fraction
    max_abs_restricted: Fraction

    @property
    def exact(self):
        return self.max_abs_full == 0 and self.max_abs_restricted == 0


def flatness_check(form):
    """Verify the Kohno relations exactly; report the worst deviation.

    A nonzero residual can only come from a defective Omega assembly, so
    callers treat it as an internal failure, not a numerical tolerance.
    """
    system = form.system
    n = form.n
    checks = 0
    worst_full = Fraction(0)
    worst_restr = Fraction(0)

    def restr_comm(p, qs):
        d = form.dim
        a = form.omega_inv[p]
        b = [[sum(form.omega_inv[q][x][y] for q in qs)
              for y in range(d)] for x in range(d)]
        out = Fraction(0)
        for x in range(d):
            for y in range(d):
                v = sum(a[x][t] * b[t][y] - b[x][t] * a[t][y]
                        for t in range(d))
                out = max(out, abs(v))
        return out

    for (i, j) in form.pairs:
        for (k2, l2) in form.pairs:
            if (k2, l2) <= (i, j):
                continue
            if {i, j} & {k2, l2}:
                continue
            c = commutator(form.omega_full[(i, j)], form.omega_full[(k2, l2)])
            worst_full = max(worst_full, c.max_abs())
            worst_restr = max(worst_restr, restr_comm((i, j), [(k2, l2)]))
            checks += 1
    for i in range(n):
        for j in range(i + 1, n):
            for k2 in range(n):
                if k2 in (i, j):
                    continue
                om_ik = form.omega_full[(min(i, k2), max(i, k2))]
                om_jk = form.omega_full[(min(j, k2), max(j, k2))]
                c = commutator(form.omega_full[(i, j)], om_ik + om_jk)
                worst_full = max(worst_full, c.max_abs())
                worst_restr = max(worst_restr, restr_comm(
                    (i, j), [(min(i, k2), max(i, k2)),
                             (min(j, k2), max(j, k2))]))
                checks += 1
    return FlatnessReport(checks=checks, max_abs_full=worst_full,
                          max_abs_restricted=worst_restr)


@dataclass
class RotationReport:
    """Global-rotation monodromy: exact scalar prediction vs matrix exp."""

    scalar: complex
    matrix: np.ndarray
    max_residual: float


def rotation_monodromy(form):
    """Monodromy of the loop z(t) = exp(2 pi i t) z.

    Returns the predicted scalar exp(pi i sum_i c_i/(k + h)) together with
    the matrix exponential exp(-(2 pi i/(k+h)) sum Omega^{ij}) and their
    difference on the invariants (derivation in the module docstring).
    """
    d = form.dim
    if d == 0:
        raise KzmonoError("invariant subspace is zero")
    csum = form.system.sum_casimirs()
    scalar = cmath.exp(1j * cmath.pi * float(csum / (form.k + form.h)))
    total = form.sum_omega_restricted()
    mat = np.array([[float(total[a][b]) for b in range(d)] for a in range(d)],
                   dtype=complex)
    result = expm(-2j * np.pi * float(form.prefactor) * mat)
    residual = float(np.max(np.abs(result - scalar * np.eye(d))))
    return RotationReport(scalar=scalar, matrix=result, max_residual=residual)


def form_to_json(form, z, v):
    import json
    m = form.evaluate(z, v)
    return json.dumps({
        "algebra": {"series": form.system.alg.series,
                    "rank": form.system.alg.rank},
        "weights": [list(w) for w in form.system.weights],
        "level": form.k,
        "z": [[x.real, x.imag] for x in map(complex, z)],
        "v": [[x.real, x.imag] for x in map(complex, v)],
        "matrix_re": m.real.tolist(),
        "matrix_im": m.imag.tolist(),
    }, sort_keys=True)
