"""The KZ one-form on configuration space and its exact consistency checks.

The form is (1/(k+h)) sum_{i<j} Omega^{ij} (dz_i - dz_j)/(z_i - z_j) on the
trivial bundle of tensor invariants. The Casimir coefficients stay exact
rational until the z-dependent scalar factors are mixed in, which happens in
floating point as the very last step: the pair coefficients
(v_i - v_j)/(z_i - z_j) are one array over all pairs, contracted with the
float Omega^{ij} in one matrix product.

Flatness is equivalent to the Kohno commutation relations
    [Omega^{ij}, Omega^{kl}] = 0            for disjoint pairs,
    [Omega^{ij}, Omega^{ik} + Omega^{jk}] = 0   for distinct i, j, k,
which are verified exactly (in integer arithmetic after clearing one common
denominator), on the full tensor space and restricted to the invariants.
Every total-space Omega^{ij} embeds one local matrix on V_i (x) V_j, so the
full-space check reduces to the three relations of each distinct weight
triple on V_a (x) V_b (x) V_c; no total-space Omega is built for it.

Around the global rotation loop z_i(t) = exp(2 pi i t) z_i the tangent is
dz = 2 pi i z, so the form is the constant (2 pi i/(k+h)) sum Omega^{ij} and
transport equals exp(-(2 pi i/(k+h)) sum Omega^{ij}). On invariants the sum
of all Omega^{ij} is the scalar -(sum_i c_i)/2 (the diagonal Casimir
vanishes there), so the loop acts as exp(pi i sum_i c_i/(k+h)).
"""

from __future__ import annotations

import cmath
import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import inf, lcm

import numpy as np

from ._integrators import expm
from .errors import CoincidentPointsError, KzmonoError, require_int
from .exact import SRMatrix, commutator
from .reps import TensorSystem


class KZForm:
    """KZ connection data for a tensor system at level k.

    Eagerly assembles every Omega^{ij} restricted to the invariants (exact
    SRMatrix, from the local matrix through `TensorSystem.restrict_local`)
    and keeps float copies for the integrator, one flattened d x d matrix
    per row. `left` and `right` are the index arrays of the pairs (i, j),
    in `pairs` order, so the form is evaluated in one array pass over all
    pairs. The total-space Omega^{ij} (`omega_full`) are built only on
    explicit access; the full-space Kohno check works from the local
    matrices, and reads `omega_full` only if it was built and altered.
    """

    def __init__(self, system, k):
        self.system = system
        self.k = k = require_int(k, "level", 1)
        self.h = system.alg.dual_coxeter
        self.prefactor = Fraction(1, k + self.h)
        n = system.n
        self.left, self.right = np.triu_indices(n, 1)
        self.pairs = list(zip(self.left.tolist(), self.right.tolist()))
        self.omega_inv = {p: system.omega_restricted(*p) for p in self.pairs}
        d = system.invariant_dim
        self.dim = d
        self._pref = float(self.prefactor)
        self._omega_rows = np.array(
            [self.omega_inv[p].to_complex().ravel() for p in self.pairs],
            dtype=complex).reshape(len(self.pairs), d * d)

    @cached_property
    def omega_full(self):
        """Omega^{ij} on the total space per pair, built once on demand."""
        return {p: self.system.omega_pair(*p) for p in self.pairs}

    @property
    def n(self):
        return self.system.n

    def coefficients(self, z, v):
        """(1/(k+h)) (v_i - v_j)/(z_i - z_j) per pair, as a float vector."""
        pts = z if isinstance(z, _Points) else _Points(self, z)
        v = np.asarray(v, dtype=complex)
        if v.shape != (self.n,):
            raise ValueError(f"need {self.n} velocities")
        dv = v[self.left] - v[self.right]
        if pts.sep >= sys.float_info.min:
            return self._pref * dv / pts.dz
        if pts.sep == 0:
            i, j = self.pairs[np.flatnonzero(pts.dz == 0)[0]]
            raise CoincidentPointsError(
                f"points {i} and {j} coincide at z={pts.z}")
        # numpy divides through the reciprocal of a complex number, which
        # overflows below the smallest normal float; Python does not
        return np.array([self._pref * complex(a) / complex(b)
                         for a, b in zip(dv, pts.dz)])

    def evaluate(self, z, v):
        """Value of the form on the invariants: a complex matrix.

        One array pass: the pair coefficients times the Omega^{ij} held as
        the rows of one (pairs, d*d) matrix. Points so close that the form
        overflows raise CoincidentPointsError naming the pair of the
        largest coefficient. A non-finite coefficient makes every entry
        non-finite (inf * 0 is nan), so one entry is tested.
        """
        coef = self.coefficients(z, v)
        flat = coef @ self._omega_rows
        if self.dim and not cmath.isfinite(flat[0]):
            i, j = self.pairs[np.argmax(np.abs(coef))]
            raise CoincidentPointsError(
                f"points {i} and {j} coincide to float precision: the form "
                "overflows")
        return flat.reshape(self.dim, self.dim)


class _Points:
    """Points z with dz = z[left] - z[right] and sep = min |dz| (by hypot,
    as abs() of a Python complex). A path forms it once per A(t), for its
    pole monitor and, in place of z, for `KZForm.evaluate`."""

    __slots__ = ("z", "dz", "sep")

    def __init__(self, form, z):
        self.z = z = np.asarray(z, dtype=complex)
        if z.shape != (form.n,):
            raise ValueError(f"need {form.n} points")
        self.dz = dz = z[form.left] - z[form.right]
        self.sep = np.minimum.reduce(np.hypot(dz.real, dz.imag), initial=inf)


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


def _kohno_residual(omega, relations):
    """Largest |[Omega_p, sum_q Omega_q]| over the relations, exactly.

    The commutators run on the integer matrices D*Omega, with D the lcm of
    all entry denominators in `omega`; [D A, D B] = D^2 [A, B], so the
    largest integer residual divided by D^2 is the exact rational one.
    """
    denom = lcm(*{v.denominator for m in omega.values()
                  for v in m.data.values()})
    ints = {p: m.scale(denom).map_values(int) for p, m in omega.items()}
    worst = 0
    for p, qs in relations:
        rest = sum((ints[q] for q in qs[1:]), ints[qs[0]])
        worst = max(worst, commutator(ints[p], rest).max_abs())
    return Fraction(worst, denom * denom)


def _kohno_relations(n):
    """The Kohno relations (p, qs) on n slots: disjoint pairs, then every
    triple (i, j, k), in the order of `KZForm.pairs`."""
    pairs = list(itertools.combinations(range(n), 2))

    def pair(a, b):
        return (min(a, b), max(a, b))

    relations = [(p, [q]) for p in pairs for q in pairs
                 if q > p and not set(p) & set(q)]
    relations += [((i, j), [pair(i, k), pair(j, k)])
                  for (i, j) in pairs for k in range(n) if k not in (i, j)]
    return relations


def _full_residual(form, relations):
    """Full-space Kohno residual, from V_a (x) V_b (x) V_c per slot triple.

    Every total-space Omega^{ij} is `apply_local` of one local matrix, so
    Omega^{ij} and Omega^{kl} on disjoint slots commute, and the three
    relations of slots a < b < c are iota(R), R their residual on the
    three-factor system (w_a, w_b, w_c) and iota: X -> X (x) Id (Id on
    the other slots) an injective algebra map that keeps every entry, so
    max |iota(R)| = max |R|. Each distinct weight triple is checked once.
    If `omega_full` was built and no longer matches the local data, the
    relations run on it as given.
    """
    system = form.system
    built = form.__dict__.get("omega_full")
    if built is not None and any(built[p] != system.omega_pair(*p)
                                 for p in form.pairs):
        return _kohno_residual(built, relations)
    local = _kohno_relations(3)
    worst = Fraction(0)
    for ws in {tuple(system.weights[s] for s in t)
               for t in itertools.combinations(range(form.n), 3)}:
        sub = TensorSystem(system.alg, ws, max_dim=system.total_dim)
        omega = {p: sub.omega_pair(*p)
                 for p in itertools.combinations(range(3), 2)}
        worst = max(worst, _kohno_residual(omega, local))
    return worst


def flatness_check(form):
    """Verify the Kohno relations exactly; report the worst deviation.

    Each relation (p, qs) reads [Omega_p, sum_{q in qs} Omega_q] = 0: the
    disjoint pairs, then every triple (i, j, k). On the invariants the
    list runs on the restricted Omega^{ij}; on the full tensor space it is
    reduced to one three-factor system per weight triple
    (`_full_residual`), so no total-space Omega is built. Each residual
    scales its matrices by one common denominator D into integer matrices
    and divides the integer residual by D^2; since [D A, D B] = D^2 [A, B]
    this is the same exact rational residual, with no gcd paid per
    product. A nonzero residual can only come from a defective Omega
    assembly, so callers treat it as an internal failure, not a numerical
    tolerance.
    """
    relations = _kohno_relations(form.n)
    return FlatnessReport(
        checks=len(relations),
        max_abs_full=_full_residual(form, relations),
        max_abs_restricted=_kohno_residual(form.omega_inv, relations))


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
    mat = sum(form.omega_inv.values(), SRMatrix(d, d)).to_complex()
    result = expm(-2j * np.pi * float(form.prefactor) * mat)
    residual = float(np.max(np.abs(result - scalar * np.eye(d))))
    return RotationReport(scalar=scalar, matrix=result, max_residual=residual)
