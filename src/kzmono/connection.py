"""The KZ one-form on configuration space and its exact consistency checks.

The form is (1/(k+h)) sum_{i<j} Omega^{ij} (dz_i - dz_j)/(z_i - z_j) on the
trivial bundle of tensor invariants. The Casimir coefficients stay exact
rational until the z-dependent scalar factors are mixed in, which happens in
floating point as the very last step: the pair coefficients
(v_i - v_j)/(z_i - z_j) are one array over all pairs, contracted with the
float Omega^{ij} in one matrix product. Both take whole stacks of point
sets, so a path evaluates the form at many times in one call.

Flatness is equivalent to the Kohno commutation relations
    [Omega^{ij}, Omega^{kl}] = 0            for disjoint pairs,
    [Omega^{ij}, Omega^{ik} + Omega^{jk}] = 0   for distinct i, j, k,
which are verified exactly (in integer arithmetic after clearing one common
denominator), on the full tensor space and restricted to the invariants.
Every total-space Omega^{ij} embeds one local matrix on V_i (x) V_j, so the
full-space check reduces to the three relations of each distinct weight
triple on V_a (x) V_b (x) V_c; no total-space Omega is built for it. The
restricted commutators are small and dense, so they run as float64 BLAS
products on the integer matrices, under an a-priori bound (2 d q A^2 <
2^53, see `_restricted_residual`) that makes every product and partial sum
an exactly held integer; past the bound they run on Python ints.

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
from math import inf

import numpy as np

from ._integrators import expm
from .errors import CoincidentPointsError, KzmonoError, require_int
from .exact import SRMatrix, commutator, integral
from . import reps


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
        """(1/(k+h)) (v_i - v_j)/(z_i - z_j) per pair, as a float array.

        z and v have shape (..., n); the result has shape (..., pairs).
        Raises CoincidentPointsError for the first point set, in row order,
        with a coincident pair or a non-finite quotient.
        """
        pts, coef = self._quotients(z, v)
        rows = coef.reshape(pts.sep.size, len(self.pairs))
        self._check_rows(pts, rows, np.isfinite(rows).all(axis=-1))
        return coef

    def _quotients(self, z, v):
        """The points and their pair quotients, C-contiguous, non-finite
        ones included (an exact coincidence divides by zero)."""
        pts = z if isinstance(z, _Points) else _Points(self, z)
        v = np.asarray(v, dtype=complex)
        if v.shape != pts.z.shape:
            raise ValueError(f"need {self.n} velocities per point set")
        dv = v[..., self.left] - v[..., self.right]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            coef = np.ascontiguousarray(self._pref * dv / pts.dz)
        # numpy divides through the reciprocal of a complex number, which
        # overflows below the smallest normal float; Python does not
        tiny = np.flatnonzero((pts.sep > 0) & (pts.sep < sys.float_info.min))
        if tiny.size:
            rows = coef.reshape(pts.sep.size, len(self.pairs))
            dv, dz = (a.reshape(rows.shape) for a in (dv, pts.dz))
            for r in tiny:
                rows[r] = [self._pref * complex(a) / complex(b)
                           for a, b in zip(dv[r], dz[r])]
        return pts, coef

    def _check_rows(self, pts, rows, ok):
        """Raise CoincidentPointsError for the first point set r of the
        flattened stack whose `ok` is false, naming its first coincident
        pair, else its first non-finite quotient, else (only the
        contraction overflowed) its largest quotient."""
        if ok.all():
            return
        r = np.argmin(ok)
        dz = pts.dz.reshape(rows.shape)[r]
        if (dz == 0).any():
            i, j = self.pairs[np.argmax(dz == 0)]
            z = pts.z.reshape(len(rows), self.n)[r]
            raise CoincidentPointsError(
                f"points {i} and {j} coincide at z={z}")
        finite = np.isfinite(rows[r])
        i, j = self.pairs[np.argmin(finite) if not finite.all()
                          else np.argmax(np.abs(rows[r]))]
        raise CoincidentPointsError(
            f"points {i} and {j} coincide to float precision: the form "
            "overflows")

    def evaluate(self, z, v):
        """Value of the form on the invariants: complex (..., d, d).

        z and v have shape (..., n), one row per point set. One array pass
        for the whole stack: the pair coefficients times the Omega^{ij}
        held as the rows of one (pairs, d*d) matrix. Each point set is
        contracted on its own, as a C-contiguous (1, pairs) operand, so a
        row of a stack is bitwise the value at that point set alone. Points
        so close that the form overflows raise CoincidentPointsError for
        the first failing point set (see `_check_rows`).
        """
        pts, coef = self._quotients(z, v)
        with np.errstate(over="ignore", invalid="ignore"):
            flat = coef[..., None, :] @ self._omega_rows
        rows = coef.reshape(pts.sep.size, len(self.pairs))
        finite = np.isfinite(flat.reshape(len(rows), self.dim ** 2))
        self._check_rows(pts, rows, np.isfinite(rows).all(axis=-1)
                         & finite.all(axis=-1))
        return flat.reshape(coef.shape[:-1] + (self.dim, self.dim))


class _Points:
    """Points z of shape (..., n) with dz = z[..., left] - z[..., right]
    and sep = min |dz| per point set (by hypot, as abs() of a Python
    complex). A path forms it once per stack of times, for its pole
    monitor and, in place of z, for `KZForm.evaluate`."""

    __slots__ = ("z", "dz", "sep")

    def __init__(self, form, z):
        self.z = z = np.asarray(z, dtype=complex)
        if z.ndim == 0 or z.shape[-1] != form.n:
            raise ValueError(f"need {form.n} points per point set")
        self.dz = dz = z[..., form.left] - z[..., form.right]
        self.sep = np.minimum.reduce(np.hypot(dz.real, dz.imag), axis=-1,
                                     initial=inf)


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


def _commutator_max(ints, relations):
    """Largest |[A_p, sum_q A_q]| over the relations, as an int, for
    integer SRMatrix values A (sparse products on Python ints)."""
    worst = 0
    for p, qs in relations:
        rest = sum((ints[q] for q in qs[1:]), ints[qs[0]])
        worst = max(worst, commutator(ints[p], rest).max_abs())
    return worst


def _kohno_residual(omega, relations):
    """Largest |[Omega_p, sum_q Omega_q]| over the relations, exactly.

    The commutators run on the integer matrices D*Omega, with D the lcm of
    all entry denominators in `omega`; [D A, D B] = D^2 [A, B], so the
    largest integer residual divided by D^2 is the exact rational one.
    """
    denom, mats = integral(omega.values())
    return Fraction(_commutator_max(dict(zip(omega, mats)), relations),
                    denom * denom)


def _restricted_residual(omega, relations):
    """`_kohno_residual` of the restricted Omega, as float64 BLAS products.

    The matrices are D*Omega as in `_kohno_residual`, held as dense
    float64 arrays built from the exact values on every call. Let A be
    their largest |entry|, d their size and q the largest number of
    summands of a relation. Each entry of (D Omega_p)(sum_q D Omega_q) is
    a sum of d integer products of size at most q A^2, so if
    2 d q A^2 < 2^53 every product, every partial sum in any order, and
    the difference of the two products is an integer below 2^53, which
    float64 holds exactly: the result is exact whatever the BLAS
    summation order and with or without fused multiply-adds. When the
    bound fails, the sparse Python-int products run instead.
    """
    if not relations:
        return Fraction(0)
    denom, mats = integral(omega.values())
    ints = dict(zip(omega, mats))
    d = mats[0].nrows
    big = max((abs(v) for m in mats for v in m.data.values()), default=0)
    size = max(len(qs) for _p, qs in relations)
    if 2 * d * size * big * big >= 2 ** 53:
        return Fraction(_commutator_max(ints, relations), denom * denom)
    index = {p: t for t, p in enumerate(omega)}
    stack = np.zeros((len(mats), d, d))
    for t, m in enumerate(mats):
        for (r, c), v in m.data.items():
            stack[t, r, c] = v
    rests = {}      # per left matrix, its relations' right sums
    for p, qs in relations:
        rests.setdefault(index[p], []).append(
            sum(stack[index[q]] for q in qs))
    worst = 0.0
    for t, bs in rests.items():
        a, b = stack[t], np.array(bs)
        worst = max(worst, float(np.abs(a @ b - b @ a).max(initial=0)))
    return Fraction(int(worst), denom * denom)


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
    max |iota(R)| = max |R|. Each distinct weight triple is checked once,
    on the three local matrices scaled by their common denominator D and
    embedded as integers (sparse Python-int products; the three-factor
    space can be large). If `omega_full` was built and no longer matches
    the local data, the relations run on it as given.
    """
    system = form.system
    built = form.__dict__.get("omega_full")
    if built is not None and any(built[p] != system.omega_pair(*p)
                                 for p in form.pairs):
        return _kohno_residual(built, relations)
    pairs = list(itertools.combinations(range(3), 2))
    local = _kohno_relations(3)
    worst = Fraction(0)
    for ws in {tuple(system.weights[s] for s in t)
               for t in itertools.combinations(range(form.n), 3)}:
        sub = reps.TensorSystem(system.alg, ws, max_dim=system.total_dim)
        denom, mats = integral(reps.local_omega(system.alg, ws[i], ws[j])
                               for i, j in pairs)
        omega = {p: sub.apply_local(p, m) for p, m in zip(pairs, mats)}
        worst = max(worst, Fraction(_commutator_max(omega, local),
                                    denom * denom))
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
    product. The restricted products run in float64 where a bound makes
    them exact (`_restricted_residual`). A nonzero residual can only come
    from a defective Omega
    assembly, so callers treat it as an internal failure, not a numerical
    tolerance.
    """
    relations = _kohno_relations(form.n)
    return FlatnessReport(
        checks=len(relations),
        max_abs_full=_full_residual(form, relations),
        max_abs_restricted=_restricted_residual(form.omega_inv, relations))


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
