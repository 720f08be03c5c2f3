"""The KZ one-form on configuration space and its exact consistency checks.

The form is (1/(k+h)) sum_{i<j} Omega^{ij} (dz_i - dz_j)/(z_i - z_j) on the
trivial bundle of tensor invariants. The Casimir coefficients stay exact
integers until the z-dependent scalar factors are mixed in, which happens
in floating point as the very last step: the pair coefficients
(v_i - v_j)/(z_i - z_j) are one array over all pairs, contracted with the
float Omega^{ij} in one matrix product. Both take whole stacks of point
sets, so a path evaluates the form at many times in one call.

Flatness is equivalent to the Kohno commutation relations
    [Omega^{ij}, Omega^{kl}] = 0            for disjoint pairs,
    [Omega^{ij}, Omega^{ik} + Omega^{jk}] = 0   for distinct i, j, k,
verified exactly on the full tensor space and on the invariants. Every
total-space Omega^{ij} embeds one local matrix on V_i (x) V_j, so the
full-space check reduces to the three relations of each distinct weight
triple on V_a (x) V_b (x) V_c; no total-space Omega is built for it.
`_block_residual` forms every commutator from integer entries over one
common denominator and a class per basis index (the total weight on a
tensor space, one class on the invariants), joined wherever an entry runs
between two, so every matrix and commutator is block diagonal over them.
Blocks run as batched dense products, in float64 under an a-priori bound
(2 s q A^2 < 2^53 for size s, q summands and largest entry A, see
`exact_dtype`) that keeps every partial sum an exact integer, else on
Python ints; past _DENSE_MAX as sparse products on Python ints.

Around the global rotation loop z_i(t) = exp(2 pi i t) z_i the tangent is
dz = 2 pi i z, so the form is the constant (2 pi i/(k+h)) sum Omega^{ij} and
transport equals exp(-(2 pi i/(k+h)) sum Omega^{ij}). On invariants the sum
of all Omega^{ij} is the scalar -(sum_i c_i)/2 (the diagonal Casimir
vanishes there), so the loop acts as exp(pi i sum_i c_i/(k+h)), checked
exactly as that sum in integers, with no matrix exponential formed.
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

from ._integrators import spectral_bound
from .errors import CoincidentPointsError, KzmonoError, require_int
from .exact import (exact_dtype, exact_mul, int_array, integral, join,
                    max_abs, sum_by_key, to_float)
from . import reps


class KZForm:
    """KZ connection data for a tensor system at level k.

    Eagerly restricts every Omega^{ij} to the invariants, as `omega_inv` =
    (D, stack): stack[p] = D Omega^p, integers, in `pairs` order; the exact
    checks read it, the integrator its float copy, one flattened d x d
    matrix per row. `left` and `right` are the index arrays of the pairs
    (i, j), in `pairs` order, so the form is evaluated in one array pass
    over all pairs. The total-space Omega^{ij} (`omega_full`) are built
    only on explicit access; the full-space Kohno check works from the
    local matrices, or from `omega_full` as it stands if it was built.
    """

    def __init__(self, system, k):
        self.system = system
        self.k = k = require_int(k, "level", 1)
        self.h = system.alg.dual_coxeter
        self.prefactor = Fraction(1, k + self.h)
        self.left, self.right = np.triu_indices(system.n, 1)
        self.pairs = list(zip(self.left.tolist(), self.right.tolist()))
        d = self.dim = system.invariant_dim
        restricted = [system.omega_restricted(*p) for p in self.pairs]
        denom = lcm(*(dn for dn, _x in restricted))
        self.omega_inv = denom, int_array(np.array(
            [exact_mul(x, np.array(denom // dn)) for dn, x in restricted]
        ).reshape(len(self.pairs), d, d))
        self._pref = float(self.prefactor)
        self._omega_rows = to_float(*self.omega_inv).reshape(
            len(self.pairs), d * d).astype(complex)
        self._residue_norms = {}

    def residues(self, rows):
        """R_p = Omega^p/(k+h) for the pair rows, a real (len(rows), d, d)
        array from the float rows."""
        flat = self._omega_rows[rows].real
        return self._pref * flat.reshape(len(flat), self.dim, self.dim)

    def residue_norms(self, groups):
        """An upper bound on ||S_g||_2 for each group g, a tuple of pair
        rows, where S_g is the sum of their `gram_residues`; no Gram matrix
        is built.

        S_g = C^T R_g C^{-T} is symmetric and similar to R_g, the sum of the
        group's `residues`, so its 2-norm is the largest |eigenvalue| of
        R_g, bounded within a factor d^(1/256) by `spectral_bound` (matrix
        products alone: an eigenvalue routine's code would add about
        0.7 MB to a verify job's resident memory). Each bound is computed
        once per form, and once for all pairs whose slots carry the same
        two weights: a slot permutation that fixes the weights conjugates
        their residues on the invariants.
        """
        cache = self._residue_norms
        weights = self.system.weights

        def key(g):
            if len(g) > 1:
                return g
            return tuple(sorted(weights[s] for s in self.pairs[g[0]]))

        keys = [key(g) for g in groups]
        todo = {k: g for k, g in zip(keys, groups) if k not in cache}
        if todo:
            sums = np.array([self.residues(list(g)).sum(axis=0)
                             for g in todo.values()])
            cache.update(zip(todo, spectral_bound(sums).tolist()))
        return np.array([cache[k] for k in keys])

    @cached_property
    def gram_residues(self):
        """The residues R_p = Omega^p/(k+h) in Gram-orthonormal coordinates.

        Returns (C, S): C the lower Cholesky factor of the float invariant
        Gram matrix G = C C^T (`TensorSystem.invariant_gram`), and
        S[p] = C^T R_p C^{-T}, real, for the pairs in `pairs` order, built
        from the float rows. In the coordinates x = C^T y every Omega^p,
        self-adjoint for G, is symmetric, so S[p] is stored as the
        symmetric part of the computed product. Built on first use.
        """
        chol = np.linalg.cholesky(to_float(*self.system.invariant_gram()))
        res = chol.T @ self.residues(slice(None)) @ np.linalg.inv(chol).T
        return chol, (res + res.transpose(0, 2, 1)) / 2

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
        pts, coef, rows = self._quotients(z, v)
        self._check_rows(pts, rows, np.isfinite(rows).all(axis=-1))
        return coef

    def _quotients(self, z, v):
        """The points, their pair quotients (C-contiguous, non-finite ones
        included) and the quotients as one row per point set."""
        pts = z if isinstance(z, _Points) else _Points(self, z)
        v = np.asarray(v, dtype=complex)
        if v.shape != pts.z.shape:
            raise ValueError(f"need {self.n} velocities per point set")
        dv = v[..., self.left] - v[..., self.right]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            coef = np.ascontiguousarray(self._pref * dv / pts.dz)
        # numpy divides through the reciprocal of a complex number, which
        # overflows below the smallest normal float and can round a subnormal
        # part one unit off; Python does neither (a coincidence is refused)
        rows = coef.reshape(pts.sep.size, len(self.pairs))
        part, low = np.abs(rows.view(float)), sys.float_info.min
        tiny = np.flatnonzero((pts.sep > 0).ravel() & (
            (pts.sep < low).ravel() | ((part > 0) & (part < low)).any(-1)))
        if tiny.size:
            dv, dz = (a.reshape(rows.shape) for a in (dv, pts.dz))
            for r in tiny:
                rows[r] = [self._pref * complex(a) / complex(b)
                           for a, b in zip(dv[r], dz[r])]
        return pts, coef, rows

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
        pts, coef, rows = self._quotients(z, v)
        with np.errstate(over="ignore", invalid="ignore"):
            flat = coef[..., None, :] @ self._omega_rows
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


_TRIPLE_PAIRS = ((0, 1), (0, 2), (1, 2))
_BATCH = 1 << 14        # entries of one stack of dense products
_DENSE_MAX = 1024       # largest block taken as dense products


def _join(label, rows, cols):
    """Class ids 0, 1, ... of the classes of `label` joined wherever an
    edge (rows[e], cols[e]) runs between two of them (union-find over
    the classes, in the order of their smallest old id)."""
    a, b = label[rows], label[cols]
    cross = a != b
    if not cross.any():
        return label
    parent = list(range(int(label.max()) + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for x, y in set(zip(a[cross].tolist(), b[cross].tolist())):
        x, y = find(x), find(y)
        parent[max(x, y)] = min(x, y)
    roots = np.array([find(x) for x in range(len(parent))])
    ids = np.cumsum(roots == np.arange(len(roots))) - 1
    return ids[roots][label]


def _weight_label(weights):
    """Class ids of the total weights of the tensor basis, slot 0 major."""
    total = reps.total_weights(weights)
    order = np.lexsort(total.T)
    label = np.empty(len(order), dtype=np.intp)
    label[order] = np.cumsum(np.concatenate(
        ([0], np.diff(total[order], axis=0).any(axis=1))))
    return label


def _block_residual(label, which, rows, cols, vals, pairs, relations):
    """Largest |[M_p, sum_{q in qs} M_q]| over the relations (p, qs), an int.

    M_p, p = pairs[t], holds vals[e] at (rows[e], cols[e]) where which[e]
    = t; label[x] is the class of basis index x. Joined along the entries
    (`_join`), the classes block-diagonalise every M_p and commutator.
    Blocks of one size s > 1 run as stacks of at most _BATCH entries per
    product, in the dtype `exact_dtype` picks for the largest block, entry
    and sum; a block above _DENSE_MAX as sparse products on Python ints.
    """
    label = _join(label, rows, cols)
    sizes = np.bincount(label)
    ints = vals = int_array(vals)
    big = max_abs(vals)
    index = {p: t for t, p in enumerate(pairs)}
    relations = [(index[p], [index[q] for q in qs]) for p, qs in relations]
    q = max((len(qs) for _p, qs in relations), default=0)
    dtype = exact_dtype(2 * int(sizes.max(initial=0)), big, q * big)
    if dtype is float:
        vals = vals.astype(float)
    # short sums are padded with the zero matrix `pad`
    pad = len(pairs)
    terms = np.array([[p, *qs] + [pad] * (q - len(qs))
                      for p, qs in relations]).T
    # blocks ranked by size, each basis vector's position in its block, and
    # the entries in block order: ranked blocks lo..hi-1 hold the entries
    # order[start[lo]:start[hi]]; no entry array is copied whole
    rank = np.empty_like(sizes)
    rank[np.argsort(sizes, kind="stable")] = np.arange(len(sizes))
    members = np.argsort(label, kind="stable")
    pos = np.empty_like(label)
    pos[members] = np.arange(len(label)) - np.repeat(
        np.cumsum(sizes) - sizes, sizes)
    key = rank[label[rows]]
    order = np.argsort(key, kind="stable")
    start = np.searchsorted(key[order], np.arange(len(sizes) + 1))
    ranked = np.sort(sizes)
    worst = 0
    for s in sorted(set(ranked[ranked > 1].tolist())):
        first, stop = np.searchsorted(ranked, (s, s + 1))
        step = max(1, _BATCH // (s * s)) if s <= _DENSE_MAX else 1
        for lo in range(first, stop, step):
            hi = min(lo + step, stop)
            e = order[start[lo]:start[hi]]
            if s > _DENSE_MAX:
                t, r, c = which[e], pos[rows[e]], pos[cols[e]]
                v = ints[e].astype(object)
                for p, qs in relations:     # AB - BA, B summing qs
                    a, b, parts = t == p, np.isin(t, qs), []
                    for x, y, sign in ((a, b, 1), (b, a, -1)):
                        hit, at = join(c[x], r[y])  # (i, m) meets (m, j)
                        parts.append((r[x][at] * s + c[y][hit],
                                      sign * v[x][at] * v[y][hit]))
                    sums = sum_by_key(*map(np.concatenate, zip(*parts)))[1]
                    worst = max(worst, max_abs(sums))
                continue
            omega = np.zeros((pad + 1, hi - lo, s, s), dtype=dtype)
            omega[which[e], key[e] - lo, pos[rows[e]], pos[cols[e]]] = vals[e]
            chunk = max(1, _BATCH // ((hi - lo) * s * s))
            for i in range(0, len(relations), chunk):
                a = omega[terms[0, i:i + chunk]]
                b = omega[terms[1, i:i + chunk]]
                for t in terms[2:, i:i + chunk]:
                    b += omega[t]
                worst = max(worst, int(np.abs(a @ b - b @ a).max()))
    return worst


def _kohno_residual(omega, relations, weights):
    """Largest |[Omega_p, sum_q Omega_q]| over the relations, exactly, on a
    built `KZForm.omega_full` over the total-weight classes of the factor
    basis weights: commutators of D Omega, D the lcm of the denominators,
    divided by D^2."""
    denom, mats = integral(omega.values())
    which = np.repeat(np.arange(len(mats)), [len(m.data) for m in mats])
    rows, cols = np.array([rc for m in mats for rc in m.data],
                          dtype=np.intp).reshape(-1, 2).T
    vals = np.array([v for m in mats for v in m.data.values()], dtype=object)
    return Fraction(_block_residual(_weight_label(weights), which, rows, cols,
                                    vals, list(omega), relations), denom ** 2)


def _restricted_residual(omega, pairs, relations):
    """As `_kohno_residual`, on the invariants as one class, from omega =
    (D, stack) with stack[t] = D Omega^{pairs[t]} (`KZForm.omega_inv`)."""
    denom, stack = omega
    which, rows, cols = np.nonzero(stack)
    return Fraction(_block_residual(
        np.zeros(stack.shape[1], dtype=np.intp), which, rows, cols,
        stack[which, rows, cols], pairs, relations), denom ** 2)


def _triple_residual(mats, weights):
    """Largest |[Omega_p, Omega_q + Omega_r]| on V_a (x) V_b (x) V_c, an int.

    `mats` are the integer local matrices L_ij of the slot pairs (0, 1),
    (0, 2) and (1, 2), the first slot index major, as (size, rows, cols,
    values) like `reps.local_omega`'s; weights[s] lists the basis weights
    of slot s. Omega^{01} is L01[ab, a'b'] [c = c'], and likewise for the
    other two: each stored entry is lifted for every digit of the third
    slot (`reps.slot_embedding`), and the three relations run over the
    total-weight classes (`_block_residual`), which a weight-preserving
    Omega joins none of.
    """
    dims = [len(w) for w in weights]
    label = _weight_label(weights)
    # stored entries (which Omega, row, column, value) on the triple space
    lifted = [reps.slot_embedding(dims, slots, m, np.arange(len(label)))
              for slots, m in zip(_TRIPLE_PAIRS, mats)]
    which = np.repeat(np.arange(3), [len(r) for r, _c, _v in lifted])
    rows, cols, vals = map(np.concatenate, zip(*lifted))
    del lifted          # its arrays are copied into the three above
    return _block_residual(label, which, rows, cols, vals, _TRIPLE_PAIRS,
                           _kohno_relations(3))


def _full_residual(form, relations):
    """Full-space Kohno residual, from V_a (x) V_b (x) V_c per slot triple.

    Every total-space Omega^{ij} embeds one local matrix, so Omega^{ij}
    and Omega^{kl} on disjoint slots commute, and the three relations of
    slots a < b < c are iota(R), R their residual on the three-factor
    space of weights (w_a, w_b, w_c) and iota: X -> X (x) Id (Id on the
    other slots) an injective algebra map that keeps every entry, so
    max |iota(R)| = max |R|. Each distinct weight triple is checked once,
    on the integers of the three local matrices over their common
    denominator D (`_triple_residual`). If `omega_full` was built, the
    relations run on it as it stands (`_kohno_residual`): built from the
    same local matrices, it gives the same residual, and a caller may have
    altered it.
    """
    system = form.system
    built = form.__dict__.get("omega_full")
    if built is not None:
        return _kohno_residual(built, relations,
                               [f.basis_weights for f in system.factors])
    triples = {}
    for t in itertools.combinations(range(form.n), 3):
        triples.setdefault(tuple(system.weights[s] for s in t), t)
    worst = Fraction(0)
    for ws, t in triples.items():
        local = [reps.local_omega(system.alg, ws[i], ws[j])
                 for i, j in _TRIPLE_PAIRS]
        denom = lcm(*(d for d, *_entries in local))
        mats = [(n, r, c, exact_mul(v, np.array([denom // d], dtype=object)))
                for d, n, r, c, v in local]
        weights = [system.factors[s].basis_weights for s in t]
        worst = max(worst, Fraction(_triple_residual(mats, weights),
                                    denom * denom))
    return worst


def flatness_check(form):
    """Verify the Kohno relations exactly; report the worst deviation.

    Each relation (p, qs) reads [Omega_p, sum_{q in qs} Omega_q] = 0: the
    disjoint pairs, then every triple (i, j, k), on the invariants from the
    stored stack (`_restricted_residual`) and on the full tensor space per
    three-factor weight triple (`_full_residual`). A nonzero residual can
    only come from a defective Omega assembly, so callers treat it as an
    internal failure, not a numerical tolerance.
    """
    relations = _kohno_relations(form.n)
    return FlatnessReport(
        checks=len(relations),
        max_abs_full=_full_residual(form, relations),
        max_abs_restricted=_restricted_residual(form.omega_inv, form.pairs,
                                                relations))


@dataclass
class RotationReport:
    """Global-rotation monodromy: exact scalar, exact identity deviation."""

    scalar: complex
    max_residual: float


def rotation_monodromy(form):
    """Monodromy of the loop z(t) = exp(2 pi i t) z.

    Returns the predicted scalar exp(pi i sum_i c_i/(k + h)) and the float
    of max |sum Omega^{ij} + (sum_i c_i)/2 Id|, formed in integers on the
    stored stack: 0.0 exactly iff the identity holds, and then the loop's
    exp(-(2 pi i/(k+h)) sum Omega^{ij}) is the scalar times Id exactly
    (module docstring). Per-pair shifts that cancel in the sum pass.
    """
    if form.dim == 0:
        raise KzmonoError("invariant subspace is zero")
    csum = form.system.sum_casimirs()
    scalar = cmath.exp(1j * cmath.pi * float(csum / (form.k + form.h)))
    denom, stack = form.omega_inv
    # D (sum Omega + csum/2 Id), in Python ints and Fractions
    dev = stack.sum(0, dtype=object) + np.eye(form.dim, dtype=object) * (
        denom * csum / 2)
    return RotationReport(scalar, float(np.abs(dev).max() / denom))
