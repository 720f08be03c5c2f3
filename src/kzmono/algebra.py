"""Combinatorial data of the simple Lie algebras.

Everything is exact. Weights are tuples of integer Dynkin labels (coordinates
in the fundamental-weight basis); roots are generated from the Cartan matrix
by the root-string rules and also carried in Dynkin labels. The invariant
form is normalised so the highest root has squared length 2, which fixes the
Gram matrix of the fundamental weights as D * (A^{-1})^T with D the
symmetrizers scaled to max 1. The form is also held on integers, as L times
that Gram matrix (L the lcm of its denominators) and its rows against the
positive roots, so that pairings and Weyl dimensions are integer sums.

Conventions: cartan[i][j] = 2<a_i, a_j>/<a_j, a_j>, so the Dynkin label
vector of the simple root a_i is the i-th row of the Cartan matrix, and
[h_i, e_j] = cartan[j][i] e_j in any representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from operator import mul

import numpy as np

from .errors import (ConstructionError, InvalidAlgebraError,
                     NonDominantWeightError, ValidationError, require_int)
from .exact import nullspace

# dual Coxeter numbers and algebra dimensions, used as hard cross-checks on
# the constructed root systems
_DUAL_COXETER = {
    "A": lambda r: r + 1,
    "B": lambda r: 2 * r - 1,
    "C": lambda r: r + 1,
    "D": lambda r: 2 * r - 2,
    "E": lambda r: {6: 12, 7: 18, 8: 30}[r],
    "F": lambda r: 9,
    "G": lambda r: 4,
}

_DIMENSION = {
    "A": lambda r: r * (r + 2),
    "B": lambda r: r * (2 * r + 1),
    "C": lambda r: r * (2 * r + 1),
    "D": lambda r: r * (2 * r - 1),
    "E": lambda r: {6: 78, 7: 133, 8: 248}[r],
    "F": lambda r: 52,
    "G": lambda r: 14,
}

_RANK_OK = {
    "A": lambda r: r >= 1,
    "B": lambda r: r >= 2,
    "C": lambda r: r >= 2,
    "D": lambda r: r >= 3,
    "E": lambda r: r in (6, 7, 8),
    "F": lambda r: r == 4,
    "G": lambda r: r == 2,
}


@dataclass(frozen=True)
class LieAlgebra:
    """Immutable root-system package for one simple type.

    positive_roots / highest_root / weyl_vector are Dynkin-label tuples;
    positive_root_coords are the same roots in simple-root coordinates.
    gram is the Gram matrix of the fundamental weights under the normalised
    invariant form; comarks are the integers <w_i, theta>. The same form on
    integers: form = L * gram with L = form_scale the lcm of its
    denominators, root_rows[a] = form @ alpha for the a-th positive root
    (so <lam, alpha> = lam . root_rows[a] / L) and rho_pairings[a] =
    rho . root_rows[a] = L <rho, alpha>, a positive integer.
    """

    series: str
    rank: int
    cartan: tuple
    cartan_inverse: tuple      # rational, columns give simple-root coords
    symmetrizers: tuple        # d_i = <a_i, a_i>/2, max value 1
    gram: tuple
    positive_roots: tuple
    positive_root_coords: tuple
    highest_root: tuple
    highest_root_coords: tuple
    weyl_vector: tuple
    comarks: tuple
    dual_coxeter: int
    form_scale: int
    form: tuple
    root_rows: tuple
    rho_pairings: tuple

    @property
    def name(self):
        return f"{self.series}{self.rank}"

    @property
    def dimension(self):
        return self.rank + 2 * len(self.positive_roots)

    def __repr__(self):
        return f"LieAlgebra({self.name})"

    def __hash__(self):
        # the type fixes every other field; the generated hash would walk
        # all root tuples on each lookup of the caches keyed on an algebra
        return hash((self.series, self.rank))


def _cartan_matrix(series, rank):
    a = [[2 * int(i == j) for j in range(rank)] for i in range(rank)]

    def edge(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if series in ("A", "B", "C"):
        for i in range(rank - 1):
            edge(i, i + 1)
        if series == "B" and rank >= 2:
            # last simple root short: <a_{r-1}, a_r^v> stays -1 wide side
            a[rank - 2][rank - 1] = -2
        if series == "C" and rank >= 2:
            a[rank - 1][rank - 2] = -2
    elif series == "D":
        for i in range(rank - 2):
            edge(i, i + 1)
        edge(rank - 3, rank - 1)
    elif series == "E":
        # Bourbaki: chain 1-3-4-...-r with node 2 attached to node 4
        chain = [0] + list(range(2, rank))
        for u, v in zip(chain, chain[1:]):
            edge(u, v)
        edge(1, 3)
    elif series == "F":
        edge(0, 1)
        edge(1, 2, aij=-2, aji=-1)
        edge(2, 3)
    elif series == "G":
        edge(0, 1, aij=-1, aji=-3)
    return tuple(tuple(row) for row in a)


def _symmetrizers(cartan):
    """Solve a_ij d_j = a_ji d_i over the Dynkin graph, scale to max 1."""
    rank = len(cartan)
    d = [None] * rank
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(rank):
            if j != i and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * Fraction(cartan[j][i], cartan[i][j])
                stack.append(j)
    if any(x is None for x in d):
        raise InvalidAlgebraError("Dynkin diagram is not connected")
    top = max(d)
    return tuple(x / top for x in d)


def _positive_roots(cartan):
    """All positive roots in simple-root coordinates, by the string rules.

    For a root b and simple root a_i, b + a_i is a root iff p - <b, a_i^v>
    is positive, where p counts how far the string extends below b.
    """
    rank = len(cartan)
    simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        new = []
        for c in frontier:
            label = [sum(c[i] * cartan[i][j] for i in range(rank))
                     for j in range(rank)]
            for i in range(rank):
                p = 0
                probe = list(c)
                while True:
                    probe[i] -= 1
                    if min(probe) < 0 or tuple(probe) not in roots:
                        break
                    p += 1
                if p - label[i] > 0:
                    up = list(c)
                    up[i] += 1
                    t = tuple(up)
                    if t not in roots:
                        roots.add(t)
                        new.append(t)
        frontier = new
    return sorted(roots, key=lambda c: (sum(c), c))


# typed: 2.0 or True must reach require_int, not the cache entry of 2 or 1
@lru_cache(maxsize=None, typed=True)
def build_algebra(series, rank):
    """Construct and self-validate the root data of a simple type."""
    series = str(series).upper()
    if series not in _RANK_OK:
        raise InvalidAlgebraError(f"unknown series {series!r}")
    rank = require_int(rank, "rank")
    if not _RANK_OK[series](rank):
        raise InvalidAlgebraError(f"{series}{rank} is not a simple type "
                                  "(or is excluded as a duplicate)")

    cartan = _cartan_matrix(series, rank)
    d = _symmetrizers(cartan)
    # A^-1 is the top block of the kernel of [A | -I], spanned by [A^-1; I]
    delta, kernel = nullspace(np.hstack([cartan, -np.eye(rank, dtype=int)]))
    a_inv = [[Fraction(v, delta) for v in row]
             for row in kernel[:rank].tolist()]
    # gram = D (A^{-1})^T from <w_i, a_j> = delta_ij d_j
    gram = tuple(tuple(d[i] * a_inv[j][i] for j in range(rank))
                 for i in range(rank))
    scale = lcm(*(g.denominator for row in gram for g in row))
    int_form = tuple(tuple(int(g * scale) for g in row) for row in gram)

    coords = _positive_roots(cartan)
    labels = tuple(tuple(sum(c[i] * cartan[i][j] for i in range(rank))
                         for j in range(rank)) for c in coords)
    dim = _DIMENSION[series](rank)
    if len(coords) != (dim - rank) // 2:
        raise InvalidAlgebraError(
            f"{series}{rank}: generated {len(coords)} positive roots, "
            f"expected {(dim - rank) // 2}")

    max_height = max(sum(c) for c in coords)
    top = [c for c in coords if sum(c) == max_height]
    if len(top) != 1:
        raise InvalidAlgebraError(f"{series}{rank}: highest root not unique")
    theta_coords = top[0]
    theta = labels[coords.index(theta_coords)]

    rho = tuple(1 for _ in range(rank))
    root_rows = tuple(_image(int_form, a) for a in labels)

    def form(lam, mu):
        return Fraction(_dot(lam, _image(int_form, mu)), scale)

    # normalisation and structural identities, all exact
    if form(theta, theta) != 2:
        raise InvalidAlgebraError(f"{series}{rank}: <theta,theta> != 2")
    half_sum = [Fraction(0)] * rank
    for lbl in labels:
        for j in range(rank):
            half_sum[j] += Fraction(lbl[j], 2)
    if tuple(half_sum) != tuple(Fraction(1) for _ in range(rank)):
        raise InvalidAlgebraError(
            f"{series}{rank}: Weyl vector is not half the sum of "
            "positive roots")
    comarks = tuple(form(tuple(int(i == j) for j in range(rank)), theta)
                    for i in range(rank))
    if any(a.denominator != 1 for a in comarks):
        raise InvalidAlgebraError(f"{series}{rank}: comarks {comarks} are "
                                  "not integers")
    comarks = tuple(int(a) for a in comarks)
    h = 1 + sum(comarks)
    if h != _DUAL_COXETER[series](rank):
        raise InvalidAlgebraError(
            f"{series}{rank}: dual Coxeter number came out as {h}")

    return LieAlgebra(
        series=series, rank=rank, cartan=cartan,
        cartan_inverse=tuple(tuple(row) for row in a_inv),
        symmetrizers=d, gram=gram,
        positive_roots=labels, positive_root_coords=tuple(coords),
        highest_root=theta, highest_root_coords=theta_coords,
        weyl_vector=rho, comarks=comarks, dual_coxeter=h,
        form_scale=scale, form=int_form, root_rows=root_rows,
        rho_pairings=tuple(_dot(rho, row) for row in root_rows))


def _dot(u, v):
    return sum(map(mul, u, v))


def _image(matrix, v):
    """The integer vector matrix @ v."""
    return tuple(_dot(row, v) for row in matrix)


def check_weight(alg, weight):
    """The weight as a tuple of rank plain-int Dynkin labels."""
    try:
        labels = tuple(weight)
    except TypeError:
        raise NonDominantWeightError(
            f"weight {weight!r} is not a sequence of labels") from None
    if len(labels) != alg.rank:
        raise NonDominantWeightError(
            f"weight {weight} has length {len(labels)}, rank is {alg.rank}")
    return tuple(require_int(x, "weight label") for x in labels)


def is_dominant(weight):
    return all(x >= 0 for x in weight)


def require_dominant(alg, weight):
    weight = check_weight(alg, weight)
    if not is_dominant(weight):
        raise NonDominantWeightError(f"weight {weight} is not dominant")
    return weight


def pairing(alg, lam, mu):
    """Normalised invariant form of two weights given by Dynkin labels,
    lam . form . mu over form_scale."""
    if len(lam) != alg.rank or len(mu) != alg.rank:
        raise NonDominantWeightError(
            f"weights must have length {alg.rank}: got {lam}, {mu}")
    # a zero weight gives the int 0 of the empty sum, every other pair a
    # Fraction (the types `casimir_scalar` has always returned)
    if not (any(lam) and any(mu)):
        return 0
    return Fraction(_dot(lam, _image(alg.form, mu)), alg.form_scale)


def theta_level(alg, lam):
    """<lam, theta> = sum_i lam_i <w_i, theta>, the level of the weight."""
    if len(lam) != alg.rank:
        raise NonDominantWeightError(
            f"weight {lam} has length {len(lam)}, rank is {alg.rank}")
    return sum(x * a for x, a in zip(lam, alg.comarks))


def is_admissible(alg, lam, k):
    """Dominant and <lam, theta> <= k. Non-dominant weights are rejected."""
    lam = require_dominant(alg, lam)
    return theta_level(alg, lam) <= require_int(k, "level")


def simple_reflection(alg, lam, i):
    """s_i(lam) = lam - lam_i a_i, in Dynkin labels."""
    row = alg.cartan[i]
    return tuple(lam[j] - lam[i] * row[j] for j in range(alg.rank))


def root_coordinates(alg, lam):
    """Coordinates of a weight in the simple-root basis (rational)."""
    lam = check_weight(alg, lam)
    inv = alg.cartan_inverse
    # lam = c @ A  =>  c = lam @ A^{-1}
    return tuple(sum(Fraction(lam[i]) * inv[i][j] for i in range(alg.rank))
                 for j in range(alg.rank))


def in_root_lattice(alg, lam):
    """Whether the weight is an integer combination of simple roots."""
    return all(c.denominator == 1 for c in root_coordinates(alg, lam))


def weight_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def weyl_dimension(alg, lam):
    """prod <lam+rho, a> / <rho, a> over positive roots a; always an integer.

    Each factor is (lam . r_a + rho . r_a) / rho . r_a with r_a the integer
    root row of a (`LieAlgebra.root_rows`; the scale L cancels), so both
    products are Python ints (E8's overflow int64) and one exact division
    ends it (Humphreys, Introduction to Lie Algebras, 24.3).
    """
    lam = require_dominant(alg, lam)
    num = prod(_dot(lam, row) + r for row, r in zip(alg.root_rows,
                                                    alg.rho_pairings))
    den = prod(alg.rho_pairings)
    dim, rem = divmod(num, den)
    if rem or dim <= 0:
        raise ConstructionError(
            f"{alg.name}: Weyl dimension product {Fraction(num, den)} of "
            f"{lam} is not a positive integer")
    return dim


def casimir_scalar(alg, lam):
    """<lam, lam + 2 rho>, the quadratic Casimir eigenvalue on V_lam."""
    lam = require_dominant(alg, lam)
    two_rho = tuple(2 for _ in range(alg.rank))
    return pairing(alg, lam, weight_add(lam, two_rho))


def codim_bound(dim_g, dim_p, dim_zp, n):
    """Lower bound ceil((n-2)(dim_g-dim_p)/2) - dim_zp for the unstable locus.

    A nonpositive value means the bound is vacuous; n = 2 is allowed and
    simply kills the first term.
    """
    dim_g = require_int(dim_g, "dim_g", 1)
    dim_p = require_int(dim_p, "dim_p", 1)
    dim_zp = require_int(dim_zp, "dim_zp", 0)
    n = require_int(n, "n", 2)
    if dim_p >= dim_g:
        raise ValidationError("parabolic dimension must be less than dim G")
    half = Fraction((n - 2) * (dim_g - dim_p), 2)
    ceil_half = -((-half.numerator) // half.denominator)
    return ceil_half - dim_zp


@dataclass(frozen=True)
class ParityReport:
    """Whether n copies of the Weyl-vector character kill the centre.

    descends is the lattice test n*rho in the root lattice; n_even records
    the sufficient condition (2*rho is always in the root lattice).
    """

    descends: bool
    n_even: bool

    def __bool__(self):
        return self.descends


def metaplectic_parity(alg, n):
    n = require_int(n, "n", 1)
    n_rho = tuple(n for _ in range(alg.rank))
    return ParityReport(descends=in_root_lattice(alg, n_rho),
                        n_even=(n % 2 == 0))

