"""Fusion rules at level k and conformal-block subspaces of invariants.

Fusion coefficients come from the Racah-Speiser/Kac-Walton reflection rule:
for each weight phi of the second factor, lam + phi + rho is reflected into
the interior of the level-(k+h) alcove by simple and affine reflections,
contributing its sign (walls contribute nothing). The induced product is
verified to be symmetric, unital and associative on the whole table.

The block subspace at marked points z is realised inside the invariants as
ker (sum_i z_i f_theta^(i))^(k+1), with f_theta the lowering operator of the
highest root. This is the contravariant-form dual of annihilating the image
of the raising version, since the form swaps e_theta and f_theta and pairs
invariants perfectly against coinvariants. Its dimension must match the
fusion count exactly; a mismatch raises instead of returning a guess. All
kernel arithmetic runs over exact Gaussian rationals, so point coordinates
given as floats participate exactly.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from functools import lru_cache

from . import algebra as la
from .errors import (CoincidentPointsError, FusionValidationError,
                     InadmissibleWeightError, OracleMismatchError)
from .exact import QQi, SRMatrix, nullspace
from .reps import irrep, root_vectors

_MAX_REFLECTIONS = 10_000


def admissible_weights(alg, k):
    """All dominant weights with <lam, theta> <= k, sorted."""
    k = int(k)
    if k < 0:
        raise ValueError("level must be nonnegative")
    comarks = alg.comarks
    out = []

    def rec(prefix, used):
        i = len(prefix)
        if i == alg.rank:
            out.append(tuple(prefix))
            return
        top = (k - used) // comarks[i]
        for c in range(top + 1):
            rec(prefix + [c], used + c * comarks[i])

    rec([], 0)
    return tuple(sorted(out))


def _reflect_to_alcove(alg, xi, m):
    """Reflect xi (a rho-shifted weight) into the open level-m alcove.

    Returns (weight, sign); sign 0 when xi lands on a wall. m <= 0 disables
    the affine wall, giving the classical dominant chamber version.
    """
    rank = alg.rank
    theta = alg.highest_root
    xi = list(xi)
    sign = 1
    for _ in range(_MAX_REFLECTIONS):
        neg = next((i for i in range(rank) if xi[i] < 0), None)
        if neg is not None:
            c = xi[neg]
            row = alg.cartan[neg]
            for j in range(rank):
                xi[j] -= c * row[j]
            sign = -sign
            continue
        if any(x == 0 for x in xi):
            return None, 0
        if m > 0:
            lvl = la.theta_level(alg, xi)
            if lvl == m:
                return None, 0
            if lvl > m:
                c = m - lvl
                for j in range(rank):
                    xi[j] += c * theta[j]
                sign = -sign
                continue
        return tuple(xi), sign
    raise FusionValidationError("alcove reflection did not terminate")


def _fusion_row(alg, lam, mu, k):
    """dict nu -> N_{lam,mu}^nu at level k (k <= 0 means classical)."""
    rep = irrep(alg, mu)
    rho = alg.weyl_vector
    m = k + alg.dual_coxeter if k > 0 else 0
    out = {}
    for phi in rep.basis_weights:
        xi = tuple(lam[i] + phi[i] + rho[i] for i in range(alg.rank))
        res, sign = _reflect_to_alcove(alg, xi, m)
        if sign:
            nu = tuple(res[i] - rho[i] for i in range(alg.rank))
            out[nu] = out.get(nu, 0) + sign
    return {nu: n for nu, n in sorted(out.items()) if n}


def classical_tensor_multiplicities(alg, lam, mu):
    """Multiplicities of the irreducible pieces of V_lam (x) V_mu."""
    lam = la.require_dominant(alg, lam)
    mu = la.require_dominant(alg, mu)
    return _fusion_row(alg, lam, mu, 0)


class FusionRing:
    """Fusion coefficients of all admissible weights at one level."""

    def __init__(self, alg, k, table, weights):
        self.alg = alg
        self.k = k
        self.weights = weights
        self.vacuum = tuple(0 for _ in range(alg.rank))
        self._table = table

    def coefficient(self, lam, mu, nu):
        return self._table[(lam, mu)].get(nu, 0)

    def row(self, lam, mu):
        return dict(self._table[(lam, mu)])

    def check_admissible(self, lam):
        lam = la.require_dominant(self.alg, lam)
        if lam not in set(self.weights):
            raise InadmissibleWeightError(
                f"weight {lam} is not admissible at level {self.k} "
                f"for {self.alg.name}")
        return lam

    def dual(self, lam):
        lam = self.check_admissible(lam)
        partners = [mu for mu in self.weights
                    if self.coefficient(lam, mu, self.vacuum) == 1]
        assert len(partners) == 1
        return partners[0]

    def __repr__(self):
        return (f"FusionRing({self.alg.name}, k={self.k}, "
                f"|weights|={len(self.weights)})")


@lru_cache(maxsize=None)
def fusion_ring(alg, k):
    """Build and verify the level-k fusion table.

    Verification is part of construction: the product must be symmetric,
    have the vacuum as unit, close on admissible weights with nonnegative
    coefficients, and be associative over all admissible triples.
    """
    k = int(k)
    if k < 1:
        raise ValueError("level must be a positive integer")
    weights = admissible_weights(alg, k)
    wset = set(weights)
    table = {(lam, mu): _fusion_row(alg, lam, mu, k)
             for lam in weights for mu in weights}

    ring = FusionRing(alg, k, table, weights)
    vac = ring.vacuum
    for lam in weights:
        for mu in weights:
            row = table[(lam, mu)]
            for nu, n in row.items():
                if n < 0 or nu not in wset:
                    raise FusionValidationError(
                        f"bad coefficient N_({lam},{mu})^{nu} = {n}")
            if row != table[(mu, lam)]:
                raise FusionValidationError(
                    f"fusion not symmetric at ({lam}, {mu})")
        if table[(lam, vac)] != {lam: 1}:
            raise FusionValidationError(f"vacuum not a unit at {lam}")
    for lam in weights:
        for mu in weights:
            for nu in weights:
                left = {}
                for sig, n in table[(lam, mu)].items():
                    for tau, n2 in table[(sig, nu)].items():
                        left[tau] = left.get(tau, 0) + n * n2
                right = {}
                for sig, n in table[(mu, nu)].items():
                    for tau, n2 in table[(lam, sig)].items():
                        right[tau] = right.get(tau, 0) + n * n2
                if {t: n for t, n in left.items() if n} != \
                        {t: n for t, n in right.items() if n}:
                    raise FusionValidationError(
                        f"fusion not associative at ({lam}, {mu}, {nu})")
    return ring


def block_dim(ring, weights):
    """Genus-zero n-point block dimension by iterated fusion.

    Folds the weights through the fusion table and reads off the vacuum
    coefficient; the fold is repeated in reversed and sorted orders as an
    association-independence check.
    """
    weights = tuple(ring.check_admissible(w) for w in weights)

    def fold(seq):
        vec = {seq[0]: 1}
        for lam in seq[1:]:
            nxt = {}
            for sig, n in vec.items():
                for nu, n2 in ring.row(sig, lam).items():
                    nxt[nu] = nxt.get(nu, 0) + n * n2
            vec = nxt
        return vec.get(ring.vacuum, 0)

    dim = fold(weights)
    for variant in (tuple(reversed(weights)), tuple(sorted(weights))):
        if fold(variant) != dim:
            raise FusionValidationError(
                f"fusion fold depends on order for {weights}")
    return dim


# -- block subspaces --------------------------------------------------------

@dataclass
class BlockSpace:
    """Conformal-block subspace inside the invariants at marked points.

    coeffs gives the block basis in invariant-subspace coordinates (exact
    Gaussian rationals); points are the gauge-fixed finite coordinates the
    construction actually used. dim always equals the fusion oracle value.
    """

    system: object
    k: int
    points: tuple
    dim: int
    coeffs: SRMatrix
    at_infinity: int | None = None
    chart_center: int | None = None
    _total: SRMatrix | None = field(default=None, repr=False)

    def basis_in_total_space(self):
        if self._total is None:
            inv = self.system.invariant_basis.map_values(
                lambda v: QQi(v))
            self._total = inv @ self.coeffs
        return self._total

    def coeffs_complex(self):
        return self.coeffs.to_complex()


def _exact_points(points):
    return tuple(QQi.from_complex(z) for z in points)


def _require_distinct(points):
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            if points[a] == points[b]:
                raise CoincidentPointsError(
                    f"marked points {a} and {b} coincide")


def highest_root_lowering(rep):
    """Lowering operator of the highest root in this module."""
    return root_vectors(rep)[1][-1]


def block_subspace(system, k, points, at_infinity=None):
    """Compute the block subspace; its dimension must match the fusion rules.

    One marked point may be flagged as infinity by index; the computation
    then runs in the chart w = 1/(z - c) for an integer c away from the
    finite points (any chart does, only the embedding changes with it).
    """
    k = int(k)
    ring = fusion_ring(system.alg, k)
    weights = tuple(ring.check_admissible(w) for w in system.weights)
    if len(points) != system.n:
        raise CoincidentPointsError(
            f"need {system.n} points, got {len(points)}")
    pts = list(_exact_points(points))
    chart_center = None
    if at_infinity is not None:
        at_infinity = int(at_infinity)
        if not 0 <= at_infinity < system.n:
            raise CoincidentPointsError("infinity flag out of range")
        finite = [p for i, p in enumerate(pts) if i != at_infinity]
        _require_distinct(finite)
        c = 0
        while any(p == QQi(c) for p in finite):
            c += 1
        chart_center = c
        pts = [QQi(1) / (p - QQi(c)) if i != at_infinity else QQi(0)
               for i, p in enumerate(pts)]
    pts = tuple(pts)
    _require_distinct(pts)

    # F(z) = sum_s z_s f_theta^(s), applied k+1 times to the basis columns
    step = [highest_root_lowering(rep).scale(z)
            for rep, z in zip(system.factors, pts)]
    basis = system.invariant_basis.map_values(QQi)
    image = basis
    for _ in range(k + 1):
        image = system.slot_sum(step, image)
    coeffs = nullspace(image).map_values(QQi.from_complex)

    expected = block_dim(ring, weights)
    if coeffs.ncols != expected:
        raise OracleMismatchError(
            f"block subspace dimension {coeffs.ncols} != fusion dimension "
            f"{expected} for {system.alg.name} weights {weights} at "
            f"k={k}, z={[complex(p) for p in pts]}")
    return BlockSpace(system=system, k=k, points=pts, dim=expected,
                      coeffs=coeffs, at_infinity=at_infinity,
                      chart_center=chart_center)


# -- serialization ----------------------------------------------------------

def fusion_to_csv(ring):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["lambda", "mu", "nu", "N"])
    for lam in ring.weights:
        for mu in ring.weights:
            for nu, n in sorted(ring.row(lam, mu).items()):
                writer.writerow([" ".join(map(str, lam)),
                                 " ".join(map(str, mu)),
                                 " ".join(map(str, nu)), n])
    return buf.getvalue()


def block_to_json(bs):
    sysname = bs.system.alg
    doc = {
        "algebra": {"series": sysname.series, "rank": sysname.rank},
        "weights": [list(w) for w in bs.system.weights],
        "level": bs.k,
        "points": [[str(p.re), str(p.im)] for p in bs.points],
        "at_infinity": bs.at_infinity,
        "dim": bs.dim,
        "invariant_dim": bs.system.invariant_dim,
        "coeffs_triplets": [
            [r, c, str(v.re.numerator), str(v.re.denominator),
             str(v.im.numerator), str(v.im.denominator)]
            for r, c, v in bs.coeffs.entries()],
    }
    return json.dumps(doc, sort_keys=True)
