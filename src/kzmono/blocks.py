"""Fusion rules at level k and conformal-block subspaces of invariants.

Fusion coefficients come from the Racah-Speiser/Kac-Walton reflection rule:
for each weight phi of the second factor, lam + phi + rho is reflected into
the interior of the level-(k+h) alcove by simple and affine reflections,
contributing its sign (walls contribute nothing). For a run of second
factors mu, every admissible lam is stacked against the distinct weights of
each V_mu, weighted by their multiplicities, and the whole int64 stack is
reflected at once, one step per moving row per pass, so each row takes
exactly the steps it would take alone; the signed sums fill N[:, mu, :] for
the run in one pass. Runs are cut by stack size, so memory stays bounded on
large rings. Without the affine wall the same routine gives classical
tensor product multiplicities. The ring is one int64 tensor, verified
symmetric, unital and associative by array identities.

The block subspace at marked points z is realised inside the invariants as
ker (sum_i z_i f_theta^(i))^(k+1), with f_theta the lowering operator of the
highest root. This is the contravariant-form dual of annihilating the image
of the raising version, since the form swaps e_theta and f_theta and pairs
invariants perfectly against coinvariants. Its dimension must match the
fusion count exactly; a mismatch raises instead of returning a guess. The
kernel is exact: point coordinates given as floats enter as the Gaussian
rationals they are, and F(z) is applied over the Gaussian integers to
integer-scaled data (see `block_subspace`).
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

import numpy as np

from . import algebra as la
from .errors import (CoincidentPointsError, FusionValidationError,
                     InadmissibleWeightError, OracleMismatchError,
                     require_int)
from .exact import QQi, SRMatrix, exact_dtype, exact_matmul, exact_mul, \
    nullspace
from .reps import dense, irrep

_MAX_REFLECTIONS = 10_000
# rows of one Kac-Walton stack: enough to share numpy's per-call cost among
# many mu, few enough to keep a stack and its temporaries to about 10 MB
_STACK_ROWS = 1 << 16


def admissible_weights(alg, k):
    """All dominant weights with <lam, theta> <= k, sorted."""
    k = require_int(k, "level", 0)
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


def _kac_walton(alg, lams, mus, m):
    """Signed Racah-Speiser sums of lam (x) mu for all lam in lams and mu
    in mus at once.

    Each lam + phi + rho, phi running over the distinct weights of V_mu,
    is one row of an int64 stack, weighted by the multiplicity of phi. A
    row reflects at its first negative coordinate (s_i, sign -1), stops on
    a wall (a zero coordinate, or level m; sign 0), reflects in the affine
    wall when its level exceeds m (sign -1), and otherwise stops inside
    the open level-m alcove. m <= 0 disables the affine wall, giving the
    dominant chamber. Every step takes all moving rows at once, so a row
    follows the same steps as on its own, and none may need more than
    _MAX_REFLECTIONS of them.

    Returns (nus, counts): the distinct weights nu = xi - rho reached
    inside, sorted, as tuples, and the int64 array counts[a, b, c], the
    signed multiplicity of nus[c] in lams[a] (x) mus[b].
    """
    rank = alg.rank
    mults = [Counter(irrep(alg, mu).basis_weights) for mu in mus]
    phis = np.array([phi for c in mults for phi in c],
                    dtype=np.int64).reshape(-1, rank)
    mu_of = np.repeat(np.arange(len(mus)), [len(c) for c in mults])
    rho = np.array(alg.weyl_vector, dtype=np.int64)
    xi = (np.array(lams, dtype=np.int64).reshape(-1, 1, rank)
          + phis + rho).reshape(-1, rank)
    signed = np.tile(np.array([n for c in mults for n in c.values()],
                              dtype=np.int64), len(lams))
    cartan = np.array(alg.cartan, dtype=np.int64)
    theta = np.array(alg.highest_root, dtype=np.int64)
    comarks = np.array(alg.comarks, dtype=np.int64)
    moving = np.arange(len(xi))
    for _ in range(_MAX_REFLECTIONS):
        if not len(moving):
            break
        x = xi[moving]
        neg = x < 0
        reflect = neg.any(axis=1)
        rows = moving[reflect]
        first = neg[reflect].argmax(axis=1)
        xi[rows] -= x[reflect, first][:, None] * cartan[first]
        signed[rows] = -signed[rows]
        rest, x = moving[~reflect], x[~reflect]
        wall = (x == 0).any(axis=1)
        if m > 0:
            level = x @ comarks
            wall |= level == m
            over = ~wall & (level > m)
            xi[rest[over]] += (m - level[over])[:, None] * theta
            signed[rest[over]] = -signed[rest[over]]
            reflect[~reflect] = over
        signed[rest[wall]] = 0
        moving = moving[reflect]
    if len(moving):
        raise FusionValidationError("alcove reflection did not terminate")
    # group the rows inside by nu, in lexicographic order (np.unique with
    # an axis sorts a void view of the rows, several times slower); row r
    # is lams[r // len(phis)] against phis[r % len(phis)]
    inside = np.flatnonzero(signed)
    order = inside[np.lexsort((xi[inside] - rho).T[::-1])]
    nu = xi[order] - rho
    first = np.ones(len(nu), dtype=bool)
    first[1:] = (nu[1:] != nu[:-1]).any(axis=1)
    counts = np.zeros((len(lams), len(mus), int(first.sum())),
                      dtype=np.int64)
    lam_of, phi_of = np.divmod(order, len(phis))
    np.add.at(counts, (lam_of, mu_of[phi_of], np.cumsum(first) - 1),
              signed[order])
    return tuple(map(tuple, nu[first].tolist())), counts


def classical_tensor_multiplicities(alg, lam, mu):
    """Multiplicities of the irreducible pieces of V_lam (x) V_mu."""
    lam = la.require_dominant(alg, lam)
    mu = la.require_dominant(alg, mu)
    nus, counts = _kac_walton(alg, [lam], [mu], 0)
    return {nu: int(n) for nu, n in zip(nus, counts[0, 0]) if n}


class FusionRing:
    """Fusion coefficients N[a, b, c] = N_{w_a w_b}^{w_c} at one level.

    N is a read-only int64 tensor over the sorted admissible weights w, so
    the vacuum (0, ..., 0) has index 0; index maps each weight to its own.
    """

    def __init__(self, alg, k, weights, N):
        self.alg = alg
        self.k = k
        self.weights = weights
        self.vacuum = weights[0]
        self.N = N
        self.index = {w: a for a, w in enumerate(weights)}

    def coefficient(self, lam, mu, nu):
        return self.row(lam, mu).get(nu, 0)

    def row(self, lam, mu):
        n = self.N[self.index[lam], self.index[mu]]
        return {self.weights[c]: int(n[c]) for c in np.flatnonzero(n)}

    def check_admissible(self, lam):
        lam = la.require_dominant(self.alg, lam)
        if lam not in self.index:
            raise InadmissibleWeightError(
                f"weight {lam} is not admissible at level {self.k} "
                f"for {self.alg.name}")
        return lam

    def dual(self, lam):
        a = self.index[self.check_admissible(lam)]
        partners = np.flatnonzero(self.N[a, :, 0] == 1)
        if len(partners) != 1:
            raise FusionValidationError(
                f"weight {lam} has {len(partners)} fusion duals")
        return self.weights[partners[0]]

    def __repr__(self):
        return (f"FusionRing({self.alg.name}, k={self.k}, "
                f"|weights|={len(self.weights)})")


# typed: 2.0 or True must reach require_int, not the cache entry of 2 or 1
@lru_cache(maxsize=None, typed=True)
def fusion_ring(alg, k):
    """Build and verify the level-k fusion tensor N (see FusionRing).

    Every coefficient must be nonnegative on an admissible weight; then N
    must be symmetric, have the vacuum as unit and be associative. For each
    lam, N[lam] @ N.reshape(m, m^2) holds the (lam mu) nu coefficients and
    N.reshape(m^2, m) @ N[lam] those of lam (mu nu), exactly, in the dtype
    `exact_dtype` picks for m products of entries at most max(N). Failures
    name the first weights in sorted order.
    """
    k = require_int(k, "level", 1)
    weights = admissible_weights(alg, k)
    m = len(weights)
    index = {w: a for a, w in enumerate(weights)}
    # one stack per run weights[lo:hi] of mu, each of at most _STACK_ROWS
    # rows (m per basis vector of V_mu), unless one module alone needs more
    starts, rows = [0], 0
    for b, mu in enumerate(weights):
        size = m * irrep(alg, mu).dim
        if rows + size > _STACK_ROWS and b > starts[-1]:
            starts.append(b)
            rows = 0
        rows += size
    N = np.zeros((m, m, m), dtype=np.int64)
    wrong = []
    for lo, hi in zip(starts, starts[1:] + [m]):
        nus, counts = _kac_walton(alg, weights, weights[lo:hi],
                                  k + alg.dual_coxeter)
        cols = [index.get(nu) for nu in nus]
        outside = np.array([c is None for c in cols], dtype=bool)
        wrong += [(a, lo + j, nus[c], int(counts[a, j, c])) for a, j, c in
                  np.argwhere((counts < 0) | (outside & (counts != 0)))]
        inside = np.flatnonzero(~outside)
        N[:, lo:hi, [cols[c] for c in inside]] = counts[:, :, inside]
    if wrong:
        a, b, nu, n = min(wrong)
        raise FusionValidationError(
            f"bad coefficient N_({weights[a]},{weights[b]})^{nu} = {n}")
    N.flags.writeable = False

    def require(equal, message, *head):
        bad = np.argwhere(~equal.all(axis=-1))
        if len(bad):
            raise FusionValidationError(message.format(
                *head, *(weights[i] for i in bad[0])))

    require(N == N.transpose(1, 0, 2), "fusion not symmetric at ({}, {})")
    require(N[:, 0] == np.eye(m, dtype=N.dtype), "vacuum not a unit at {}")
    F = N.astype(exact_dtype(m, int(N.max()), int(N.max())))
    for a, lam in enumerate(weights):
        left = F[a] @ F.reshape(m, m * m)
        right = F.reshape(m * m, m) @ F[a]
        require(left.reshape(N.shape) == right.reshape(N.shape),
                "fusion not associative at ({}, {}, {})", lam)
    return FusionRing(alg, k, weights, N)


def block_dim(ring, weights):
    """Genus-zero n-point block dimension by iterated fusion.

    Folds the weights left to right through ring.N on Python ints and reads
    off the vacuum coefficient; fusion_ring verified N as commutative and
    associative, so every order of the fold gives the same number.
    """
    idx = [ring.index[ring.check_admissible(w)] for w in weights]
    vec = np.zeros(len(ring.weights), dtype=object)
    vec[idx[0]] = 1
    for b in idx[1:]:
        vec = vec @ ring.N[:, b]
    return int(vec[0])


# -- block subspaces --------------------------------------------------------

@dataclass
class BlockSpace:
    """Conformal-block subspace inside the invariants at marked points.

    coeff_ints = (delta, re, im) gives the block basis in invariant-subspace
    coordinates as `nullspace` returns it over Z[i]: integer arrays with
    re + i im = delta * basis. coeffs is the same basis as exact Gaussian
    rationals, an SRMatrix of QQi formed from them on first use. points are
    the gauge-fixed finite coordinates the construction actually used. dim
    always equals the fusion oracle value.
    """

    system: object
    k: int
    points: tuple
    dim: int
    coeff_ints: tuple
    at_infinity: int | None = None
    chart_center: int | None = None

    @cached_property
    def coeffs(self):
        delta, re, im = self.coeff_ints
        r, c = np.nonzero((re != 0) | (im != 0))
        return SRMatrix(*re.shape, {
            (i, j): QQi(Fraction(x, delta), Fraction(y, delta)) for i, j, x, y
            in zip(r.tolist(), c.tolist(), re[r, c].tolist(),
                   im[r, c].tolist())})


def _require_distinct(points):
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            if points[a] == points[b]:
                raise CoincidentPointsError(
                    f"marked points {a} and {b} coincide")


def block_subspace(system, k, points, at_infinity=None):
    """Compute the block subspace; its dimension must match the fusion rules.

    One marked point may be flagged as infinity by index; the computation
    then runs in the chart w = 1/(z - c) for an integer c away from the
    finite points (any chart does, only the embedding changes with it).

    The kernel is taken over Z[i]. Let c be the lcm of the denominators of
    the real and imaginary parts of the points (after the chart; a power
    of 2 for float points, 1 for Gaussian integers), D_f the lcm of the
    denominators of the factors' f_theta (their last `generators`), and
    B = delta * basis the integral invariant basis. Each step
    c D_f z_s f_theta^(s) then has entries in Z[i], and the image
    (c D_f F(z))^(k+1) B, held as one integer array of shape
    (total_dim, 2, m) of real and imaginary parts, is
    (c D_f)^(k+1) delta times F(z)^(k+1) basis. A nonzero scalar changes
    no kernel, and the kernel's reduced basis is unique, so the
    coefficients are those of the rational route, bit for bit; the
    integral image enters elimination as it is, and the kernel stays in
    integers, delta times the reduced basis (`BlockSpace.coeff_ints`).
    """
    k = require_int(k, "level", 1)
    ring = fusion_ring(system.alg, k)
    weights = tuple(ring.check_admissible(w) for w in system.weights)
    if len(points) != system.n:
        raise CoincidentPointsError(
            f"need {system.n} points, got {len(points)}")
    pts = [QQi.from_complex(z) for z in points]
    chart_center = None
    if at_infinity is not None:
        at_infinity = require_int(at_infinity, "at_infinity")
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

    c = lcm(*{x.denominator for p in pts for x in (p.re, p.im)})
    gens = [rep.generators for rep in system.factors]
    d_f = lcm(*(dens[-1] for _x, dens in gens))
    lowering = [exact_mul(dense(rep.dim, *(z[gen == len(dens) - 1] for z in (
        rows, cols, values))), np.array([d_f // dens[-1]], dtype=object))
        for rep, ((gen, rows, cols, values), dens)
        in zip(system.factors, gens)]
    # c z_s = x + i y acts on (Re, Im) as [[x, -y], [y, x]]
    mixes = [np.array([[x, -y], [y, x]], dtype=object) for x, y in
             ((int(c * p.re), int(c * p.im)) for p in pts)]
    b = system.invariant_basis[1]
    parts = np.stack([b, np.zeros_like(b)], axis=1)
    for _ in range(k + 1):
        # exact terms, below 2^53 when int64, and fewer than 2^10 nonzero
        parts = sum(exact_matmul(mix, system.contract((s,), f, parts))
                    for s, (f, mix) in enumerate(zip(lowering, mixes)))
    coeff_ints = nullspace(parts[:, 0], parts[:, 1])
    dim = coeff_ints[1].shape[1]

    expected = block_dim(ring, weights)
    if dim != expected:
        raise OracleMismatchError(
            f"block subspace dimension {dim} != fusion dimension "
            f"{expected} for {system.alg.name} weights {weights} at "
            f"k={k}, z={[complex(p) for p in pts]}")
    return BlockSpace(system=system, k=k, points=pts, dim=expected,
                      coeff_ints=coeff_ints, at_infinity=at_infinity,
                      chart_center=chart_center)


# -- serialization ----------------------------------------------------------

def fusion_to_csv(ring):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["lambda", "mu", "nu", "N"])
    names = [" ".join(map(str, w)) for w in ring.weights]
    writer.writerows([names[a], names[b], names[c], ring.N[a, b, c]]
                     for a, b, c in np.argwhere(ring.N))
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
