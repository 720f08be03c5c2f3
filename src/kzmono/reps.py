"""Exact irreducible highest-weight modules and their tensor products.

A module is generated from a highest-weight vector by the lowering operators
in one pass, weight space by weight space. A weight w is lowered by a_i only
if w - a_i is a weight of the module: the a_i-string through w is unbroken,
from w - r a_i to w + q a_i with r - q = w_i (Humphreys 21.3), and every
w + a_i, w + 2 a_i, ... is built before w, so that holds iff w_i + q >= 1
(`_lowers`). The candidates at a new weight mu are the vectors f_j y for y
in the weight space of mu + a_j; each e_i f_j y is formed once, as
f_j e_i y + delta_ij y_i y, and serves both as a row of the Gram matrix of
the contravariant form on the candidates and, for a kept candidate, as its
raising column. One reduced echelon form of that Gram matrix picks a basis
and expresses every dependent candidate through it, which quotients out the
radical and lands exactly on the irreducible module. The Weyl dimension
bounds the basis as it grows and must equal its final size, so a defective
echelon step stops the construction at once, and a wrongly skipped weight
leaves the basis short of it.

The construction runs on integers. Every basis vector is a lowering
monomial f_{j_m} ... f_{j_1} v_lam of Chevalley generators, and lam is
integral, so the contravariant (Shapovalov) form on the basis is integral:
moving each f across the form as e and commuting it down to v_lam with
[e_i, f_j] = delta_ij h_i only multiplies by integer weight labels. The e
and f columns are rational; each is kept as integer numerators over one
positive denominator, divided by their gcd. A Gram entry G_x . u, with
u = e_i f_j y over one denominator, is an integer sum divided by that
denominator, and that division must leave no remainder: a remainder raises
ConstructionError, so integrality is checked at every entry at no cost.
Whether G_x . u is an integer does not depend on how u's fraction is
written, so u is divided by its gcd only when it becomes a stored e column.
The integral Gram matrix enters `exact.integral_echelon` as it is, and its
rows D E_t are the lowering columns over the denominator D. A module is
these integers (`Representation`): every reader takes the numerators over
their denominators, and `rep_to_json` forms one `Fraction` per exported
entry.

Matrix conventions (weights are Dynkin labels):
    [h_i, e_j] = cartan[j][i] e_j,   [e_i, f_j] = delta_ij h_i,
and h_i acts on a weight-mu vector as mu[i]. A basis vector is numbered when
it is created, and weights are created by the height of lam - mu, then
lexicographically by mu, so that construction order is the export order and
exports are reproducible.

Root vectors for non-simple roots come from a fixed iterated-bracket scheme
(always bracketing with the lowest simple index that stays in the root
system), so "e_alpha" names the same abstract element in every module; the
pairings <e_alpha, f_alpha> needed for dual bases follow from root data
alone, by a recursion along that scheme over the simple-root strings
(`casimir_constants`).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from operator import add, sub

import numpy as np

from . import algebra as la
from .errors import (ConstructionError, DimensionCapError,
                     NonDominantWeightError, require_int)
from .exact import (SRMatrix, exact_dtype, exact_matmul, exact_mul, int_array,
                    integral, integral_echelon, join, max_abs, nullspace,
                    sum_by_key)

DEFAULT_DIMENSION_CAP = 200_000

_ZERO_COLUMN = ({}, 1)      # a column not stored: no numerators over 1


class Representation:
    """Irreducible module with exact sparse generator matrices.

    basis_weights lists the weight of every basis vector, and h_i acts on
    a basis vector as its weight's i-th label. The module holds
    `_construct`'s integers: e_int and f_int give, per simple root, the
    numerators {(row, col): int} with the per-column denominators
    {col: int}, which have no entry for a zero column, and gram_int is the
    contravariant form on the basis as {(row, col): int} (block diagonal
    over weight spaces, e and f mutually adjoint for it). `generators`, the
    integer basis of g acting here, is built on first use, so a caller that
    reads only weights and dimensions (Kac-Walton, `fusion_ring`) builds
    no matrix. Immutable.
    """

    def __init__(self, alg, highest_weight, basis_weights, e_int, f_int,
                 gram_int):
        self.alg = alg
        self.highest_weight = highest_weight
        self.basis_weights = tuple(basis_weights)
        self.dim = len(self.basis_weights)
        self.e_int = tuple(e_int)
        self.f_int = tuple(f_int)
        self.gram_int = gram_int

    @cached_property
    def generators(self):
        """x_k = (h_i, e_alpha, f_alpha), roots in `_bracket_scheme` order,
        as ((k, rows, cols, values), dens): x_k holds values[t] / dens[k] at
        (rows[t], cols[t]) where k[t] = k. Each bracket, an `exact_matmul`,
        is divided by the gcd of its entries and its denominator."""
        n = self.dim

        def bracket(x, y):
            a, b = dense(n, *x[0]), dense(n, *y[0])
            num = exact_matmul(a, b) - exact_matmul(b, a)
            g = gcd(x[1] * y[1], int(np.gcd.reduce(num, axis=None)))
            return _entries(num // g), x[1] * y[1] // g

        one = [list(map(_simple, self.e_int)), list(map(_simple, self.f_int))]
        roots = [[], []]
        for kind, i, low in _bracket_scheme(self.alg):
            for simples, built in zip(one, roots):
                built.append(simples[i] if kind == "simple"
                             else bracket(simples[i], built[low]))
        w = np.array(self.basis_weights, dtype=np.int64).reshape(n, -1).T
        gens = [((a, a, h[a]), 1) for h, a in zip(w, map(np.flatnonzero, w))]
        gens += roots[0] + roots[1]
        rows, cols, values = map(np.concatenate, zip(*(g for g, _d in gens)))
        k = np.repeat(np.arange(len(gens)), [len(g[0]) for g, _d in gens])
        return (k, rows, cols, int_array(values)), tuple(d for _g, d in gens)

    @property
    def basis_hash(self):
        text = repr((self.alg.series, self.alg.rank, self.highest_weight,
                     self.basis_weights))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def __repr__(self):
        return (f"Representation({self.alg.name}, "
                f"{self.highest_weight}, dim={self.dim})")


def _simple(columns):
    """A simple generator's columns, numerators {(row, col): int} over
    denominators {col: int}, as ((rows, cols, values), d): the matrix holds
    values[t] / d at (rows[t], cols[t]), d the lcm of the denominators."""
    nums, dens = columns
    d = lcm(*dens.values())
    rows, cols = np.array(list(nums), dtype=np.intp).reshape(-1, 2).T
    values = [v * (d // dens[c]) for (_r, c), v in nums.items()]
    return (rows, cols, int_array(np.array(values, dtype=object))), d


def _over_lcm(columns):
    """Simple generators of several modules (`_simple`) as (rows, cols,
    values) over their common denominator D: placed on slot k, the k-th
    for each k, they sum to D times the diagonal generator."""
    simples = [_simple(c) for c in columns]
    d = lcm(*(dk for _m, dk in simples))
    return [(rows, cols, exact_mul(values, np.array(d // dk)))
            for (rows, cols, values), dk in simples]


def _reduced(vec, den):
    """A column vec / den as (numerators, denominator), zeros dropped and
    the gcd divided out, the denominator positive."""
    vec = {r: v for r, v in vec.items() if v}
    g = gcd(den, *vec.values())
    if den < 0:
        g = -g
    return {r: v // g for r, v in vec.items()}, den // g


def _lowers(index_of, w, i, alpha_i):
    """Whether w - alpha_i is a weight of the module, given index_of, which
    holds every weight above w: the alpha_i-string through w is unbroken
    and runs from w - r alpha_i to w + q alpha_i with r - q = w_i
    (Humphreys 21.3), so it is iff w_i + q >= 1."""
    up = w
    for _ in range(1 - w[i]):      # q must reach 1 - w_i
        up = tuple(map(add, up, alpha_i))
        if up not in index_of:
            return False
    return True


def _construct(alg, lam):
    """One-pass lowering construction; see the module docstring.

    Returns the basis weights, then e_i and f_i as column dicts
    {index: (numerators, denominator)}, each nonzero column the integers
    {row: numerator} over one positive denominator (zero columns are not
    stored), and the Gram matrix as integer column dicts
    {index: {row: value}}. Each basis vector gets its global index when it
    is created, so no reassembly follows. u[i][b] = e_i f_j y for the b-th
    candidate f_j y is formed once, unreduced; it gives the Gram entries
    <f_i x, f_j y> = G_x . u[i][b], each an exact integer division, and, if
    the candidate is kept, the raising column of e_i, reduced then.
    """
    rank = alg.rank
    alpha = alg.cartan                 # row i: Dynkin labels of a_i
    expected = la.weyl_dimension(alg, lam)
    weights = [lam]
    index_of = {lam: range(1)}         # weight -> indices of its basis
    e = [{} for _ in range(rank)]
    f = [{} for _ in range(rank)]
    gram = {0: {0: 1}}

    layer = [lam]
    while layer:
        parents_of = {}
        for w in layer:
            for i in range(rank):
                if _lowers(index_of, w, i, alpha[i]):
                    parents_of.setdefault(tuple(map(sub, w, alpha[i])),
                                          []).append((i, index_of[w]))
        layer = []
        for mu, parents in sorted(parents_of.items()):
            parents.sort()          # each i once, so no range is compared
            span = [(j, y) for j, ys in parents for y in ys]
            u = {}
            for i, _ys in parents:
                ui = u[i] = []
                ei = e[i]
                for j, y in span:
                    # u = f_j e_i y + delta_ij y_i y over one denominator:
                    # e_i y's times the lcm of those of the f_j columns met
                    raised, den_e = ei.get(y, _ZERO_COLUMN)
                    fj = f[j]
                    cols = [(v, fj.get(r, _ZERO_COLUMN))
                            for r, v in raised.items()]
                    common = lcm(*[d for _v, (_col, d) in cols])
                    den = den_e * common
                    vec = {y: weights[y][i] * den} if i == j else {}
                    for v, (col, d) in cols:
                        v *= common // d
                        for r2, v2 in col.items():
                            vec[r2] = vec.get(r2, 0) + v * v2
                    ui.append((vec, den))
            # G is symmetric, so its column x is its row x; S is symmetric
            # too, so only its upper triangle is computed
            s_mat = [[0] * len(span) for _ in span]
            for a, (i, x) in enumerate(span):
                gx = gram[x]
                ui = u[i]
                row = s_mat[a]
                for b in range(a, len(span)):
                    col, den = ui[b]
                    s_ab, rem = divmod(
                        sum([gx[r] * v for r, v in col.items() if r in gx]),
                        den)
                    if rem:
                        raise ConstructionError(
                            f"{alg.name} weight {lam}: Gram entry at weight "
                            f"{mu} is not an integer")
                    row[b] = s_mat[b][a] = s_ab
            # S is a symmetric Gram matrix, so its reduced echelon form is
            # S_kk^-1 S[keep, :], with unit columns on keep; its rows are
            # read as D times that form
            keep, det, coeff = integral_echelon(s_mat, len(span))
            if not keep:
                continue
            new = range(len(weights), len(weights) + len(keep))
            if new.stop > expected:
                raise ConstructionError(
                    f"{alg.name} weight {lam}: basis outgrows the Weyl "
                    f"dimension {expected} at weight {mu}")
            weights.extend([mu] * len(keep))
            index_of[mu] = new
            layer.append(mu)
            for n, a in zip(new, keep):
                gram[n] = {n2: s_mat[a][b] for n2, b in zip(new, keep)
                           if s_mat[a][b]}
                for i, _ys in parents:
                    col = _reduced(*u[i][a])
                    if col[0]:
                        e[i][n] = col
            for b, (i, x) in enumerate(span):
                col = {n: row[b] for n, row in zip(new, coeff) if row[b]}
                if col:
                    f[i][x] = _reduced(col, det)
    if len(weights) != expected:
        raise ConstructionError(
            f"{alg.name} weight {lam}: constructed dimension {len(weights)} "
            f"!= Weyl dimension {expected}")
    return weights, e, f, gram


def irrep(alg, lam):
    """The irreducible module of a dominant highest weight, exactly."""
    return _irrep(alg, la.require_dominant(alg, lam))


# cached on the checked weight: (2.0,) must not hit the entry of (2,)
@lru_cache(maxsize=None)
def _irrep(alg, lam):
    weights, e, f, gram = _construct(alg, lam)

    def flat(cols):     # column dicts as (numerators, denominators)
        return ({(r, c): v for c, (col, _den) in cols.items()
                 for r, v in col.items()},
                {c: den for c, (_col, den) in cols.items()})

    return Representation(
        alg, lam, weights, map(flat, e), map(flat, f),
        {(r, c): v for c, col in gram.items() for r, v in col.items()})


@lru_cache(maxsize=None)
def _bracket_scheme(alg):
    """How each positive root is reached: 'simple i' or [x_i, x_beta]."""
    coords = alg.positive_root_coords
    index = {c: k for k, c in enumerate(coords)}
    plan = []
    for k, c in enumerate(coords):
        if sum(c) == 1:
            plan.append(("simple", c.index(1), None))
            continue
        for i in range(alg.rank):
            lower = list(c)
            lower[i] -= 1
            low = tuple(lower)
            if min(lower) >= 0 and low in index:
                plan.append(("bracket", i, index[low]))
                break
        else:
            raise ConstructionError(f"{alg.name}: root {c} has no "
                                    "simple-root predecessor")
    return tuple(plan)


@lru_cache(maxsize=None)
def casimir_constants(alg):
    """c_alpha = <e_alpha, f_alpha> for every positive root, from root data.

    A simple root has c = 1/d_i. Otherwise `_bracket_scheme` sets
    e_alpha = [e_i, e_beta] and f_alpha = [f_i, f_beta] with
    alpha = beta + a_i, and invariance of the form gives
    c_alpha = -<e_beta, ad e_i ad f_i f_beta>. Let beta - r a_i, ...,
    beta + q a_i be the a_i-string through beta. The root vectors of the
    string through -beta span an irreducible module of the sl2 of a_i, of
    highest weight r + q (Humphreys 8.4), and f_beta lies r steps below its
    top, where e f acts as (r + 1) q (Humphreys 7.2). So
    c_alpha = -q (r + 1) c_beta, and no module is built. `local_omega`
    checks every factor Casimir it uses against its scalar.
    """
    coords = alg.positive_root_coords
    roots = set(coords)
    out = []
    for kind, i, low in _bracket_scheme(alg):
        if kind == "simple":
            out.append(1 / alg.symmetrizers[i])
            continue
        probe, r = list(coords[low]), 0
        while True:
            probe[i] -= 1
            if tuple(probe) not in roots:
                break
            r += 1
        q = r - alg.positive_roots[low][i]
        out.append(-q * (r + 1) * out[low])
    return tuple(out)


def _dual_bases(ri, rj):
    """The basis x_k = (h_i, e_alpha, f_alpha) of g on ri and its dual basis
    x^k = (sum_j G_ij h_j, f_alpha/c_alpha, e_alpha/c_alpha) on rj under the
    normalised form, G = alg.form / form_scale and c = `casimir_constants`
    (Humphreys 6.2): the Casimir is sum_k x_k x^k (ri = rj), Omega is
    sum_k x_k (x) x^k. Returns D and entries X, Y (as `generators`) with
    x_k x^k = X_k Y_k / D and x_k (x) x^k = X_k (x) Y_k / D."""
    alg = ri.alg
    (k, rows, cols, values), dens = ri.generators
    (ky, ry, cy, vy), dens_j = rj.generators
    r, p = alg.rank, len(alg.positive_roots)
    cartan = np.array(rj.basis_weights, dtype=np.int64).reshape(
        rj.dim, -1) @ np.array(alg.form, dtype=np.int64).T
    i, a = np.nonzero(cartan.T)     # sum_j G_ij h_j is diagonal
    roots = ky >= r
    y = tuple(np.concatenate(z) for z in (
        (i, np.where(ky < r + p, ky + p, ky - p)[roots]), (a, ry[roots]),
        (a, cy[roots]), (cartan[a, i], vy[roots])))
    coeffs = [Fraction(1, d * alg.form_scale) for d in dens[:r]] + [
        1 / (d * dj * c) for d, dj, c in zip(
            dens[r:], dens_j[r + p:] + dens_j[r:], 2 * casimir_constants(alg))]
    d = lcm(*(q.denominator for q in coeffs))
    w = np.array([int(q * d) for q in coeffs], dtype=object)
    return d, (k, rows, cols, exact_mul(values, w[k])), y


def _casimir(rep):
    """(D, keys, sums): sum_k x_k x^k = S / D, S holding sums at keys =
    row * dim + col; X_k, Y_k (`_dual_bases`) meet on k and the inner index."""
    d, (kx, rx, cx, vx), (ky, ry, cy, vy) = _dual_bases(rep, rep)
    n = rep.dim
    q, e = join(ky * n + ry, kx * n + cx)
    return (d, *sum_by_key(rx[q] * n + cy[e], exact_mul(
        vx[q], vy[e], rep.alg.dimension * n)))


def casimir_matrix(rep):
    """Quadratic Casimir sum_k x_k x^k (`_dual_bases`) as an exact matrix;
    the scalar <lam, lam+2rho> on irreps."""
    d, keys, sums = _casimir(rep)
    return _matrix(rep.dim, rep.dim, keys // rep.dim, keys % rep.dim,
                   [Fraction(v, d) for v in sums.tolist()])


def casimir_is_scalar(rep):
    """Whether sum_k x_k x^k is <lam, lam+2rho> times the identity, on the
    entries of the module's integers S: S == D <lam, lam+2rho> Id."""
    d, keys, sums = _casimir(rep)
    c = la.casimir_scalar(rep.alg, rep.highest_weight) * d
    diagonal = np.arange(rep.dim) * (rep.dim + 1) if c else []
    return np.array_equal(keys, diagonal) and bool((sums == c).all())


@lru_cache(maxsize=None)
def local_omega(alg, lam, mu):
    """Two-slot Casimir Omega = sum_k x_k (x) x^k on V_lam (x) V_mu, x_k on
    V_lam (the major index) and x^k on V_mu (`_dual_bases`), exactly, as
    (D, size, rows, cols, values): D Omega, size x size with D the lcm of
    its denominators, holds values[t] at (rows[t], cols[t]), by row then
    column, summed from the outer products of the nonzeros of X_k and Y_k;
    every slot pair carrying (lam, mu) embeds it. Each factor Casimir must
    be its scalar (`casimir_is_scalar`), or ConstructionError is raised:
    the pair Casimir is C_lam (x) 1 + 1 (x) C_mu + 2 Omega."""
    ri, rj = irrep(alg, lam), irrep(alg, mu)
    for rep in dict.fromkeys((ri, rj)):
        if not casimir_is_scalar(rep):
            raise ConstructionError(f"{alg.name} {rep.highest_weight}: the "
                                    "dual-basis Casimir is not its scalar")
    d, (kx, rx, cx, vx), (ky, ry, cy, vy) = _dual_bases(ri, rj)
    q, e = join(ky, kx)         # the pairs of nonzeros of one k
    n, size = rj.dim, ri.dim * rj.dim
    keys, values = sum_by_key((rx[q] * n + ry[e]) * size + cx[q] * n + cy[e],
                              exact_mul(vx[q], vy[e], alg.dimension))
    g = gcd(d, int(np.gcd.reduce(values)))
    return d // g, size, keys // size, keys % size, values // g


def total_weights(factor_weights):
    """Total weight of each basis vector of a tensor product, slot 0 major,
    as an int64 (total dimension, rank) array, from the factor weights."""
    total = np.zeros((1, len(factor_weights[0][0])), dtype=np.int64)
    for weights in factor_weights:
        total = (total[:, None] + np.array(weights, dtype=np.int64)).reshape(
            -1, total.shape[1])
    return total


def slot_embedding(dims, slots, local, cols):
    """local (x) Id at the unit vectors of the total indices cols, as arrays.

    dims are the factor dimensions, the total index slot 0 major; local is
    a matrix on the listed slots, the first listed major, as (size, rows,
    cols, values) like `local_omega`'s, size their dimension. Returns (rows,
    pos, values): cols[pos[t]] maps to the sum of values[t] at rows[t]."""
    local_dims = tuple(dims[s] for s in slots)
    size = prod(local_dims)
    local_size, local_rows, local_cols, local_values = local
    if local_size != size or max(local_rows.max(initial=0),
                                 local_cols.max(initial=0)) >= size:
        raise ValueError(f"local matrix is not {size} square")
    cols = np.asarray(cols, dtype=np.intp)
    strides = np.cumprod((1, *dims[:0:-1]))[::-1][list(slots)]

    def offset(local_index):    # what the listed slots' digits add
        return sum(d * st for d, st in zip(
            np.unravel_index(local_index, local_dims), strides))

    loc = np.ravel_multi_index(
        cols // strides[:, None] % np.array(local_dims)[:, None], local_dims)
    pos, e = join(local_cols, loc)
    rows = (cols - offset(loc))[pos] + offset(local_rows[e])
    return rows, pos, local_values[e]


class TensorSystem:
    """Tensor product of irreducibles with its exact invariant subspace.

    The invariant basis is `nullspace` of the diagonal e_i images of the
    zero-weight subspace, where the invariants must live, embedded back
    into the total space. A zero-weight vector killed by every e_i is a
    highest-weight vector of weight 0, so it spans a trivial submodule and
    every f_i kills it too (Humphreys 20-21): the f_i add no constraint,
    and that they kill the basis is checked exactly once it is solved, each
    f_i summed over the slots on one common denominator. The basis is read
    from one reduced echelon form, so it is the identity on its
    free-coordinate rows, the last nonzero row of each vector; those rows
    are recorded and checked once with it, and restricting a slot-local
    operator (`restrict_local`) selects them from its image. The basis is kept a second time as one dense integer
    array, B = delta * basis with delta the lcm of its denominators
    (`integral_basis`; delta is 1 on A1 spin-1/2 but 2 on A1 (1)(2)(1)(2)
    and 6 on A2 (1,1)^3), so that restriction, the Gram matrix and the
    block kernel multiply integers only, each local matrix applied as one
    contraction (`contract`); the e_i images and `omega_pair` embed local
    matrices at unit columns (`slot_embedding`).
    """

    def __init__(self, alg, weights, max_dim=DEFAULT_DIMENSION_CAP):
        max_dim = require_int(max_dim, "max_dim")
        weights = tuple(la.require_dominant(alg, w) for w in weights)
        if not weights:
            raise NonDominantWeightError("need at least one tensor factor")
        # the cap is checked on Weyl dimensions, before any module is built
        dim_of = {w: la.weyl_dimension(alg, w) for w in set(weights)}
        self.dims = tuple(dim_of[w] for w in weights)
        total = prod(self.dims)
        if total > max_dim:
            raise DimensionCapError(
                f"tensor dimension {total} exceeds cap {max_dim}")
        self.alg = alg
        self.weights = weights
        self.factors = tuple(irrep(alg, w) for w in weights)
        self.total_dim = total
        self.n = len(weights)
        self._omega_inv = {}
        self._invariant = None
        self._unit_rows = None
        self._integral = None
        self._max_b = None
        self._inv_gram = None

    def contract(self, slots, local, array):
        """local (x) Id on an integer array of shape (total_dim, ...), for
        an integer array local on the listed slots, as one contraction:
        the slots' axes to the front, one `exact_matmul`, and back."""
        size = prod(self.dims[s] for s in slots)
        if local.shape != (size, size):
            raise ValueError(f"local matrix is not {size} square")
        front = range(len(slots))
        moved = np.moveaxis(array.reshape(self.dims + array.shape[1:]),
                            slots, front)
        out = exact_matmul(local, moved.reshape(size, -1))
        return np.moveaxis(out.reshape(moved.shape), front,
                           slots).reshape(array.shape)

    # -- invariants ------------------------------------------------------

    def zero_weight_indices(self):
        total = total_weights([rep.basis_weights for rep in self.factors])
        return np.flatnonzero(~total.any(axis=1))

    @property
    def invariant_basis(self):
        if self._invariant is None:
            (self._invariant, self._unit_rows, self._integral,
             self._max_b) = self._compute_invariants()
        return self._invariant

    @property
    def integral_basis(self):
        """(delta, B): B = delta * invariant_basis as a dense array, int64
        if float64 holds its entries and Python ints otherwise, delta the
        lcm of the basis denominators; B is delta on the unit rows."""
        self.invariant_basis
        return self._integral

    @property
    def invariant_dim(self):
        return self.invariant_basis.ncols

    def _compute_invariants(self):
        zero_idx = self.zero_weight_indices()

        def block(i):       # a sum over slots, no two meeting at an entry
            rows, pos, values = map(np.concatenate, zip(*(slot_embedding(
                self.dims, (s,), (d, *m), zero_idx) for s, (m, d) in
                enumerate(zip(_over_lcm(rep.e_int[i] for rep in self.factors),
                              self.dims)))))
            return _matrix(self.total_dim, len(zero_idx), rows, pos,
                           values.tolist())

        kernel = nullspace(*map(block, range(self.alg.rank)))
        basis = SRMatrix(self.total_dim, kernel.ncols, {
            (zero_idx[q].item(), j): v for (q, j), v in kernel.data.items()})
        delta, (ints,) = integral([basis])
        b = int_array(ints.to_array(object))
        # each vector is 1 at its free coordinate, its other entries sit at
        # pivots left of it: the basis is the identity on its last nonzeros
        # (checked here once; the basis never changes after)
        unit_rows = (len(b) - 1 - np.argmax(b[::-1] != 0, axis=0)).tolist()
        if not np.array_equal(b[unit_rows],
                              delta * np.eye(b.shape[1], dtype=b.dtype)):
            raise ConstructionError(
                "invariant basis is not the identity on its free rows")
        for i in range(self.alg.rank):
            # at most log2(total_dim) slots have a nonzero f_i, and each
            # int64 image is below 2^53, so the int64 sum cannot overflow
            image = sum(self.contract((s,), dense(d, *m), b) for s, (m, d) in
                        enumerate(zip(_over_lcm(rep.f_int[i]
                                                for rep in self.factors),
                                      self.dims)))
            if image.any():
                raise ConstructionError(
                    f"invariant basis is not killed by f_{i + 1}")
        return basis, unit_rows, (delta, b), max_abs(b)

    def invariant_gram(self):
        """(delta^2, B^T (G_1 (x) ... (x) G_n) B), the product contravariant
        form on the invariant basis over delta^2 (`integral_basis`).

        Nondegenerate because the invariants are form-orthogonal to the
        image of the diagonal action; this is the pairing under which the
        two-slot Casimirs are self-adjoint and the block subspaces are the
        duals of the raising-operator annihilator conditions. One integer
        G_s (`Representation.gram_int`) is applied at a time.
        """
        if self._inv_gram is None:
            delta, b = self.integral_basis
            image = b
            for s, rep in enumerate(self.factors):
                image = self.contract((s,), int_array(SRMatrix(
                    rep.dim, rep.dim, rep.gram_int).to_array(object)), image)
            self._inv_gram = delta * delta, int_array(exact_matmul(b.T,
                                                                   image))
        return self._inv_gram

    def restrict_local(self, slots, local):
        """Exact matrix X of local (x) Id on the invariants as (D delta,
        X_int), for local = (D, size, rows, cols, values) on the listed
        slots, size their dimension: L / D, L holding values at (rows, cols).

        If the operator preserves the span, its image of the basis is
        basis @ X, and the basis is the identity on its unit rows, so X is
        the image at those rows. With B = delta basis integral, the image
        L B is one contraction (`contract`) and X_int is its unit rows. If
        L/D maps basis = B/delta to basis Y, then L B = D B Y and B is delta
        on its unit rows, so X_int = D delta Y; the witness B X_int ==
        delta L B then holds, and conversely it gives (L/D) basis = basis
        X_int/(D delta). So the witness fails iff the span is not preserved,
        and X = X_int/(D delta). Each witness entry sums m + 1 products of
        size at most max|B| max|L B|.
        """
        delta, b = self.integral_basis   # computes the unit rows too
        image = self.contract(slots, dense(*local[1:]), b)
        xs = image[self._unit_rows]
        dtype = exact_dtype(b.shape[1] + 1, self._max_b, max_abs(image))
        if (b.astype(dtype) @ xs.astype(dtype)
                != delta * image.astype(dtype)).any():
            raise ValueError("operator does not preserve the subspace")
        return local[0] * delta, int_array(xs)

    # -- Casimir pair operators ------------------------------------------

    def _pair(self, i, j):
        i, j = require_int(i, "slot"), require_int(j, "slot")
        if i == j:
            raise ValueError("slots must be distinct")
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError(f"slot out of range for n={self.n}")
        key = (min(i, j), max(i, j))
        return key, local_omega(self.alg, self.weights[key[0]],
                                self.weights[key[1]])

    def omega_pair(self, i, j):
        """Exact two-slot Casimir Omega^{ij} on the total space, embedding
        `local_omega` (its factor Casimirs checked) of the slot weights."""
        key, (denom, *local) = self._pair(i, j)
        rows, cols, values = slot_embedding(self.dims, key, local,
                                            range(self.total_dim))
        return _matrix(self.total_dim, self.total_dim, rows, cols,
                       [Fraction(v, denom) for v in values.tolist()])

    def omega_restricted(self, i, j):
        """Omega^{ij} on the invariants (`restrict_local`), cached."""
        key, local = self._pair(i, j)
        if key not in self._omega_inv:
            self._omega_inv[key] = self.restrict_local(key, local)
        return self._omega_inv[key]

    def sum_casimirs(self):
        return sum((la.casimir_scalar(self.alg, w) for w in self.weights),
                   start=Fraction(0))

    # -- slot swap --------------------------------------------------------

    def swap_restricted(self, i):
        """Adjacent slot transposition on the invariants (equal factors),
        as `restrict_local` returns it."""
        i = require_int(i, "swap slot")
        if not (0 <= i < self.n - 1):
            raise ValueError("swap slot out of range")
        if self.weights[i] != self.weights[i + 1]:
            raise ValueError("slot swap needs equal weights on both slots")
        a, b = np.divmod(np.arange(self.dims[i] ** 2), self.dims[i])
        return self.restrict_local((i, i + 1), (1, len(a), b * self.dims[i]
                                                + a, a * self.dims[i] + b,
                                                np.ones_like(a)))

    def __repr__(self):
        return (f"TensorSystem({self.alg.name}, {self.weights}, "
                f"dim={self.total_dim})")


def tensor_system(alg, weights, max_dim=DEFAULT_DIMENSION_CAP):
    return TensorSystem(alg, weights, max_dim=max_dim)


def dense(n, rows, cols, values):
    """The n x n integer array holding values at (rows, cols)."""
    out = np.zeros((n, n), dtype=values.dtype)
    out[rows, cols] = values
    return out


def _entries(a):
    """The nonzero entries (rows, cols, values) of a 2-d array."""
    r, c = np.nonzero(a)
    return r, c, a[r, c]


def _matrix(nrows, ncols, rows, cols, values):
    """An SRMatrix holding values[t] at (rows[t], cols[t])."""
    return SRMatrix(nrows, ncols, dict(zip(zip(rows.tolist(), cols.tolist()),
                                           values)))


# -- serialization ---------------------------------------------------------

def _triplets(columns):
    """[row, col, numerator, denominator] per entry of integer columns
    (`Representation.e_int`), by position, each one reduced `Fraction`."""
    nums, dens = columns
    return [[r, c, q.numerator, q.denominator] for (r, c), q in sorted(
        ((rc, Fraction(v, dens[rc[1]])) for rc, v in nums.items()))]


def rep_to_json(rep):
    doc = {
        "algebra": {"series": rep.alg.series, "rank": rep.alg.rank},
        "highest_weight": list(rep.highest_weight),
        "dimension": rep.dim,
        "basis_weights": [list(w) for w in rep.basis_weights],
        "basis_hash": rep.basis_hash,
        "matrices": {},
    }
    for i in range(rep.alg.rank):
        doc["matrices"][f"e{i + 1}"] = _triplets(rep.e_int[i])
        doc["matrices"][f"f{i + 1}"] = _triplets(rep.f_int[i])
        doc["matrices"][f"h{i + 1}"] = [[v, v, w[i], 1] for v, w in
                                        enumerate(rep.basis_weights) if w[i]]
    return json.dumps(doc, sort_keys=True)
