"""Exact irreducible highest-weight modules and their tensor products.

A module is generated from a highest-weight vector by the lowering operators
in one pass, weight space by weight space. The candidates at a new weight mu
are the vectors f_j y for y in the weight space of mu + a_j; each e_i f_j y
is formed once, as f_j e_i y + delta_ij y_i y, and serves both as a row of
the Gram matrix of the contravariant form on the candidates and, for a kept
candidate, as its raising column. One reduced echelon form of that Gram
matrix picks a basis and expresses every dependent candidate through it,
which quotients out the radical and lands exactly on the irreducible module.
The Weyl dimension bounds the basis as it grows and must equal its final
size, so a defective echelon step stops the construction at once.

The construction runs on integers. Every basis vector is a lowering
monomial f_{j_m} ... f_{j_1} v_lam of Chevalley generators, and lam is
integral, so the contravariant (Shapovalov) form on the basis is integral:
moving each f across the form as e and commuting it down to v_lam with
[e_i, f_j] = delta_ij h_i only multiplies by integer weight labels. The e
and f columns are rational; each is kept as integer numerators over one
positive denominator, divided by their gcd. A Gram entry G_x . u, with
u = e_i f_j y such a column, is an integer sum divided by u's denominator,
and that division must leave no remainder: a remainder raises
ConstructionError, so integrality is checked at every entry at no cost.
The integral Gram matrix enters `exact.integral_echelon` as it is, and its
rows D E_t are the lowering columns over the denominator D. `Fraction`
values are made only when `irrep` wraps the columns as SRMatrix.

Matrix conventions (weights are Dynkin labels):
    [h_i, e_j] = cartan[j][i] e_j,   [e_i, f_j] = delta_ij h_i,
and h_i acts on a weight-mu vector as mu[i]. A basis vector is numbered when
it is created, and weights are created by the height of lam - mu, then
lexicographically by mu, so that construction order is the export order and
exports are reproducible.

Root vectors for non-simple roots come from a fixed iterated-bracket scheme
(always bracketing with the lowest simple index that stays in the root
system), so "e_alpha" names the same abstract element in every module; the
pairings <e_alpha, f_alpha> needed for dual bases are extracted once per
algebra from [e_alpha, f_alpha] acting in a small faithful module.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from . import algebra as la
from .errors import (ConstructionError, DimensionCapError,
                     NonDominantWeightError, require_int)
from .exact import (SRMatrix, commutator, integral, integral_echelon, kron,
                    nullspace)

DEFAULT_DIMENSION_CAP = 200_000

_F1 = Fraction(1)
_ZERO_COLUMN = ({}, 1)      # e_i y = 0: no numerators over denominator 1


class Representation:
    """Irreducible module with exact sparse generator matrices.

    e, f, h are tuples of SRMatrix indexed by simple root; basis_weights
    lists the weight of every basis vector; gram is the contravariant form
    on the basis (block diagonal over weight spaces, e and f mutually
    adjoint for it). Immutable after construction.
    """

    def __init__(self, alg, highest_weight, basis_weights, e, f, gram):
        self.alg = alg
        self.highest_weight = highest_weight
        self.basis_weights = tuple(basis_weights)
        self.dim = len(self.basis_weights)
        self.e = tuple(e)
        self.f = tuple(f)
        self.gram = gram
        self.h = tuple(
            SRMatrix(self.dim, self.dim,
                     {(v, v): Fraction(w[i])
                      for v, w in enumerate(self.basis_weights) if w[i]})
            for i in range(alg.rank))
        self._root_vectors = None

    @property
    def basis_hash(self):
        text = repr((self.alg.series, self.alg.rank, self.highest_weight,
                     self.basis_weights))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def __repr__(self):
        return (f"Representation({self.alg.name}, "
                f"{self.highest_weight}, dim={self.dim})")


def _reduced(vec, den):
    """A column vec / den as (numerators, denominator), zeros dropped and
    the gcd divided out, the denominator positive."""
    vec = {r: v for r, v in vec.items() if v}
    g = gcd(den, *vec.values())
    if den < 0:
        g = -g
    return {r: v // g for r, v in vec.items()}, den // g


def _construct(alg, lam):
    """One-pass lowering construction; see the module docstring.

    Returns the basis weights, then e_i and f_i as column dicts
    {index: (numerators, denominator)}, each column the integers
    {row: numerator} over one positive denominator, and the Gram matrix as
    integer column dicts {index: {row: value}}. Each basis vector gets its
    global index when it is created, so no reassembly follows.
    u[i][b] = e_i f_j y for the b-th candidate f_j y is formed once; it
    gives the Gram entries <f_i x, f_j y> = G_x . u[i][b], each an exact
    integer division, and, if the candidate is kept, the raising column
    of e_i.
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
                mu = tuple(a - b for a, b in zip(w, alpha[i]))
                parents_of.setdefault(mu, []).append(i)
        layer = []
        for mu, parents in sorted(parents_of.items()):
            parents.sort()
            span = [(j, y) for j in parents for y in
                    index_of[tuple(a + b for a, b in zip(mu, alpha[j]))]]
            u = {}
            for i in parents:
                ui = u[i] = []
                for j, y in span:
                    # u = f_j e_i y + delta_ij y_i y over one denominator:
                    # e_i y's times the lcm of those of the f_j columns met
                    raised, den_e = e[i].get(y, _ZERO_COLUMN)
                    cols = [(v, f[j][r]) for r, v in raised.items()]
                    common = lcm(*(d for _v, (_col, d) in cols))
                    den = den_e * common
                    vec = {y: weights[y][i] * den} if i == j else {}
                    for v, (col, d) in cols:
                        v *= common // d
                        for r2, v2 in col.items():
                            vec[r2] = vec.get(r2, 0) + v * v2
                    ui.append(_reduced(vec, den))
            # G is symmetric, so its column x is its row x; S is symmetric
            # too, so only its upper triangle is computed
            s_mat = [[0] * len(span) for _ in span]
            for a, (i, x) in enumerate(span):
                gx = gram[x]
                for b in range(a, len(span)):
                    col, den = u[i][b]
                    s_ab, rem = divmod(
                        sum(gx[r] * v for r, v in col.items() if r in gx),
                        den)
                    if rem:
                        raise ConstructionError(
                            f"{alg.name} weight {lam}: Gram entry at weight "
                            f"{mu} is not an integer")
                    s_mat[a][b] = s_mat[b][a] = s_ab
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
                for i in parents:
                    e[i][n] = u[i][a]
            for b, (i, x) in enumerate(span):
                f[i][x] = _reduced({n: row[b] for n, row in zip(new, coeff)},
                                   det)
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
    dim = len(weights)

    def matrix(cols):
        return SRMatrix(dim, dim, {(r, c): Fraction(v, den)
                                   for c, (col, den) in cols.items()
                                   for r, v in col.items()})

    return Representation(
        alg, lam, weights, map(matrix, e), map(matrix, f),
        matrix({c: (col, 1) for c, col in gram.items()}))


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


def root_vectors(rep):
    """Matrices of e_alpha, f_alpha for every positive root, cached."""
    if rep._root_vectors is None:
        ems, fms = [], []
        for kind, i, low in _bracket_scheme(rep.alg):
            if kind == "simple":
                ems.append(rep.e[i])
                fms.append(rep.f[i])
            else:
                ems.append(commutator(rep.e[i], ems[low]))
                fms.append(commutator(rep.f[i], fms[low]))
        rep._root_vectors = (tuple(ems), tuple(fms))
    return rep._root_vectors


@lru_cache(maxsize=None)
def _reference_weight(alg):
    """Fundamental weight of smallest module dimension (lowest index wins)."""
    best = None
    for i in range(alg.rank):
        w = tuple(int(i == j) for j in range(alg.rank))
        d = la.weyl_dimension(alg, w)
        if best is None or d < best[0]:
            best = (d, w)
    return best[1]


@lru_cache(maxsize=None)
def casimir_constants(alg):
    """c_alpha = <e_alpha, f_alpha> for every positive root.

    [e_alpha, f_alpha] acts on a weight-mu vector as c_alpha <mu, alpha>;
    the constants are representation independent, so they are read off in a
    small faithful module and validated across its whole weight spectrum.
    For a simple root, c equals 1/d_i, which is checked.
    """
    ref = irrep(alg, _reference_weight(alg))
    ems, fms = root_vectors(ref)
    out = []
    for k, label in enumerate(alg.positive_roots):
        m = commutator(ems[k], fms[k])
        for (r, c) in m.data:
            if r != c:
                raise ConstructionError(
                    f"{alg.name}: [e,f] for root {label} is not diagonal")
        c_val = None
        for v, w in enumerate(ref.basis_weights):
            pa = la.pairing(alg, w, label)
            if pa:
                val = m.get(v, v) / pa
                if c_val is None:
                    c_val = val
                elif c_val != val:
                    raise ConstructionError(
                        f"{alg.name}: inconsistent <e,f> for root {label}")
        if not c_val:
            raise ConstructionError(
                f"{alg.name}: could not extract <e,f> for root {label}")
        out.append(c_val)
    for i, (kind, idx, _low) in enumerate(_bracket_scheme(alg)):
        if kind == "simple" and out[i] != 1 / alg.symmetrizers[idx]:
            raise ConstructionError(
                f"{alg.name}: <e,f> for simple root {idx + 1} is {out[i]}, "
                f"not 1/d = {1 / alg.symmetrizers[idx]}")
    return tuple(out)


def _casimir(alg, ems, fms, weights):
    """sum_alpha (1/c_alpha)(e_alpha f_alpha + f_alpha e_alpha) + diag <w, w>,
    for root vectors ems, fms acting on a basis of the given weights."""
    n = len(weights)
    total = SRMatrix(n, n)
    for v, w in enumerate(weights):
        total.put(v, v, la.pairing(alg, w, w))
    for e, f, c in zip(ems, fms, casimir_constants(alg)):
        total = total + (e @ f + f @ e).scale(1 / c)
    return total


def casimir_matrix(rep):
    """Quadratic Casimir as an exact matrix; scalar <lam, lam+2rho> on irreps."""
    return _casimir(rep.alg, *root_vectors(rep), rep.basis_weights)


@lru_cache(maxsize=None)
def local_omega(alg, lam, mu):
    """Two-slot Casimir Omega on V_lam (x) V_mu (V_lam index major), exactly.

    Assembled two independent ways which must agree exactly: the dual basis
    sum over root vectors plus the Cartan term, and one half of (pair
    Casimir - scalar Casimirs), the pair Casimir being `_casimir` of the
    coproduct root vectors. Every pair of slots carrying (lam, mu) embeds
    this one matrix.
    """
    ri, rj = irrep(alg, lam), irrep(alg, mu)
    ei, fi = root_vectors(ri)
    ej, fj = root_vectors(rj)
    id_i, id_j = SRMatrix.identity(ri.dim), SRMatrix.identity(rj.dim)
    shift = la.casimir_scalar(alg, lam) + la.casimir_scalar(alg, mu)
    weights = list(itertools.product(ri.basis_weights, rj.basis_weights))
    dim = len(weights)
    full = SRMatrix(dim, dim)
    for g, (wa, wb) in enumerate(weights):
        full.put(g, g, la.pairing(alg, wa, wb))
    for k, c in enumerate(casimir_constants(alg)):
        full = full + (kron(ei[k], fj[k]) + kron(fi[k], ej[k])).scale(1 / c)
    pair = _casimir(alg,
                    [kron(e, id_j) + kron(id_i, x) for e, x in zip(ei, ej)],
                    [kron(f, id_j) + kron(id_i, x) for f, x in zip(fi, fj)],
                    [la.weight_add(wa, wb) for wa, wb in weights])
    pair = pair - SRMatrix.identity(dim).scale(shift)
    if pair.scale(Fraction(1, 2)) != full:
        raise ConstructionError(
            f"Omega routes disagree on {alg.name} {lam} x {mu}")
    return full


class TensorSystem:
    """Tensor product of irreducibles with its exact invariant subspace.

    The invariant basis is `nullspace` of the diagonal e_i and f_i images
    of the zero-weight subspace, where the invariants must live, embedded
    back into the total space. It is read from one reduced echelon form, so
    it is the identity on its free-coordinate rows, the last nonzero row of
    each vector; those rows are recorded and checked once with it, and
    restricting a slot-local operator (`restrict_local`) selects them
    from its image. The basis is kept a second time as integers,
    B = delta * basis with delta the lcm of its denominators
    (`integral_basis`; delta is 1 on A1 spin-1/2 but 2 on A1 (1)(2)(1)(2)
    and 6 on A2 (1,1)^3), so that restriction and the block kernel
    multiply integers only. Every operator acting on a few tensor factors
    (generators, two-slot Casimirs, swaps, the contravariant form) goes
    through the one primitive `apply_local`, which keeps it sparse; the
    restricted Omega^{ij} and slot swaps never form a total-space matrix.
    Only `omega_pair` embeds one: on a three-factor system in the
    full-space Kohno check, or for `KZForm.omega_full`.
    """

    def __init__(self, alg, weights, max_dim=DEFAULT_DIMENSION_CAP):
        max_dim = require_int(max_dim, "max_dim")
        weights = tuple(la.require_dominant(alg, w) for w in weights)
        if not weights:
            raise NonDominantWeightError("need at least one tensor factor")
        # the cap is checked on Weyl dimensions, before any module is built
        dim_of = {w: la.weyl_dimension(alg, w) for w in set(weights)}
        self.dims = tuple(dim_of[w] for w in weights)
        total = 1
        for d in self.dims:
            total *= d
        if total > max_dim:
            raise DimensionCapError(
                f"tensor dimension {total} exceeds cap {max_dim}")
        self.alg = alg
        self.weights = weights
        self.factors = tuple(irrep(alg, w) for w in weights)
        self.total_dim = total
        self.n = len(weights)
        strides = [1] * self.n
        for s in range(self.n - 2, -1, -1):
            strides[s] = strides[s + 1] * self.dims[s + 1]
        self.strides = tuple(strides)
        self._omega_inv = {}
        self._invariant = None
        self._unit_rows = None
        self._integral = None
        self._inv_gram = None

    def apply_local(self, slots, local, cols=None):
        """local (x) Id applied to the columns of cols (default: identity).

        local is a matrix on the tensor product of the listed slots, the
        first listed slot major; cols is a matrix on the total space. This
        is the only place a total index is split into slot digits.
        """
        dims = [self.dims[s] for s in slots]
        strides = [self.strides[s] for s in slots]
        offset = [sum(d * st for d, st in zip(digits, strides))
                  for digits in itertools.product(*map(range, dims))]
        if (local.nrows, local.ncols) != (len(offset), len(offset)):
            raise ValueError(f"local matrix is not {len(offset)} square")
        hits = local.columns_index()
        # per total index g: the local column of its slot digits, and g
        # with those digits zeroed
        split = {}
        for g in (range(self.total_dim) if cols is None
                  else {g for g, _c in cols.data}):
            loc = 0
            for d, st in zip(dims, strides):
                loc = loc * d + (g // st) % d
            split[g] = (hits.get(loc, ()), g - offset[loc])
        out = SRMatrix(self.total_dim,
                       self.total_dim if cols is None else cols.ncols)
        if cols is None:
            # the embedding itself: each entry is a local value, set once
            for g, (col, base) in split.items():
                for r, w in col:
                    out.data[(base + offset[r], g)] = w
            return out
        for (g, c), v in cols.data.items():
            col, base = split[g]
            for r, w in col:
                out.add_at(base + offset[r], c, w * v)
        return out

    def slot_sum(self, mats, cols=None):
        """Sum over slots s of mats[s] acting on slot s, via apply_local."""
        out = None
        for s, m in enumerate(mats):
            term = self.apply_local((s,), m, cols)
            out = term if out is None else out + term
        return out

    # -- invariants ------------------------------------------------------

    def zero_weight_indices(self):
        zero = tuple(0 for _ in range(self.alg.rank))
        return [g for g, combo in enumerate(itertools.product(
                    *[rep.basis_weights for rep in self.factors]))
                if tuple(map(sum, zip(*combo))) == zero]

    @property
    def invariant_basis(self):
        if self._invariant is None:
            (self._invariant, self._unit_rows,
             self._integral) = self._compute_invariants()
        return self._invariant

    @property
    def integral_basis(self):
        """(delta, B): B = delta * invariant_basis as an SRMatrix of ints,
        delta the lcm of the basis denominators; B is delta on the unit
        rows."""
        self.invariant_basis
        return self._integral

    @property
    def invariant_dim(self):
        return self.invariant_basis.ncols

    def _compute_invariants(self):
        zero_idx = self.zero_weight_indices()
        select = SRMatrix(self.total_dim, len(zero_idx),
                          {(g, q): _F1 for q, g in enumerate(zero_idx)})
        kernel = nullspace(*[
            self.slot_sum(gens, select) for i in range(self.alg.rank)
            for gens in ([rep.e[i] for rep in self.factors],
                         [rep.f[i] for rep in self.factors])])
        basis = select @ kernel
        # each vector is 1 at its free coordinate, its other entries sit at
        # pivots left of it: the basis is the identity on its last nonzeros
        # (checked here once; the basis never changes after)
        unit_rows = [0] * basis.ncols
        for g, j in basis.data:
            unit_rows[j] = max(unit_rows[j], g)
        if basis.submatrix_rows(unit_rows) != SRMatrix.identity(basis.ncols):
            raise ConstructionError(
                "invariant basis is not the identity on its free rows")
        delta, (ints,) = integral([basis])
        return basis, unit_rows, (delta, ints)

    def invariant_gram(self):
        """Product contravariant form on the invariant basis, an SRMatrix.

        Nondegenerate because the invariants are form-orthogonal to the
        image of the diagonal action; this is the pairing under which the
        two-slot Casimirs are self-adjoint and the block subspaces are the
        duals of the raising-operator annihilator conditions.
        """
        if self._inv_gram is None:
            b = self.invariant_basis
            image = b
            for s, rep in enumerate(self.factors):
                image = self.apply_local((s,), rep.gram, image)
            self._inv_gram = b.transpose() @ image
        return self._inv_gram

    def restrict_local(self, slots, local):
        """Exact matrix X of local (x) Id on the invariants, an SRMatrix.

        If the operator preserves the span, its image of the basis is
        basis @ X, and the basis is the identity on its unit rows, so X is
        the image at those rows. The products run over Z: with L = D local
        and B = delta basis integral (`exact.integral`), the image L B is
        formed slot-locally and X_int is its unit rows. If op = L/D maps
        basis = B/delta to basis Y, then L B = D B Y and B is delta on its
        unit rows, so X_int = D delta Y; the witness
        B X_int == delta L B then holds, and conversely it gives
        op basis = basis X_int/(D delta). So the witness fails iff the span
        is not preserved, and X = X_int/(D delta) as Fractions.
        """
        delta, ints = self.integral_basis   # computes the unit rows too
        scale, (op,) = integral([local])
        image = self.apply_local(slots, op, ints)
        xs = image.submatrix_rows(self._unit_rows)
        if ints @ xs != image.scale(delta):
            raise ValueError("operator does not preserve the subspace")
        denom = scale * delta
        return xs.map_values(lambda v: Fraction(v, denom))

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
        `local_omega` (both assembly routes checked) of the slot weights."""
        return self.apply_local(*self._pair(i, j))

    def omega_restricted(self, i, j):
        """Omega^{ij} on the invariants, cached per unordered pair."""
        key, local = self._pair(i, j)
        if key not in self._omega_inv:
            self._omega_inv[key] = self.restrict_local(key, local)
        return self._omega_inv[key]

    def sum_casimirs(self):
        return sum((la.casimir_scalar(self.alg, w) for w in self.weights),
                   start=Fraction(0))

    # -- slot swap --------------------------------------------------------

    def swap_restricted(self, i):
        """Adjacent slot transposition on the invariants (equal factors)."""
        i = require_int(i, "swap slot")
        if not (0 <= i < self.n - 1):
            raise ValueError("swap slot out of range")
        if self.weights[i] != self.weights[i + 1]:
            raise ValueError("slot swap needs equal weights on both slots")
        d = self.dims[i]
        flip = SRMatrix(d * d, d * d, {(b * d + a, a * d + b): 1
                                       for a in range(d) for b in range(d)})
        return self.restrict_local((i, i + 1), flip)

    def __repr__(self):
        return (f"TensorSystem({self.alg.name}, {self.weights}, "
                f"dim={self.total_dim})")


def tensor_system(alg, weights, max_dim=DEFAULT_DIMENSION_CAP):
    return TensorSystem(alg, weights, max_dim=max_dim)


# -- serialization ---------------------------------------------------------

def _triplets(mat):
    return [[r, c, v.numerator, v.denominator] for r, c, v in mat.entries()]


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
        doc["matrices"][f"e{i + 1}"] = _triplets(rep.e[i])
        doc["matrices"][f"f{i + 1}"] = _triplets(rep.f[i])
        doc["matrices"][f"h{i + 1}"] = _triplets(rep.h[i])
    return json.dumps(doc, sort_keys=True)
