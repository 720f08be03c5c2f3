"""The former `Fraction` route of the module matrices, root vectors, dual
bases, Casimirs and invariants, as a test-only reference on numpy object
arrays.

A module is its integers (`Representation.e_int`, `f_int`, `gram_int`);
`view` gives the `Fraction` matrices e, f, h and gram that it once held
beside them. `kzmono.reps` builds the root vectors and Casimirs from the
integers (`generators`, `local_omega`); the functions here follow the
earlier dict-of-keys route step by step, from those views: root vectors
by iterated commutators, dual bases by scaling, and Omega as the sum of
the Kronecker products x_k (x) x^k. Products run over the nonzeros of
both factors (`product`), so E6 and F4 modules stay within a second.
`ref_invariant_basis` is the joint kernel of the diagonal e_i and f_i on
the zero weight space, rows built digit by digit. The helpers the tests
share sit here too: SRMatrix to object array (`dense`), to entry arrays
(`entries`) and to `local_omega`'s layout (`local_of`), and back
(`omega_matrix`); dense rows as an SRMatrix (`from_rows`); a
(denominator, integer array) pair as the SRMatrix of Fractions it stands
for (`rational`), a form's Omega stack as one such matrix per pair
(`omega_of`), and the slot digits of a total index (`slot_strides`,
`slot_digits`). The former kernel over the fields, rows of Fractions or
`QQi` in and the reduced basis out as an SRMatrix of them
(`field_nullspace`), clears each row by the lcm of its denominators
(`integer_equations`, or as ints and `ZZi` rows: `integral_rows`) and
solves with the library's integer `nullspace`.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from kzmono import reps
from kzmono.exact import QQi, SRMatrix, ZZi, integral, nullspace
from kzmono.reps import casimir_constants, irrep


@lru_cache(maxsize=None)
def view(rep, kind):
    """The module's `Fraction` matrices, as `Representation` held them:
    kind "e", "f" or "h" gives a tuple of SRMatrix by simple root (h_i the
    weights' i-th labels on the diagonal), "gram" the contravariant form."""
    n = rep.dim
    if kind == "gram":
        return SRMatrix(n, n, {rc: Fraction(v)
                               for rc, v in rep.gram_int.items()})
    if kind == "h":
        return tuple(SRMatrix(n, n, {(v, v): Fraction(w[i])
                                     for v, w in enumerate(rep.basis_weights)
                                     if w[i]})
                     for i in range(rep.alg.rank))
    return tuple(SRMatrix(n, n, {(r, c): Fraction(v, dens[c])
                                 for (r, c), v in nums.items()})
                 for nums, dens in getattr(rep, f"{kind}_int"))


def dense(m):
    """An exact SRMatrix as an object array, zeros as int 0."""
    return m.to_array(object)


def from_rows(rows, ncols=None):
    """Dense rows as an SRMatrix, zeros dropped; ncols defaults to the
    length of the first row."""
    ncols = len(rows[0]) if ncols is None else ncols
    return SRMatrix(len(rows), ncols, {(i, j): v for i, row in enumerate(rows)
                                       for j, v in enumerate(row) if v})


def integer_equations(rows, ncols):
    """Rows over Q or Q(i) (int, Fraction or QQi entries), each times the
    lcm of its denominators, as `nullspace`'s integer arrays of Python
    ints: (re,) over Q, (re, im) when any entry is a QQi."""
    gaussian = any(isinstance(v, QQi) for row in rows for v in row)
    scaled_rows = []
    for row in rows:
        row = [QQi.from_complex(v) for v in row]
        d = lcm(1, *(x.denominator for v in row for x in (v.re, v.im)))
        scaled_rows.append([(int(v.re * d), int(v.im * d)) for v in row])
    parts = np.array(scaled_rows, dtype=object).reshape(len(rows), ncols, 2)
    return (parts[..., 0], parts[..., 1]) if gaussian else (parts[..., 0],)


def integral_rows(rows, ncols):
    """Rows over Q or Q(i) cleared row by row (`integer_equations`), as the
    integer rows elimination takes: ints, or `ZZi` when any entry is a QQi,
    as the former `exact._clear_denominators` gave them."""
    parts = [p.tolist() for p in integer_equations(rows, ncols)]
    if len(parts) == 1:
        return parts[0]
    return [list(map(ZZi, x, y)) for x, y in zip(*parts)]


def field_nullspace(rows, ncols):
    """The reduced kernel basis of rows over Q or Q(i) as an SRMatrix of
    Fractions, or of QQi when any entry is a QQi, as the former
    `exact.nullspace` returned it."""
    equations = integer_equations(rows, ncols)
    delta, *parts = nullspace(*equations)
    if len(parts) == 1:
        return rational((delta, parts[0]))
    re, im = parts
    r, c = np.nonzero((re != 0) | (im != 0))
    return SRMatrix(*re.shape, {
        (i, j): QQi(Fraction(int(re[i, j]), delta),
                    Fraction(int(im[i, j]), delta))
        for i, j in zip(r.tolist(), c.tolist())})


def omega_matrix(local):
    """`local_omega`'s (D, size, rows, cols, values) as an SRMatrix of
    Fractions."""
    d, size, rows, cols, values = local
    return SRMatrix(size, size, {
        (r, c): Fraction(v, d)
        for r, c, v in zip(rows.tolist(), cols.tolist(), values.tolist())})


def rational(pair):
    """(D, X), X an integer array, as `restrict_local`, `invariant_gram`
    and `invariant_basis` return it: the SRMatrix of Fractions X / D."""
    denom, ints = pair
    r, c = np.nonzero(ints)
    return SRMatrix(*ints.shape, {
        (i, j): Fraction(int(ints[i, j]), denom)
        for i, j in zip(r.tolist(), c.tolist())})


def omega_of(form):
    """`KZForm.omega_inv`, (D, stack), as one SRMatrix of Fractions per
    pair."""
    denom, stack = form.omega_inv
    return {p: rational((denom, m)) for p, m in zip(form.pairs, stack)}


def local_of(m):
    """An exact SRMatrix in `local_omega`'s layout (D, size, rows, cols,
    values), D the lcm of its denominators (`TensorSystem.restrict_local`
    reads it)."""
    d, (ints,) = integral([m])
    return (d, *entries(ints))


def commutator(a, b):
    return a @ b - b @ a


def product(a, b):
    """a @ b of object arrays, as a sum over the nonzeros of both factors:
    the same exact values, at a cost that follows their sparsity."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=object)
    for i, k in zip(*np.nonzero(a)):
        nz = np.flatnonzero(b[k])
        out[i, nz] += a[i, k] * b[k, nz]
    return out


def scaled(a, c):
    """c a for an object array a, formed on its nonzeros only (its zeros
    stay the int 0)."""
    out = a.copy()
    nz = np.nonzero(a)
    out[nz] = a[nz] * c
    return out


def scalar(c, n):
    """c times the n x n identity, as an object array."""
    return c * np.eye(n, dtype=int).astype(object)


def entries(m):
    """A square SRMatrix as (size, rows, cols, values), the local layout of
    `slot_embedding`, values as objects."""
    keys = sorted(m.data)
    r, c = np.array(keys, dtype=np.intp).reshape(-1, 2).T
    return m.nrows, r, c, np.array([m.data[k] for k in keys], dtype=object)


@lru_cache(maxsize=None)
def ref_root_vectors(rep):
    """The former `reps.root_vectors`: e_alpha = [e_i, e_beta] and
    f_alpha = [f_i, f_beta] along `_bracket_scheme`, from the `Fraction`
    matrices of the module, as object arrays."""
    e, f = [[dense(m) for m in view(rep, kind)] for kind in ("e", "f")]
    ems, fms = [], []

    def bracket(a, b):
        return product(a, b) - product(b, a)

    for kind, i, low in reps._bracket_scheme(rep.alg):
        ems.append(e[i] if kind == "simple" else bracket(e[i], ems[low]))
        fms.append(f[i] if kind == "simple" else bracket(f[i], fms[low]))
    return ems, fms


def ref_dual_bases(rep):
    """The former `reps._dual_bases`: x_k = (h_i, e_alpha, f_alpha) and
    x^k = (sum_j G_ij h_j, f_alpha/c_alpha, e_alpha/c_alpha)."""
    ems, fms = ref_root_vectors(rep)
    hs = [dense(m) for m in view(rep, "h")]
    inverse = [1 / c for c in casimir_constants(rep.alg)]
    cartan = [sum((scaled(h, g) for g, h in zip(row, hs)), 0 * hs[0])
              for row in rep.alg.gram]
    return ([*hs, *ems, *fms],
            [*cartan, *(scaled(f, c) for f, c in zip(fms, inverse)),
             *(scaled(e, c) for e, c in zip(ems, inverse))])


def ref_casimir(rep):
    """The former `casimir_matrix`: sum_k x_k x^k."""
    xs, duals = ref_dual_bases(rep)
    return sum((product(x, y) for x, y in zip(xs, duals)), 0 * xs[0])


def ref_local_omega(alg, lam, mu):
    """The former `local_omega`, sum_k x_k (x) x^k, each Kronecker product
    formed on the nonzeros of its factors; an object array."""
    xs, duals = ref_dual_bases(irrep(alg, lam))[0], \
        ref_dual_bases(irrep(alg, mu))[1]
    n = duals[0].shape[0]
    size = xs[0].shape[0] * n
    omega = np.zeros((size, size), dtype=object)
    for x, y in zip(xs, duals):
        (rx, cx), (ry, cy) = np.nonzero(x), np.nonzero(y)
        omega[np.add.outer(rx * n, ry), np.add.outer(cx * n, cy)] += \
            np.multiply.outer(x[rx, cx], y[ry, cy])
    return omega


def slot_strides(system):
    """Total-index strides, slot 0 major."""
    out = [1] * system.n
    for s in range(system.n - 2, -1, -1):
        out[s] = out[s + 1] * system.dims[s + 1]
    return out


def slot_digits(system, g):
    """The slot digits of the total index g."""
    return tuple((g // st) % d for st, d in zip(slot_strides(system),
                                                 system.dims))


def ref_invariant_basis(system):
    """Joint kernel of the diagonal e_i and f_i inside the zero weight
    space, every row built by a digit loop over the total indices."""
    rank = system.alg.rank
    zero = tuple([0] * rank)
    zero_idx = []
    for g in range(system.total_dim):
        acc = [0] * rank
        for s, d in enumerate(slot_digits(system, g)):
            for q, x in enumerate(system.factors[s].basis_weights[d]):
                acc[q] += x
        if tuple(acc) == zero:
            zero_idx.append(g)
    local = {g: q for q, g in enumerate(zero_idx)}
    strides = slot_strides(system)
    rows = {}
    for i in range(rank):
        for kind in ("e", "f"):
            for s, rep in enumerate(system.factors):
                cols = {}
                for (r, c), v in view(rep, kind)[i].data.items():
                    cols.setdefault(c, []).append((r, v))
                for g in zero_idx:
                    d = slot_digits(system, g)[s]
                    for r, v in cols.get(d, ()):
                        g2 = g + (r - d) * strides[s]
                        row = rows.setdefault((kind, i, g2),
                                              [Fraction(0)] * len(zero_idx))
                        row[local[g]] += v
    kernel = field_nullspace(list(rows.values()), len(zero_idx))
    return SRMatrix(system.total_dim, kernel.ncols,
                    {(zero_idx[q], j): v for (q, j), v in kernel.data.items()})
