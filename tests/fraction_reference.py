"""The former `Fraction` route of the root vectors, dual bases and
Casimirs, as a test-only reference on numpy object arrays.

`kzmono.reps` builds them from each module's integers (`generators`,
`local_omega`); the functions here follow the earlier dict-of-keys route
step by step, from the module's `Fraction` matrices e, f, h: root vectors
by iterated commutators, dual bases by scaling, and Omega as the sum of
the Kronecker products x_k (x) x^k. Products run over the nonzeros of
both factors (`product`), so E6 and F4 modules stay within a second. The
helpers the tests share sit here too: SRMatrix to object array (`dense`),
to entry arrays (`entries`) and to `local_omega`'s layout (`local_of`),
and back (`omega_matrix`); a (denominator, integer array) pair as the
SRMatrix of Fractions it stands for (`rational`), and a form's Omega stack
as one such matrix per pair (`omega_of`).
"""

from fractions import Fraction
from functools import lru_cache

import numpy as np

from kzmono import reps
from kzmono.exact import SRMatrix, integral
from kzmono.reps import casimir_constants, irrep


def dense(m):
    """An exact SRMatrix as an object array, zeros as int 0."""
    return m.to_array(object)


def omega_matrix(local):
    """`local_omega`'s (D, size, rows, cols, values) as an SRMatrix of
    Fractions."""
    d, size, rows, cols, values = local
    return SRMatrix(size, size, {
        (r, c): Fraction(v, d)
        for r, c, v in zip(rows.tolist(), cols.tolist(), values.tolist())})


def rational(pair):
    """(D, X), X an integer array, as `restrict_local` and
    `invariant_gram` return it: the SRMatrix of Fractions X / D."""
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
    e, f = [dense(m) for m in rep.e], [dense(m) for m in rep.f]
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
    hs = [dense(m) for m in rep.h]
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
