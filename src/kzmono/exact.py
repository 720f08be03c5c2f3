"""Exact linear algebra over the integers and the Gaussian integers.

Arithmetic runs on integer numpy arrays, int64 while float64 holds every
partial sum and Python ints past that (`exact_dtype`): dense and entrywise
products (`exact_matmul`, `exact_mul`), and sparse operators as their
nonzero entries, matched by index (`join`) and summed by position
(`sum_by_key`). Elimination runs on integer rows, Python ints over Z and
`ZZi` Gaussian integers over Z[i]: Bareiss elimination divides with `//`,
exactly by Sylvester's identity (Bareiss, Math. Comp. 22, 1968), and
`integral_echelon` back-substitutes on the same integers, to the rows
D E_t of the unique reduced form; module construction reads them
directly. The one exact solve reads them too: `nullspace` takes integer
equations, real and optionally imaginary parts, and returns the reduced
kernel basis, the identity on its free coordinates (restriction to its
span is a row selection), as delta times itself in integers. It serves
invariants, blocks, intertwiners and their nonsingularity, and A^-1 of the
Cartan matrix: for nonsingular A, [A | -I] has kernel [A^-1; I].
`Fraction` and `QQi` values are formed only at the boundaries: `QQi`
carries float and Gaussian-rational points in, and `SRMatrix` stores exact
entries where callers read them (the total-space Omega, Casimir matrices
and the block coefficients' view).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np

class QQi:
    """Gaussian rational re + im*i with exact Fraction parts.

    Floats convert exactly (every float is a dyadic rational), so complex
    input points never lose information on the way into the exact layer.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    @classmethod
    def from_complex(cls, z):
        if isinstance(z, QQi):
            return z
        if isinstance(z, complex):
            return cls(Fraction(z.real), Fraction(z.imag))
        return cls(Fraction(z))

    def __add__(self, other):
        other = _coerce_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return QQi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return QQi(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return QQi(self.re * other.re - self.im * other.im,
                   self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QQi((self.re * other.re + self.im * other.im) / n,
                   (self.im * other.re - self.re * other.im) / n)

    def __rtruediv__(self, other):
        other = _coerce_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __eq__(self, other):
        other = _coerce_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"QQi({self.re!r}, {self.im!r})"


class ZZi:
    """Gaussian integer real + imag*i with int parts, for elimination only:
    `nullspace` builds them from the parts of its equations over Z[i].

    The right operand may also be a plain int, which carries .real and
    .imag too (Bareiss starts from the divisor 1). `//` is exact division:
    the divisor must divide the dividend.
    """

    __slots__ = ("real", "imag")

    def __init__(self, real, imag=0):
        self.real = real
        self.imag = imag

    def __add__(self, other):
        return ZZi(self.real + other.real, self.imag + other.imag)

    def __sub__(self, other):
        return ZZi(self.real - other.real, self.imag - other.imag)

    def __mul__(self, other):
        return ZZi(self.real * other.real - self.imag * other.imag,
                   self.real * other.imag + self.imag * other.real)

    def __floordiv__(self, other):
        n = other.real * other.real + other.imag * other.imag
        return ZZi((self.real * other.real + self.imag * other.imag) // n,
                   (self.imag * other.real - self.real * other.imag) // n)

    def __bool__(self):
        return bool(self.real or self.imag)

    def __eq__(self, other):
        return self.real == other.real and self.imag == other.imag

    def __repr__(self):
        return f"ZZi({self.real!r}, {self.imag!r})"


def _coerce_qqi(x):
    if isinstance(x, QQi):
        return x
    if isinstance(x, (int, Fraction)):
        return QQi(x)
    if isinstance(x, complex):
        return QQi.from_complex(x)
    return NotImplemented


class SRMatrix:
    """Sparse matrix with exact entries, dict-of-keys storage only.

    Entries are Fraction or QQi, or int for data scaled into Z (see
    `integral`); one kind per matrix. Zeros are never stored. Shapes are
    explicit because all-zero matrices are common. It holds no arithmetic:
    products and sums run on arrays (`to_array`).
    """

    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, nrows, ncols, data=None):
        self.nrows = nrows
        self.ncols = ncols
        self.data = {} if data is None else data

    @property
    def nnz(self):
        return len(self.data)

    def copy(self):
        return SRMatrix(self.nrows, self.ncols, dict(self.data))

    def __eq__(self, other):
        if not isinstance(other, SRMatrix):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) \
            and self.data == other.data

    def entries(self):
        """Deterministic (row, col, value) iteration, sorted by position."""
        for (r, c) in sorted(self.data):
            yield r, c, self.data[(r, c)]

    def to_array(self, dtype):
        out = np.zeros((self.nrows, self.ncols), dtype=dtype)
        r, c = np.array(list(self.data), dtype=np.intp).reshape(-1, 2).T
        out[r, c] = list(self.data.values())
        return out

    def __repr__(self):
        return f"SRMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


def integral(mats):
    """The lcm D of the entry denominators of rational matrices, and each
    matrix times D as an SRMatrix of ints (D = 1 for integer entries).

    A common scalar changes no span, kernel or commutator beyond a known
    factor, so exact products can run on these integers and divide by a
    power of D once at the end.
    """
    mats = list(mats)
    d = lcm(*{v.denominator for m in mats for v in m.data.values()})
    return d, [SRMatrix(m.nrows, m.ncols, {
        k: v.numerator * (d // v.denominator) for k, v in m.data.items()})
               for m in mats]


def exact_dtype(n, *factors):
    """float if float64 holds exactly every sum of n products whose k-th
    factors are integers of absolute value at most factors[k], else object
    (Python ints): the one place this bound is decided. Under
    n * prod(max(f, 1)) < 2^53 every operand, product and partial sum is
    an integer below 2^53, so BLAS is exact in any summation order, with
    or without fused multiply-adds."""
    return float if n * prod(max(f, 1) for f in factors) < 2**53 else object


def max_abs(a):
    """Largest |entry| of an integer array (int64 or Python ints), an int."""
    return int(np.abs(a).max(initial=0))


def exact_matmul(a, b):
    """a @ b of integer arrays (int64 or Python ints), exactly, in the
    dtype `exact_dtype` picks; a float64 result comes back as int64."""
    dtype = exact_dtype(a.shape[-1], max_abs(a), max_abs(b))
    out = a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)
    return out.astype(np.int64) if dtype is float else out


def int_array(a):
    """An integer array as int64 if float64 holds it, else Python ints."""
    return a.astype(np.int64 if exact_dtype(1, max_abs(a)) is float
                    else object)


def to_float(denom, ints):
    """ints / denom in float64, each entry the float of its Fraction."""
    if exact_dtype(1, max_abs(ints), denom) is float:
        return ints.astype(float) / denom       # both exact: one rounding
    return (ints.astype(object) / denom).astype(float)


def exact_mul(a, b, n=1):
    """a * b of integer arrays that broadcast, exactly: int64 if float64
    holds every sum of n such products, else Python ints."""
    dtype = np.int64 if exact_dtype(n, max_abs(a), max_abs(b)) is float \
        else object
    return a.astype(dtype) * b.astype(dtype)


def join(keys, queries):
    """Every pair of positions (q, t) with queries[q] == keys[t], as two
    index arrays, q ascending: each query meets every equal key."""
    order = np.argsort(keys, kind="stable")
    start = np.searchsorted(keys[order], queries)
    hits = np.searchsorted(keys[order], queries, "right") - start
    q = np.repeat(np.arange(len(queries)), hits)
    return q, order[np.arange(len(q)) - np.repeat(np.cumsum(hits) - hits
                                                    - start, hits)]


def sum_by_key(keys, values):
    """The distinct non-negative keys, ascending, each with the sum of its
    values, in the dtype of values; keys whose sum is zero are dropped."""
    order = np.argsort(keys, kind="stable")
    first = np.flatnonzero(np.diff(keys[order], prepend=-1))
    sums = np.add.reduceat(values[order], first)
    return keys[order][first][sums != 0], sums[sums != 0]


def bareiss_echelon(rows, ncols):
    """Fraction-free row echelon form of integral rows, in place.

    Entries must be all int or all `ZZi`; anything else raises TypeError,
    since `//` on a non-integral value would silently floor. Every row
    holds `ncols` entries, and pivots are searched in all of them. Returns
    the list of pivot (row, col) pairs. Every `//` is exact by Sylvester's
    identity, so entries stay integral.
    """
    kinds = {type(v) for row in rows for v in row}
    if not (kinds <= {int} or kinds <= {ZZi}):
        raise TypeError("bareiss_echelon needs all-int or all-ZZi entries, "
                        f"got {sorted(k.__name__ for k in kinds)}")
    nrows = len(rows)
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        rr = rows[r]
        for i in range(r + 1, nrows):
            ri = rows[i]
            head = ri[c]
            if head:
                for j in range(c + 1, ncols):
                    ri[j] = (piv * ri[j] - head * rr[j]) // prev
                ri[c] = head - head     # the zero of the same ring
            elif prev != piv:
                for j in range(c + 1, ncols):
                    if ri[j]:
                        ri[j] = (piv * ri[j]) // prev
        pivots.append((r, c))
        prev = piv
        r += 1
        if r == nrows:
            break
    return pivots


def integral_echelon(rows, ncols):
    """Reduced row echelon form of dense integral rows, all int or all
    `ZZi`, in integers; the rows given are left as they are.

    Returns the pivot columns, D and the integral rows S_t = D E_t (ints
    or `ZZi`), E_t the reduced rows over Q or Q(i) (1 at their own pivot, 0
    at every other one); D is 1 when there are no pivots.

    The back-substitution stays in Z or Z[i]. Let R_t be the Bareiss rows,
    p_t their pivots at columns c_t and D the last pivot, the determinant
    of the pivot block M of the rows. The reduced rows are
    E = M^-1 times those rows, so S_t = D E_t = adj(M) times them is
    integral. Since R_t = p_t E_t + sum_{t' > t} R_t[c_t'] E_t' over Q,
    the rows are formed bottom-up as
        S_t = (D R_t - sum_{t' > t} R_t[c_t'] S_t') // p_t,
    an exact division.
    """
    work = [list(row) for row in rows]
    pivots = [c for (_r, c) in bareiss_echelon(work, ncols)]
    if not pivots:
        return pivots, 1, []
    det = work[len(pivots) - 1][pivots[-1]]
    reduced = [None] * len(pivots)
    later = []      # (pivot column, its nonzero entries off the pivots)
    for t in range(len(pivots) - 1, -1, -1):
        c = pivots[t]
        bareiss_row = work[t]
        row = [det * v if v else v for v in bareiss_row]
        for c2, entries in later:
            f = bareiss_row[c2]
            if f:
                row[c2] = f - f
                for j, v in entries:
                    row[j] = row[j] - f * v
        piv = bareiss_row[c]
        row = reduced[t] = [v // piv if v else v for v in row]
        later.append((c, [(j, row[j]) for j in range(c + 1, ncols)
                          if row[j]]))
    return pivots, det, reduced


def nullspace(re, im=None):
    """Right kernel of integer equations, as integers.

    re, with im its imaginary part for equations over Z[i], is an integer
    array (int64 or Python ints) of shape (m, ncols). The nonzero rows, in
    order, go through one reduced echelon form (`integral_echelon`), over
    Z or, as `ZZi`, over Z[i]. The reduced kernel basis has one column per
    free column fc: 1 at its own free coordinate, 0 at every other free
    coordinate and -S_t[fc] / D at the pivot of row t. Returns (delta, K)
    over Z and (delta, K_re, K_im) over Z[i]: K = delta times that basis,
    integer arrays as `int_array` picks them, and delta > 0 the lcm of the
    reduced denominators of its entries. All entries are first put over
    the one denominator N(D) = |D|^2, with numerators -S_t[fc] conj(D);
    dividing it and every numerator by their gcd gives delta and K.
    """
    nonzero = re != 0 if im is None else (re != 0) | (im != 0)
    keep = nonzero.any(axis=1)
    rows = re[keep].tolist() if im is None else [
        list(map(ZZi, x, y)) for x, y in zip(re[keep].tolist(),
                                             im[keep].tolist())]
    pivots, det, reduced = integral_echelon(rows, re.shape[1])
    free = sorted(set(range(re.shape[1])) - set(pivots))
    x, y = np.array([[v.real, v.imag] for row in reduced for v in map(
        row.__getitem__, free)], dtype=object).reshape(
        len(pivots), len(free), 2).transpose(2, 0, 1)
    a, b = det.real, det.imag           # an int carries .real and .imag
    denom = a * a + b * b
    nums = np.zeros((2, re.shape[1], len(free)), dtype=object)
    nums[0, free, np.arange(len(free))] = denom
    nums[:, pivots] = np.stack([-(x * a + y * b), x * b - y * a])
    g = gcd(denom, *nums.ravel().tolist())
    return denom // g, *(int_array(part // g)
                         for part in nums[:1 if im is None else 2])
