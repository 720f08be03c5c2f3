"""Exact linear algebra over the rationals and Gaussian rationals.

`SRMatrix` is storage only: dict-of-keys with `Fraction` (or `QQi`)
entries, read at the boundaries and by elimination. Arithmetic runs on
integer numpy arrays, int64 while float64 holds every partial sum and
Python ints past that (`exact_dtype`): dense and entrywise products
(`exact_matmul`, `exact_mul`), and sparse operators as their nonzero
entries, matched by index (`join`) and summed by position (`sum_by_key`).
Elimination runs on integers: `_clear_denominators` scales each row by the
lcm of its denominators into Python ints (over Q) or `ZZi` Gaussian
integers (over Q(i)), and Bareiss elimination divides with `//`, exactly
by Sylvester's identity (Bareiss, Math. Comp. 22, 1968). `integral_echelon`
back-substitutes on the same integers, to the rows D E_t of the unique
reduced form; module construction reads them directly, and data over Z or
Z[i] (see `integral`) enters elimination as it is. The one exact solve
reads them too: `nullspace`, the joint kernel of sparse blocks, the
identity on its free coordinates (restriction to its span is a row
selection), lifts only the entries S_t[j] / D at the free columns j, into
`QQi` over Q(i) and `Fraction` over Q. A rank is the column count minus
the kernel's; for nonsingular A, [A | -I] has kernel [A^-1; I].
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

import numpy as np

_ZERO = Fraction(0)


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
    """Gaussian integer real + imag*i with int parts, for elimination only.

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

    def __neg__(self):
        return ZZi(-self.real, -self.imag)

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

    Entries are Fraction or QQi over a field, or int or ZZi for data
    scaled into Z or Z[i] (see `integral`); one kind per matrix. Zeros are
    never stored. Shapes are explicit because all-zero matrices are common.
    It holds no arithmetic: products and sums run on arrays (`to_array`).
    """

    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, nrows, ncols, data=None):
        self.nrows = nrows
        self.ncols = ncols
        self.data = {} if data is None else data

    @classmethod
    def from_rows(cls, rows, ncols=None):
        nrows = len(rows)
        ncols = len(rows[0]) if ncols is None and rows else (ncols or 0)
        data = {}
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if v:
                    data[(i, j)] = v
        return cls(nrows, ncols, data)

    @property
    def nnz(self):
        return len(self.data)

    def get(self, i, j):
        return self.data.get((i, j), _ZERO)

    def copy(self):
        return SRMatrix(self.nrows, self.ncols, dict(self.data))

    def is_zero(self):
        return not self.data

    def __eq__(self, other):
        if not isinstance(other, SRMatrix):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) \
            and self.data == other.data

    def entries(self):
        """Deterministic (row, col, value) iteration, sorted by position."""
        for (r, c) in sorted(self.data):
            yield r, c, self.data[(r, c)]

    def rows_with_support(self):
        return sorted({r for (r, _c) in self.data})

    def to_rows(self):
        """Dense rows, filled with the zero of the ring of the entries."""
        zero = _ring_zero(self.data.values())
        rows = [[zero] * self.ncols for _ in range(self.nrows)]
        for (r, c), v in self.data.items():
            rows[r][c] = v
        return rows

    def to_array(self, dtype):
        out = np.zeros((self.nrows, self.ncols), dtype=dtype)
        r, c = np.array(list(self.data), dtype=np.intp).reshape(-1, 2).T
        out[r, c] = list(self.data.values())
        return out

    def submatrix_rows(self, rows):
        index = {r: i for i, r in enumerate(rows)}
        data = {}
        for (r, c), v in self.data.items():
            i = index.get(r)
            if i is not None:
                data[(i, c)] = v
        return SRMatrix(len(rows), self.ncols, data)

    def __repr__(self):
        return f"SRMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


def _ring_zero(values):
    """The zero of the widest value type present, in the order QQi, ZZi,
    Fraction, int; Fraction(0) when there are no values."""
    kinds = {type(v) for v in values}
    for kind in (QQi, ZZi, Fraction, int):
        if kind in kinds:
            return kind(0)
    return _ZERO


def integral(mats):
    """The lcm D of the entry denominators of rational matrices, and each
    matrix times D as an SRMatrix of ints (D = 1 for integer entries).

    A common scalar changes no span, kernel or commutator beyond a known
    factor, so exact products can run on these integers and divide by a
    power of D once at the end.
    """
    mats = list(mats)
    d = lcm(*{v.denominator for m in mats for v in m.data.values()})
    return d, [SRMatrix(m.nrows, m.ncols,
                        {k: _scaled(v, d) for k, v in m.data.items()})
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


def _row_denominator_lcm(row):
    d = 1
    for v in row:
        if isinstance(v, QQi):
            if v.re:
                d = lcm(d, v.re.denominator)
            if v.im:
                d = lcm(d, v.im.denominator)
        elif v:
            d = lcm(d, v.denominator)
    return d


def _scaled(q, d):
    """The integer q * d for a rational q whose denominator divides d."""
    return q.numerator * (d // q.denominator)


def _clear_denominators(rows):
    """Rows scaled by the lcm of their denominators, as integral rows.

    Entries become ints when every input entry is rational, and `ZZi` when
    any entry is a `QQi`, so one matrix is always over one ring. Rows that
    are already integral (all int, or holding `ZZi`) have nothing to
    clear: they come back as copies, unscaled, so an image computed over Z
    or Z[i] enters elimination without a round trip through the fields,
    and `bareiss_echelon` refuses them if they mix rings.
    """
    kinds = {type(v) for row in rows for v in row}
    if kinds <= {int} or ZZi in kinds:
        return [list(row) for row in rows]
    gaussian = QQi in kinds
    out = []
    for row in rows:
        d = _row_denominator_lcm(row)
        if gaussian:
            out.append([ZZi(_scaled(v.re, d), _scaled(v.im, d))
                        if isinstance(v, QQi) else ZZi(_scaled(v, d))
                        for v in row])
        else:
            out.append([_scaled(v, d) for v in row])
    return out


def _lift(v):
    """An integral echelon entry back in its field: Fraction or QQi."""
    return QQi(v.real, v.imag) if type(v) is ZZi else Fraction(v)


def bareiss_echelon(rows, ncols):
    """Fraction-free row echelon form of integral rows, in place.

    Entries must be all int or all `ZZi` (as `_clear_denominators` returns
    them); anything else raises TypeError, since `//` on a non-integral
    value would silently floor. Every row holds `ncols` entries, and pivots
    are searched in all of them. Returns the list of pivot (row, col)
    pairs. Every `//` is exact by Sylvester's identity, so entries stay
    integral.
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
    """Reduced row echelon form of dense rows over Q or Q(i), in integers.

    Returns the pivot columns, D and the integral rows S_t = D E_t (ints
    or `ZZi`), E_t the reduced rows (1 at their own pivot, 0 at every other
    one); D is 1 when there are no pivots.

    The back-substitution stays in Z or Z[i]. Let R_t be the Bareiss rows,
    p_t their pivots at columns c_t and D the last pivot, the determinant
    of the pivot block M of the cleared rows. The reduced rows are
    E = M^-1 times those rows, so S_t = D E_t = adj(M) times them is
    integral. Since R_t = p_t E_t + sum_{t' > t} R_t[c_t'] E_t' over Q,
    the rows are formed bottom-up as
        S_t = (D R_t - sum_{t' > t} R_t[c_t'] S_t') // p_t,
    an exact division.
    """
    work = _clear_denominators(rows)
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


def nullspace(*mats):
    """Joint right kernel of SRMatrix blocks with one column count.

    The supported rows of every block, in the order given, go through one
    reduced echelon form (`integral_echelon`); the result has one column
    per free column fc, 1 at its own free coordinate, 0 at every other free
    coordinate and -S_t[fc] / D at the pivot of row t. Blocks
    may hold field values (Fraction, QQi) or integers (int, ZZi); the
    kernel is over Q(i) when any value is Gaussian and over Q otherwise,
    and every one of its entries, the 1s included, is a QQi or a Fraction
    accordingly.
    """
    ncols = mats[0].ncols
    gaussian = any(type(v) in (QQi, ZZi) for mat in mats
                   for v in mat.data.values())
    one = QQi(1) if gaussian else Fraction(1)
    rows = []
    for mat in mats:
        if mat.ncols != ncols:
            raise ValueError(f"column count mismatch: {mat.ncols} "
                             f"vs {ncols}")
        rows.extend(mat.submatrix_rows(mat.rows_with_support()).to_rows())
    pivots, det, integral_rows = integral_echelon(rows, ncols)
    lifted_det = _lift(det)
    free_cols = sorted(set(range(ncols)) - set(pivots))
    out = SRMatrix(ncols, len(free_cols))
    for j, fc in enumerate(free_cols):
        out.data[(fc, j)] = one
        for c, row in zip(pivots, integral_rows):
            if row[fc]:
                out.data[(c, j)] = -(_lift(row[fc]) / lifted_det)
    return out

