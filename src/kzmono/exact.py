"""Exact sparse linear algebra over the rationals and Gaussian rationals.

Matrices are dict-of-keys sparse with `Fraction` (or `QQi`) entries. The
elimination kernel runs on integers from clearing to the reduced form:
`_clear_denominators` scales each row by the lcm of its denominators into
Python ints (over Q) or `ZZi` Gaussian integers (over Q(i)), and Bareiss
elimination divides with `//`. Every such division is exact by Sylvester's
identity: each updated entry is a minor of the integral input, divisible
by the previous pivot (Bareiss, Math. Comp. 22, 1968). `integral_echelon`
back-substitutes on the same integers, and `reduced_echelon` lifts each
entry of that unique reduced form into Q or Q(i) once, so `Fraction`/`QQi`
values appear only where data enters and leaves; a caller whose data stays
integral (module construction) reads the integral rows D E_t directly.
Data already over Z or Z[i] (an image computed from integer-scaled
matrices; see `integral`) enters elimination as it is. The one exact solve
reads that form: `nullspace`, the joint kernel of sparse blocks. Its basis
is the identity on its free coordinates, so restriction to its span is a
row selection, and it holds one value type: `QQi` over Q(i), `Fraction`
over Q. A rank is the column count minus the kernel's, and an inverse is
a kernel too: for nonsingular A the kernel of [A | -I] is spanned by
[A^-1; I], with its unit coordinates on the I block. No floats enter this
module.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

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
    """Sparse matrix with exact entries, dict-of-keys storage.

    Entries are Fraction or QQi (one field per matrix); zeros are never
    stored. Shapes are explicit because all-zero matrices are common.
    """

    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, nrows, ncols, data=None):
        self.nrows = nrows
        self.ncols = ncols
        self.data = {} if data is None else data

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): Fraction(1) for i in range(n)})

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

    def put(self, i, j, v):
        if v:
            self.data[(i, j)] = v
        else:
            self.data.pop((i, j), None)

    def add_at(self, i, j, v):
        if not v:
            return
        cur = self.data.get((i, j))
        new = v if cur is None else cur + v
        if new:
            self.data[(i, j)] = new
        else:
            del self.data[(i, j)]

    def copy(self):
        return SRMatrix(self.nrows, self.ncols, dict(self.data))

    def is_zero(self):
        return not self.data

    def __eq__(self, other):
        if not isinstance(other, SRMatrix):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) \
            and self.data == other.data

    def __add__(self, other):
        self._check_shape(other)
        out = dict(self.data)
        res = SRMatrix(self.nrows, self.ncols, out)
        for k, v in other.data.items():
            res.add_at(k[0], k[1], v)
        return res

    def __sub__(self, other):
        self._check_shape(other)
        out = dict(self.data)
        res = SRMatrix(self.nrows, self.ncols, out)
        for k, v in other.data.items():
            res.add_at(k[0], k[1], -v)
        return res

    def __neg__(self):
        return SRMatrix(self.nrows, self.ncols,
                        {k: -v for k, v in self.data.items()})

    def scale(self, c):
        if not c:
            return SRMatrix(self.nrows, self.ncols)
        return SRMatrix(self.nrows, self.ncols,
                        {k: c * v for k, v in self.data.items()})

    def __matmul__(self, other):
        self._check_inner(other)
        rows_of_other = {}
        for (r, c), v in other.data.items():
            rows_of_other.setdefault(r, []).append((c, v))
        res = SRMatrix(self.nrows, other.ncols)
        for (i, k), a in self.data.items():
            hits = rows_of_other.get(k)
            if hits is None:
                continue
            for j, b in hits:
                res.add_at(i, j, a * b)
        return res

    def transpose(self):
        return SRMatrix(self.ncols, self.nrows,
                        {(c, r): v for (r, c), v in self.data.items()})

    def map_values(self, fn):
        return SRMatrix(self.nrows, self.ncols,
                        {k: fn(v) for k, v in self.data.items()})

    def entries(self):
        """Deterministic (row, col, value) iteration, sorted by position."""
        for (r, c) in sorted(self.data):
            yield r, c, self.data[(r, c)]

    def rows_with_support(self):
        return sorted({r for (r, _c) in self.data})

    def columns_index(self):
        cols = {}
        for (r, c), v in self.data.items():
            cols.setdefault(c, []).append((r, v))
        return cols

    def max_abs(self):
        """Largest |entry| as a Fraction (|re| + |im| for Gaussian values)."""
        best = Fraction(0)
        for v in self.data.values():
            size = abs(v.re) + abs(v.im) if isinstance(v, QQi) else abs(v)
            if size > best:
                best = size
        return best

    def to_rows(self):
        """Dense rows, filled with the zero of the ring of the entries."""
        zero = _ring_zero(self.data.values())
        rows = [[zero] * self.ncols for _ in range(self.nrows)]
        for (r, c), v in self.data.items():
            rows[r][c] = v
        return rows

    def to_complex(self):
        out = np.zeros((self.nrows, self.ncols), dtype=complex)
        for (r, c) in sorted(self.data):
            out[r, c] = complex(self.data[(r, c)])
        return out

    def submatrix_rows(self, rows):
        index = {r: i for i, r in enumerate(rows)}
        data = {}
        for (r, c), v in self.data.items():
            i = index.get(r)
            if i is not None:
                data[(i, c)] = v
        return SRMatrix(len(rows), self.ncols, data)

    def _check_shape(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(f"shape mismatch: {(self.nrows, self.ncols)} "
                             f"vs {(other.nrows, other.ncols)}")

    def _check_inner(self, other):
        if self.ncols != other.nrows:
            raise ValueError(f"inner dimension mismatch: {self.ncols} "
                             f"vs {other.nrows}")

    def __repr__(self):
        return f"SRMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


def commutator(a, b):
    return a @ b - b @ a


def kron(a, b):
    """Kronecker product a (x) b; the index of a is the major one."""
    data = {}
    for (r1, c1), v1 in a.data.items():
        for (r2, c2), v2 in b.data.items():
            data[(r1 * b.nrows + r2, c1 * b.ncols + c2)] = v1 * v2
    return SRMatrix(a.nrows * b.nrows, a.ncols * b.ncols, data)


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
    """The reduced echelon form of `reduced_echelon` before its lift.

    Returns the pivot columns, D and the integral rows S_t = D E_t (ints
    or `ZZi`), E_t the reduced rows; D is 1 when there are no pivots.

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


def reduced_echelon(rows, ncols):
    """Reduced row echelon form of dense rows over Q or Q(i), exactly.

    `bareiss_echelon` on the cleared rows, then one back-substitution on
    the same integers (`integral_echelon`). Returns the pivot columns and
    their rows as `Fraction`/`QQi` values: 1 at their own pivot, 0 at
    every other one. Each entry is lifted once, as S_t[j] / D.
    """
    pivots, det, integral_rows = integral_echelon(rows, ncols)
    lifted_det = _lift(det)
    return pivots, [[_lift(v) / lifted_det if v else _lift(v) for v in row]
                    for row in integral_rows]


def nullspace(*mats):
    """Joint right kernel of SRMatrix blocks with one column count.

    The supported rows of every block, in the order given, go through one
    reduced echelon form; the result has one column per free column, 1 at
    its own free coordinate and 0 at every other free coordinate. Blocks
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
    pivots, reduced = reduced_echelon(rows, ncols)
    free_cols = sorted(set(range(ncols)) - set(pivots))
    out = SRMatrix(ncols, len(free_cols))
    for j, fc in enumerate(free_cols):
        out.data[(fc, j)] = one
        for c, row in zip(pivots, reduced):
            if row[fc]:
                out.data[(c, j)] = -row[fc]
    return out

