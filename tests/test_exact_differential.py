"""The integer elimination kernel against the rational kernel it replaced.

The reference below is the earlier `Fraction`/`QQi` kernel: rows keep their
field type after clearing denominators, Bareiss divides with `/` and the
back-substitution runs in the field. The library clears into ints or `ZZi`
Gaussian integers, divides with `//` and back-substitutes on the same
integers. Every output (cleared rows, echelon form and pivots, nullspace,
the joint nullspace of several row blocks, rank) must be exactly equal,
over Q and over Q(i), including floats converted exactly into
coefficients of more than 700 bits. The reduced echelon form of a symmetric
matrix must equal the reference solve on its pivot rows, the identity
module construction relies on, and the inverse Cartan matrix read from
the kernel of [A | -I] must equal the reference solve A X = I.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kzmono.algebra import build_algebra
from kzmono.errors import InvalidAlgebraError
from kzmono.exact import (QQi, SRMatrix, ZZi, _clear_denominators, _lift,
                          bareiss_echelon, integral_echelon, nullspace,
                          reduced_echelon)


# -- reference kernel (rational arithmetic throughout) ----------------------

def ref_row_denominator_lcm(row):
    d = 1
    for v in row:
        if isinstance(v, QQi):
            if v.re:
                d = math.lcm(d, v.re.denominator)
            if v.im:
                d = math.lcm(d, v.im.denominator)
        elif v:
            d = math.lcm(d, v.denominator)
    return d


def ref_clear_denominators(rows):
    out = []
    for row in rows:
        d = ref_row_denominator_lcm(row)
        out.append([v * d for v in row] if d != 1 else list(row))
    return out


def ref_bareiss_echelon(rows, ncols, width=None):
    nrows = len(rows)
    width = ncols if width is None else width
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
                for j in range(c + 1, width):
                    ri[j] = (piv * ri[j] - head * rr[j]) / prev
                ri[c] = 0
            elif prev != piv:
                for j in range(c + 1, width):
                    if ri[j]:
                        ri[j] = (piv * ri[j]) / prev
        pivots.append((r, c))
        prev = piv
        r += 1
        if r == nrows:
            break
    return pivots


def ref_nullspace_rows(rows, ncols):
    work = ref_clear_denominators(rows)
    pivots = ref_bareiss_echelon(work, ncols)
    pivot_set = {c for (_r, c) in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for (r, c) in reversed(pivots):
            s = sum((work[r][j] * x[j] for j in range(c + 1, ncols) if x[j]),
                    start=Fraction(0))
            x[c] = -s / work[r][c]
        basis.append(x)
    return basis


def ref_rank_rows(rows, ncols):
    return len(ref_bareiss_echelon(ref_clear_denominators(rows), ncols))


def ref_solve_rows(a_rows, b_rows):
    n = len(a_rows)
    m = len(b_rows[0]) if b_rows else 0
    aug = ref_clear_denominators([list(a_rows[i]) + list(b_rows[i])
                                  for i in range(n)])
    pivots = ref_bareiss_echelon(aug, n, width=n + m)
    if len(pivots) != n:
        raise ValueError("singular system")
    x = [[None] * m for _ in range(n)]
    for (r, c) in reversed(pivots):
        for j in range(m):
            s = aug[r][n + j]
            for c2 in range(c + 1, n):
                if aug[r][c2] and x[c2][j]:
                    s = s - aug[r][c2] * x[c2][j]
            x[c][j] = s / aug[r][c]
    return x


# -- strategies -------------------------------------------------------------

small = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 9))


@st.composite
def wide_float(draw):
    """Fraction(float) of an odd mantissa times 2^-e, e >= 700."""
    mant = 2 * draw(st.integers(0, 2 ** 40)) + 1
    exp = draw(st.integers(700, 1000))
    sign = draw(st.sampled_from((1, -1)))
    return Fraction(sign * math.ldexp(mant, -exp))


rational = st.one_of(st.just(Fraction(0)), small, wide_float())
gaussian = st.one_of(st.just(QQi(0)), st.just(Fraction(0)),
                     st.builds(QQi, rational, rational))


@st.composite
def matrices(draw, entries, min_rows=0, max_dim=6, ncols=None):
    """Dense rows with zero rows and combinations of earlier rows mixed in,
    so zero, rank-deficient, wide and tall shapes all occur."""
    nrows = draw(st.integers(min_rows, max_dim))
    if ncols is None:
        ncols = draw(st.integers(1, max_dim))
    rows = []
    for i in range(nrows):
        kind = draw(st.sampled_from(("free", "free", "zero", "combo")))
        if kind == "zero":
            rows.append([Fraction(0)] * ncols)
        elif kind == "combo" and i > 0:
            a = rows[draw(st.integers(0, i - 1))]
            b = rows[draw(st.integers(0, i - 1))]
            ca, cb = draw(entries), draw(entries)
            rows.append([ca * x + cb * y for x, y in zip(a, b)])
        else:
            rows.append([draw(entries) for _ in range(ncols)])
    return rows, ncols


def lifted(rows):
    return [[QQi(v.real, v.imag) if type(v) is ZZi else Fraction(v)
             for v in row] for row in rows]


def copy(rows):
    return [list(row) for row in rows]


def assert_field_values(cols):
    for col in cols:
        for v in col:
            assert type(v) in (Fraction, QQi)


DOMAINS = pytest.mark.parametrize("entries", [rational, gaussian],
                                  ids=["Q", "Q(i)"])


# -- differential tests -----------------------------------------------------

@DOMAINS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_clear_and_echelon_match_reference(entries, data):
    rows, ncols = data.draw(matrices(entries))
    cleared = _clear_denominators(rows)
    ref = ref_clear_denominators(rows)
    assert lifted(cleared) == ref
    kinds = {type(v) for row in cleared for v in row}
    assert kinds <= {int} or kinds <= {ZZi}
    pivots = bareiss_echelon(cleared, ncols)
    assert pivots == ref_bareiss_echelon(ref, ncols)
    assert lifted(cleared) == ref


@DOMAINS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_nullspace_and_rank_match_reference(entries, data):
    rows, ncols = data.draw(matrices(entries))
    cols = nullspace(SRMatrix.from_rows(copy(rows), ncols))
    ref = ref_nullspace_rows(copy(rows), ncols)
    assert cols == SRMatrix.from_rows(ref, ncols).transpose()
    assert_field_values([cols.data.values()])
    assert cols.ncols == ncols - ref_rank_rows(copy(rows), ncols)


@DOMAINS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_joint_nullspace_is_the_nullspace_of_the_stacked_blocks(entries,
                                                                data):
    rows, ncols = data.draw(matrices(entries))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=2)))
    bounds = [0, *cuts, len(rows)]
    blocks = [SRMatrix.from_rows(rows[a:b], ncols)
              for a, b in zip(bounds, bounds[1:])]
    joint = nullspace(*blocks)
    assert joint == nullspace(SRMatrix.from_rows(rows, ncols))
    ref = ref_nullspace_rows(copy(rows), ncols)
    assert joint == SRMatrix.from_rows(ref, ncols).transpose()
    for block in blocks:
        assert (block @ joint).is_zero()


@DOMAINS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reduced_echelon_of_symmetric_matrix_is_its_pivot_solve(entries,
                                                                 data):
    # S = B B^T is symmetric, so its rows at the pivot columns span its row
    # space and S_kk^-1 S[keep, :] is its reduced echelon form
    b_rows, _ = data.draw(matrices(entries, min_rows=1))
    n = len(b_rows)
    s = [[sum((x * y for x, y in zip(b_rows[i], b_rows[j])),
              start=Fraction(0)) for j in range(n)] for i in range(n)]
    keep = [c for (_r, c) in ref_bareiss_echelon(ref_clear_denominators(s),
                                                 n)]
    pivots, reduced = reduced_echelon(copy(s), n)
    assert pivots == keep
    if keep:
        s_kk = [[s[a][c] for c in keep] for a in keep]
        assert reduced == ref_solve_rows(s_kk, [s[a] for a in keep])
    else:
        assert reduced == []
    assert_field_values(reduced)
    # the integral core: the same pivots and D times the reduced rows
    core_pivots, det, integral_rows = integral_echelon(copy(s), n)
    assert core_pivots == pivots
    assert all(type(v) in (int, ZZi) for row in integral_rows for v in row)
    assert [[_lift(v) for v in row] for row in integral_rows] == \
        [[x * _lift(det) for x in row] for row in reduced]


def supported_types(max_rank):
    for series in "ABCDEFG":
        for rank in range(1, max_rank + 1):
            try:
                build_algebra(series, rank)
            except InvalidAlgebraError:
                continue
            yield series, rank


@pytest.mark.parametrize("series, rank", list(supported_types(8)))
def test_cartan_inverse_is_the_reference_solve(series, rank):
    alg = build_algebra(series, rank)
    a = [[Fraction(v) for v in row] for row in alg.cartan]
    eye = [[Fraction(int(i == j)) for j in range(rank)] for i in range(rank)]
    inv = [list(row) for row in alg.cartan_inverse]
    assert inv == ref_solve_rows(a, eye)
    assert {type(v) for row in inv for v in row} == {Fraction}
    assert [[sum(a[i][k] * inv[k][j] for k in range(rank))
             for j in range(rank)] for i in range(rank)] == eye


@settings(max_examples=20, deadline=None)
@given(value=wide_float())
def test_wide_float_coefficients_exceed_700_bits(value):
    assert value.denominator.bit_length() > 700
