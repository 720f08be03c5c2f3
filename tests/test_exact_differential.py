"""The integer elimination kernel against the rational kernel it replaced.

The reference below is the earlier `Fraction`/`QQi` kernel: rows keep their
field type after clearing denominators, Bareiss divides with `/` and the
back-substitution runs in the field. The library takes integer equations,
divides ints or `ZZi` Gaussian integers with `//` and back-substitutes on
the same integers, and `nullspace` returns delta times the reduced kernel
basis as integers. Every output (echelon form and pivots, delta times the
reference kernel, the kernel of several row blocks stacked, rank) must be
exactly equal, over Z and Z[i], on rows over Q and Q(i) cleared of their
denominators row by row (`fraction_reference.integer_equations`),
including floats converted exactly into coefficients of more than 700
bits, and on integers past 2^63. The integral echelon rows of a symmetric
matrix, lifted over D, must equal the reference solve on its pivot rows,
the identity module construction relies on, and the inverse Cartan matrix
read from the kernel of [A | -I] must equal the reference solve A X = I.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kzmono.algebra import build_algebra
from kzmono.errors import InvalidAlgebraError
from kzmono.exact import (QQi, ZZi, bareiss_echelon, int_array,
                          integral_echelon, nullspace)

from fraction_reference import integer_equations, integral_rows


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
# integers past 2^63, which no int64 holds, beside small ones
integer = st.one_of(st.just(0), st.integers(-12, 12),
                    st.builds(lambda sign, m: sign * (2 ** 63 + m),
                              st.sampled_from((1, -1)),
                              st.integers(0, 2 ** 70)))
gaussian_integer = st.builds(QQi, integer, integer)


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


def as_arrays(rows, ncols, gaussian):
    """Rows of integral values (int, Fraction or QQi) as `nullspace`'s
    equations: real parts, and imaginary parts over Z[i], each int64 where
    float64 holds every entry and Python ints past that."""
    rows = [[QQi.from_complex(v) for v in row] for row in rows]
    return [int_array(np.array([[int(getattr(v, part)) for v in row]
                                for row in rows],
                               dtype=object).reshape(len(rows), ncols))
            for part in ("re", "im")[:1 + gaussian]]


def as_field_rows(parts):
    """Integer equations as rows over Q, or over Q(i) with an imaginary
    part, for the reference."""
    if len(parts) == 1:
        return [[Fraction(int(v)) for v in row] for row in parts[0]]
    return [[QQi(int(x), int(y)) for x, y in zip(*rows)]
            for rows in zip(*parts)]


def assert_field_values(cols):
    for col in cols:
        for v in col:
            assert type(v) in (Fraction, QQi)


def assert_delta_times_reference(parts, ref):
    """`nullspace` of the integer equations is (delta, K), or (delta, K_re,
    K_im) over Z[i], with K exactly delta times the reference kernel
    vectors, delta > 0 and the gcd of delta and every entry of K 1, and
    every entry an int or an int64."""
    delta, *kernel = nullspace(*parts)
    assert len(kernel) == len(parts)
    assert type(delta) is int and delta > 0
    ncols = parts[0].shape[1]
    for k in kernel:
        assert k.shape == (ncols, len(ref))
        assert {type(v) for v in k.ravel()} <= {int, np.int64}
    im = kernel[1] if len(kernel) == 2 else np.zeros_like(kernel[0])
    got = [[QQi(int(kernel[0][j, c]), int(im[j, c])) for j in range(ncols)]
           for c in range(len(ref))]
    assert got == [[QQi.from_complex(v) * delta for v in vec] for vec in ref]
    assert math.gcd(delta, *(int(v) for k in kernel for v in k.ravel())) == 1
    return delta, kernel


DOMAINS = pytest.mark.parametrize("entries", [rational, gaussian],
                                  ids=["Q", "Q(i)"])


# -- differential tests -----------------------------------------------------

@DOMAINS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_clear_and_echelon_match_reference(entries, data):
    rows, ncols = data.draw(matrices(entries))
    cleared = integral_rows(rows, ncols)
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
    # a row times a nonzero scalar has the same kernel
    rows, ncols = data.draw(matrices(entries))
    equations = integer_equations(rows, ncols)
    ref = ref_nullspace_rows(copy(rows), ncols)
    _delta, kernel = assert_delta_times_reference(equations, ref)
    assert kernel[0].shape[1] == ncols - ref_rank_rows(copy(rows), ncols)


@DOMAINS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_joint_nullspace_is_the_nullspace_of_the_stacked_blocks(entries,
                                                                data):
    # each block cleared on its own, the blocks stacked: their joint kernel
    rows, ncols = data.draw(matrices(entries))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=2)))
    bounds = [0, *cuts, len(rows)]
    gaussian = len(integer_equations(rows, ncols)) == 2
    blocks = [integer_equations(rows[a:b], ncols)
              for a, b in zip(bounds, bounds[1:])]
    if gaussian:    # a block without a QQi has no imaginary part of its own
        blocks = [(*b, 0 * b[0])[:2] for b in blocks]
    stacked = [np.concatenate(part) for part in zip(*blocks)]
    ref = ref_nullspace_rows(copy(rows), ncols)
    _delta, kernel = assert_delta_times_reference(stacked, ref)
    k_im = kernel[1] if gaussian else 0 * kernel[0]
    for block in blocks:
        re, im = block if gaussian else (block[0], 0 * block[0])
        assert not (re.astype(object) @ kernel[0] - im.astype(object) @ k_im
                    ).any()
        assert not (re.astype(object) @ k_im + im.astype(object) @ kernel[0]
                    ).any()


@pytest.mark.parametrize("gaussian", [False, True], ids=["Z", "Z[i]"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_integer_nullspace_is_delta_times_the_reference(gaussian, data):
    rows, ncols = data.draw(matrices(gaussian_integer if gaussian
                                     else integer))
    parts = as_arrays(rows, ncols, gaussian)
    assert_delta_times_reference(parts, ref_nullspace_rows(
        as_field_rows(parts), ncols))


WIDE = 2 ** 63
EDGE_EQUATIONS = {
    "zero": [[0, 0, 0], [0, 0, 0]],
    "full-column-rank": [[1, 2], [3, 4], [5, 7]],
    "one-row": [[2, -4, 6, 0]],
    "past-2^63": [[WIDE + 1, 3, WIDE], [5, 2 ** 70, -7]],
}


@pytest.mark.parametrize("gaussian", [False, True], ids=["Z", "Z[i]"])
@pytest.mark.parametrize("name", sorted(EDGE_EQUATIONS))
def test_integer_nullspace_edge_cases(name, gaussian):
    re = int_array(np.array(EDGE_EQUATIONS[name], dtype=object))
    parts = [re, int_array(np.roll(re, 1, axis=1) - 2 * re)][:1 + gaussian]
    delta, kernel = assert_delta_times_reference(parts, ref_nullspace_rows(
        as_field_rows(parts), re.shape[1]))
    if name == "zero":
        assert delta == 1
        assert np.array_equal(kernel[0], np.eye(3, dtype=np.int64))
    if name == "full-column-rank":
        assert (delta, kernel[0].shape) == (1, (2, 0))
    if name == "past-2^63":
        assert re.dtype == object


@pytest.mark.parametrize("gaussian", [False, True], ids=["Z", "Z[i]"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_integral_echelon_leaves_its_rows_unmodified(gaussian, data):
    rows, ncols = data.draw(matrices(gaussian_integer if gaussian
                                     else integer, min_rows=1))
    parts = [p.tolist() for p in as_arrays(rows, ncols, gaussian)]
    rows = parts[0] if not gaussian else [list(map(ZZi, x, y))
                                          for x, y in zip(*parts)]
    before = copy(rows)
    integral_echelon(rows, ncols)
    assert rows == before


@DOMAINS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_integral_echelon_of_symmetric_matrix_is_its_pivot_solve(entries,
                                                                  data):
    # S = B B^T is symmetric, so its rows at the pivot columns span its row
    # space and S_kk^-1 S[keep, :] is its reduced echelon form; the integral
    # rows are D times it, over Z or Z[i], for S cleared row by row
    b_rows, _ = data.draw(matrices(entries, min_rows=1))
    n = len(b_rows)
    s = [[sum((x * y for x, y in zip(b_rows[i], b_rows[j])),
              start=Fraction(0)) for j in range(n)] for i in range(n)]
    keep = [c for (_r, c) in ref_bareiss_echelon(ref_clear_denominators(s),
                                                 n)]
    pivots, det, integral = integral_echelon(integral_rows(s, n), n)
    assert pivots == keep
    assert all(type(v) in (int, ZZi) for row in integral for v in row)
    lift_det = lifted([[det]])[0][0]
    reduced = [[v / lift_det for v in row] for row in lifted(integral)]
    if keep:
        s_kk = [[s[a][c] for c in keep] for a in keep]
        assert reduced == ref_solve_rows(s_kk, [s[a] for a in keep])
    else:
        assert (det, reduced) == (1, [])
    assert_field_values(reduced)


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
