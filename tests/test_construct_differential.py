"""Integer module construction against the `Fraction` route it replaced.

The reference below is the earlier `reps._construct`, kept here as a
test-only copy: it formed e_i f_j y, the Gram sums and the lowering
columns in `Fraction` arithmetic. The library keeps every column as integer
numerators over one denominator, divides each Gram sum exactly and reads
the lowering columns from the integral echelon rows D E_t. Weights, e, f
and the Gram matrix must be exactly equal, value types included.
"""

import builtins
from fractions import Fraction

import pytest

import kzmono.reps as reps
from kzmono.algebra import build_algebra
from kzmono.blocks import admissible_weights
from kzmono.errors import ConstructionError
from kzmono.exact import SRMatrix, reduced_echelon

_F0 = Fraction(0)
_F1 = Fraction(1)


def ref_construct(alg, lam):
    rank = alg.rank
    alpha = alg.cartan
    weights = [lam]
    index_of = {lam: range(1)}
    e = [{} for _ in range(rank)]
    f = [{} for _ in range(rank)]
    gram = {0: {0: _F1}}

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
                    vec = {y: Fraction(weights[y][i])} if i == j else {}
                    for r, v in e[i].get(y, {}).items():
                        for r2, v2 in f[j].get(r, {}).items():
                            vec[r2] = vec.get(r2, _F0) + v * v2
                    ui.append({r: v for r, v in vec.items() if v})
            s_mat = [[_F0] * len(span) for _ in span]
            for a, (i, x) in enumerate(span):
                gx = gram[x]
                for b in range(a, len(span)):
                    s_mat[a][b] = s_mat[b][a] = sum(
                        (gx[r] * v for r, v in u[i][b].items() if r in gx),
                        start=_F0)
            keep, coeff = reduced_echelon(s_mat, len(span))
            if not keep:
                continue
            new = range(len(weights), len(weights) + len(keep))
            weights.extend([mu] * len(keep))
            index_of[mu] = new
            layer.append(mu)
            for n, a in zip(new, keep):
                gram[n] = {n2: s_mat[a][b] for n2, b in zip(new, keep)
                           if s_mat[a][b]}
                for i in parents:
                    e[i][n] = u[i][a]
            for b, (i, x) in enumerate(span):
                f[i][x] = {n: row[b] for n, row in zip(new, coeff) if row[b]}
    dim = len(weights)

    def matrix(cols):
        return SRMatrix(dim, dim, {(r, c): v for c, col in cols.items()
                                   for r, v in col.items()})

    return weights, [matrix(c) for c in e], [matrix(c) for c in f], \
        matrix(gram)


def _typed(mat):
    return {k: (type(v), v) for k, v in mat.data.items()}


LEVEL_CASES = [("A", 1, 6), ("A", 2, 5), ("A", 3, 2), ("G", 2, 3),
               ("F", 4, 2), ("B", 3, 2), ("C", 3, 2), ("D", 4, 2)]
EXTRA_CASES = [("A", 2, (2, 1)), ("G", 2, (1, 1)), ("B", 3, (0, 0, 1)),
               ("F", 4, (0, 0, 0, 1)), ("C", 3, (1, 0, 1)),
               ("A", 3, (1, 1, 0))]
CASES = sorted({(s, r, lam) for s, r, k in LEVEL_CASES
                for lam in admissible_weights(build_algebra(s, r), k)}
               | set(EXTRA_CASES))


@pytest.mark.parametrize("series, rank, lam", CASES,
                         ids=[f"{s}{r}-{lam}" for s, r, lam in CASES])
def test_integer_construction_matches_fraction_route(series, rank, lam):
    alg = build_algebra(series, rank)
    rep = reps._irrep.__wrapped__(alg, lam)
    weights, e, f, gram = ref_construct(alg, lam)
    assert rep.basis_weights == tuple(weights)
    for got, want in zip((*rep.e, *rep.f, rep.gram), (*e, *f, gram)):
        assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
        assert _typed(got) == _typed(want)


def test_corrupted_gram_numerator_is_refused(monkeypatch):
    # every Gram entry is a sum G_x . u over u's denominator, which must
    # divide it; one more in each numerator over a denominator above 1 is
    # refused at the first such entry, naming the module (G2 (1,1) has 21
    # such entries; the A2 modules here have none)
    monkeypatch.setattr(reps, "divmod", lambda n, d: builtins.divmod(
        n + (d > 1), d), raising=False)
    with pytest.raises(ConstructionError,
                       match=r"G2 weight \(1, 1\): Gram entry at weight "
                             r"\(2, -1\) is not an integer"):
        reps._irrep.__wrapped__(build_algebra("G", 2), (1, 1))


def test_corrupted_lowering_columns_are_refused(monkeypatch):
    # D one too large in the first echelon with two pivots scales those
    # lowering columns wrongly; the Gram numerators of the next weights
    # then leave a remainder
    real = reps.integral_echelon
    seen = []

    def corrupted(rows, ncols):
        keep, det, out = real(rows, ncols)
        if len(keep) > 1 and not seen:
            seen.append(det)
            det += 1
        return keep, det, out

    monkeypatch.setattr(reps, "integral_echelon", corrupted)
    with pytest.raises(ConstructionError,
                       match=r"G2 weight \(1, 1\): Gram entry at weight "
                             r"\(0, 1\) is not an integer"):
        reps._irrep.__wrapped__(build_algebra("G", 2), (1, 1))


@pytest.mark.parametrize("lam", [(1, 1), (2, 1)])
def test_basis_outgrowing_the_weyl_dimension_is_refused(monkeypatch, lam):
    # one more in S[0][0] of every rank-deficient Gram matrix keeps a
    # candidate the radical should have removed; each kept vector spawns
    # more, so without the Weyl bound the lowering never ends
    real = reps.integral_echelon

    def corrupted(rows, ncols):
        keep, det, out = real(rows, ncols)
        if len(keep) < ncols:
            rows = [list(row) for row in rows]
            rows[0][0] += 1
            keep, det, out = real(rows, ncols)
        return keep, det, out

    monkeypatch.setattr(reps, "integral_echelon", corrupted)
    with pytest.raises(ConstructionError,
                       match=rf"A2 weight \({lam[0]}, {lam[1]}\): basis "
                             r"outgrows the Weyl dimension"):
        reps._irrep.__wrapped__(build_algebra("A", 2), lam)
