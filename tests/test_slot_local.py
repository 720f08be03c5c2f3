"""Slot-local tensor operators against a total-space digit-loop reference.

The reference below walks every total-space index, splits it into slot
digits and applies one-slot matrices there; both Omega routes are assembled
and compared on the full space, and the block kernel is the total-space
power F(z)^(k+1) applied to the invariant basis. The library builds the same
objects slot-locally through TensorSystem.apply_local; every output must be
exactly equal.
"""

from fractions import Fraction

import pytest

import kzmono.reps as reps
from kzmono.algebra import build_algebra, casimir_scalar, pairing, weight_add
from kzmono.blocks import block_subspace, highest_root_lowering
from kzmono.errors import ConstructionError
from kzmono.exact import (QQi, SRMatrix, _clear_denominators, bareiss_echelon,
                          nullspace)
from kzmono.reps import (casimir_constants, local_omega, root_vectors,
                         tensor_system)

A1 = build_algebra("A", 1)
A2 = build_algebra("A", 2)
G2 = build_algebra("G", 2)

_F0 = Fraction(0)
_F1 = Fraction(1)

# (algebra, weights, level, points); the last case has float points
CASES = [
    (A1, ((1,),) * 6, 2, (0, 1, 3, 7, 15, 31)),
    (A2, ((1, 0), (0, 1), (1, 0), (0, 1)), 2, (0, 1, 3, 7)),
    (G2, ((1, 0),) * 3, 1, (0, 1, 2)),
    (A1, ((1,), (2,), (1,), (2,)), 2, (0.3 + 0.1j, 1.7, -2.25, 3.1j)),
]
IDS = ["A1^6", "A2-4pt", "G2^3", "A1-mixed-float"]


def _digits(system, g):
    return tuple((g // system.strides[s]) % system.dims[s]
                 for s in range(system.n))


def ref_slot_operator(system, assignments):
    """Total-space matrix of a product of one-slot operators, digit by digit."""
    cols = [(s, m.columns_index()) for s, m in sorted(assignments.items())]
    out = SRMatrix(system.total_dim, system.total_dim)
    for g in range(system.total_dim):
        dg = _digits(system, g)
        partial = [(g, _F1)]
        for s, colidx in cols:
            hits = colidx.get(dg[s])
            if not hits:
                partial = []
                break
            partial = [(gb + (r - dg[s]) * system.strides[s], vb * v)
                       for gb, vb in partial for r, v in hits]
        for g2, v in partial:
            out.add_at(g2, g, v)
    return out


def ref_omega(system, i, j):
    """Omega^{ij} by both routes on the total space; they must agree."""
    alg = system.alg
    cs = casimir_constants(alg)
    ei, fi = root_vectors(system.factors[i])
    ej, fj = root_vectors(system.factors[j])
    wi = system.factors[i].basis_weights
    wj = system.factors[j].basis_weights
    full = SRMatrix(system.total_dim, system.total_dim)
    pair = SRMatrix(system.total_dim, system.total_dim)
    shift = casimir_scalar(alg, system.weights[i]) \
        + casimir_scalar(alg, system.weights[j])
    for g in range(system.total_dim):
        dg = _digits(system, g)
        full.put(g, g, pairing(alg, wi[dg[i]], wj[dg[j]]))
        s = weight_add(wi[dg[i]], wj[dg[j]])
        pair.put(g, g, pairing(alg, s, s) - shift)
    for k, c in enumerate(cs):
        inv_c = 1 / c
        full = full + (ref_slot_operator(system, {i: ei[k], j: fj[k]})
                       + ref_slot_operator(system, {i: fi[k], j: ej[k]})
                       ).scale(inv_c)
        ee = ref_slot_operator(system, {i: ei[k]}) \
            + ref_slot_operator(system, {j: ej[k]})
        ff = ref_slot_operator(system, {i: fi[k]}) \
            + ref_slot_operator(system, {j: fj[k]})
        pair = pair + (ee @ ff + ff @ ee).scale(inv_c)
    assert pair.scale(Fraction(1, 2)) == full
    return full


def ref_swap(system, i):
    out = SRMatrix(system.total_dim, system.total_dim)
    for g in range(system.total_dim):
        dg = list(_digits(system, g))
        dg[i], dg[i + 1] = dg[i + 1], dg[i]
        out.data[(sum(d * s for d, s in zip(dg, system.strides)), g)] = _F1
    return out


def ref_invariant_basis(system):
    """Joint kernel of the diagonal e_i, f_i inside the zero weight space."""
    rank = system.alg.rank
    zero = tuple([0] * rank)
    zero_idx = []
    for g in range(system.total_dim):
        acc = [0] * rank
        for s, d in enumerate(_digits(system, g)):
            for q, x in enumerate(system.factors[s].basis_weights[d]):
                acc[q] += x
        if tuple(acc) == zero:
            zero_idx.append(g)
    local = {g: q for q, g in enumerate(zero_idx)}
    rows = {}
    for i in range(rank):
        for tag in ("e", "f"):
            for s, rep in enumerate(system.factors):
                cols = (rep.e[i] if tag == "e" else rep.f[i]).columns_index()
                for g in zero_idx:
                    d = _digits(system, g)[s]
                    for r, v in cols.get(d, ()):
                        g2 = g + (r - d) * system.strides[s]
                        row = rows.setdefault((tag, i, g2),
                                              [_F0] * len(zero_idx))
                        row[local[g]] += v
    kernel = nullspace(SRMatrix.from_rows(list(rows.values()),
                                          len(zero_idx)))
    return SRMatrix(system.total_dim, kernel.ncols,
                    {(zero_idx[q], j): v for (q, j), v in kernel.data.items()})


def ref_invariant_gram(system, basis):
    form = ref_slot_operator(
        system, {s: rep.gram for s, rep in enumerate(system.factors)})
    return basis.transpose() @ (form @ basis)


def ref_block_coeffs(system, k, points, basis):
    pts = [QQi.from_complex(z) for z in points]
    step = SRMatrix(system.total_dim, system.total_dim)
    for s, rep in enumerate(system.factors):
        op = ref_slot_operator(system, {s: highest_root_lowering(rep)})
        step = step + op.map_values(lambda v, z=pts[s]: z * v)
    power = step
    for _ in range(k):
        power = power @ step
    qbasis = basis.map_values(QQi)
    image = power @ qbasis
    return nullspace(image).map_values(
        lambda v: v if isinstance(v, QQi) else QQi(v))


def ref_restrict(op, basis):
    """op on the span of a rational basis, solved on a pivot row selection.

    Bareiss on the transposed basis picks rows R with basis[R] nonsingular;
    basis[R] X = (op @ basis)[R] is solved by its own back-substitution.
    """
    support = basis.rows_with_support()
    rows_t = basis.submatrix_rows(support).transpose().to_rows()
    sel = [support[c] for (_r, c) in
           bareiss_echelon(_clear_denominators(rows_t), len(support))]
    n = basis.ncols
    assert len(sel) == n
    lhs = basis.submatrix_rows(sel).to_rows()
    rhs = (op @ basis).submatrix_rows(sel).to_rows()
    aug = _clear_denominators([a + b for a, b in zip(lhs, rhs)])
    # lhs is nonsingular, so all n pivots fall in its n columns
    pivots = bareiss_echelon(aug, 2 * n)
    assert len(pivots) == n
    x = [[None] * n for _ in range(n)]
    for (r, c) in reversed(pivots):
        row = [Fraction(v) for v in aug[r]]
        for j in range(n):
            acc = row[n + j]
            for c2 in range(c + 1, n):
                acc -= row[c2] * x[c2][j]
            x[c][j] = acc / row[c]
    return SRMatrix.from_rows(x, n)


@pytest.mark.parametrize("alg, weights, k, points", CASES, ids=IDS)
def test_slot_local_outputs_equal_total_space_reference(alg, weights, k,
                                                        points):
    system = tensor_system(alg, weights)
    basis = ref_invariant_basis(system)
    assert system.invariant_basis == basis
    assert system.invariant_gram() == ref_invariant_gram(system, basis)
    for i in range(system.n):
        for j in range(i + 1, system.n):
            ref = ref_omega(system, i, j)
            assert system.omega_pair(i, j) == ref
            assert system.omega_restricted(i, j) == ref_restrict(ref, basis)
    for i in range(system.n - 1):
        if weights[i] == weights[i + 1]:
            assert system.swap_restricted(i) == ref_restrict(
                ref_swap(system, i), basis)
    for r in range(alg.rank):
        for kind in ("e", "f"):
            assert system.slot_sum(
                [getattr(rep, kind)[r] for rep in system.factors]) == sum(
                (ref_slot_operator(system, {s: getattr(rep, kind)[r]})
                 for s, rep in enumerate(system.factors)),
                start=SRMatrix(system.total_dim, system.total_dim))
    bs = block_subspace(system, k, points)
    assert bs.coeffs == ref_block_coeffs(system, k, points, basis)


def test_apply_local_rejects_wrong_local_shape():
    system = tensor_system(A1, ((1,), (2,)))
    with pytest.raises(ValueError):
        system.apply_local((0, 1), SRMatrix.identity(4))


def test_omega_route_disagreement_raises(monkeypatch):
    # doubling every <e_alpha, f_alpha> breaks the dual-basis route but not
    # the scalar Casimirs, so the two Omega routes must disagree
    doubled = tuple(2 * c for c in casimir_constants(A1))
    monkeypatch.setattr(reps, "casimir_constants", lambda alg: doubled)
    local_omega.cache_clear()
    try:
        with pytest.raises(ConstructionError, match="routes disagree"):
            tensor_system(A1, ((1,), (1,))).omega_pair(0, 1)
    finally:
        local_omega.cache_clear()
