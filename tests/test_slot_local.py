"""Slot-local tensor operators against a total-space digit-loop reference.

The reference below walks every total-space index, splits it into slot
digits and applies one-slot matrices there; both Omega routes are assembled
and compared on the full space, the invariants are the joint kernel of the
diagonal e_i and f_i (`fraction_reference.ref_invariant_basis`), and the
block kernel is the total-space power F(z)^(k+1) applied to the invariant
basis. The library builds the same objects slot-locally: `slot_embedding`
gives the columns of a local matrix at unit vectors (the e_i images,
omega_pair), and
`TensorSystem.contract` applies one to the integral invariant basis as one
array contraction (restriction, Gram matrix, block image). Every output
must be exactly equal.
"""

from fractions import Fraction

import numpy as np
import pytest

import kzmono.algebra as la
import kzmono.reps as reps
from kzmono.algebra import build_algebra, casimir_scalar, pairing, weight_add
from kzmono.blocks import block_subspace
from kzmono.errors import ConstructionError
from kzmono.exact import (QQi, SRMatrix, _clear_denominators, bareiss_echelon,
                          nullspace)
from kzmono.reps import (casimir_constants, local_omega, slot_embedding,
                         tensor_system)

from fraction_reference import (dense, entries, local_of, product,
                                rational, ref_invariant_basis,
                                ref_root_vectors, scaled, slot_digits,
                                slot_strides, view)

A1 = build_algebra("A", 1)
A2 = build_algebra("A", 2)
G2 = build_algebra("G", 2)

_F1 = Fraction(1)

# (algebra, weights, level, points); the last case has float points
CASES = [
    (A1, ((1,),) * 6, 2, (0, 1, 3, 7, 15, 31)),
    (A2, ((1, 0), (0, 1), (1, 0), (0, 1)), 2, (0, 1, 3, 7)),
    (G2, ((1, 0),) * 3, 1, (0, 1, 2)),
    (A1, ((1,), (2,), (1,), (2,)), 2, (0.3 + 0.1j, 1.7, -2.25, 3.1j)),
]
IDS = ["A1^6", "A2-4pt", "G2^3", "A1-mixed-float"]


def _columns(m):
    """{column: [(row, value), ...]} of an SRMatrix or an object array."""
    cols = {}
    for (r, c), v in (m.data.items() if isinstance(m, SRMatrix) else
                      ((rc, m[rc]) for rc in zip(*np.nonzero(m)))):
        cols.setdefault(c, []).append((r, v))
    return cols


def ref_slot_operator(system, assignments):
    """Total-space matrix of a product of one-slot operators, digit by digit,
    as an object array."""
    cols = [(s, _columns(m)) for s, m in sorted(assignments.items())]
    strides = slot_strides(system)
    out = np.zeros((system.total_dim,) * 2, dtype=object)
    for g in range(system.total_dim):
        dg = slot_digits(system, g)
        partial = [(g, _F1)]
        for s, colidx in cols:
            hits = colidx.get(dg[s])
            if not hits:
                partial = []
                break
            partial = [(gb + (r - dg[s]) * strides[s], vb * v)
                       for gb, vb in partial for r, v in hits]
        for g2, v in partial:
            out[g2, g] += v
    return out


def ref_omega(system, i, j):
    """Omega^{ij} by both routes on the total space; they must agree."""
    alg = system.alg
    cs = casimir_constants(alg)
    ei, fi = ref_root_vectors(system.factors[i])
    ej, fj = ref_root_vectors(system.factors[j])
    wi = system.factors[i].basis_weights
    wj = system.factors[j].basis_weights
    full = np.zeros((system.total_dim,) * 2, dtype=object)
    pair = np.zeros((system.total_dim,) * 2, dtype=object)
    shift = casimir_scalar(alg, system.weights[i]) \
        + casimir_scalar(alg, system.weights[j])
    for g in range(system.total_dim):
        dg = slot_digits(system, g)
        full[g, g] = pairing(alg, wi[dg[i]], wj[dg[j]])
        s = weight_add(wi[dg[i]], wj[dg[j]])
        pair[g, g] = pairing(alg, s, s) - shift
    for k, c in enumerate(cs):
        inv_c = 1 / c
        full += scaled(ref_slot_operator(system, {i: ei[k], j: fj[k]})
                       + ref_slot_operator(system, {i: fi[k], j: ej[k]}),
                       inv_c)
        ee = ref_slot_operator(system, {i: ei[k]}) \
            + ref_slot_operator(system, {j: ej[k]})
        ff = ref_slot_operator(system, {i: fi[k]}) \
            + ref_slot_operator(system, {j: fj[k]})
        pair += scaled(product(ee, ff) + product(ff, ee), inv_c)
    assert np.array_equal(scaled(pair, Fraction(1, 2)), full)
    return full


def ref_swap(system, i):
    out = np.zeros((system.total_dim,) * 2, dtype=object)
    for g in range(system.total_dim):
        dg = list(slot_digits(system, g))
        dg[i], dg[i + 1] = dg[i + 1], dg[i]
        out[sum(d * s for d, s in zip(dg, slot_strides(system))), g] = _F1
    return out


def ref_invariant_gram(system, basis):
    form = ref_slot_operator(system, {s: view(rep, "gram")
                                      for s, rep in enumerate(system.factors)})
    return dense(basis).T @ product(form, dense(basis))


def ref_block_coeffs(system, k, points, basis):
    """The kernel of F(z)^(k+1) on the basis, F(z) = sum_s z_s f_theta^(s)
    on the total space, applied k + 1 times."""
    pts = [QQi.from_complex(z) for z in points]
    step = sum(scaled(ref_slot_operator(
        system, {s: ref_root_vectors(rep)[1][-1]}), pts[s])
        for s, rep in enumerate(system.factors))
    image = dense(basis)
    for _ in range(k + 1):
        image = product(step, image)
    kernel = nullspace(SRMatrix.from_rows(image.tolist(), basis.ncols))
    return SRMatrix(kernel.nrows, kernel.ncols, {
        rc: v if isinstance(v, QQi) else QQi(v)
        for rc, v in kernel.data.items()})


def ref_restrict(op, basis):
    """op on the span of a rational basis, solved on a pivot row selection.

    Bareiss on the transposed basis picks rows R with basis[R] nonsingular;
    basis[R] X = (op @ basis)[R] is solved by its own back-substitution.
    """
    support = basis.rows_with_support()
    rows_t = dense(basis.submatrix_rows(support)).T.tolist()
    sel = [support[c] for (_r, c) in
           bareiss_echelon(_clear_denominators(rows_t), len(support))]
    n = basis.ncols
    assert len(sel) == n
    lhs = basis.submatrix_rows(sel).to_rows()
    rhs = product(op, dense(basis))[sel].tolist()
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
    assert np.array_equal(dense(rational(system.invariant_gram())),
                          ref_invariant_gram(system, basis))
    for i in range(system.n):
        for j in range(i + 1, system.n):
            ref = ref_omega(system, i, j)
            assert np.array_equal(dense(system.omega_pair(i, j)), ref)
            assert rational(system.omega_restricted(i, j)) == ref_restrict(
                ref, basis)
    for i in range(system.n - 1):
        if weights[i] == weights[i + 1]:
            assert rational(system.swap_restricted(i)) == ref_restrict(
                ref_swap(system, i), basis)
    for r in range(alg.rank):
        for kind in ("e", "f"):
            for s, rep in enumerate(system.factors):
                gen = view(rep, kind)[r]
                rows, cols, values = slot_embedding(
                    system.dims, (s,), entries(gen), range(system.total_dim))
                got = np.zeros((system.total_dim,) * 2, dtype=object)
                got[rows, cols] = values
                assert np.array_equal(got,
                                      ref_slot_operator(system, {s: gen}))
    bs = block_subspace(system, k, points)
    assert bs.coeffs == ref_block_coeffs(system, k, points, basis)


def identity(n):
    return SRMatrix(n, n, {(i, i): _F1 for i in range(n)})


def test_local_shape_is_checked():
    # V_1 (x) V_2 has dimension 6, not 4 or 7: a local of another size is
    # refused, whether its entries fit inside the pair space or not, and
    # so is the Omega of V_1 (x) V_1
    system = tensor_system(A1, ((1,), (2,)))
    for local in (identity(4), identity(7)):
        with pytest.raises(ValueError, match="6 square"):
            slot_embedding(system.dims, (0, 1), entries(local), [0])
        with pytest.raises(ValueError, match="6 square"):
            system.restrict_local((0, 1), local_of(local))
    omega = local_omega(A1, (1,), (1,))
    with pytest.raises(ValueError, match="6 square"):
        slot_embedding(system.dims, (0, 1), omega[1:], range(6))
    with pytest.raises(ValueError, match="6 square"):
        system.restrict_local((0, 1), omega)


def test_omega_route_disagreement_raises(monkeypatch):
    # doubling every <e_alpha, f_alpha> breaks the dual bases, so the factor
    # Casimirs sum_k x_k x^k are no longer their scalars
    doubled = tuple(2 * c for c in casimir_constants(A1))
    monkeypatch.setattr(reps, "casimir_constants", lambda alg: doubled)
    local_omega.cache_clear()
    try:
        with pytest.raises(ConstructionError, match="dual-basis Casimir"):
            tensor_system(A1, ((1,), (1,))).omega_pair(0, 1)
    finally:
        local_omega.cache_clear()


def test_compensated_casimir_shift_raises(monkeypatch):
    # +1 on c_(1) and -1 on c_(2) keeps c_lam + c_mu, which is all that
    # (pair Casimir - c_lam - c_mu)/2 sees; each factor Casimir must equal
    # its own scalar
    clean = la.casimir_scalar
    shift = {(1,): 1, (2,): -1}
    monkeypatch.setattr(la, "casimir_scalar",
                        lambda alg, w: clean(alg, w) + shift.get(w, 0))
    local_omega.cache_clear()
    try:
        with pytest.raises(ConstructionError, match="dual-basis Casimir"):
            local_omega(A1, (1,), (2,))
    finally:
        local_omega.cache_clear()
