"""Representations: Chevalley relations, Casimirs, invariants, Omega^ij."""

import dataclasses
import hashlib
import json
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np
import pytest

import kzmono.algebra as la
import kzmono.exact as exact
import kzmono.reps as reps
from kzmono.algebra import build_algebra, casimir_scalar
from kzmono.blocks import admissible_weights, fusion_ring
from kzmono.errors import (ConstructionError, DimensionCapError,
                           NonDominantWeightError)
from kzmono.exact import SRMatrix, exact_matmul, nullspace
from kzmono.reps import (casimir_constants, casimir_matrix, irrep,
                         local_omega, rep_to_json, slot_embedding,
                         tensor_system)

from fraction_reference import (commutator, dense, entries, local_of,
                                omega_matrix, rational, ref_casimir,
                                ref_dual_bases, ref_local_omega, scalar, view)

A1 = build_algebra("A", 1)
A2 = build_algebra("A", 2)
G2 = build_algebra("G", 2)


def embedded(system, assignments):
    """sum over (slots, local) of local (x) Id on the total space, an
    SRMatrix local given by its entries, from the columns `slot_embedding`
    gives at every unit vector; an object array."""
    out = np.zeros((system.total_dim,) * 2, dtype=object)
    for slots, local in assignments:
        rows, cols, values = slot_embedding(system.dims, slots,
                                            entries(local),
                                            range(system.total_dim))
        out[rows, cols] += values
    return out


def su2_invariant_dim(labels):
    """Independent oracle: fold Clebsch-Gordan series, count trivials."""
    counts = {0: 1}
    for m in labels:
        new = {}
        for cur, mult in counts.items():
            for s in range(abs(cur - m), cur + m + 1, 2):
                new[s] = new.get(s, 0) + mult
        counts = new
    return counts.get(0, 0)


def test_irrep_dimensions():
    for m in range(7):
        assert irrep(A1, (m,)).dim == m + 1
    assert irrep(A2, (1, 0)).dim == 3
    assert irrep(A2, (0, 1)).dim == 3
    assert irrep(A2, (1, 1)).dim == 8
    assert irrep(G2, (1, 0)).dim == 7
    with pytest.raises(NonDominantWeightError):
        irrep(A1, (-1,))


def test_trivial_module_is_one_dimensional_and_dead():
    for alg in (A1, A2, G2):
        rep = irrep(alg, tuple(0 for _ in range(alg.rank)))
        assert rep.dim == 1
        for i in range(alg.rank):
            for kind in ("e", "f", "h"):
                assert view(rep, kind)[i].is_zero()


@pytest.mark.parametrize("alg,lam", [
    (A1, (1,)), (A1, (3,)), (A2, (1, 0)), (A2, (1, 1)), (A2, (2, 1)),
    (G2, (1, 0)), (G2, (0, 1)),
])
def test_chevalley_and_serre_relations_exact(alg, lam):
    rep = irrep(alg, lam)
    rank = alg.rank
    e, f, h = ([dense(m) for m in view(rep, kind)] for kind in "efh")
    for i in range(rank):
        for j in range(rank):
            # [h_i, e_j] = cartan[j][i] e_j and likewise with -f_j
            assert np.array_equal(commutator(h[i], e[j]),
                                  alg.cartan[j][i] * e[j])
            assert np.array_equal(commutator(h[i], f[j]),
                                  -alg.cartan[j][i] * f[j])
            # [e_i, f_j] = delta_ij h_i
            assert np.array_equal(commutator(e[i], f[j]),
                                  h[i] if i == j else 0 * h[i])
            assert not commutator(h[i], h[j]).any()
            if i != j:
                # Serre: ad(e_i)^{1 - cartan[j][i]} e_j = 0
                acc = e[j]
                for _ in range(1 - alg.cartan[j][i]):
                    acc = commutator(e[i], acc)
                assert not acc.any()
                acc = f[j]
                for _ in range(1 - alg.cartan[j][i]):
                    acc = commutator(f[i], acc)
                assert not acc.any()


def test_highest_weight_vector_is_first_and_killed_by_e():
    rep = irrep(A2, (2, 1))
    assert rep.basis_weights[0] == (2, 1)
    for i in range(2):
        # column 0 is never hit
        assert all(c != 0 for (r, c) in view(rep, "e")[i].data)


@pytest.mark.parametrize("alg,lam", [
    (A1, (1,)), (A1, (4,)), (A2, (1, 0)), (A2, (1, 1)),
    (G2, (1, 0)), (G2, (0, 1)),
])
def test_casimir_matrix_is_the_right_scalar(alg, lam):
    rep = irrep(alg, lam)
    assert np.array_equal(dense(casimir_matrix(rep)),
                          scalar(casimir_scalar(alg, lam), rep.dim))
    assert reps.casimir_is_scalar(rep)


def test_casimir_constants_simple_roots():
    # <e_i, f_i> = 1/d_i; for A1 normalisation that is 1
    assert casimir_constants(A1) == (Fraction(1),)
    # G2 roots sort by height then lex, so (0,1) (long, d=1) precedes
    # (1,0) (short, d=1/3)
    assert casimir_constants(G2) == (1, 3, -3, 12, -36, 36)


def ref_casimir_constants(alg):
    """Test-only extraction of <e_alpha, f_alpha>: [e_alpha, f_alpha] acts
    on a weight-mu vector as c_alpha <mu, alpha>, read off in the fundamental
    module of smallest dimension (lowest index wins) across its whole weight
    spectrum, from its integer root vectors (`generators`) as dense
    products."""
    fundamentals = [tuple(int(i == j) for j in range(alg.rank))
                    for i in range(alg.rank)]
    ref = irrep(alg, min(fundamentals,
                         key=lambda w: la.weyl_dimension(alg, w)))
    (k, rows, cols, values), dens = ref.generators
    r, p = alg.rank, len(alg.positive_roots)

    def generator(g):
        return reps.dense(ref.dim, rows[k == g], cols[k == g], values[k == g])

    out = []
    for a, root in enumerate(alg.positive_roots):
        e, f = generator(r + a), generator(r + p + a)
        m = exact_matmul(e, f) - exact_matmul(f, e)
        diagonal = np.diag(m).tolist()
        assert np.array_equal(m, np.diag(diagonal))
        ratios = {Fraction(diagonal[v], dens[r + a] * dens[r + p + a])
                  / la.pairing(alg, w, root)
                  for v, w in enumerate(ref.basis_weights)
                  if la.pairing(alg, w, root)}
        assert len(ratios) == 1 and 0 not in ratios
        out.append(ratios.pop())
    return tuple(out)


RANK_8_TYPES = [(s, r) for s, ranks in [
    ("A", range(1, 9)), ("B", range(2, 9)), ("C", range(2, 9)),
    ("D", range(4, 9)), ("E", (6, 7, 8)), ("F", (4,)), ("G", (2,))]
    for r in ranks]


@pytest.mark.parametrize("series,rank", RANK_8_TYPES,
                         ids=[f"{s}{r}" for s, r in RANK_8_TYPES])
def test_casimir_constants_match_module_extraction(series, rank):
    alg = build_algebra(series, rank)
    got, ref = casimir_constants(alg), ref_casimir_constants(alg)
    assert got == ref
    assert all(type(c) is Fraction for c in got + ref)


def test_casimir_constants_build_no_module():
    before = reps._irrep.cache_info()
    casimir_constants.__wrapped__(build_algebra("E", 8))
    assert reps._irrep.cache_info() == before


def test_root_vectors_heights_and_nonzero():
    rep = irrep(A2, (1, 1))
    (k, _rows, _cols, values), dens = rep.generators
    assert len(dens) == 8 and values.all()
    assert np.array_equal(np.unique(k), np.arange(8))


def test_basis_weights_sorted_by_depth():
    rep = irrep(A1, (3,))
    assert rep.basis_weights == ((3,), (1,), (-1,), (-3,))


@pytest.mark.parametrize("alg,lam", [
    (A1, (3,)), (A2, (1, 1)), (G2, (1, 0)),
])
def test_contravariant_form_adjointness(alg, lam):
    # <e_i x, y> = <x, f_i y> exactly: e_i^T G = G f_i, with G symmetric
    # and block diagonal over weight spaces
    rep = irrep(alg, lam)
    g = dense(view(rep, "gram"))
    assert np.array_equal(g.T, g)
    for i in range(alg.rank):
        assert np.array_equal(dense(view(rep, "e")[i]).T @ g,
                              g @ dense(view(rep, "f")[i]))
    for (r, c) in view(rep, "gram").data:
        assert rep.basis_weights[r] == rep.basis_weights[c]


def test_wider_type_constructions():
    cases = [("B", 2, (0, 1), 4), ("B", 2, (1, 0), 5),
             ("C", 3, (1, 0, 0), 6), ("D", 4, (1, 0, 0, 0), 8),
             ("F", 4, (0, 0, 0, 1), 26), ("E", 6, (1, 0, 0, 0, 0, 0), 27)]
    for series, rank, lam, dim in cases:
        alg = build_algebra(series, rank)
        rep = irrep(alg, lam)
        assert rep.dim == dim
        assert np.array_equal(dense(casimir_matrix(rep)),
                              scalar(casimir_scalar(alg, lam), dim))


# -- the former Fraction route of the Casimirs, on object arrays ----------

def ref_pair_omega(alg, lam, mu):
    """Omega by the second route: one half of (the Casimir of the pair
    action x_k (x) 1 + 1 (x) x_k - c_lam - c_mu), as {(row, col): value}
    over its nonzeros. The pair action is formed from the nonzeros of the
    factors, row by row, and multiplied entry by entry, so no pair-space
    array is dense."""
    (xi, di), (xj, dj) = ref_dual_bases(irrep(alg, lam)), \
        ref_dual_bases(irrep(alg, mu))
    n, m = len(xi[0]), len(xj[0])

    def pair(a, b):     # a (x) 1 + 1 (x) b, as {row: {col: value}}
        out = {}

        def add(r, c, v):
            row = out.setdefault(r, {})
            row[c] = row.get(c, 0) + v

        for r, c in zip(*(z.tolist() for z in np.nonzero(a))):
            for j in range(m):
                add(r * m + j, c * m + j, a[r, c])
        for r, c in zip(*(z.tolist() for z in np.nonzero(b))):
            for i in range(n):
                add(i * m + r, i * m + c, b[r, c])
        return out

    casimir = Counter()
    for a, b, c, d in zip(xi, xj, di, dj):
        left, right = pair(a, b), pair(c, d)
        for r, row in left.items():
            for k, v in row.items():
                for col, w in right.get(k, {}).items():
                    casimir[r, col] += v * w
    shift = la.casimir_scalar(alg, lam) + la.casimir_scalar(alg, mu)
    for i in range(n * m):
        casimir[i, i] -= shift
    return {key: v * Fraction(1, 2) for key, v in casimir.items() if v}


def integers(omega):
    """(D, [(row, col, D entry)]) of a dense rational array, D the lcm of
    its denominators, entries by row then column."""
    r, c = np.nonzero(omega)
    d = lcm(*(Fraction(v).denominator for v in omega[r, c]))
    return d, [(i, j, int(v * d)) for i, j, v in
               zip(r.tolist(), c.tolist(), omega[r, c].tolist())]


def typed_entries(m):
    return m.nrows, m.ncols, [(r, c, type(v), v) for r, c, v in m.entries()]


CASIMIR_PAIRS = [
    ("A", 1, (1,), (1,)), ("A", 1, (1,), (2,)), ("A", 1, (3,), (2,)),
    ("A", 2, (1, 0), (0, 1)), ("A", 2, (1, 1), (1, 1)),
    ("G", 2, (1, 0), (1, 0)), ("G", 2, (0, 1), (1, 0)),
    ("B", 2, (1, 0), (0, 1)), ("C", 3, (1, 0, 0), (0, 1, 0)),
    ("D", 4, (1, 0, 0, 0), (0, 0, 0, 1)), ("A", 3, (1, 0, 0), (0, 0, 1)),
    ("F", 4, (0, 0, 0, 1), (0, 0, 0, 1)),
    ("E", 6, (1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0)),
    ("A", 1, (20,), (19,)),
]


def assert_matches_fraction_route(alg, lam, mu):
    d, size, rows, cols, values = local_omega(alg, lam, mu)
    got = [(r, c, v) for r, c, v in zip(rows.tolist(), cols.tolist(),
                                         values.tolist())]
    ref = ref_local_omega(alg, lam, mu)
    assert (d, got) == integers(ref)
    assert type(d) is int and {type(v) for _r, _c, v in got} <= {int}
    assert (size, len(ref)) == (irrep(alg, lam).dim * irrep(alg, mu).dim,) * 2
    assert ref_pair_omega(alg, lam, mu) == {
        (r, c): ref[r, c] for r, c in zip(*(z.tolist() for z in
                                            np.nonzero(ref)))}
    for w in (lam, mu):
        rep = irrep(alg, w)
        want = SRMatrix.from_rows(ref_casimir(rep).tolist())
        assert typed_entries(casimir_matrix(rep)) == typed_entries(want)


@pytest.mark.parametrize("series,rank,lam,mu", CASIMIR_PAIRS)
def test_dual_basis_casimirs_match_former_routes(series, rank, lam, mu):
    # the integer dual bases give the Casimirs of the former Fraction
    # route: D Omega with the same D and integers, the module Casimir with
    # the same entries and value types; Omega also by the pair Casimir
    assert_matches_fraction_route(build_algebra(series, rank), lam, mu)


@pytest.mark.parametrize("series,rank,lam,mu", [
    ("G", 2, (0, 1), (1, 0)), ("F", 4, (0, 0, 0, 1), (0, 0, 0, 1)),
    ("A", 1, (20,), (19,))])
def test_dual_basis_casimirs_on_python_ints(monkeypatch, series, rank, lam,
                                            mu):
    # with every bound refused, the generators, the Casimir products and
    # the Omega sums all run on Python ints, to the same integers
    refuse = lambda n, *factors: object   # noqa: E731
    monkeypatch.setattr(exact, "exact_dtype", refuse)
    monkeypatch.setattr(reps, "exact_dtype", refuse)
    monkeypatch.setattr(reps, "_irrep",
                        lru_cache(maxsize=None)(reps._irrep.__wrapped__))
    monkeypatch.setattr(reps, "local_omega", reps.local_omega.__wrapped__)
    alg = build_algebra(series, rank)
    assert irrep(alg, lam).generators[0][3].dtype == object
    d, size, rows, cols, values = reps.local_omega(alg, lam, mu)
    monkeypatch.undo()
    want = local_omega(alg, lam, mu)
    assert values.dtype == object and want[4].dtype == np.int64
    assert (d, size) == want[:2]
    assert np.array_equal(rows, want[2]) and np.array_equal(cols, want[3])
    assert values.tolist() == want[4].tolist()


# -- tensor systems ---------------------------------------------------------

def test_invariant_dims_match_su2_oracle():
    cases = [((1,),), ((1,), (1,)), ((1,), (1,), (0,)),
             ((1,), (1,), (1,), (1,)), ((1,), (1,), (1,), (1,), (1,), (1,)),
             ((2,), (1,), (1,)), ((2,), (2,), (2,))]
    for weights in cases:
        sys = tensor_system(A1, weights)
        oracle = su2_invariant_dim([w[0] for w in weights])
        assert sys.invariant_dim == oracle


def test_invariant_dims_rank2():
    # 3 x 3bar x 3 x 3bar contains the trivial twice (8x8 and 1x1 channels)
    sys = tensor_system(A2, ((1, 0), (0, 1), (1, 0), (0, 1)))
    assert sys.invariant_dim == 2
    # 7 x 7 of G2 contains the trivial exactly once
    sys = tensor_system(G2, ((1, 0), (1, 0), (0, 0)))
    assert sys.invariant_dim == 1


def test_invariant_basis_is_annihilated():
    sys = tensor_system(A1, ((1,), (1,), (1,), (1,)))
    basis = sys.invariant_basis
    for i in range(A1.rank):
        for kind in ("e", "f"):
            gens = [((s,), view(rep, kind)[i])
                    for s, rep in enumerate(sys.factors)]
            assert not (embedded(sys, gens) @ dense(basis)).any()


def test_dimension_cap():
    with pytest.raises(DimensionCapError):
        tensor_system(A1, tuple((1,) for _ in range(4)), max_dim=8)


def test_dimension_cap_builds_no_module(monkeypatch):
    # G2 (3,2) has dimension 1547 and takes seconds to build; the cap is
    # decided from the Weyl dimension alone
    def refuse(alg, lam):
        raise AssertionError(f"irrep({alg.name}, {lam}) was called")

    monkeypatch.setattr(reps, "irrep", refuse)
    with pytest.raises(DimensionCapError, match="1547 exceeds cap 10"):
        tensor_system(G2, [(3, 2)], max_dim=10)


def test_omega_pair_eigenvalues_spin_half():
    # half(c_nu - c_lam - c_mu) over the CG channels: 1/2 (mult 3), -3/2
    sys = tensor_system(A1, ((1,), (1,)))
    full = sys.omega_pair(0, 1)
    half = Fraction(1, 2)
    m1 = dense(full) - scalar(half, 4)
    m2 = dense(full) + scalar(Fraction(3, 2), 4)
    assert not (m1 @ m2).any()
    trace = sum(full.get(g, g) for g in range(4))
    assert trace == 3 * half - Fraction(3, 2)
    # multiplicity split: rank of (full - 1/2) is 1
    assert nullspace(SRMatrix.from_rows(m1.tolist())).ncols == 3


def test_omega_pair_symmetric_and_trivial_slot():
    sys = tensor_system(A1, ((1,), (1,), (0,)))
    a = sys.omega_pair(0, 1)
    b = sys.omega_pair(1, 0)
    assert a == b
    assert sys.omega_pair(0, 2).is_zero()
    assert sys.omega_pair(1, 2).is_zero()
    assert sys.omega_restricted(1, 0) is sys.omega_restricted(0, 1)
    for bad in ((1, 1), (0, 5)):
        with pytest.raises(ValueError):
            sys.omega_pair(*bad)
        with pytest.raises(ValueError):
            sys.omega_restricted(*bad)


def test_sum_of_omegas_is_minus_half_casimir_sum_on_invariants():
    sys = tensor_system(A1, ((1,), (1,), (1,), (1,)))
    d = sys.invariant_dim
    total = sum(dense(rational(sys.omega_restricted(i, j)))
                for i in range(4) for j in range(i + 1, 4))
    c = -sys.sum_casimirs() / 2
    assert c == -3
    assert np.array_equal(total, scalar(c, d))
    # trace identity quoted for this case
    assert np.trace(total) == -6


def test_omega_commutes_with_diagonal_action():
    sys = tensor_system(A2, ((1, 0), (0, 1), (1, 0)))
    om = dense(sys.omega_pair(0, 1))
    for i in range(A2.rank):
        for kind in ("e", "f"):
            gens = [((s,), view(rep, kind)[i])
                    for s, rep in enumerate(sys.factors)]
            assert not commutator(om, embedded(sys, gens)).any()


def test_omega_self_adjoint_for_invariant_gram():
    # the restricted two-slot Casimirs are symmetric for the product
    # contravariant form: Omega^T G = G Omega, exactly
    for sys in (tensor_system(A1, ((1,), (1,), (2,), (2,))),
                tensor_system(A2, ((1, 0), (0, 1), (1, 0), (0, 1)))):
        assert nullspace(rational(sys.invariant_gram())).ncols == 0
        g = dense(rational(sys.invariant_gram()))
        assert np.array_equal(g.T, g)
        for i in range(sys.n):
            for j in range(i + 1, sys.n):
                om = dense(rational(sys.omega_restricted(i, j)))
                assert np.array_equal(om.T @ g, g @ om)


def test_kohno_relations_on_full_space():
    sys = tensor_system(A1, ((1,), (1,), (1,), (1,)))
    om = {(i, j): dense(sys.omega_pair(i, j))
          for i in range(4) for j in range(i + 1, 4)}
    assert not commutator(om[(0, 1)], om[(2, 3)]).any()
    assert not commutator(om[(0, 2)], om[(1, 3)]).any()
    for (i, j, k) in [(0, 1, 2), (0, 1, 3), (1, 2, 3)]:
        assert not commutator(om[(i, j)], om[(i, k)] + om[(j, k)]).any()


def test_swap_restricted_is_involution():
    sys = tensor_system(A1, ((1,), (1,), (1,), (1,)))
    m = dense(rational(sys.swap_restricted(0)))
    assert np.array_equal(m @ m, scalar(1, sys.invariant_dim))
    with pytest.raises(ValueError):
        tensor_system(A1, ((1,), (2,))).swap_restricted(0)
    with pytest.raises(ValueError):
        sys.swap_restricted(3)


def test_restrict_rejects_operator_leaving_invariants():
    # e_1 on one slot raises the weight of every invariant off zero
    system = tensor_system(A1, ((1,),) * 4)
    with pytest.raises(ValueError, match="preserve"):
        system.restrict_local((0,), local_of(view(system.factors[0], "e")[0]))


def test_restrict_local_reads_unit_rows():
    system = tensor_system(A1, ((1,),) * 4)
    basis = system.invariant_basis
    # the slot-0 Casimir is the scalar 3/2 on V_1, so on the invariants too
    d = system.invariant_dim
    x = rational(system.restrict_local(
        (0,), local_of(casimir_matrix(system.factors[0]))))
    assert np.array_equal(dense(x), scalar(Fraction(3, 2), d))
    # a non-scalar restriction meets the witness basis @ X == image
    x = rational(system.restrict_local((1, 2), local_omega(A1, (1,), (1,))))
    local = omega_matrix(local_omega(A1, (1,), (1,)))
    assert not np.array_equal(dense(x), scalar(x.get(0, 0), d))
    assert np.array_equal(dense(basis) @ dense(x),
                          embedded(system, [((1, 2), local)]) @ dense(basis))


def test_invariant_basis_must_be_identity_on_unit_rows(monkeypatch):
    # a basis scaled by 2 spans the same space but is 2 on its free rows,
    # which every restriction reads X off; it is refused once, at build
    real = reps.nullspace

    def doubled(*mats):
        kernel = real(*mats)
        return SRMatrix(kernel.nrows, kernel.ncols,
                        {k: 2 * v for k, v in kernel.data.items()})

    monkeypatch.setattr(reps, "nullspace", doubled)
    system = tensor_system(A1, ((1,),) * 4)
    with pytest.raises(ConstructionError, match="identity"):
        system.invariant_basis


def test_exports_are_deterministic_json():
    rep = irrep(A1, (2,))
    doc1 = rep_to_json(rep)
    doc2 = rep_to_json(irrep(A1, (2,)))
    assert doc1 == doc2
    parsed = json.loads(doc1)
    assert parsed["dimension"] == 3
    assert set(parsed["matrices"]) == {"e1", "f1", "h1"}


# sha256 of rep_to_json plus the Gram triplets, frozen from the rational
# kernel; basis_hash covers only the weights, so this pins the matrices.
# The last four have weight multiplicities above 1 and nontrivial radicals.
FROZEN_MODULES = [
    ("A", 2, (2, 1),
     "88b64c004ea0a6bbb87a906e5080e0497ffed4d17455818ea57fb1e29dbf2806"),
    ("G", 2, (1, 1),
     "0c68826399e91712552ba508a322d49dd79244bac05d1bce6b0d3a96c3bb50ca"),
    ("B", 3, (0, 0, 1),
     "7eab43c80fef1e7972d4cf9e3e60f2610d578ed4ce94915608ddff24de89d7ef"),
    ("F", 4, (0, 0, 0, 1),
     "101d5cd829cf3b580cc4240b8329a1b8bc5e5c115b989364cac0b75443587eb5"),
    ("C", 3, (1, 0, 1),
     "ce3d3006bd6bc3068cfb4c38856e95d401d7c638c752c2a48b7b664b131d424e"),
    ("A", 3, (1, 1, 0),
     "9661ea263d86e56cb266874d3af758df4242a482a43cb7be79c0d14482fd0137"),
    ("D", 4, (0, 1, 0, 0),
     "d0ccff161b79b977d1bdf0c2a9a3a63bee1d68e3dc54d628c6b01a39964f1206"),
    ("G", 2, (2, 0),
     "a71aea63a18332e2fe7795f763350ef73dd27afda157a793d1eba72a3cdbedb2"),
    ("E", 6, (1, 0, 0, 0, 0, 0),
     "f353f04a631ab9164e6bdac95cb3879249ddfaa71894c4b1e093a7c6e3fcaf6d"),
    ("E", 7, (0, 0, 0, 0, 0, 0, 1),
     "a856a96bccbb6360add9d22598f5413c65f1237878621729d8cf920c229a9b2b"),
]
FUSION_LADDER = [("A", 2, 5), ("A", 3, 2), ("G", 2, 3), ("F", 4, 2)]


def _module_text(rep):
    gram = [[r, c, v.numerator, v.denominator]
            for r, c, v in view(rep, "gram").entries()]
    return rep_to_json(rep) + json.dumps(gram)


@pytest.mark.parametrize("series,rank,lam,digest", FROZEN_MODULES,
                         ids=["A2-(2,1)", "G2-(1,1)", "B3-(0,0,1)",
                              "F4-(0,0,0,1)", "C3-(1,0,1)", "A3-(1,1,0)",
                              "D4-(0,1,0,0)", "G2-(2,0)",
                              "E6-(1,0,0,0,0,0)", "E7-(0,0,0,0,0,0,1)"])
def test_module_matrices_frozen(series, rank, lam, digest):
    rep = irrep(build_algebra(series, rank), lam)
    text = _module_text(rep)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_fusion_ladder_modules_frozen():
    # one digest over every admissible module of the rings A2 k=5, A3 k=2,
    # G2 k=3 and F4 k=2, in ring order and then admissible-weight order
    digest = hashlib.sha256()
    count = 0
    for series, rank, k in FUSION_LADDER:
        alg = build_algebra(series, rank)
        for lam in admissible_weights(alg, k):
            rep = irrep(alg, lam)
            # the module is its integers: numerators, denominators, Gram
            assert {type(v) for nums, dens in (*rep.e_int, *rep.f_int)
                    for v in (*nums.values(), *dens.values())} \
                | set(map(type, rep.gram_int.values())) <= {int}
            digest.update(_module_text(rep).encode())
            count += 1
    assert count == 42
    assert digest.hexdigest() == \
        "715c4e867632dc99ff2c2bccce8b09f0e5390ced270d15027f469672f9e924bb"


WEYL_SYMMETRY_CASES = sorted(
    {(s, r, lam) for s, r, k in FUSION_LADDER
     for lam in admissible_weights(build_algebra(s, r), k)}
    | {(s, r, lam) for s, r, lam, _digest in FROZEN_MODULES})


@pytest.mark.parametrize(
    "series, rank, lam", WEYL_SYMMETRY_CASES,
    ids=[f"{s}{r}-{lam}" for s, r, lam in WEYL_SYMMETRY_CASES])
def test_weight_multiplicities_are_weyl_symmetric(series, rank, lam):
    # an oracle without elimination: the Weyl group permutes the weights of
    # a module and keeps their multiplicities, so dim V_mu = dim V_{s_i mu}
    alg = build_algebra(series, rank)
    mult = Counter(irrep(alg, lam).basis_weights)
    for mu, dim in mult.items():
        for i in range(rank):
            assert mult[la.simple_reflection(alg, mu, i)] == dim, (mu, i)


def eager_matrices(alg, lam):
    """e, f, h and the Gram matrix as `irrep` wrapped them eagerly before
    the module kept its integers: SRMatrix of Fractions, gram a 1-tuple."""
    weights, e, f, gram = reps._construct(alg, lam)
    dim = len(weights)

    def matrix(cols):
        return SRMatrix(dim, dim, {(r, c): Fraction(v, den)
                                   for c, (col, den) in cols.items()
                                   for r, v in col.items()})

    h = tuple(SRMatrix(dim, dim, {(v, v): Fraction(w[i])
                                  for v, w in enumerate(weights) if w[i]})
              for i in range(alg.rank))
    return {"e": tuple(map(matrix, e)), "f": tuple(map(matrix, f)), "h": h,
            "gram": (matrix({c: (col, 1) for c, col in gram.items()}),)}


def stored(mats):
    """Shape, then every entry in storage order with its value type."""
    return [((m.nrows, m.ncols), [(k, v, type(v)) for k, v in m.data.items()])
            for m in mats]


def assert_matches_eager_wrap(rep):
    want = eager_matrices(rep.alg, rep.highest_weight)
    for kind in ("e", "f", "h"):
        assert stored(view(rep, kind)) == stored(want[kind]), kind
    assert stored((view(rep, "gram"),)) == stored(want["gram"])


def test_fusion_builds_no_module_matrices(monkeypatch):
    # a fresh module cache, so no earlier test has touched these modules
    monkeypatch.setattr(reps, "_irrep",
                        lru_cache(maxsize=None)(reps._irrep.__wrapped__))
    ring = fusion_ring.__wrapped__(A2, 5)
    modules = [irrep(A2, lam) for lam in ring.weights]
    assert len(modules) == 21
    for rep in modules:
        assert "generators" not in vars(rep), rep
    for rep in modules:
        assert_matches_eager_wrap(rep)


def test_module_matrices_match_eager_wrap():
    # multiplicities above 1, denominators above 1 and an exceptional type
    for alg, lam in [(G2, (1, 1)), (build_algebra("B", 3), (0, 0, 1)),
                     (build_algebra("F", 4), (0, 0, 0, 1))]:
        assert_matches_eager_wrap(irrep(alg, lam))


def test_dimension_check_raises(monkeypatch):
    # negative control: a Weyl dimension one too large must be caught
    true_dim = irrep(A2, (1, 1)).dim
    monkeypatch.setattr("kzmono.algebra.weyl_dimension",
                        lambda alg, lam: true_dim + 1)
    with pytest.raises(ConstructionError, match="Weyl dimension"):
        reps._irrep.__wrapped__(A2, (1, 1))


def test_inconsistent_symmetrizer_caught_at_local_omega():
    # A1 with d_1 = 1/2 takes <e, f> = 2 from its root data, where the
    # module pairs e and f to 1: the dual-basis Casimir of the first module
    # that uses the constants is off its scalar
    bad = dataclasses.replace(A1, symmetrizers=(Fraction(1, 2),))
    assert casimir_constants(bad) == (Fraction(2),)
    assert not reps.casimir_is_scalar(irrep(bad, (1,)))
    with pytest.raises(ConstructionError,
                       match="dual-basis Casimir is not its scalar"):
        local_omega(bad, (1,), (1,))


@pytest.mark.parametrize("root", [2, 3, 4, 5])
def test_flipped_constant_caught_at_local_omega(monkeypatch, root):
    # a wrong sign on one non-simple constant of G2 breaks the dual bases
    flipped = list(casimir_constants(G2))
    flipped[root] = -flipped[root]
    monkeypatch.setattr(reps, "casimir_constants",
                        lambda alg: tuple(flipped))
    assert not reps.casimir_is_scalar(irrep(G2, (1, 0)))
    with pytest.raises(ConstructionError,
                       match="dual-basis Casimir is not its scalar"):
        local_omega.__wrapped__(G2, (1, 0), (1, 0))
