"""Representations: Chevalley relations, Casimirs, invariants, Omega^ij."""

import dataclasses
import hashlib
import json
from fractions import Fraction

import pytest

import kzmono.reps as reps
from kzmono.algebra import build_algebra, casimir_scalar
from kzmono.blocks import admissible_weights
from kzmono.errors import (ConstructionError, DimensionCapError,
                           NonDominantWeightError)
from kzmono.exact import SRMatrix, commutator, nullspace
from kzmono.reps import (casimir_constants, casimir_matrix, irrep,
                         local_omega, rep_to_json, root_vectors,
                         tensor_system)

A1 = build_algebra("A", 1)
A2 = build_algebra("A", 2)
G2 = build_algebra("G", 2)


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
            assert rep.e[i].is_zero()
            assert rep.f[i].is_zero()
            assert rep.h[i].is_zero()


@pytest.mark.parametrize("alg,lam", [
    (A1, (1,)), (A1, (3,)), (A2, (1, 0)), (A2, (1, 1)), (A2, (2, 1)),
    (G2, (1, 0)), (G2, (0, 1)),
])
def test_chevalley_and_serre_relations_exact(alg, lam):
    rep = irrep(alg, lam)
    rank = alg.rank
    for i in range(rank):
        for j in range(rank):
            # [h_i, e_j] = cartan[j][i] e_j and likewise with -f_j
            assert commutator(rep.h[i], rep.e[j]) == \
                rep.e[j].scale(Fraction(alg.cartan[j][i]))
            assert commutator(rep.h[i], rep.f[j]) == \
                rep.f[j].scale(Fraction(-alg.cartan[j][i]))
            # [e_i, f_j] = delta_ij h_i
            lhs = commutator(rep.e[i], rep.f[j])
            assert lhs == (rep.h[i] if i == j else
                           SRMatrix(rep.dim, rep.dim))
            assert commutator(rep.h[i], rep.h[j]).is_zero()
            if i != j:
                # Serre: ad(e_i)^{1 - cartan[j][i]} e_j = 0
                acc = rep.e[j]
                for _ in range(1 - alg.cartan[j][i]):
                    acc = commutator(rep.e[i], acc)
                assert acc.is_zero()
                acc = rep.f[j]
                for _ in range(1 - alg.cartan[j][i]):
                    acc = commutator(rep.f[i], acc)
                assert acc.is_zero()


def test_highest_weight_vector_is_first_and_killed_by_e():
    rep = irrep(A2, (2, 1))
    assert rep.basis_weights[0] == (2, 1)
    for i in range(2):
        assert all(c != 0 for (r, c) in rep.e[i].data)  # column 0 never hit


@pytest.mark.parametrize("alg,lam", [
    (A1, (1,)), (A1, (4,)), (A2, (1, 0)), (A2, (1, 1)),
    (G2, (1, 0)), (G2, (0, 1)),
])
def test_casimir_matrix_is_the_right_scalar(alg, lam):
    rep = irrep(alg, lam)
    expected = SRMatrix.identity(rep.dim).scale(casimir_scalar(alg, lam))
    assert casimir_matrix(rep) == expected


def test_casimir_constants_simple_roots():
    # <e_i, f_i> = 1/d_i; for A1 normalisation that is 1
    assert casimir_constants(A1) == (Fraction(1),)
    # G2 roots sort by height then lex, so (0,1) (long, d=1) precedes
    # (1,0) (short, d=1/3)
    cs = casimir_constants(G2)
    assert cs[0] == 1
    assert cs[1] == 3


def test_root_vectors_heights_and_nonzero():
    rep = irrep(A2, (1, 1))
    ems, fms = root_vectors(rep)
    assert len(ems) == 3
    for em, fm in zip(ems, fms):
        assert not em.is_zero()
        assert not fm.is_zero()


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
    g = rep.gram
    assert g.transpose() == g
    for i in range(alg.rank):
        assert rep.e[i].transpose() @ g == g @ rep.f[i]
    for (r, c) in g.data:
        assert rep.basis_weights[r] == rep.basis_weights[c]


def test_wider_type_constructions():
    cases = [("B", 2, (0, 1), 4), ("B", 2, (1, 0), 5),
             ("C", 3, (1, 0, 0), 6), ("D", 4, (1, 0, 0, 0), 8),
             ("F", 4, (0, 0, 0, 1), 26), ("E", 6, (1, 0, 0, 0, 0, 0), 27)]
    for series, rank, lam, dim in cases:
        alg = build_algebra(series, rank)
        rep = irrep(alg, lam)
        assert rep.dim == dim
        expected = SRMatrix.identity(dim).scale(casimir_scalar(alg, lam))
        assert casimir_matrix(rep) == expected


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
            gens = [getattr(rep, kind)[i] for rep in sys.factors]
            assert sys.slot_sum(gens, basis).is_zero()


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
    m1 = full - SRMatrix.identity(4).scale(half)
    m2 = full + SRMatrix.identity(4).scale(Fraction(3, 2))
    assert (m1 @ m2).is_zero()
    trace = sum(full.get(g, g) for g in range(4))
    assert trace == 3 * half - Fraction(3, 2)
    # multiplicity split: rank of (full - 1/2) is 1
    assert nullspace(m1).ncols == 3


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
    total = SRMatrix(d, d)
    for i in range(4):
        for j in range(i + 1, 4):
            total = total + sys.omega_restricted(i, j)
    scalar = -sys.sum_casimirs() / 2
    assert scalar == -3
    assert total == SRMatrix.identity(d).scale(scalar)
    # trace identity quoted for this case
    assert sum(total.get(a, a) for a in range(d)) == -6


def test_omega_commutes_with_diagonal_action():
    sys = tensor_system(A2, ((1, 0), (0, 1), (1, 0)))
    om = sys.omega_pair(0, 1)
    for i in range(A2.rank):
        for kind in ("e", "f"):
            gens = [getattr(rep, kind)[i] for rep in sys.factors]
            assert commutator(om, sys.slot_sum(gens)).is_zero()


def test_omega_self_adjoint_for_invariant_gram():
    # the restricted two-slot Casimirs are symmetric for the product
    # contravariant form: Omega^T G = G Omega, exactly
    for sys in (tensor_system(A1, ((1,), (1,), (2,), (2,))),
                tensor_system(A2, ((1, 0), (0, 1), (1, 0), (0, 1)))):
        g = sys.invariant_gram()
        assert g.transpose() == g
        assert nullspace(g).ncols == 0
        for i in range(sys.n):
            for j in range(i + 1, sys.n):
                om = sys.omega_restricted(i, j)
                assert om.transpose() @ g == g @ om


def test_kohno_relations_on_full_space():
    sys = tensor_system(A1, ((1,), (1,), (1,), (1,)))
    om = {(i, j): sys.omega_pair(i, j)
          for i in range(4) for j in range(i + 1, 4)}
    assert commutator(om[(0, 1)], om[(2, 3)]).is_zero()
    assert commutator(om[(0, 2)], om[(1, 3)]).is_zero()
    for (i, j, k) in [(0, 1, 2), (0, 1, 3), (1, 2, 3)]:
        assert commutator(om[(i, j)], om[(i, k)] + om[(j, k)]).is_zero()


def test_swap_restricted_is_involution():
    sys = tensor_system(A1, ((1,), (1,), (1,), (1,)))
    m = sys.swap_restricted(0)
    assert m @ m == SRMatrix.identity(sys.invariant_dim)
    with pytest.raises(ValueError):
        tensor_system(A1, ((1,), (2,))).swap_restricted(0)
    with pytest.raises(ValueError):
        sys.swap_restricted(3)


def test_restrict_rejects_operator_leaving_invariants():
    # e_1 on one slot raises the weight of every invariant off zero
    system = tensor_system(A1, ((1,),) * 4)
    with pytest.raises(ValueError, match="preserve"):
        system.restrict_local((0,), system.factors[0].e[0])


def test_restrict_local_reads_unit_rows():
    system = tensor_system(A1, ((1,),) * 4)
    basis = system.invariant_basis
    # the slot-0 Casimir is the scalar 3/2 on V_1, so on the invariants too
    x = system.restrict_local((0,), casimir_matrix(system.factors[0]))
    assert x == SRMatrix.identity(system.invariant_dim).scale(Fraction(3, 2))
    # a non-scalar restriction meets the witness basis @ X == image
    local = local_omega(A1, (1,), (1,))
    x = system.restrict_local((1, 2), local)
    assert x != SRMatrix.identity(system.invariant_dim).scale(x.get(0, 0))
    assert basis @ x == system.apply_local((1, 2), local, basis)


def test_invariant_basis_must_be_identity_on_unit_rows(monkeypatch):
    # a basis scaled by 2 spans the same space but is 2 on its free rows,
    # which every restriction reads X off; it is refused once, at build
    real = reps.nullspace
    monkeypatch.setattr(reps, "nullspace",
                        lambda *mats: real(*mats).scale(2))
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
]


def _module_text(rep):
    gram = [[r, c, v.numerator, v.denominator]
            for r, c, v in rep.gram.entries()]
    return rep_to_json(rep) + json.dumps(gram)


@pytest.mark.parametrize("series,rank,lam,digest", FROZEN_MODULES,
                         ids=["A2-(2,1)", "G2-(1,1)", "B3-(0,0,1)",
                              "F4-(0,0,0,1)", "C3-(1,0,1)", "A3-(1,1,0)",
                              "D4-(0,1,0,0)", "G2-(2,0)"])
def test_module_matrices_frozen(series, rank, lam, digest):
    rep = irrep(build_algebra(series, rank), lam)
    text = _module_text(rep)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_fusion_ladder_modules_frozen():
    # one digest over every admissible module of the rings A2 k=5, A3 k=2,
    # G2 k=3 and F4 k=2, in ring order and then admissible-weight order
    digest = hashlib.sha256()
    count = 0
    for series, rank, k in [("A", 2, 5), ("A", 3, 2), ("G", 2, 3),
                            ("F", 4, 2)]:
        alg = build_algebra(series, rank)
        for lam in admissible_weights(alg, k):
            rep = irrep(alg, lam)
            assert {type(v) for m in (*rep.e, *rep.f, rep.gram)
                    for v in m.data.values()} <= {Fraction}
            digest.update(_module_text(rep).encode())
            count += 1
    assert count == 42
    assert digest.hexdigest() == \
        "715c4e867632dc99ff2c2bccce8b09f0e5390ced270d15027f469672f9e924bb"


def test_dimension_check_raises(monkeypatch):
    # negative control: a Weyl dimension one too large must be caught
    true_dim = irrep(A2, (1, 1)).dim
    monkeypatch.setattr("kzmono.algebra.weyl_dimension",
                        lambda alg, lam: true_dim + 1)
    with pytest.raises(ConstructionError, match="Weyl dimension"):
        reps._irrep.__wrapped__(A2, (1, 1))


def test_casimir_constants_checks_simple_roots():
    # A1 with d_1 = 1/2 would need <e, f> = 2; the module gives 1
    bad = dataclasses.replace(build_algebra("A", 1),
                              symmetrizers=(Fraction(1, 2),))
    with pytest.raises(ConstructionError, match="simple root 1"):
        casimir_constants(bad)
