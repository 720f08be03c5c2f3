"""Every caller-supplied integer enters through `errors.require_int`.

Each entry point below takes a level, rank, weight label, degree, count,
point, slot or generator index, or a dimension cap. A float (2.0 too), a
boolean, a string, a Fraction or None there must raise ValidationError,
never be truncated; a numpy integer must give the same result as the
plain int of the same value.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kzmono.algebra import (build_algebra, check_weight, codim_bound,
                            is_admissible, metaplectic_parity)
from kzmono.blocks import admissible_weights, block_subspace, fusion_ring
from kzmono.connection import kz_form
from kzmono.errors import (NonDominantWeightError, ValidationError,
                           require_int)
from kzmono.monodromy import (braid_generator, braid_path,
                              braid_word_transport)
from kzmono.reps import irrep, tensor_system
from kzmono.sections import SectionSpace

from fraction_reference import rational

A1 = build_algebra("A", 1)
SYSTEM = tensor_system(A1, ((1,),) * 4)
POINTS = (0, 1, 3, 7)
FORM = kz_form(SYSTEM, 2)
BLOCK = block_subspace(SYSTEM, 2, POINTS)

# each entry point with its integer argument(s) set to x; the valid value
# used for the numpy comparison is given with it
ENTRIES = {
    "build_algebra rank": (lambda x: build_algebra("A", x), 2),
    "check_weight label": (lambda x: check_weight(A1, (x,)), 1),
    "irrep label": (lambda x: irrep(A1, (x,)).e_int, 2),
    "tensor_system label": (
        lambda x: tensor_system(A1, ((x,), (1,))).weights, 1),
    "tensor_system max_dim": (
        lambda x: tensor_system(A1, ((1,),) * 2, max_dim=x).total_dim, 4),
    "kz_form level": (lambda x: kz_form(SYSTEM, x).prefactor, 2),
    "fusion_ring level": (lambda x: fusion_ring(A1, x).N.tolist(), 2),
    "admissible_weights level": (lambda x: admissible_weights(A1, x), 2),
    "is_admissible level": (lambda x: is_admissible(A1, (1,), x), 1),
    "block_subspace level": (
        lambda x: block_subspace(SYSTEM, x, POINTS).coeffs, 2),
    "block_subspace at_infinity": (
        lambda x: block_subspace(SYSTEM, 2, POINTS, at_infinity=x).coeffs,
        3),
    "SectionSpace degree": (lambda x: SectionSpace(x).e, 3),
    "metaplectic_parity n": (lambda x: metaplectic_parity(A1, x), 3),
    "codim_bound dim_g": (lambda x: codim_bound(x, 2, 1, 6), 3),
    "codim_bound dim_p": (lambda x: codim_bound(3, x, 1, 6), 2),
    "codim_bound dim_zp": (lambda x: codim_bound(3, 2, x, 6), 1),
    "codim_bound n": (lambda x: codim_bound(3, 2, 1, x), 6),
    "omega_pair slot": (lambda x: SYSTEM.omega_pair(x, 1), 0),
    "omega_restricted slot": (
        lambda x: rational(SYSTEM.omega_restricted(0, x)), 2),
    "swap_restricted slot": (lambda x: rational(SYSTEM.swap_restricted(x)),
                             1),
    "braid_path generator": (lambda x: braid_path(POINTS, x).end(), 2),
    "braid_generator index": (
        lambda x: braid_generator(FORM, BLOCK, x).matrix, 1),
    "braid_word_transport letter": (
        lambda x: braid_word_transport(FORM, BLOCK, [1, x]).matrix, 1),
}

NOT_INTEGERS = st.one_of(
    st.sampled_from([2.9, 2.0, True, False, "2", Fraction(2), None]),
    st.floats(), st.fractions(), st.text(max_size=3))


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@settings(max_examples=25, deadline=None)
@given(value=NOT_INTEGERS)
def test_non_integer_raises_validation_error(entry, value):
    call, _valid = ENTRIES[entry]
    # None is the documented "no point at infinity"
    assume(not (entry == "block_subspace at_infinity" and value is None))
    with pytest.raises(ValidationError):
        call(value)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_numpy_integer_equals_plain_int(entry):
    call, valid = ENTRIES[entry]
    expected = call(valid)
    got = call(np.int64(valid))
    if isinstance(expected, np.ndarray):
        assert np.array_equal(got, expected)
    else:
        assert got == expected


def test_require_int_contract():
    assert require_int(np.int32(5), "x") == 5
    assert type(require_int(np.uint8(5), "x")) is int
    assert require_int(0, "x", minimum=0) == 0
    # ValidationError is a ValueError, so range checks stay catchable
    with pytest.raises(ValueError, match="x must be at least 1, not 0"):
        require_int(0, "x", minimum=1)
    with pytest.raises(ValidationError, match="x must be an integer"):
        require_int(np.float64(3.0), "x")
    with pytest.raises(ValidationError):
        require_int(np.bool_(True), "x")


def test_non_sequence_weight_is_a_weight_error():
    for bad in (1, None, 2.5):
        with pytest.raises(NonDominantWeightError):
            check_weight(A1, bad)
