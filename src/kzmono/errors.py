"""Exception hierarchy.

Three families matter to callers (and fix the CLI exit codes):
input validation (bad weights, coincident points, size caps), internal
construction identities failing (a bug, never user error), and oracle
mismatches (block subspace dimension disagreeing with the fusion rules).

Every integer a caller supplies (rank, level, weight label, degree, point,
slot or generator index, dimension cap) enters through `require_int`, in
the library and the CLI alike, so both refuse the same values.
"""

import numpy as np


class KzmonoError(Exception):
    """Base class for all package errors."""


class ValidationError(KzmonoError, ValueError):
    """Invalid user input; CLI exit code 2."""


def require_int(value, name, minimum=None):
    """value as a plain int, if it is an int or numpy integer >= minimum.

    bool, float (2.0 too), Fraction, str and None raise ValidationError
    rather than being truncated or coerced; so does a value below minimum.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, not {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be at least {minimum}, "
                              f"not {value}")
    return value


class InvalidAlgebraError(ValidationError):
    """(series, rank) is not a simple type we construct."""


class NonDominantWeightError(ValidationError):
    pass


class InadmissibleWeightError(ValidationError):
    pass


class CoincidentPointsError(ValidationError):
    """Marked points must stay pairwise distinct."""


class DimensionCapError(ValidationError):
    """Tensor product dimension exceeds the configured cap."""


class ConstructionError(KzmonoError):
    """An exact identity that must hold by construction failed; CLI exit 1."""


class FusionValidationError(ConstructionError):
    """Fusion table failed symmetry/unit/associativity verification."""


class NoIntertwinerError(ConstructionError):
    """No equivariant isomorphism found where one must exist."""


class OracleMismatchError(KzmonoError):
    """Dual-route check disagreed (e.g. block dim vs fusion dim); CLI exit 3."""


class TransportError(KzmonoError):
    """Numerical transport failed or exceeded tolerances; CLI exit 1."""


class PathSingularError(TransportError):
    """Path came too close to a diagonal z_i = z_j; carries the offending t."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t
