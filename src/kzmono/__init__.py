"""Exact conformal-block spaces and numerical braid monodromy of the
genus-zero Knizhnik-Zamolodchikov connection.

The exact layer (root data, highest-weight modules, Casimir operators,
fusion rules, block subspaces, flatness) runs entirely in rational or
Gaussian-rational arithmetic; floating point enters only for the
configuration-space geometry and the transport ODE.
"""

__version__ = "0.1.0"

from .algebra import (LieAlgebra, ParityReport, build_algebra,
                      casimir_scalar, codim_bound, in_root_lattice,
                      is_admissible, metaplectic_parity, pairing,
                      weyl_dimension)
from .blocks import (BlockSpace, FusionRing, block_dim, block_subspace,
                     classical_tensor_multiplicities, fusion_ring)
from .connection import (KZForm, flatness_check, kz_form,
                         rotation_monodromy)
from .exact import QQi, SRMatrix
from .monodromy import (MonodromyResult, Path, braid_generator, braid_path,
                        braid_word_transport, constant_path,
                        parse_braid_word, projective_compare, rotation_path,
                        transport)
from .reps import (Representation, TensorSystem, casimir_matrix, irrep,
                   tensor_system)
from .sections import SectionSpace, intertwiner, verify_bbw

__all__ = [
    "LieAlgebra", "ParityReport", "build_algebra", "casimir_scalar",
    "codim_bound", "in_root_lattice", "is_admissible", "metaplectic_parity",
    "pairing", "weyl_dimension",
    "BlockSpace", "FusionRing", "block_dim", "block_subspace",
    "classical_tensor_multiplicities", "fusion_ring",
    "KZForm", "flatness_check", "kz_form", "rotation_monodromy",
    "QQi", "SRMatrix",
    "Representation", "TensorSystem", "casimir_matrix", "irrep",
    "tensor_system",
    "SectionSpace", "intertwiner", "verify_bbw",
    "MonodromyResult", "Path", "braid_generator", "braid_path",
    "braid_word_transport", "constant_path", "parse_braid_word",
    "projective_compare", "rotation_path", "transport",
]
