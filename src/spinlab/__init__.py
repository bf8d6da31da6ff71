"""Exact-arithmetic construction and verification of the Z2-graded
algebras so + spin module, of the Kac Jordan superalgebra, and of the
related Tits construction, over Q and GF(p)."""

from .fields import Field, InvalidField, QQ, GF, make_field
from .clifford import (AmbientSpace, PairBasis, DegenerateForm, ambient_space,
                       pair_basis, qpair, so_dim, rho_tables, half_spin_masks)
from .superalgebra import (SuperAlgebra, VerificationReport, check_jacobi,
                           ideal_closure, simplicity_certificate,
                           even_subalgebra, equivariant_map_dim,
                           verify_isomorphism, SCHEMA_VERSION)
from .construct import (build_superalgebra, classify, decompose_type_d_l2,
                        module_masks)
from .composition import (CompositionAlgebra, make_composition,
                          derivation_algebra, inner_derivation, check_lemma_C)
from .kac import ch3_scan
from .tits import (TitsModel, TITS_DIMS, build_tits, tits_model, tits_bracket,
                   unit_ideal_split, build_so_MQ, phi0, spin_map_psi,
                   phi1_intertwine, cross_identify_with_typeB)

__version__ = "0.1.0"

__all__ = [
    "Field", "InvalidField", "QQ", "GF", "make_field",
    "AmbientSpace", "PairBasis", "DegenerateForm", "ambient_space",
    "pair_basis", "qpair", "so_dim", "rho_tables", "half_spin_masks",
    "SuperAlgebra", "VerificationReport", "check_jacobi", "ideal_closure",
    "simplicity_certificate", "even_subalgebra", "equivariant_map_dim",
    "verify_isomorphism", "SCHEMA_VERSION",
    "build_superalgebra", "classify", "decompose_type_d_l2",
    "module_masks",
    "CompositionAlgebra", "make_composition", "derivation_algebra",
    "inner_derivation", "check_lemma_C",
    "ch3_scan",
    "TitsModel", "TITS_DIMS", "build_tits", "tits_model",
    "tits_bracket", "unit_ideal_split", "build_so_MQ", "phi0",
    "spin_map_psi", "phi1_intertwine", "cross_identify_with_typeB",
]
