"""Fermion-to-qubit encodings with exact Pauli and GF(2) algebra."""

from .encoding import (
    AffineEncoding,
    NotClassical,
    StabiliserTableau,
    affine_to_linear,
    detect_classical,
    majoranas_of_affine,
    tableau_of_affine,
)
from .gf2 import BinMatrix, Singular, named_matrix, random_invertible
from .mapping import (
    FermionQubitMapping,
    NonProduct,
    PauliSum,
    fock_state,
    named_mapping,
    vacuum_stabilizers,
    vacuum_state,
    validate,
    weight_stats,
)
from .pauli import PauliString, ProductState
from .ttree import (
    TernaryTree,
    braided_real_pairing,
    canonical_mapping,
    complete_tree,
    pair_for_vacuum,
    parse_tree,
    revacuum,
    tree_matrix,
)

__all__ = [
    "AffineEncoding",
    "BinMatrix",
    "FermionQubitMapping",
    "NonProduct",
    "NotClassical",
    "PauliString",
    "PauliSum",
    "ProductState",
    "Singular",
    "StabiliserTableau",
    "TernaryTree",
    "affine_to_linear",
    "braided_real_pairing",
    "canonical_mapping",
    "complete_tree",
    "detect_classical",
    "fock_state",
    "majoranas_of_affine",
    "named_mapping",
    "named_matrix",
    "pair_for_vacuum",
    "parse_tree",
    "random_invertible",
    "revacuum",
    "tableau_of_affine",
    "tree_matrix",
    "vacuum_stabilizers",
    "vacuum_state",
    "validate",
    "weight_stats",
]

__version__ = "0.1.0"
