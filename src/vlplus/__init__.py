"""Exact toolkit for the plus-fixed-point algebra of an even lattice.

Everything is integer or rational arithmetic; there are no floats and
no tolerances.  The main entry points:

  validate_even_lattice   Gram matrix -> lattice
  classify_modules        census of irreducible-module labels
  character               exact graded dimensions
  fusion_dim              fusion-dimension queries (0 / 1 / unknown)
  branch_orthogonal       decomposition over rank-one factors
  branch_sublattice       decomposition over a sublattice subalgebra
  certify                 per-pair extension-vanishing certificate
"""

from .lattice import (
    CosetElement,
    DiscriminantGroup,
    EvenLattice,
    LatticeError,
    coset_element,
    delta_set,
    discriminant_group,
    epsilon_cocycle,
    mod_two_data,
    norm2_vectors,
    orthogonal_sublattice,
    validate_even_lattice,
)
from .sectors import (
    ModuleLabel,
    classify_modules,
    contragredient,
    format_label,
    parse_label,
    series_denominator,
    top_level_dimension,
)
from .qseries import QSeries, character, euler_product_inv, theta_coset
from .fusion import (
    FusionAnswer,
    SignOracle,
    admissible_triple,
    fusion_dim,
)
from .branching import (
    BranchList,
    branch_orthogonal,
    branch_sublattice,
    verify_branch,
)
from .certify import ExtCertificate, ExtJustification, certify, verify_certificate

__all__ = [
    "BranchList",
    "CosetElement",
    "DiscriminantGroup",
    "EvenLattice",
    "ExtCertificate",
    "ExtJustification",
    "FusionAnswer",
    "LatticeError",
    "ModuleLabel",
    "QSeries",
    "SignOracle",
    "admissible_triple",
    "branch_orthogonal",
    "branch_sublattice",
    "certify",
    "character",
    "classify_modules",
    "contragredient",
    "coset_element",
    "delta_set",
    "discriminant_group",
    "epsilon_cocycle",
    "euler_product_inv",
    "format_label",
    "fusion_dim",
    "mod_two_data",
    "norm2_vectors",
    "orthogonal_sublattice",
    "parse_label",
    "series_denominator",
    "theta_coset",
    "top_level_dimension",
    "validate_even_lattice",
    "verify_branch",
    "verify_certificate",
]
