"""Exact lattice-path counting below a boundary and dimensions of
subset-indexed modules over the planar upper triangular rook monoid."""

from .exact_math import (
    IntMatrix,
    binomial,
    catalan,
    det_exact,
    hockey_stick_sides,
)
from .lattice_paths import (
    BelowEnumeration,
    Direction,
    HeightSequence,
    LatticePath,
    compute_gammas,
    count_below_decreasing_iterative,
    count_below_increasing_determinant,
    count_below_oracle,
    enumerate_below,
    heights_from_path,
    is_below,
    iter_below,
    path_from_heights,
    verify_identity_cor34,
    verify_identity_cor35,
)
from .rook_monoid import (
    PartialInjection,
    compose,
    count_icn,
    enumerate_icn,
    format_two_line,
    identity_map,
    is_order_decreasing,
    is_order_preserving,
    parse_two_line,
    to_rook_matrix,
    zero_map,
)
from .icn_modules import (
    ModuleVector,
    Subset,
    act,
    basis_vector,
    catalan_family_subset,
    dim_catalan_family,
    dim_interval_family,
    dim_mixed_family,
    dim_principal_incl_excl,
    dim_principal_iterative,
    dim_principal_oracle,
    dim_submodule,
    dim_submodule_oracle,
    downset,
    format_module_vector,
    interval_family_subset,
    iter_downset,
    mixed_family_subset,
    parse_module_vector,
    reduced_form,
    reduced_support,
    subset_leq,
    subset_meet,
    submodule_equal,
    zero_vector,
)

__version__ = "0.1.0"
