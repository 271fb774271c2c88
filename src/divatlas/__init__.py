"""divatlas: exact-arithmetic divisor-variety atlases on symmetric products.

Everything is computed over the rationals with arbitrary precision;
there is no floating point anywhere in the package.
"""

from .linalg import RationalMatrix, gauss_rank, image_basis, in_span, rank
from .tensors import (
    SKEW,
    SYM,
    SkewTensor,
    SubspaceBasis,
    SymTensor,
    apply_linear_map,
    contraction_matrix,
    enc,
    enclosing_space,
    is_in_power_of,
    random_decomposable,
    random_tensor,
    subset_rank,
    subset_unrank,
    sym_power,
    sym_product,
    tensor_from_json,
    tensor_to_json,
    wedge,
)
from .brill_noether import (
    achieved_r,
    big_R,
    lambda_grd,
    rho,
    small_r,
    w_dim,
    w_top_points,
)
from .subspaces import (
    e_max,
    e_max_sym,
    normalize_e,
    sec_dim_printed,
    sub_dim,
    sub_dim_tangent,
)
from .atlas import (
    ComponentRecord,
    IntersectionRecord,
    atlas_report,
    canonical_analysis,
    component_count,
    components,
    deformable,
    fiber_dim,
    intersections,
    jump_strata,
)

__version__ = "0.1.0"
