"""Resolvable triple systems of prescribed 3-rank.

Construction by grouped composition, exact GF(3)/GF(p) verification,
resolution search by exact cover, rank forcing, and exact big-integer
counting bounds.
"""

from .bounds import (
    BoundReport,
    agl_order,
    bound_rcw,
    bound_thm1,
    bound_thm1prime,
    bound_thm2,
    example_n3_bound,
    gl2_order,
    min_rank,
)
from .composition import (
    Decomposition,
    SplitDecomposition,
    ag_blocks,
    compose,
    compose_resolution,
    compose_split,
    decompose,
    random_decomposition,
    resolvable_sts,
    split_ag,
    split_standard_resolution,
)
from .constructions import (
    AffineGeometry,
    affine_geometry,
    kts15,
    latin_with_mate,
    small_sts,
)
from .designs import (
    BlockDesign,
    LatinSquare,
    Resolution,
    StsInstance,
    TdInstance,
    VerificationReport,
    are_orthogonal,
    dual_space,
    incidence_matrix,
    p_rank,
    permute_design,
    permute_sts,
    resolve_td,
    td_from_latin,
    verify_resolution,
    verify_sts,
    verify_td,
)
from .gf3 import (
    Subspace,
    generator_gvk,
    intersect_dim,
    is_orthogonal,
    null_space,
    rank,
    row_space,
)
from .rankfix import (
    PointPermutation,
    StructureViolation,
    dual_canonicalize,
    force_exact_rank,
    mix_matrix,
    perm_intersection,
    verify_dual_structure,
)
from .resolution import SearchLimits, SearchOutcome, find_resolution, search_resolution
