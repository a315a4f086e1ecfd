"""The package's public surface as `from trisys import *` delivers it."""

import trisys

PUBLIC_NAMES = (
    "AffineGeometry",
    "BlockDesign",
    "BoundReport",
    "Decomposition",
    "LatinSquare",
    "PointPermutation",
    "Resolution",
    "SearchLimits",
    "SearchOutcome",
    "SplitDecomposition",
    "StructureViolation",
    "StsInstance",
    "Subspace",
    "TdInstance",
    "VerificationReport",
    "affine_geometry",
    "ag_blocks",
    "agl_order",
    "are_orthogonal",
    "bound_rcw",
    "bound_thm1",
    "bound_thm1prime",
    "bound_thm2",
    "compose",
    "compose_resolution",
    "compose_split",
    "decompose",
    "dual_canonicalize",
    "dual_space",
    "example_n3_bound",
    "find_resolution",
    "force_exact_rank",
    "generator_gvk",
    "gl2_order",
    "incidence_matrix",
    "intersect_dim",
    "is_orthogonal",
    "kts15",
    "latin_with_mate",
    "min_rank",
    "mix_matrix",
    "null_space",
    "p_rank",
    "perm_intersection",
    "permute_design",
    "permute_sts",
    "rank",
    "random_decomposition",
    "resolvable_sts",
    "resolve_td",
    "row_space",
    "search_resolution",
    "small_sts",
    "split_ag",
    "split_standard_resolution",
    "td_from_latin",
    "verify_dual_structure",
    "verify_resolution",
    "verify_sts",
    "verify_td",
)


def test_star_import_binds_every_public_name():
    assert len(set(PUBLIC_NAMES)) == 60
    namespace: dict = {}
    exec("from trisys import *", namespace)
    missing = [name for name in PUBLIC_NAMES if name not in namespace]
    assert missing == []
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(trisys, name)
