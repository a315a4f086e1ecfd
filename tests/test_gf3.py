"""Exact linear algebra: ranks, layout generators, null spaces, orthogonality."""

import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisys import gf3
from trisys.constructions import affine_geometry, small_sts
from trisys.designs import incidence_matrix


def brute_force_dual(blocks, v):
    """Oracle: all GF(3)^v vectors orthogonal to every block, by enumeration."""
    out = []
    for vec in product((0, 1, 2), repeat=v):
        if all(sum(vec[p] for p in b) % 3 == 0 for b in blocks):
            out.append(vec)
    return out


def test_rank_zero_matrix():
    assert gf3.rank(np.zeros((3, 3), dtype=int)) == 0


def test_rank_identity():
    assert gf3.rank(np.eye(4, dtype=int)) == 4


def test_rank_g91_rows():
    # The two generator rows of G(9,1) are independent.
    g = gf3.generator_gvk(9, 1)
    assert gf3.rank(g) == 2


def test_generator_g91_layout():
    g = gf3.generator_gvk(9, 1)
    assert g.tolist() == [[1] * 9, [0, 0, 0, 1, 1, 1, 2, 2, 2]]


def test_generator_k0_is_allone():
    g = gf3.generator_gvk(12, 0)
    assert g.tolist() == [[1] * 12]


def test_generator_g273_columns():
    g = gf3.generator_gvk(27, 3)
    assert g.shape == (4, 27)
    cols = [tuple(int(x) for x in g[1:, j]) for j in range(27)]
    assert cols == sorted(product((0, 1, 2), repeat=3))
    assert gf3.rank(g) == 4


@pytest.mark.parametrize("v,k", [(3, 1), (9, 1), (9, 2), (27, 1), (27, 3), (63, 2), (45, 1)])
def test_generator_rank_is_k_plus_1(v, k):
    assert gf3.rank(gf3.generator_gvk(v, k)) == k + 1


def test_generator_divisibility_error():
    with pytest.raises(ValueError):
        gf3.generator_gvk(10, 1)


def test_null_space_identity_is_zero():
    assert gf3.null_space(np.eye(3, dtype=int)).dim == 0


def test_null_space_allone_row():
    s = gf3.null_space(np.ones((1, 3), dtype=int))
    assert s.dim == 2
    assert s.contains([1, 2, 0])


def test_null_space_ag2_is_layout_code():
    # Brute-force oracle: the dual of the affine plane on 9 points.
    ag = affine_geometry(2)
    dual_vectors = brute_force_dual(ag.sts.blocks, 9)
    assert len(dual_vectors) == 27  # 3^3, so dimension 3
    s = gf3.null_space(incidence_matrix(ag.sts.design))
    assert s.dim == 3
    assert all(s.contains(vec) for vec in dual_vectors)
    assert s == gf3.row_space(gf3.generator_gvk(9, 2))


def test_rank_nullity_random():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randrange(1, 8)
        cols = rng.randrange(1, 8)
        m = np.array(
            [[rng.randrange(3) for _ in range(cols)] for _ in range(rows)], dtype=int
        )
        assert gf3.null_space(m).dim + gf3.rank(m) == cols


@pytest.mark.parametrize("p", [2, 5, 7, 11, 251])
def test_rank_other_primes(p):
    m = np.array([[1, 1, 0], [0, 1, 1], [1, 2, 1]], dtype=int)
    # Third row = first + second, so rank 2 over every prime field.
    assert gf3.rank(m, p) == 2


def test_rank_rejects_nonprime():
    with pytest.raises(ValueError):
        gf3.rank(np.eye(2, dtype=int), 6)
    with pytest.raises(ValueError):
        gf3.rank(np.eye(2, dtype=int), 257)


def test_intersect_self():
    g = gf3.row_space(gf3.generator_gvk(9, 1))
    assert gf3.intersect_dim(g, g) == 2


def test_intersect_complementary():
    a = gf3.row_space([[1, 0, 0, 0], [0, 1, 0, 0]])
    b = gf3.row_space([[0, 0, 1, 0], [0, 0, 0, 1]])
    assert gf3.intersect_dim(a, b) == 0


def test_intersect_symmetry_random():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randrange(2, 7)
        a = gf3.row_space([[rng.randrange(3) for _ in range(n)] for _ in range(2)])
        b = gf3.row_space([[rng.randrange(3) for _ in range(n)] for _ in range(2)])
        assert gf3.intersect_dim(a, b) == gf3.intersect_dim(b, a)


def test_intersect_dimension_mismatch():
    a = gf3.row_space([[1, 0]])
    b = gf3.row_space([[1, 0, 0]])
    with pytest.raises(ValueError):
        gf3.intersect_dim(a, b)


def test_orthogonal_ag2():
    # Oracle: every affine block has zero tuple sum, giving orthogonality
    # to both generator rows directly.
    ag = affine_geometry(2)
    assert gf3.is_orthogonal(ag.sts, gf3.row_space(gf3.generator_gvk(9, 2)))


def test_orthogonal_zero_subspace():
    s7 = small_sts(7)
    assert gf3.is_orthogonal(s7, gf3.Subspace.zero(7))


def test_orthogonal_fano_unit_vector_false():
    s7 = small_sts(7)
    e0 = gf3.row_space([[1, 0, 0, 0, 0, 0, 0]])
    assert not gf3.is_orthogonal(s7, e0)


def test_subspace_canonical_equality():
    a = gf3.row_space([[1, 1, 1], [0, 1, 2]])
    b = gf3.row_space([[1, 2, 0], [2, 2, 2]])  # same span, different spanning set
    assert a == b
    assert hash(a) == hash(b)
    assert a != gf3.row_space([[1, 1, 1]])
    assert a != a.basis
    assert gf3.Subspace(4, a.basis) != a  # the ambient dimension alone differs
    assert gf3.Subspace.zero(3) != gf3.Subspace.zero(4)


@pytest.mark.parametrize("image", [[0, 0, 1], [2, 2, 2], [0, 1], [0, 1, 2, 3], [0, 1, 3]])
def test_permute_rejects_non_bijection(image):
    # A repeated target once left an output column as uninitialised memory.
    with pytest.raises(ValueError, match="not a permutation"):
        gf3.permute_columns(np.array([[1, 2, 0], [0, 1, 1]]), image)
    s = gf3.row_space(np.array([[1, 1, 1], [0, 1, 2]]))
    with pytest.raises(ValueError, match="not a permutation"):
        gf3.permute_subspace(s, image)


def test_permute_columns_roundtrip():
    rng = random.Random(3)
    m = np.array([[rng.randrange(3) for _ in range(6)] for _ in range(2)], dtype=int)
    image = rng.sample(range(6), 6)
    pm = gf3.permute_columns(m, image)
    for j in range(6):
        assert list(pm[:, image[j]]) == list(m[:, j])


def gathered_sums(basis, blocks, p):
    """Oracle: every basis row's sum over every block, gathered in full."""
    return (basis[:, blocks].sum(axis=2) % p).any(axis=0)


@st.composite
def bases_and_blocks(draw):
    """A basis of dim rows (entries -4..7, so some need reducing) on v points,
    and blocks in shuffled order: some planted to pass, on points 3i, 3i+1
    and 3i+2 whose third column is minus the sum of the other two, and the
    rest random, most of which fail."""
    dim = draw(st.sampled_from([0, 1, 20, 21, 22, 42, 43]))
    v = draw(st.integers(3, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = rng.integers(-4, 8, size=(dim, v))
    planted = draw(st.integers(0, v // 3))
    starts = 3 * np.arange(planted)
    basis[:, starts + 2] = -(basis[:, starts] + basis[:, starts + 1]) + 3 * rng.integers(-1, 2)
    random_blocks = rng.integers(0, v, size=(draw(st.integers(0, 40)), 3))
    blocks = np.vstack([starts[:, None] + np.arange(3), random_blocks])
    order = rng.permutation(len(blocks))
    chunk = draw(st.sampled_from([1, 4, 7, 1 << 16]))
    return basis, blocks[order], order < planted, chunk


@settings(max_examples=150, deadline=None)
@given(bases_and_blocks())
def test_packed_sums_match_the_gather(case):
    # p = 3 sums the points' packed columns: dims straddle the 21 fields of
    # a word, and chunks of 1, 4 and 7 blocks put blocks across chunk ends.
    basis, blocks, planted, chunk = case
    with pytest.MonkeyPatch.context() as m:
        m.setattr(gf3, "_GATHER_CHUNK", chunk)
        got = gf3._nonzero_sums(basis, blocks, 3)
    want = gathered_sums(basis, blocks, 3)
    assert got.dtype == bool and got.tolist() == want.tolist()
    assert not got[planted].any()


@pytest.mark.parametrize("p", [2, 5, 7])
def test_other_primes_take_the_gather(monkeypatch, p):
    def refuse(basis):
        raise AssertionError("packed columns at p != 3")

    monkeypatch.setattr(gf3, "_packed_columns", refuse)
    rng = np.random.default_rng(p)
    basis, blocks = rng.integers(0, p, size=(5, 12)), rng.integers(0, 12, size=(30, 3))
    assert gf3._nonzero_sums(basis, blocks, p).tolist() == gathered_sums(basis, blocks, p).tolist()
    with pytest.raises(AssertionError, match="packed columns"):
        gf3._nonzero_sums(basis, blocks, 3)
