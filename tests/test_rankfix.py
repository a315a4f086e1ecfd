"""Rank forcing: canonicalization, intersection permutations, dual structure."""

import ast
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisys import composition, designs, gf3, rankfix
from trisys.cli import main
from trisys.composition import Decomposition, compose, random_decomposition
from trisys.constructions import affine_geometry, kts15, latin_with_mate, small_sts
from trisys.designs import (
    BlockDesign,
    dual_space,
    p_rank,
    td_from_latin,
    verify_resolution,
    verify_sts,
)
from trisys.rankfix import (
    PointPermutation,
    StructureViolation,
    _extend_basis,
    dual_canonicalize,
    force_exact_rank,
    mix_matrix,
    perm_intersection,
    verify_dual_structure,
)


def aligned_decomposition(t):
    """Identical sub-systems plus the cyclic TD; prone to rank collapse."""
    sub = small_sts(t) if t != 9 else affine_geometry(2).sts
    td = td_from_latin(latin_with_mate(t)[0])
    return Decomposition(k=1, T=t, sub_systems=(sub,) * 3, tds={(0, 1, 2): td})


def test_point_permutation_validation():
    with pytest.raises(ValueError):
        PointPermutation(3, (0, 0, 2))


def test_point_permutation_inverse_and_compose():
    p = PointPermutation(4, (2, 0, 3, 1))
    assert p.after(p.inverse()).image == (0, 1, 2, 3)
    assert p.inverse().after(p).image == (0, 1, 2, 3)


def test_permutation_action_commutes_with_dual():
    rng = random.Random(9)
    s = affine_geometry(2).sts
    for _ in range(5):
        image = rng.sample(range(9), 9)
        p = PointPermutation(9, tuple(image))
        assert p.apply_subspace(dual_space(s.design)) == dual_space(
            p.apply_sts(s).design
        )


def test_dual_canonicalize_ag2():
    sigma, l = dual_canonicalize(affine_geometry(2).sts)
    assert l == 2
    moved = sigma.apply_sts(affine_geometry(2).sts)
    assert dual_space(moved.design) == gf3.row_space(gf3.generator_gvk(9, 2))


def test_dual_canonicalize_fano():
    sigma, l = dual_canonicalize(small_sts(7))
    assert l == 0
    assert dual_space(sigma.apply_sts(small_sts(7)).design) == gf3.row_space(
        gf3.generator_gvk(7, 0)
    )


def test_dual_canonicalize_composed_21():
    dec = aligned_decomposition(7)
    s = compose(dec)
    sigma, l = dual_canonicalize(s)
    assert l == 1
    assert dual_space(sigma.apply_sts(s).design) == gf3.row_space(
        gf3.generator_gvk(21, 1)
    )


def test_dual_canonicalize_random_relabelings():
    # Byte-equal canonical duals no matter how the system is labeled.
    rng = random.Random(4)
    base = affine_geometry(2).sts
    target = gf3.row_space(gf3.generator_gvk(9, 2))
    for _ in range(10):
        p = PointPermutation(9, tuple(rng.sample(range(9), 9)))
        s = p.apply_sts(base)
        sigma, l = dual_canonicalize(s)
        assert l == 2
        assert dual_space(sigma.apply_sts(s).design) == target


@pytest.mark.parametrize("T,t", [(9, 1), (9, 2), (15, 1), (21, 1), (27, 1), (27, 2), (27, 3)])
def test_perm_intersection_sweep(T, t):
    pi = perm_intersection(T, t)
    g = gf3.row_space(gf3.generator_gvk(T, t))
    assert gf3.intersect_dim(g, pi.apply_subspace(g)) == 1


def test_perm_intersection_exhaustive_small_orders():
    # Every admissible (T, t) with T <= 27: 3^t | T, and T > 3 unless t = 0.
    for T in range(1, 28):
        for t in range(0, 4):
            if T % 3**t or (t >= 1 and T <= 3):
                continue
            pi = perm_intersection(T, t)
            g = gf3.row_space(gf3.generator_gvk(T, t))
            assert gf3.intersect_dim(g, pi.apply_subspace(g)) == 1, (T, t)


def test_perm_intersection_t0_identity():
    pi = perm_intersection(12, 0)
    assert pi.image == tuple(range(12))
    g = gf3.row_space(gf3.generator_gvk(12, 0))
    assert gf3.intersect_dim(g, pi.apply_subspace(g)) == 1


def test_perm_intersection_rejects_t3_level1():
    with pytest.raises(ValueError):
        perm_intersection(3, 1)


def test_perm_intersection_rejects_bad_divisibility():
    with pytest.raises(ValueError):
        perm_intersection(15, 2)


def test_mix_matrix_t2():
    assert mix_matrix(2).tolist() == [[0, 2], [2, 1]]


@pytest.mark.parametrize("t", range(2, 7))
def test_mix_matrix_determinant_condition(t):
    m = (np.eye(t, dtype=np.int64) - 2 * mix_matrix(t)) % 3
    assert gf3.rank(m, 3) == t


def test_verify_dual_structure_full_first_group_removed():
    dec = aligned_decomposition(9)
    s = compose(dec)
    first = {tuple(p for p in b) for b in s.blocks if b[2] < 9}
    rest = BlockDesign(27, tuple(b for b in s.blocks if b not in first))
    kprime = verify_dual_structure(rest)
    assert kprime >= 1


def test_verify_dual_structure_empty_removed_matches_l():
    dec = aligned_decomposition(9)
    s = compose(dec)
    _, l = dual_canonicalize(s)
    assert verify_dual_structure(s.design) == l


def test_verify_dual_structure_one_block_removed():
    dec = aligned_decomposition(9)
    s = compose(dec)
    inside = next(b for b in s.blocks if b[2] < 9)
    rest = BlockDesign(27, tuple(b for b in s.blocks if b != inside))
    assert verify_dual_structure(rest) >= 1


def test_verify_dual_structure_trivial_code_is_kprime_zero():
    # All triples on 4 points: the dual collapses to the all-one line,
    # which is the k' = 0 layout code.
    d = BlockDesign(4, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
    assert verify_dual_structure(d) == 0


def test_verify_dual_structure_rejects_non_uniform():
    # One block on 6 points: dual dimension 5, but 3^4 cannot split 6
    # columns evenly, so no relabeled layout code exists.
    d = BlockDesign(6, ((0, 1, 2),))
    with pytest.raises(StructureViolation):
        verify_dual_structure(d)


def test_force_exact_rank_aligned_ag2():
    dec = aligned_decomposition(9)
    before = p_rank(compose(dec).design, 3)
    assert before < 25
    forced = force_exact_rank(compose(dec), dec.k)
    assert p_rank(forced.design, 3) == 25
    assert verify_sts(forced.design).ok
    assert dual_space(forced.design) == gf3.row_space(gf3.generator_gvk(27, 1))
    # Only first-group blocks may differ.
    outside = lambda s: {b for b in s.blocks if b[2] >= 9}
    assert outside(compose(dec)) == outside(forced)


def test_force_exact_rank_kts15_ingredients():
    sts15, res15 = kts15()
    td = td_from_latin(latin_with_mate(15)[0])
    dec = Decomposition(k=1, T=15, sub_systems=(sts15,) * 3, tds={(0, 1, 2): td})
    forced = force_exact_rank(compose(dec), dec.k)
    assert p_rank(forced.design, 3) == 43


def test_force_exact_rank_already_exact():
    rng = random.Random(13)
    dec = random_decomposition(1, 7, rng)
    assert p_rank(compose(dec).design, 3) == 19
    forced = force_exact_rank(compose(dec), dec.k)
    assert p_rank(forced.design, 3) == 19
    assert dual_space(forced.design) == gf3.row_space(gf3.generator_gvk(21, 1))


def test_force_exact_rank_preserves_resolvability():
    # The replaced first sub-system is a relabeling of the original, so it
    # stays resolvable and the whole forced system still resolves.
    from trisys.composition import compose_resolution, decompose
    from trisys.designs import resolve_td
    from trisys.resolution import find_resolution

    sts15, res15 = kts15()
    main, mate = latin_with_mate(15)
    dec = Decomposition(k=1, T=15, sub_systems=(sts15,) * 3, tds={(0, 1, 2): td_from_latin(main)})
    forced = force_exact_rank(compose(dec), dec.k)
    dec_after = decompose(forced, 1)
    new_first_res = find_resolution(dec_after.sub_systems[0])
    assert new_first_res is not None
    res = compose_resolution(
        dec_after,
        sub_resolutions=(new_first_res, res15, res15),
        td_resolutions={(0, 1, 2): resolve_td(main, mate)},
        outer_resolution=affine_geometry(1).standard_resolution,
    )
    assert res.n_classes == 22
    assert verify_resolution(forced.design, res).ok


def test_low_rank_iff_orthogonal_to_some_permuted_code():
    # Constructive two-way check on composed instances: the rank bound
    # certifies a relabeled layout code inside the dual, and vice versa.
    rng = random.Random(21)
    dec = random_decomposition(1, 7, rng)
    s = compose(dec)
    for _ in range(5):
        image = tuple(rng.sample(range(21), 21))
        moved = PointPermutation(21, image).apply_sts(s)
        assert p_rank(moved.design, 3) <= 21 - 1 - 1
        sigma, l = dual_canonicalize(moved)
        assert l >= 1
        # dual(moved) contains sigma^-1(G(21,1)), a permuted layout code.
        code = gf3.row_space(gf3.generator_gvk(21, 1))
        assert gf3.is_orthogonal(moved, sigma.inverse().apply_subspace(code))


def test_force_exact_rank_k2_order63():
    rng = random.Random(17)
    dec = random_decomposition(2, 7, rng)
    forced = force_exact_rank(compose(dec), dec.k)
    assert p_rank(forced.design, 3) == 60
    assert dual_space(forced.design) == gf3.row_space(gf3.generator_gvk(63, 2))


def test_force_exact_rank_rejects_small_orders():
    with pytest.raises(ValueError):
        force_exact_rank(compose(aligned_decomposition(3)), 1)
    dec = aligned_decomposition(9)
    with pytest.raises(ValueError):
        force_exact_rank(
            compose(Decomposition(k=0, T=9, sub_systems=(dec.sub_systems[0],), tds={})), 0
        )
    # A t-split composed system is laid out over G(v, k) too, so it is forced
    # like a plain one.
    split = compose(random_decomposition(2, 7, random.Random(5), t=1))
    forced = force_exact_rank(split, 2)
    assert dual_space(forced.design) == gf3.row_space(gf3.generator_gvk(63, 2))


def test_force_exact_rank_rejects_a_system_not_laid_out():
    # The layout check is decompose's, with its ValueError and text.
    s = compose(random_decomposition(1, 7, random.Random(1)))
    shifted = PointPermutation(21, [(i + 1) % 21 for i in range(21)]).apply_sts(s)
    with pytest.raises(ValueError, match=r"^system is not orthogonal to G\(21,1\) as laid out$"):
        force_exact_rank(shifted, 1)


# (k, T, seed) of plain compose inputs, as `construct compose` draws them.
FORCE_INPUTS = [(3, 7, 1), (2, 13, 5), (1, 13, 3), (2, 9, 1)]


@pytest.mark.parametrize("k, T, seed", FORCE_INPUTS)
def test_force_exact_rank_dense_oracle(k, T, seed):
    # The dual space force_exact_rank derives from dual(B-) must be what a
    # full elimination of the result finds.
    forced = force_exact_rank(compose(random_decomposition(k, T, random.Random(seed))), k)
    v = 3**k * T
    assert dual_space(forced.design) == gf3.row_space(gf3.generator_gvk(v, k))


def test_force_exact_rank_eliminates_one_v_point_design(monkeypatch):
    # B-'s dual is eliminated inside its sub-systems' dual span.
    dec = random_decomposition(2, 7, random.Random(17))
    s = compose(dec)
    seen = []

    def counting(f):
        def wrapper(d, *args):
            seen.append(d.v)
            return f(d, *args)
        return wrapper

    monkeypatch.setattr(rankfix, "dual_space", counting(rankfix.dual_space))
    force_exact_rank(s, dec.k)
    assert seen.count(dec.v) == 1


def test_force_exact_rank_verifies_no_v_point_system(monkeypatch):
    # The input's check is the one STS certificate of a v-point system: the
    # result is valid by construction (test_by_construction pins it), and B-
    # is never composed into a checked system of its own.
    dec = random_decomposition(2, 7, random.Random(17))
    s = compose(dec)
    seen = []

    def counting(d):
        seen.append(d.v)
        return verify_sts(d)

    monkeypatch.setattr(designs, "verify_sts", counting)
    force_exact_rank(s, dec.k)
    assert seen.count(dec.v) == 0


def test_force_rank_builds_no_decomposition(tmp_path, monkeypatch, capsys):
    # construct force-rank reads the first sub-system and B- off the file's
    # block array: no TD is built, and the BlockDesigns it builds are the
    # same few at every k.
    built, tds = {}, []
    post_init, unchecked = BlockDesign.__post_init__, designs._unchecked

    def counting(d):
        built[k].append(d.v)
        post_init(d)

    def recording(cls, **fields):
        tds.append(cls)
        return unchecked(cls, **fields)

    monkeypatch.chdir(tmp_path)
    for k in (2, 3):
        assert main(["construct", "compose", "--k", str(k), "--T", "7", "--out", f"c{k}"]) == 0
        built[k] = []
        with monkeypatch.context() as m:
            m.setattr(BlockDesign, "__post_init__", counting)
            m.setattr(designs.TdInstance, "__post_init__", lambda td: tds.append(type(td)))
            m.setattr(designs, "_unchecked", recording)
            m.setattr(composition, "_unchecked", recording)
            m.setattr(rankfix, "_unchecked", recording)
            assert main(["construct", "force-rank", "--in", f"c{k}.sts.jsonl"]) == 0
    capsys.readouterr()
    v = 3**3 * 7
    assert built[3] == [v, v, 7, 7, v]
    assert len(built[2]) == len(built[3])
    assert designs.TdInstance not in tds


def test_rankfix_imports_nothing_from_composition():
    path = Path(__file__).resolve().parent.parent / "src" / "trisys" / "rankfix.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {name for name in imported if "composition" in name}, imported


def test_force_exact_rank_raises_when_certificate_fails(monkeypatch):
    # With the intersection step disabled, the aligned order-27 system keeps
    # a stray dual vector, and the derived certificate must reject it.
    monkeypatch.setattr(
        rankfix, "perm_intersection", lambda T, t: PointPermutation.identity(T)
    )
    with pytest.raises(AssertionError, match="rank forcing failed"):
        force_exact_rank(compose(aligned_decomposition(9)), 1)


def greedy_extension(rows, d):
    """Keep each basis row of d that raises the rank; None unless the rows
    are independent and lie in d."""
    rows = [np.asarray(r) for r in rows]
    if rows and gf3.rank(np.vstack(rows)) < len(rows):
        return None
    kept = []
    for row in d.basis:
        if gf3.rank(np.vstack(rows + kept + [row])) > len(rows) + len(kept):
            kept.append(row)
    if len(rows) + len(kept) != d.dim:
        return None
    return np.array(kept, dtype=np.int64).reshape(len(kept), d.ambient_dim)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_extend_basis_matches_greedy_loop(data):
    n = data.draw(st.integers(1, 7))
    vec = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    d = gf3.Subspace.from_rows(
        np.array(data.draw(st.lists(vec, max_size=5)), dtype=np.int64).reshape(-1, n), n
    )
    # Rows mostly drawn from d, sometimes arbitrary (possibly outside d).
    in_d = st.lists(st.integers(0, 2), min_size=d.dim, max_size=d.dim).map(
        lambda c: (np.array(c, dtype=np.int64) @ d.basis % 3).tolist()
    )
    rows = data.draw(st.lists(st.one_of(in_d, in_d, vec), min_size=1, max_size=4))
    rows = np.array(rows, dtype=np.int64)
    got = _extend_basis(rows, d)
    want = greedy_extension(rows, d)
    if want is None:
        assert got is None
    else:
        assert got is not None and np.array_equal(got, want)
