"""Grouped composition: both directions, splits, resolution assembly."""

import random

import numpy as np
import pytest

from trisys import gf3
from trisys.composition import (
    Decomposition,
    SplitDecomposition,
    ag_blocks,
    compose,
    compose_resolution,
    compose_split,
    decompose,
    random_decomposition,
    random_latin,
    resolvable_sts,
    split_ag,
    split_standard_resolution,
)
from trisys.constructions import affine_geometry, kts15, latin_with_mate, small_sts
from trisys.designs import (
    BlockDesign,
    Resolution,
    resolve_td,
    td_from_latin,
    verify_resolution,
    verify_sts,
)


def linear_decomposition(k, t):
    """All sub-systems the stock one, all TDs from the cyclic square."""
    sub = small_sts(t)
    td = td_from_latin(latin_with_mate(t)[0])
    return Decomposition(k=k, T=t, sub_systems=(sub,) * 3**k, tds={b: td for b in ag_blocks(k)})


def test_compose_k1_t3():
    s = compose(linear_decomposition(1, 3))
    assert s.v == 9
    assert verify_sts(s.design).ok
    assert gf3.is_orthogonal(s, gf3.row_space(gf3.generator_gvk(9, 1)))


def test_compose_k1_t7():
    from trisys.designs import p_rank

    s = compose(linear_decomposition(1, 7))
    assert len(s.blocks) == 70
    assert gf3.is_orthogonal(s, gf3.row_space(gf3.generator_gvk(21, 1)))
    assert p_rank(s.design, 3) == 19


def test_compose_k2_t3_rank_at_most_24():
    from trisys.designs import p_rank

    s = compose(linear_decomposition(2, 3))
    assert s.v == 27
    assert p_rank(s.design, 3) <= 24


def test_compose_block_count_identity():
    for k, t in ((1, 3), (1, 7), (2, 3), (2, 1)):
        s = compose(linear_decomposition(k, t))
        v = 3**k * t
        m = 3**k
        expected = m * t * (t - 1) // 6 + (m * (m - 1) // 6) * t * t
        assert len(s.blocks) == expected == v * (v - 1) // 6


def test_compose_t1_gives_affine():
    s = compose(linear_decomposition(2, 1))
    assert s.blocks == affine_geometry(2).sts.blocks


def test_roundtrip_random_decompositions():
    rng = random.Random(42)
    for t in (3, 7, 9):
        for _ in range(3):
            dec = random_decomposition(1, t, rng)
            s = compose(dec)
            assert verify_sts(s.design).ok
            assert gf3.is_orthogonal(s, gf3.row_space(gf3.generator_gvk(3 * t, 1)))
            assert decompose(s, 1) == dec
            assert compose(decompose(s, 1)).blocks == s.blocks
    for k in range(3):
        for t in range(k + 1):
            for order in (3, 7):
                d = random_split_decomposition(k, order, t, rng)
                s = compose(d)
                assert compose(decompose(s, k)).blocks == s.blocks
                if t == 0:
                    assert decompose(s, k) == d


def test_decompose_ag2_at_k1():
    dec = decompose(affine_geometry(2).sts, 1)
    assert dec.T == 3
    assert all(sub.blocks == ((0, 1, 2),) for sub in dec.sub_systems)
    assert set(dec.tds) == {(0, 1, 2)}
    assert len(dec.tds[(0, 1, 2)].blocks) == 9


def test_decompose_rejects_non_divisible():
    with pytest.raises(ValueError):
        decompose(small_sts(7), 1)


def test_decompose_rejects_non_orthogonal():
    # A relabeled composition loses standard-layout orthogonality.
    from trisys.designs import permute_sts

    s = compose(linear_decomposition(1, 3))
    image = list(range(9))
    image[0], image[3] = image[3], image[0]
    with pytest.raises(ValueError, match="as laid out"):
        decompose(permute_sts(s, image), 1)


def test_split_ag_t_equals_k():
    inner, outer = split_ag(2, 2)
    assert len(inner) == 1
    assert tuple(inner[0]) == ag_blocks(2)
    assert outer == []


def test_split_ag_2_1():
    inner, outer = split_ag(2, 1)
    assert [len(g) for g in inner] == [1, 1, 1]
    assert len(outer) == 9  # M(M-3)/6 with M = 9


def test_split_ag_3_1():
    _, outer = split_ag(3, 1)
    assert len(outer) == 108  # M(M-3)/6 with M = 27


def test_split_ag_counts_general():
    for k, t in ((2, 0), (2, 1), (2, 2), (3, 1), (3, 2)):
        inner, outer = split_ag(k, t)
        inner_total = sum(len(g) for g in inner)
        assert inner_total == 3 ** (k - t) * (3**t * (3**t - 1) // 6)
        assert inner_total + len(outer) == 3**k * (3**k - 1) // 6


def test_split_ag_rejects_bad_t():
    with pytest.raises(ValueError):
        split_ag(2, 3)


def random_split_decomposition(k, order, t, rng):
    """The `construct compose --t` recipe: random composed sub-systems of
    order 3^t * order, random Latin-square TDs on the cross-group triples."""
    subs = tuple(compose(random_decomposition(t, order, rng)) for _ in range(3 ** (k - t)))
    _, outer = split_ag(k, t)
    tds = {b: td_from_latin(random_latin(order, rng)) for b in outer}
    return Decomposition(k=k, T=order, sub_systems=subs, tds=tds, t=t)


def test_random_decomposition_is_the_split_recipe():
    # Same seed, same draws: the library recipe at every split level.
    for k in range(3):
        for t in range(k + 1):
            for order in (3, 7):
                for seed in range(2):
                    got = random_decomposition(k, order, random.Random(seed), t)
                    want = random_split_decomposition(k, order, t, random.Random(seed))
                    assert got == want


def split_ingredients(k, t_order):
    """Sub-systems from k=1 compositions, cross TDs from the cyclic square."""
    sub = compose(linear_decomposition(1, t_order))
    _, outer = split_ag(k, 1)
    td = td_from_latin(latin_with_mate(t_order)[0])
    return SplitDecomposition(
        k=k, t=1, T=t_order,
        sub_systems=(sub,) * 3 ** (k - 1),
        tds={b: td for b in outer},
    )


def test_compose_split_k2_t1_T3():
    sd = split_ingredients(2, 3)
    s = compose_split(sd)
    assert s.v == 27
    assert verify_sts(s.design).ok
    assert gf3.is_orthogonal(s, gf3.row_space(gf3.generator_gvk(27, 2)))


def test_compose_split_t_equals_k_is_embedding():
    sub = compose(linear_decomposition(2, 3))
    sd = SplitDecomposition(k=2, t=2, T=3, sub_systems=(sub,), tds={})
    assert compose_split(sd).blocks == sub.blocks


def test_compose_split_t0_equals_compose():
    dec = linear_decomposition(2, 3)
    sd = SplitDecomposition(k=2, t=0, T=3, sub_systems=dec.sub_systems, tds=dict(dec.tds))
    assert compose_split(sd).blocks == compose(dec).blocks


def test_split_rejects_non_orthogonal_subsystem():
    # The Bose system of order 9 in its raw labeling is not orthogonal
    # to the local layout code G(9,1) in general; build one that is not.
    from trisys.designs import permute_sts

    sub = compose(linear_decomposition(1, 3))
    image = list(range(9))
    image[0], image[3] = image[3], image[0]
    bad = permute_sts(sub, image)
    _, outer = split_ag(2, 1)
    td = td_from_latin(latin_with_mate(3)[0])
    if gf3.is_orthogonal(bad, gf3.row_space(gf3.generator_gvk(9, 1))):
        pytest.skip("relabeling accidentally preserved orthogonality")
    with pytest.raises(ValueError):
        SplitDecomposition(
            k=2, t=1, T=3, sub_systems=(bad,) * 3, tds={b: td for b in outer}
        )


def test_split_standard_resolution_k2():
    remainder, res = split_standard_resolution(2)
    assert len(remainder.blocks) == 9
    assert res.n_classes == 3
    assert verify_resolution(remainder, res).ok


def test_compose_resolution_k1_t3():
    dec = linear_decomposition(1, 3)
    ag1 = affine_geometry(1)
    main, mate = latin_with_mate(3)
    res = compose_resolution(
        dec,
        sub_resolutions=(Resolution(((0,),)),) * 3,
        td_resolutions={(0, 1, 2): resolve_td(main, mate)},
        outer_resolution=ag1.standard_resolution,
    )
    assert res.n_classes == 4
    assert verify_resolution(compose(dec).design, res).ok


def test_compose_resolution_k1_t15():
    sts15, res15 = kts15()
    main, mate = latin_with_mate(15)
    dec = Decomposition(
        k=1, T=15, sub_systems=(sts15,) * 3, tds={(0, 1, 2): td_from_latin(main)}
    )
    res = compose_resolution(
        dec,
        sub_resolutions=(res15,) * 3,
        td_resolutions={(0, 1, 2): resolve_td(main, mate)},
        outer_resolution=affine_geometry(1).standard_resolution,
    )
    assert res.n_classes == 22
    assert verify_resolution(compose(dec).design, res).ok


def test_compose_resolution_split_k2_t1_T3():
    sd = split_ingredients(2, 3)
    sub = sd.sub_systems[0]
    # Resolve the order-9 sub-system by composing ingredient resolutions.
    dec9 = linear_decomposition(1, 3)
    main, mate = latin_with_mate(3)
    sub_res = compose_resolution(
        dec9,
        sub_resolutions=(Resolution(((0,),)),) * 3,
        td_resolutions={(0, 1, 2): resolve_td(main, mate)},
        outer_resolution=affine_geometry(1).standard_resolution,
    )
    _, outer_res = split_standard_resolution(2)
    res = compose_resolution(
        sd,
        sub_resolutions=(sub_res,) * 3,
        td_resolutions={b: resolve_td(main, mate) for b in sd.tds},
        outer_resolution=outer_res,
    )
    assert res.n_classes == 13  # (27-1)/2
    assert verify_resolution(compose_split(sd).design, res).ok


def test_compose_resolution_degenerate_t1():
    dec = linear_decomposition(2, 1)
    sq = latin_with_mate(1)[0]
    res = compose_resolution(
        dec,
        sub_resolutions=(Resolution(()),) * 9,
        td_resolutions={b: resolve_td(sq, sq) for b in ag_blocks(2)},
        outer_resolution=affine_geometry(2).standard_resolution,
    )
    assert res.n_classes == 4
    assert verify_resolution(compose(dec).design, res).ok


def test_compose_resolution_rejects_missing_td_resolution():
    dec = linear_decomposition(1, 3)
    with pytest.raises(ValueError):
        compose_resolution(
            dec,
            sub_resolutions=(Resolution(((0,),)),) * 3,
            td_resolutions={},
            outer_resolution=affine_geometry(1).standard_resolution,
        )


def linear_mate_parts(k, T, t=0):
    """A decomposition and compose_resolution's other arguments: sub-systems
    resolvable_sts(3^t * T) with their resolution (the point and no class for
    order 1), every TD the square of latin_with_mate(T) resolved by its mate,
    and as outer resolution AG(k)'s translation one (t = 0), the split one
    (t = 1), or none (t = k: there are no TDs)."""
    m = 3**t * T
    sub, sub_res = resolvable_sts(m) if m > 1 else (small_sts(1), Resolution(()))
    main, mate = latin_with_mate(T)
    _, outer = split_ag(k, t)
    dec = Decomposition(k=k, T=T, sub_systems=(sub,) * 3 ** (k - t),
                        tds=np.repeat(main.cells[None], len(outer), axis=0), t=t)
    if t == k:
        outer_res = Resolution(())
    else:
        outer_res = affine_geometry(k).standard_resolution if t == 0 else split_standard_resolution(k)[1]
    return dec, dict(sub_resolutions=(sub_res,) * len(dec.sub_systems),
                     td_resolutions={b: resolve_td(main, mate) for b in outer},
                     outer_resolution=outer_res)


def per_part_resolution(dec, sub_resolutions, td_resolutions, outer_resolution):
    """The assembly with one lookup per part: each sub-system and each TD
    is placed and looked up in the composed system on its own."""
    composed = compose(dec).design
    m = 3**dec.t * dec.T

    def classes_of(part, r):
        index = composed.lookup(part)
        return [index[c] for c in r.class_arrays()]

    sub_parts = [sub.array + j * m for j, sub in enumerate(dec.sub_systems)]
    # A TD's groups r, T + c, 2T + L move onto S_i1, S_i2, S_i3 of its triple.
    td_parts = {key: td.array + (np.array(key) - np.arange(3)) * dec.T
                for key, td in dec.tds.items()}
    classes = [np.concatenate(cs) for cs in zip(*map(classes_of, sub_parts, sub_resolutions))]
    td_classes = [classes_of(a, td_resolutions[key]) for key, a in td_parts.items()]
    for outer_cls in outer_resolution.class_arrays():
        classes += [np.concatenate(cs) for cs in zip(*(td_classes[i] for i in outer_cls.tolist()))]
    return Resolution([np.sort(c) for c in classes])


@pytest.mark.parametrize("k, T, t", [
    *((k, T, 0) for T in (3, 9) for k in (1, 2, 3)),  # linear mate
    (2, 3, 1), (3, 3, 1), (2, 9, 1),  # t = 1 splits
    (2, 1, 0), (3, 1, 0), (2, 1, 1),  # T = 1: sub-systems without blocks
    (0, 9, 0), (1, 3, 1),  # t = k: no TDs
])
def test_compose_resolution_equals_the_per_part_assembly(k, T, t):
    dec, parts = linear_mate_parts(k, T, t)
    rng = random.Random(100 * k + 10 * T + t)

    def shuffled(r):  # the same classes in a seeded order, so parts differ
        classes = r.class_arrays()
        rng.shuffle(classes)
        return Resolution(classes)

    parts = dict(sub_resolutions=[shuffled(r) for r in parts["sub_resolutions"]],
                 td_resolutions={b: shuffled(r) for b, r in parts["td_resolutions"].items()},
                 outer_resolution=shuffled(parts["outer_resolution"]))
    res = compose_resolution(dec, **parts)
    assert res == per_part_resolution(dec, **parts)
    assert res.n_classes == (dec.v - 1) // 2
    assert verify_resolution(compose(dec).design, res).ok


def test_compose_resolution_makes_one_lookup(monkeypatch):
    dec, parts = linear_mate_parts(2, 9)  # 9 sub-systems and 12 TDs
    calls = []
    lookup = BlockDesign.lookup
    monkeypatch.setattr(BlockDesign, "lookup",
                        lambda self, rows: calls.append(len(rows)) or lookup(self, rows))
    compose_resolution(dec, **parts)
    assert calls == [81 * 80 // 6]  # every block of the composed system at once


def test_random_decomposition_deterministic():
    a = random_decomposition(1, 7, random.Random(5))
    b = random_decomposition(1, 7, random.Random(5))
    assert a == b


def test_plain_decomposition_skips_its_vacuous_orthogonality_check(monkeypatch):
    # G(T, 0) is the all-one row, orthogonal to every 3-point block, so a
    # t = 0 decomposition makes no check; t >= 1 still checks each sub-system.
    subs = (compose(linear_decomposition(1, 3)),) * 3
    squares = [latin_with_mate(3)[0].cells] * len(split_ag(2, 1)[1])
    calls = []
    real = gf3.is_orthogonal
    monkeypatch.setattr(gf3, "is_orthogonal", lambda *a: calls.append(1) or real(*a))
    linear_decomposition(2, 7)
    assert calls == []
    Decomposition(k=2, T=3, sub_systems=subs, tds=squares, t=1)
    assert len(calls) == 3
