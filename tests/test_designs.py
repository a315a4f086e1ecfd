"""Design types, axiom verifiers, p-rank, Latin square machinery."""

import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from trisys.composition import compose, random_decomposition, random_latin
from trisys.constructions import affine_geometry, latin_with_mate, small_sts
from trisys.designs import (
    BlockDesign,
    LatinSquare,
    Resolution,
    StsInstance,
    are_orthogonal,
    p_rank,
    permute_design,
    permute_sts,
    resolve_td,
    td_from_latin,
    transport_resolution,
    verify_resolution,
    verify_sts,
    verify_td,
)

FANO = ((0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (0, 4, 5), (1, 5, 6), (0, 2, 6))


def test_block_design_normalizes_and_sorts():
    d = BlockDesign(5, ((4, 2, 0), (3, 1, 0)))
    assert d.blocks == ((0, 1, 3), (0, 2, 4))


def test_block_design_stores_its_blocks_once():
    a = compose(random_decomposition(4, 7, random.Random(1))).array
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        d = BlockDesign(567, a)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 1.5 * a.nbytes
    assert "blocks" not in vars(d)
    assert d.blocks == tuple(map(tuple, a.tolist()))


def test_block_design_equality_and_hash_follow_the_array():
    from_triples = BlockDesign(7, FANO)
    from_array = BlockDesign(7, np.array(FANO[::-1]))
    assert from_triples == from_array
    assert hash(from_triples) == hash(from_array)
    assert {from_triples, from_array} == {from_triples}
    assert BlockDesign(8, FANO) != from_triples
    assert BlockDesign(7, FANO[1:]) != from_triples
    assert from_triples != FANO
    assert from_triples != from_triples.array
    assert from_triples != StsInstance(from_triples)


@pytest.mark.parametrize("v", [2**21, 2**21 + 1, 3_000_000])
def test_block_design_lookup_past_int64_codes(v):
    # The code (a*v + b)*v + c of the last block is v^3 - 1: it fits in
    # int64 up to v = 2^21 and wraps beyond.  At v = 3,000,000 the middle
    # blocks start at 1,100,000 and 2,000,000.
    a, b = 11 * v // 30, 2 * v // 3
    d = BlockDesign(v, [(0, 1, 2), (a, a + 1, a + 2), (b, b + 1, b + 2), (v - 3, v - 2, v - 1)])
    assert d.lookup(d.array).tolist() == [0, 1, 2, 3]
    assert d.lookup(d.array[::-1]).tolist() == [3, 2, 1, 0]
    with pytest.raises(KeyError) as info:
        d.lookup(np.array([[0, 1, 2], [0, 1, v - 1]]))
    assert info.value.args == ((0, 1, v - 1),)


def test_block_design_rejects_bad_blocks():
    with pytest.raises(ValueError):
        BlockDesign(4, ((0, 1, 1),))
    with pytest.raises(ValueError):
        BlockDesign(4, ((0, 1, 4),))
    with pytest.raises(ValueError):
        BlockDesign(4, ((0, 1, 2), (2, 1, 0)))


def test_verify_sts_ag2():
    assert verify_sts(affine_geometry(2).sts.design).ok


def test_verify_sts_pair_covered_twice():
    rep = verify_sts(BlockDesign(4, ((0, 1, 2), (0, 1, 3))))
    assert not rep.ok
    assert any("(0, 1) covered 2" in v for v in rep.violations)


def test_verify_sts_fano():
    # Oracle: check all 21 pairs by direct enumeration.
    d = BlockDesign(7, FANO)
    cover = {pair: 0 for pair in combinations(range(7), 2)}
    for b in FANO:
        for pair in combinations(sorted(b), 2):
            cover[pair] += 1
    assert all(c == 1 for c in cover.values())
    assert verify_sts(d).ok


def pair_report(v, blocks):
    """Oracle: "pair (p, q) covered n times" for every pair covered more than
    once, ascending, then every pair covered 0 times, ascending."""
    cover = {pair: 0 for pair in combinations(range(v), 2)}
    for b in blocks:
        for pair in combinations(sorted(b), 2):
            cover[pair] += 1
    over = [f"pair {p} covered {n} times" for p, n in cover.items() if n > 1]
    return tuple(over + [f"pair {p} covered 0 times" for p, n in cover.items() if n == 0])


@pytest.mark.parametrize("v,blocks", [
    (4, ((0, 1, 2), (0, 1, 3))),
    (7, ((0, 1, 2),) + FANO[1:]),
    (7, FANO[:1] + ((0, 1, 5),) + FANO[2:]),
])
def test_verify_sts_with_as_many_pair_codes_as_pairs_names_every_fault(v, blocks):
    # 3b = v(v-1)/2 pair codes, some pair covered twice and another missing:
    # the marks show a repeated code, and the sorted count names every fault.
    assert 3 * len(blocks) == v * (v - 1) // 2
    want = pair_report(v, blocks)
    rep = verify_sts(BlockDesign(v, np.array(blocks)))
    assert not rep.ok and rep.violations == want
    assert "covered 2 times" in want[0] and "covered 0 times" in want[-1]
    with pytest.raises(ValueError) as info:
        StsInstance(BlockDesign(v, blocks))
    assert str(info.value) == f"not an STS: {want[0]}"


def test_verify_sts_passes_by_marks_without_a_sort(monkeypatch):
    # A passing system of exactly v(v-1)/2 pair codes never reaches np.unique.
    designs = [BlockDesign(7, FANO), affine_geometry(3).sts.design,
               compose(random_decomposition(2, 7, random.Random(1))).design]

    def refuse(*args, **kwargs):
        raise AssertionError("np.unique on a passing system")

    monkeypatch.setattr(np, "unique", refuse)
    assert all(verify_sts(d).ok for d in designs)
    assert verify_sts(BlockDesign(0, ())).ok and verify_sts(BlockDesign(1, ())).ok


def test_sts_instance_rejects_invalid():
    with pytest.raises(ValueError):
        StsInstance(BlockDesign(4, ((0, 1, 2),)))


def test_verify_td_cyclic_order3():
    td = td_from_latin(latin_with_mate(3)[0])
    assert len(td.blocks) == 9
    assert verify_td(td.design, td.groups).ok


def test_verify_td_block_inside_group():
    groups = ((0, 1, 2), (3, 4, 5), (6, 7, 8))
    rep = verify_td(BlockDesign(9, ((0, 1, 2),)), groups)
    assert not rep.ok


def test_verify_td_literal_order7():
    # The order-7 transversal design given by a+b+c = 0 (mod 7) on the
    # three consecutive groups of {0..20}.
    blocks = tuple(
        (a, b, c)
        for a in range(7)
        for b in range(7, 14)
        for c in range(14, 21)
        if (a + b + c) % 7 == 0
    )
    groups = (tuple(range(7)), tuple(range(7, 14)), tuple(range(14, 21)))
    assert len(blocks) == 49
    assert verify_td(BlockDesign(21, blocks), groups).ok


def test_td_from_latin_isomorphic_to_literal():
    # Negating the third-group symbol carries the cyclic-square TD onto
    # the literal a+b+c = 0 design.
    td = td_from_latin(latin_with_mate(7)[0])
    image = list(range(14)) + [14 + (-i) % 7 for i in range(7)]
    mapped = permute_design(td.design, image)
    literal = tuple(
        (a, b, c)
        for a in range(7)
        for b in range(7, 14)
        for c in range(14, 21)
        if (a + b + c) % 7 == 0
    )
    assert mapped.blocks == BlockDesign(21, literal).blocks


def test_td_order_one():
    sq = LatinSquare(1, ((0,),))
    td = td_from_latin(sq)
    assert td.blocks == ((0, 1, 2),)


def test_verify_resolution_single_block():
    d = BlockDesign(3, ((0, 1, 2),))
    assert verify_resolution(d, Resolution(((0,),))).ok


def test_verify_resolution_ag2_standard():
    ag = affine_geometry(2)
    assert verify_resolution(ag.sts.design, ag.standard_resolution).ok
    assert ag.standard_resolution.n_classes == 4


def test_verify_resolution_repeated_index():
    d = BlockDesign(3, ((0, 1, 2),))
    rep = verify_resolution(d, Resolution(((0,), (0,))))
    assert not rep.ok


def test_verify_resolution_not_a_partition():
    ag = affine_geometry(2)
    broken = Resolution((ag.standard_resolution.classes[0][:2],))
    assert not verify_resolution(ag.sts.design, broken).ok


def test_resolution_equality_and_hash():
    classes = ((0, 3, 6), (1, 4), ())
    from_tuples = Resolution(classes)
    from_arrays = Resolution([np.array(c, dtype=np.int64) for c in classes])
    assert from_tuples == from_arrays
    assert hash(from_tuples) == hash(from_arrays)
    assert Resolution(np.array([[0, 1], [2, 3]])) == Resolution(((0, 1), (2, 3)))
    assert len({from_tuples, from_arrays, Resolution(classes[:2])}) == 2
    assert Resolution(((0, 1),)) != Resolution(((1, 0),))
    assert Resolution(((0, 1), (2,))) != Resolution(((0,), (1, 2)))
    assert Resolution(((),)) != Resolution(())
    assert from_tuples != classes
    assert from_tuples != from_tuples.index
    # Equal bounds, other index; equal index, other bounds.
    assert Resolution(((0, 1), (2, 3))) != Resolution(((0, 1), (2, 4)))
    assert Resolution(((0, 1), (2, 3))) != Resolution(((0, 1, 2), (3,)))


def test_resolution_classes_hold_python_ints():
    r = Resolution([np.array([4, 0, 2]), np.array([1], dtype=np.int32), [3]])
    assert r.classes == ((4, 0, 2), (1,), (3,))
    assert all(type(i) is int for c in r.classes for i in c)
    assert r.n_classes == 3


def test_resolution_rejects_a_nested_class():
    with pytest.raises(TypeError):
        Resolution([[[0, 1]]])


def test_p_rank_values():
    assert p_rank(affine_geometry(2).sts.design, 3) == 6
    assert p_rank(affine_geometry(3).sts.design, 3) == 23
    assert p_rank(BlockDesign(7, FANO), 5) == 7


def test_p_rank_full_for_other_primes():
    for v, sts in ((7, small_sts(7)), (9, small_sts(9)), (15, small_sts(15))):
        for p in (5, 7):
            assert p_rank(sts.design, p) == v


def test_latin_square_validation():
    with pytest.raises(ValueError):
        LatinSquare(2, ((0, 1), (0, 1)))


def test_resolve_td_order3():
    main, mate = latin_with_mate(3)
    td = td_from_latin(main)
    res = resolve_td(main, mate)
    assert res.n_classes == 3
    assert verify_resolution(td.design, res).ok


def test_resolve_td_order1():
    sq = LatinSquare(1, ((0,),))
    res = resolve_td(sq, sq)
    assert res.classes == ((0,),)


def test_resolve_td_order7():
    main, mate = latin_with_mate(7)
    # Oracle: brute-force the orthogonality of the linear pair.
    seen = {(main.cells[r][c], mate.cells[r][c]) for r in range(7) for c in range(7)}
    assert len(seen) == 49
    res = resolve_td(main, mate)
    assert res.n_classes == 7
    assert all(len(c) == 7 for c in res.classes)
    assert verify_resolution(td_from_latin(main).design, res).ok


def test_resolve_td_rejects_non_orthogonal():
    main, _ = latin_with_mate(3)
    with pytest.raises(ValueError):
        resolve_td(main, main)


def test_resolve_td_rejects_order_mismatch():
    with pytest.raises(ValueError):
        resolve_td(latin_with_mate(3)[0], LatinSquare(1, ((0,),)))


def test_are_orthogonal_negative():
    main, _ = latin_with_mate(3)
    assert not are_orthogonal(main, main)


def test_are_orthogonal_matches_the_pair_set():
    rng = random.Random(5)
    answers = set()
    for t in range(1, 8):
        for _ in range(20):
            a, b = random_latin(t, rng), random_latin(t, rng)
            pairs = {(a.cells[r][c], b.cells[r][c]) for r in range(t) for c in range(t)}
            got = are_orthogonal(a, b)
            assert got is (len(pairs) == t * t)
            answers.add(got)
    assert answers == {True, False}


def test_latin_square_equality_and_hash():
    rows = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    from_tuples = LatinSquare(3, rows)
    from_array = LatinSquare(3, np.array(rows))
    other = LatinSquare(3, ((0, 2, 1), (1, 0, 2), (2, 1, 0)))
    assert from_tuples == from_array
    assert hash(from_tuples) == hash(from_array)
    assert len({from_tuples, from_array, other}) == 2
    assert from_tuples != other and from_array != other
    assert LatinSquare(1, ((0,),)) != LatinSquare(2, ((0, 1), (1, 0)))
    assert from_tuples != from_tuples.cells
    assert from_tuples != rows


def cell_lists(sq):
    return [[int(x) for x in row] for row in sq.cells]


def test_random_latin_cells_pinned():
    pins = {
        0: [[4, 1, 0, 3, 6, 5, 2], [0, 4, 5, 1, 2, 6, 3], [3, 2, 1, 6, 0, 4, 5],
            [5, 0, 6, 4, 3, 2, 1], [2, 6, 3, 5, 4, 1, 0], [1, 3, 4, 2, 5, 0, 6],
            [6, 5, 2, 0, 1, 3, 4]],
        1: [[2, 4, 6, 5, 3, 1, 0], [6, 5, 0, 1, 2, 3, 4], [0, 1, 4, 3, 6, 2, 5],
            [1, 6, 3, 0, 5, 4, 2], [3, 0, 2, 4, 1, 5, 6], [5, 2, 1, 6, 4, 0, 3],
            [4, 3, 5, 2, 0, 6, 1]],
        2: [[3, 2, 5, 0, 1, 4, 6], [4, 6, 3, 5, 0, 2, 1], [5, 4, 0, 1, 6, 3, 2],
            [0, 3, 1, 6, 2, 5, 4], [2, 1, 4, 3, 5, 6, 0], [1, 5, 6, 2, 4, 0, 3],
            [6, 0, 2, 4, 3, 1, 5]],
    }
    for seed, cells in pins.items():
        assert cell_lists(random_latin(7, random.Random(seed))) == cells


def test_latin_with_mate_cells_pinned():
    main, mate = latin_with_mate(5)
    assert cell_lists(main) == [
        [0, 1, 2, 3, 4], [1, 2, 3, 4, 0], [2, 3, 4, 0, 1], [3, 4, 0, 1, 2], [4, 0, 1, 2, 3]
    ]
    assert cell_lists(mate) == [
        [0, 2, 4, 1, 3], [1, 3, 0, 2, 4], [2, 4, 1, 3, 0], [3, 0, 2, 4, 1], [4, 1, 3, 0, 2]
    ]


def test_permute_sts_and_transport_resolution():
    ag = affine_geometry(2)
    image = [8, 0, 1, 2, 3, 4, 5, 6, 7]
    moved = permute_sts(ag.sts, image)
    assert verify_sts(moved.design).ok
    res = transport_resolution(ag.sts.design, ag.standard_resolution, image)
    assert verify_resolution(moved.design, res).ok


def test_block_design_names_a_bad_array_row_as_a_tuple():
    with pytest.raises(ValueError) as info:
        BlockDesign(9, np.array([[0, 1, 2], [3, 4, 9]]))
    assert str(info.value) == "block (3, 4, 9) out of range for v=9"


@pytest.mark.parametrize("v", [9, 2**21, 2**21 + 1, 3_000_000])
def test_block_design_sorts_by_one_key_at_every_v(v):
    # Up to v = 2^21 the key is the packed code, beyond it an (a, b, c)
    # record; both must order rows as a lexicographic sort does.
    rows = np.array([(0, 1, v - 1), (0, 1, 2), (1, 2, 3), (0, 2, 3), (0, 1, 3)])
    d = BlockDesign(v, rows[::-1])
    assert d.array.tolist() == sorted(rows.tolist())
    with pytest.raises(ValueError) as info:
        BlockDesign(v, np.vstack([rows, rows[[4, 2]]]))
    assert str(info.value) == "duplicate block (0, 1, 3)"


def test_block_design_never_freezes_or_aliases_the_callers_array():
    # Sorted rows in increasing order skip the sorts, but the design still
    # holds its own read-only copy: of the caller's array, or of its view.
    whole = np.array(affine_geometry(3).sts.design.array)
    for given in (whole, whole[5:40], whole[::2]):
        before = given.copy()
        d = BlockDesign(27, given)
        assert given.flags.writeable and not np.shares_memory(d.array, given)
        assert not d.array.flags.writeable
        given[0] = (24, 25, 26)
        assert d.array.tolist() == before.tolist()
        given[:] = before


def test_block_design_takes_sorted_rows_without_a_sort(monkeypatch):
    rows = np.array(affine_geometry(3).sts.design.array)

    def refuse(*args, **kwargs):
        raise AssertionError("sorted rows sorted again")

    monkeypatch.setattr(np, "sort", refuse)
    monkeypatch.setattr(np, "argsort", refuse)
    assert BlockDesign(27, rows).array.tolist() == rows.tolist()


def test_block_design_sorted_rows_past_int64_codes():
    # At v = 2^21 + 1 the keys are (a, b, c) records, which take the argsort:
    # rows given sorted or reversed make the same array and lookups.
    v = 2**21 + 1
    rows = np.array([(0, 1, 2), (0, 1, v - 1), (5, 6, 7), (v - 3, v - 2, v - 1)])
    d, r = BlockDesign(v, rows), BlockDesign(v, rows[::-1])
    assert d.array.tolist() == r.array.tolist() == rows.tolist()
    assert d.lookup(rows[::-1]).tolist() == r.lookup(rows[::-1]).tolist() == [3, 2, 1, 0]
    with pytest.raises(ValueError) as info:
        BlockDesign(v, rows[[0, 1, 1, 2]])
    assert str(info.value) == f"duplicate block (0, 1, {v - 1})"


@pytest.mark.parametrize("rows,text", [
    ([[0, 1, 2], [0, 1, 2]], "duplicate block (0, 1, 2)"),
    ([[0, 1, 2], [2, 1, 0]], "duplicate block (0, 1, 2)"),
    ([[3, 4, 5], [0, 1, 2], [3, 4, 5]], "duplicate block (3, 4, 5)"),
    ([[0, 1, 2], [3, 4, 9]], "block (3, 4, 9) out of range for v=9"),
    ([[0, 1, 2], [4, 3, 3]], "block (4, 3, 3) does not have 3 distinct points"),
    ([[0, 1, 2], [-1, 3, 4]], "block (-1, 3, 4) out of range for v=9"),
])
def test_block_design_texts_for_rows_sorted_or_not(rows, text):
    with pytest.raises(ValueError) as info:
        BlockDesign(9, np.array(rows))
    assert str(info.value) == text


@pytest.mark.parametrize("rows", [[[2, 1, 0], [5, 4, 3]], [[3, 4, 5], [0, 1, 2]], [[6, 8, 7], [0, 1, 2]]])
def test_block_design_orders_unsorted_rows(rows):
    given = np.array(rows)
    assert BlockDesign(9, given).array.tolist() == sorted(sorted(r) for r in rows)
    assert given.tolist() == rows
