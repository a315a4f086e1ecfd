"""Exact texts of the design checks on a fixed corpus of bad inputs.

`trisys verify` prints the first violation of a report and the text of a
rejected block list, so these texts are part of the CLI output.  The
expected values were recorded from the per-pair dictionary checks that
preceded the pair-code check on the normalised block array; both must give
the same exception text and the same violations tuple, element for
element.  Two property tests compare both checks with brute-force oracles
on random small inputs.
"""

from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisys.designs import (
    BlockDesign,
    Resolution,
    VerificationReport,
    canonical_td_groups,
    verify_resolution,
    verify_sts,
    verify_td,
)

FANO = ((0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (0, 4, 5), (1, 5, 6), (0, 2, 6))
AG2 = (
    (0, 1, 2), (0, 3, 6), (0, 4, 8), (0, 5, 7), (1, 3, 8), (1, 4, 7),
    (1, 5, 6), (2, 3, 7), (2, 4, 6), (2, 5, 8), (3, 4, 5), (6, 7, 8),
)
# td_from_latin of the cyclic square of order 3: cell (r, c) -> {r, 3+c, 6+(r+c)%3}.
TD3 = tuple((r, 3 + c, 6 + (r + c) % 3) for r in range(3) for c in range(3))
G3 = canonical_td_groups(3)
SHUFFLED = ((8, 6, 7), (2, 0, 1), (4, 5, 3))  # the same partition, listed differently
# The same TD relabelled so that its groups are the residue classes mod 3.
RESIDUES = ((0, 3, 6), (1, 4, 7), (2, 5, 8))
TD3_RES = tuple(tuple(RESIDUES[p // 3][p % 3] for p in b) for b in TD3)


def design(v, blocks):
    return lambda: BlockDesign(v, blocks)


def sts(v, blocks):
    return lambda: verify_sts(BlockDesign(v, blocks))


def td(v, blocks, groups):
    return lambda: verify_td(BlockDesign(v, blocks), groups)


def resolution(classes):
    return lambda: verify_resolution(BlockDesign(3, ((0, 1, 2),)), Resolution(classes))


CASES = {
    # BlockDesign: one bad block of each kind, then mixed lists.
    "negative-v": design(-1, ()),
    "out-of-range-high": design(5, ((0, 1, 5),)),
    "out-of-range-low": design(5, ((-1, 1, 2),)),
    "out-of-range-huge": design(5, ((0, 1, 2**70),)),
    "repeated-point": design(5, ((0, 0, 1),)),
    "two-points": design(5, ((0, 1),)),
    "four-points": design(5, ((0, 1, 2, 3),)),
    "list-block-repr": design(5, ([3, 1, 7],)),
    "array-block-repr": design(5, (np.array([4, 0, 4]),)),
    "not-iterable": design(5, ((0, 1, 2), 7)),
    "set-block": design(5, ({4, 0, 2}, (3, 2, 1))),
    "generator-block": lambda: BlockDesign(5, ((p for p in (4, 3, 0)),)),
    "duplicate": design(5, ((2, 1, 0), (0, 1, 2))),
    "duplicate-first-sorted": design(6, ((3, 4, 5), (1, 2, 3), (5, 4, 3), (3, 2, 1))),
    "mixed-range-then-repeat": design(5, ((0, 1, 2), (3, 4, 9), (1, 1, 2))),
    "mixed-repeat-then-range": design(5, ((1, 2, 1), (3, 4, 9))),
    "mixed-duplicate-and-short": design(5, ((0, 1, 2), (0, 1, 2), (3, 4))),
    "mixed-short-then-range": design(5, ((3, 4), (0, 1, 8))),
    # verify_sts: correct, overcovered, undercovered, both.
    "sts-empty-v0": sts(0, ()),
    "sts-empty-v1": sts(1, ()),
    "sts-empty-v4": sts(4, ()),
    "sts-fano": sts(7, FANO),
    "sts-ag2": sts(9, AG2),
    "sts-ag2-minus-block": sts(9, AG2[:5] + AG2[6:]),
    "sts-twice": sts(4, ((0, 1, 2), (0, 1, 3))),
    "sts-fano-swapped-block": sts(7, FANO[:-1] + ((0, 2, 5),)),
    "sts-fano-extra-block": sts(7, FANO + ((0, 1, 2),)),
    "sts-ag2-plus-three": sts(9, AG2 + ((0, 1, 3), (0, 1, 4), (2, 6, 7))),
    "sts-two-of-fano-on-9": sts(9, FANO[:2]),
    # verify_td: group checks, transversality, cross-pair coverage, count.
    "td-ok": td(9, TD3, G3),
    "td-ok-shuffled-groups": td(9, TD3, SHUFFLED),
    "td-ok-residue-groups": td(9, TD3_RES, RESIDUES),
    "td-two-groups": td(9, TD3, G3[:2]),
    "td-four-groups": td(9, TD3, G3 + ((),)),
    "td-unequal": td(9, TD3, ((0, 1), (2, 3, 4, 5), (6, 7, 8))),
    "td-not-partition": td(9, TD3, ((0, 1, 2), (3, 4, 5), (6, 7, 7))),
    "td-unequal-and-not-partition": td(10, TD3, ((0, 1), (3, 4, 5), (6, 7, 8))),
    "td-inside-group": td(9, ((0, 1, 2),), G3),
    "td-two-in-one-group": td(9, TD3[:-1] + ((2, 5, 8), (0, 1, 4)), G3),
    "td-missing-block": td(9, TD3[:4] + TD3[5:], G3),
    "td-missing-block-shuffled": td(9, TD3[:4] + TD3[5:], SHUFFLED),
    "td-missing-block-residues": td(9, TD3_RES[1:], RESIDUES),
    "td-extra-block": td(9, TD3 + ((0, 3, 7),), G3),
    "td-extra-blocks-shuffled": td(9, TD3 + ((0, 4, 6), (1, 5, 7)), SHUFFLED),
    "td-mixed": td(9, TD3[2:] + ((0, 1, 5), (3, 6, 7), (0, 4, 7), (1, 4, 7)), SHUFFLED),
    "td-empty": td(9, (), SHUFFLED),
    "td-empty-w0": td(0, (), ((), (), ())),
    # verify_resolution: a class naming a block the design does not have.
    "resolution-index-out-of-range": lambda: verify_resolution(
        BlockDesign(3, ((0, 1, 2),)), Resolution(((5,),))
    ),
    # verify_resolution: repeated, negative and missing indices, empty classes.
    "resolution-repeated-across-classes": resolution(((0,), (0,))),
    "resolution-repeated-in-class": resolution(((0, 0),)),
    "resolution-negative-index": resolution(((-1,),)),
    "resolution-empty-class": resolution(((),)),
    "resolution-no-classes": resolution(()),
    "resolution-v0-empty-class": lambda: verify_resolution(BlockDesign(0, ()), Resolution(((),))),
}


def outcome(thunk):
    try:
        result = thunk()
    except Exception as exc:  # the text of any rejection is what is pinned
        return ("raises", type(exc).__name__, str(exc))
    if isinstance(result, BlockDesign):
        return ("design", result.blocks)
    return ("report", result.ok, result.violations)


GOLDEN = {
    'array-block-repr': ('raises', 'ValueError', 'block array([4, 0, 4]) does not have 3 distinct points'),
    'generator-block': ('design', ((0, 3, 4),)),
    'set-block': ('design', ((0, 2, 4), (1, 2, 3))),
    'duplicate': ('raises', 'ValueError', 'duplicate block (0, 1, 2)'),
    'duplicate-first-sorted': ('raises', 'ValueError', 'duplicate block (1, 2, 3)'),
    'four-points': ('raises', 'ValueError', 'block (0, 1, 2, 3) does not have 3 distinct points'),
    'list-block-repr': ('raises', 'ValueError', 'block [3, 1, 7] out of range for v=5'),
    'mixed-duplicate-and-short': ('raises', 'ValueError', 'block (3, 4) does not have 3 distinct points'),
    'mixed-range-then-repeat': ('raises', 'ValueError', 'block (3, 4, 9) out of range for v=5'),
    'mixed-repeat-then-range': ('raises', 'ValueError', 'block (1, 2, 1) does not have 3 distinct points'),
    'mixed-short-then-range': ('raises', 'ValueError', 'block (3, 4) does not have 3 distinct points'),
    'negative-v': ('raises', 'ValueError', 'negative point count v=-1'),
    'not-iterable': ('raises', 'TypeError', "'int' object is not iterable"),
    'out-of-range-high': ('raises', 'ValueError', 'block (0, 1, 5) out of range for v=5'),
    'out-of-range-huge': ('raises', 'ValueError', 'block (0, 1, 1180591620717411303424) out of range for v=5'),
    'out-of-range-low': ('raises', 'ValueError', 'block (-1, 1, 2) out of range for v=5'),
    'resolution-index-out-of-range': ('report', False, (
        'class 0: block index 5 out of range',
        'class 0 is not a partition of the points',
        '1 blocks not covered by any class',
    )),
    'resolution-repeated-across-classes': ('report', False, (
        'block index 0 in classes 0 and 1',
    )),
    'resolution-repeated-in-class': ('report', False, (
        'block index 0 in classes 0 and 0',
        'class 0 is not a partition of the points',
    )),
    'resolution-negative-index': ('report', False, (
        'class 0: block index -1 out of range',
        'class 0 is not a partition of the points',
        '1 blocks not covered by any class',
    )),
    'resolution-empty-class': ('report', False, (
        'class 0 is not a partition of the points',
        '1 blocks not covered by any class',
    )),
    'resolution-no-classes': ('report', False, ('1 blocks not covered by any class',)),
    'resolution-v0-empty-class': ('report', True, ()),
    'repeated-point': ('raises', 'ValueError', 'block (0, 0, 1) does not have 3 distinct points'),
    'sts-ag2': ('report', True, ()),
    'sts-ag2-minus-block': ('report', False, (
        'pair (1, 4) covered 0 times',
        'pair (1, 7) covered 0 times',
        'pair (4, 7) covered 0 times',
    )),
    'sts-ag2-plus-three': ('report', False, (
        'pair (0, 1) covered 3 times',
        'pair (0, 3) covered 2 times',
        'pair (0, 4) covered 2 times',
        'pair (1, 3) covered 2 times',
        'pair (1, 4) covered 2 times',
        'pair (2, 6) covered 2 times',
        'pair (2, 7) covered 2 times',
        'pair (6, 7) covered 2 times',
    )),
    'sts-empty-v0': ('report', True, ()),
    'sts-empty-v1': ('report', True, ()),
    'sts-empty-v4': ('report', False, (
        'pair (0, 1) covered 0 times',
        'pair (0, 2) covered 0 times',
        'pair (0, 3) covered 0 times',
        'pair (1, 2) covered 0 times',
        'pair (1, 3) covered 0 times',
        'pair (2, 3) covered 0 times',
    )),
    'sts-fano': ('report', True, ()),
    'sts-fano-extra-block': ('report', False, (
        'pair (0, 1) covered 2 times',
        'pair (0, 2) covered 2 times',
        'pair (1, 2) covered 2 times',
    )),
    'sts-fano-swapped-block': ('report', False, (
        'pair (0, 5) covered 2 times',
        'pair (2, 5) covered 2 times',
        'pair (0, 6) covered 0 times',
        'pair (2, 6) covered 0 times',
    )),
    'sts-twice': ('report', False, (
        'pair (0, 1) covered 2 times',
        'pair (2, 3) covered 0 times',
    )),
    'sts-two-of-fano-on-9': ('report', False, (
        'pair (0, 2) covered 0 times',
        'pair (0, 4) covered 0 times',
        'pair (0, 5) covered 0 times',
        'pair (0, 6) covered 0 times',
        'pair (0, 7) covered 0 times',
        'pair (0, 8) covered 0 times',
        'pair (1, 5) covered 0 times',
        'pair (1, 6) covered 0 times',
        'pair (1, 7) covered 0 times',
        'pair (1, 8) covered 0 times',
        'pair (2, 3) covered 0 times',
        'pair (2, 5) covered 0 times',
        'pair (2, 6) covered 0 times',
        'pair (2, 7) covered 0 times',
        'pair (2, 8) covered 0 times',
        'pair (3, 4) covered 0 times',
        'pair (3, 5) covered 0 times',
        'pair (3, 6) covered 0 times',
        'pair (3, 7) covered 0 times',
        'pair (3, 8) covered 0 times',
        'pair (4, 5) covered 0 times',
        'pair (4, 6) covered 0 times',
        'pair (4, 7) covered 0 times',
        'pair (4, 8) covered 0 times',
        'pair (5, 6) covered 0 times',
        'pair (5, 7) covered 0 times',
        'pair (5, 8) covered 0 times',
        'pair (6, 7) covered 0 times',
        'pair (6, 8) covered 0 times',
        'pair (7, 8) covered 0 times',
    )),
    'td-empty': ('report', False, (
        'cross pair (2, 8) covered 0 times',
        'cross pair (0, 8) covered 0 times',
        'cross pair (1, 8) covered 0 times',
        'cross pair (2, 6) covered 0 times',
        'cross pair (0, 6) covered 0 times',
        'cross pair (1, 6) covered 0 times',
        'cross pair (2, 7) covered 0 times',
        'cross pair (0, 7) covered 0 times',
        'cross pair (1, 7) covered 0 times',
        'cross pair (4, 8) covered 0 times',
        'cross pair (5, 8) covered 0 times',
        'cross pair (3, 8) covered 0 times',
        'cross pair (4, 6) covered 0 times',
        'cross pair (5, 6) covered 0 times',
        'cross pair (3, 6) covered 0 times',
        'cross pair (4, 7) covered 0 times',
        'cross pair (5, 7) covered 0 times',
        'cross pair (3, 7) covered 0 times',
        'cross pair (2, 4) covered 0 times',
        'cross pair (2, 5) covered 0 times',
        'cross pair (2, 3) covered 0 times',
        'cross pair (0, 4) covered 0 times',
        'cross pair (0, 5) covered 0 times',
        'cross pair (0, 3) covered 0 times',
        'cross pair (1, 4) covered 0 times',
        'cross pair (1, 5) covered 0 times',
        'cross pair (1, 3) covered 0 times',
        'expected 9 blocks, got 0',
    )),
    'td-empty-w0': ('report', True, ()),
    'td-extra-block': ('report', False, (
        'cross pair (0, 3) covered 2 times',
        'cross pair (0, 7) covered 2 times',
        'cross pair (3, 7) covered 2 times',
        'expected 9 blocks, got 10',
    )),
    'td-extra-blocks-shuffled': ('report', False, (
        'cross pair (0, 4) covered 2 times',
        'cross pair (0, 6) covered 2 times',
        'cross pair (1, 5) covered 2 times',
        'cross pair (1, 7) covered 2 times',
        'cross pair (4, 6) covered 2 times',
        'cross pair (5, 7) covered 2 times',
        'expected 9 blocks, got 11',
    )),
    'td-four-groups': ('report', False, ('expected 3 groups, got 4',)),
    'td-inside-group': ('report', False, (
        'block (0, 1, 2) does not meet every group exactly once',
        'cross pair (0, 3) covered 0 times',
        'cross pair (0, 4) covered 0 times',
        'cross pair (0, 5) covered 0 times',
        'cross pair (1, 3) covered 0 times',
        'cross pair (1, 4) covered 0 times',
        'cross pair (1, 5) covered 0 times',
        'cross pair (2, 3) covered 0 times',
        'cross pair (2, 4) covered 0 times',
        'cross pair (2, 5) covered 0 times',
        'cross pair (0, 6) covered 0 times',
        'cross pair (0, 7) covered 0 times',
        'cross pair (0, 8) covered 0 times',
        'cross pair (1, 6) covered 0 times',
        'cross pair (1, 7) covered 0 times',
        'cross pair (1, 8) covered 0 times',
        'cross pair (2, 6) covered 0 times',
        'cross pair (2, 7) covered 0 times',
        'cross pair (2, 8) covered 0 times',
        'cross pair (3, 6) covered 0 times',
        'cross pair (3, 7) covered 0 times',
        'cross pair (3, 8) covered 0 times',
        'cross pair (4, 6) covered 0 times',
        'cross pair (4, 7) covered 0 times',
        'cross pair (4, 8) covered 0 times',
        'cross pair (5, 6) covered 0 times',
        'cross pair (5, 7) covered 0 times',
        'cross pair (5, 8) covered 0 times',
        'expected 9 blocks, got 1',
    )),
    'td-missing-block': ('report', False, (
        'cross pair (1, 4) covered 0 times',
        'cross pair (1, 8) covered 0 times',
        'cross pair (4, 8) covered 0 times',
        'expected 9 blocks, got 8',
    )),
    'td-missing-block-residues': ('report', False, (
        'cross pair (0, 1) covered 0 times',
        'cross pair (0, 2) covered 0 times',
        'cross pair (1, 2) covered 0 times',
        'expected 9 blocks, got 8',
    )),
    'td-missing-block-shuffled': ('report', False, (
        'cross pair (1, 8) covered 0 times',
        'cross pair (4, 8) covered 0 times',
        'cross pair (1, 4) covered 0 times',
        'expected 9 blocks, got 8',
    )),
    'td-mixed': ('report', False, (
        'block (0, 1, 5) does not meet every group exactly once',
        'block (3, 6, 7) does not meet every group exactly once',
        'cross pair (1, 4) covered 2 times',
        'cross pair (1, 7) covered 2 times',
        'cross pair (4, 7) covered 2 times',
        'cross pair (0, 6) covered 0 times',
        'cross pair (3, 6) covered 0 times',
        'cross pair (0, 3) covered 0 times',
        'expected 9 blocks, got 11',
    )),
    'td-not-partition': ('report', False, ('groups do not partition the point set',)),
    'td-ok': ('report', True, ()),
    'td-ok-residue-groups': ('report', True, ()),
    'td-ok-shuffled-groups': ('report', True, ()),
    'td-two-groups': ('report', False, ('expected 3 groups, got 2',)),
    'td-two-in-one-group': ('report', False, (
        'block (0, 1, 4) does not meet every group exactly once',
        'cross pair (2, 8) covered 2 times',
        'cross pair (5, 8) covered 2 times',
        'cross pair (2, 7) covered 0 times',
        'cross pair (5, 7) covered 0 times',
        'expected 9 blocks, got 10',
    )),
    'td-unequal': ('report', False, ('groups have unequal sizes',)),
    'td-unequal-and-not-partition': ('report', False, (
        'groups have unequal sizes',
        'groups do not partition the point set',
    )),
    'two-points': ('raises', 'ValueError', 'block (0, 1) does not have 3 distinct points'),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_violation_texts_are_pinned(name):
    assert outcome(CASES[name]) == GOLDEN[name]


def oracle_sts(v, blocks):
    """Every pair of points counted by brute force over all blocks."""
    count = {pair: sum(set(pair) <= set(b) for b in blocks) for pair in combinations(range(v), 2)}
    over = [f"pair {p} covered {n} times" for p, n in sorted(count.items()) if n > 1]
    return over + [f"pair {p} covered 0 times" for p, n in sorted(count.items()) if n == 0]


def oracle_td(v, blocks, groups):
    """The TD axioms by brute force, in the order verify_td reports them."""
    group_of = {p: i for i, g in enumerate(groups) for p in g}
    good = [b for b in blocks if len({group_of[p] for p in b}) == 3]
    out = [
        f"block {b} does not meet every group exactly once" for b in blocks if b not in good
    ]
    cross = [
        (min(p, q), max(p, q))
        for i, j in combinations(range(3), 2)
        for p in groups[i]
        for q in groups[j]
    ]
    count = {pair: sum(set(pair) <= set(b) for b in good) for pair in cross}
    out += [f"cross pair {p} covered {count[p]} times" for p in sorted(cross) if count[p] > 1]
    out += [f"cross pair {p} covered 0 times" for p in cross if count[p] == 0]
    w = len(groups[0])
    if len(blocks) != w * w:
        out.append(f"expected {w * w} blocks, got {len(blocks)}")
    return out


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_verify_sts_matches_brute_force(data):
    v = data.draw(st.integers(0, 9))
    triples = list(combinations(range(v), 3))
    blocks = data.draw(st.lists(st.sampled_from(triples), unique=True) if triples else st.just([]))
    d = BlockDesign(v, tuple(blocks))
    want = oracle_sts(v, d.blocks)
    assert verify_sts(d) == VerificationReport(not want, tuple(want))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_verify_td_matches_brute_force(data):
    w = data.draw(st.integers(1, 3))
    v = 3 * w
    points = data.draw(st.permutations(range(v)))
    groups = tuple(tuple(points[i * w:(i + 1) * w]) for i in range(3))
    transversal = [tuple(sorted(b)) for b in product(*groups)]
    others = [b for b in combinations(range(v), 3) if b not in transversal]
    blocks = data.draw(st.lists(st.sampled_from(transversal), unique=True))
    if others:
        blocks += data.draw(st.lists(st.sampled_from(others), max_size=3, unique=True))
    d = BlockDesign(v, tuple(blocks))
    want = oracle_td(v, d.blocks, groups)
    assert verify_td(d, groups) == VerificationReport(not want, tuple(want))
