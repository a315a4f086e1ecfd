"""Decompositions hold their TDs as one stack of Latin squares.

The stack path is checked against a test-local copy of the per-object path
it replaced: one LatinSquare, td_from_latin and embedded TD array per cross
triple, drawn with the same rng calls in the same order.
"""

import random

import numpy as np
import pytest

from trisys.composition import Decomposition, compose, decompose, random_decomposition, split_ag
from trisys.constructions import latin_with_mate, small_sts
from trisys.designs import BlockDesign, LatinSquare, StsInstance, permute_sts, td_from_latin

ORDERS = (3, 7, 9, 13)
CASES = [(k, t) for k in range(5) for t in range(k + 1)]


def per_object_latin(T, rng):
    rows = rng.sample(range(T), T)
    cols = rng.sample(range(T), T)
    syms = rng.sample(range(T), T)
    return LatinSquare(T, np.array(syms)[np.add.outer(rows, cols) % T])


def per_object_compose(k, T, t, subs, tds):
    """The composed block array: shifted sub-systems, each TD's local point a
    sent to triple[a // T] * T + a % T."""
    m = 3**t * T
    parts = [sub.array + j * m for j, sub in enumerate(subs)]
    parts += [np.array(triple)[td.array // T] * T + td.array % T for triple, td in tds.items()]
    return BlockDesign(3**k * T, np.concatenate(parts))


def per_object_decomposition(k, T, rng, t=0):
    """(sub-systems, {cross triple: TdInstance}) as random_decomposition drew
    them before the stack: sub-systems first, then one square per triple."""
    base = small_sts(T)

    def select(k, t):
        if t == 0:
            subs = [permute_sts(base, rng.sample(range(T), T)) for _ in range(3**k)]
        else:
            subs = [StsInstance(per_object_compose(t, T, 0, *select(t, 0)))
                    for _ in range(3 ** (k - t))]
        _, outer = split_ag(k, t)
        return subs, {triple: td_from_latin(per_object_latin(T, rng)) for triple in outer}

    return select(k, t)


@pytest.mark.parametrize("T", ORDERS)
@pytest.mark.parametrize("k, t", CASES)
def test_stack_path_equals_the_per_object_path(k, t, T):
    for seed in range(3) if k < 4 else (t + T,):  # one seed per case at v >= 243
        dec = random_decomposition(k, T, random.Random(seed), t)
        subs, tds = per_object_decomposition(k, T, random.Random(seed), t)
        s = compose(dec)
        assert np.array_equal(s.array, per_object_compose(k, T, t, subs, tds).array)
        assert dec.sub_systems == tuple(subs)
        assert list(dec.tds.items()) == list(tds.items())
        assert dec == Decomposition(k=k, T=T, sub_systems=subs, tds=tds, t=t)
        if t == 0:
            assert decompose(s, k) == dec
        assert not dec.squares.flags.writeable
        with pytest.raises(ValueError):
            dec.squares[..., 0] = 0


def test_the_stack_is_a_copy_taken_as_given():
    sq = np.array(latin_with_mate(3)[0].cells)
    stack = sq[None].copy()
    dec = Decomposition(k=1, T=3, sub_systems=(small_sts(3),) * 3, tds=stack)
    stack[0] = stack[0, ::-1]
    assert np.array_equal(dec.squares[0], sq)
    assert dec.tds == {(0, 1, 2): td_from_latin(LatinSquare(3, sq))}


def test_equal_decompositions_hash_alike_and_dedupe():
    a = random_decomposition(2, 7, random.Random(3))
    b = random_decomposition(2, 7, random.Random(3))
    c = random_decomposition(2, 7, random.Random(4))
    assert a == b and a is not b and a != c
    assert hash(a) == hash(b)
    assert hash(random_decomposition(1, 3, random.Random(1))) is not None
    assert len({a, b, c}) == 2
    assert {a, b} == {decompose(compose(a), 2)}


def test_latin_square_checks_match_the_row_walk():
    rng = random.Random(7)
    for T in range(1, 6):
        for _ in range(200):
            # Rows that are permutations, then at times one cell set to any value in -1..T.
            cells = [rng.sample(range(T), T) for _ in range(T)]
            if rng.random() < 0.5:
                cells[rng.randrange(T)][rng.randrange(T)] = rng.randrange(-1, T + 1)
            rows_ok = all(sorted(r) == list(range(T)) for r in cells)
            cols_ok = all(sorted(c) == list(range(T)) for c in zip(*cells))
            if rows_ok and cols_ok:
                assert LatinSquare(T, cells).cells.tolist() == cells
                continue
            with pytest.raises(ValueError) as info:
                LatinSquare(T, cells)
            bad_row = next((r for r in cells if sorted(r) != list(range(T))), None)
            if bad_row is not None:
                assert str(info.value) == f"row {tuple(bad_row)} is not a permutation"
            else:
                col = next(j for j, c in enumerate(zip(*cells)) if sorted(c) != list(range(T)))
                assert str(info.value) == f"column {col} is not a permutation"
