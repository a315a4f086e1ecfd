"""Ingredient generators: affine systems, Latin pairs, stock triple systems."""

from itertools import combinations, product

import pytest

from trisys import gf3
from trisys.composition import resolvable_sts
from trisys.constructions import (
    affine_geometry,
    kts15,
    latin_with_mate,
    small_sts,
)
from trisys.designs import (
    are_orthogonal,
    p_rank,
    resolve_td,
    verify_resolution,
    verify_sts,
)
from trisys.resolution import SearchLimits


def brute_force_affine_blocks(k):
    """Oracle: enumerate all 3-subsets with zero tuple sum."""
    tuples = list(product((0, 1, 2), repeat=k))
    out = []
    for a, b, c in combinations(range(3**k), 3):
        if all((x + y + z) % 3 == 0 for x, y, z in zip(tuples[a], tuples[b], tuples[c])):
            out.append((a, b, c))
    return tuple(out)


def test_affine_k1():
    ag = affine_geometry(1)
    assert ag.sts.blocks == ((0, 1, 2),)
    assert ag.standard_resolution.classes == ((0,),)


def test_affine_k2_against_enumeration():
    ag = affine_geometry(2)
    assert ag.sts.blocks == brute_force_affine_blocks(2)
    assert len(ag.sts.blocks) == 12
    assert ag.standard_resolution.n_classes == 4
    assert p_rank(ag.sts.design, 3) == 6


def test_affine_k3():
    ag = affine_geometry(3)
    assert ag.sts.blocks == brute_force_affine_blocks(3)
    assert len(ag.sts.blocks) == 117
    assert ag.standard_resolution.n_classes == 13
    assert p_rank(ag.sts.design, 3) == 23


def test_affine_geometry_built_once_per_k():
    assert affine_geometry(3) is affine_geometry(3)


def test_affine_k0_rejected():
    with pytest.raises(ValueError):
        affine_geometry(0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_affine_orthogonal_to_layout(k):
    ag = affine_geometry(k)
    code = gf3.row_space(gf3.generator_gvk(3**k, k))
    assert gf3.is_orthogonal(ag.sts, code)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_affine_class_sizes(k):
    ag = affine_geometry(k)
    assert all(len(c) == 3 ** (k - 1) for c in ag.standard_resolution.classes)


@pytest.mark.parametrize("t", range(1, 26, 2))
def test_latin_with_mate_orthogonal_sweep(t):
    main, mate = latin_with_mate(t)
    # Oracle: brute-force all t^2 superimposed pairs.
    pairs = {(main.cells[r][c], mate.cells[r][c]) for r in range(t) for c in range(t)}
    assert len(pairs) == t * t
    assert are_orthogonal(main, mate)


def test_latin_with_mate_resolves():
    for t in (3, 7, 9):
        main, mate = latin_with_mate(t)
        res = resolve_td(main, mate)
        assert res.n_classes == t


def test_latin_with_mate_rejects_even():
    with pytest.raises(ValueError):
        latin_with_mate(4)


def test_small_sts_orders():
    for t in (1, 3, 7, 9, 13, 15, 19, 21, 25):
        s = small_sts(t)
        assert s.v == t
        assert len(s.blocks) == t * (t - 1) // 6


def test_small_sts_7_covers_all_pairs():
    s = small_sts(7)
    cover = set()
    for b in s.blocks:
        cover.update(combinations(b, 2))
    assert len(cover) == 21
    assert verify_sts(s.design).ok


def test_small_sts_3():
    assert small_sts(3).blocks == ((0, 1, 2),)


def test_small_sts_9_rank():
    assert p_rank(small_sts(9).design, 3) == 6


def test_small_sts_rejects_bad_order():
    for t in (0, 2, 5, 11, 6):
        with pytest.raises(ValueError):
            small_sts(t)


def test_kts15():
    sts, res = kts15()
    assert len(sts.blocks) == 35
    assert res.n_classes == 7
    assert all(len(c) == 5 for c in res.classes)
    assert verify_sts(sts.design).ok
    assert verify_resolution(sts.design, res).ok


def test_resolvable_sts_3_and_9():
    s3, r3 = resolvable_sts(3)
    assert s3.blocks == ((0, 1, 2),)
    s9, r9 = resolvable_sts(9)
    assert r9.n_classes == 4
    assert verify_resolution(s9.design, r9).ok


def test_resolvable_sts_15():
    s, r = resolvable_sts(15)
    assert len(s.blocks) == 35 and r.n_classes == 7


def test_resolvable_sts_27():
    s, r = resolvable_sts(27)
    assert r.n_classes == 13
    assert verify_sts(s.design).ok
    assert verify_resolution(s.design, r).ok


def test_resolvable_sts_45_by_composition():
    s, r = resolvable_sts(45)
    assert s.v == 45
    assert r.n_classes == 22
    assert verify_sts(s.design).ok
    assert verify_resolution(s.design, r).ok


def test_resolvable_sts_45_verifies_its_system_once(monkeypatch):
    # The composed 45-point system gets one STS certificate: the resolution
    # is assembled on its blocks, not on a second composed system.
    from trisys import designs

    seen = []

    def counting(d):
        seen.append(d.v)
        return verify_sts(d)

    monkeypatch.setattr(designs, "verify_sts", counting)
    resolvable_sts(45)
    assert seen.count(45) == 1


def test_resolvable_sts_rejects_wrong_residue():
    with pytest.raises(ValueError):
        resolvable_sts(7)


def test_resolvable_sts_budget_returns_none():
    # A vanishing budget cannot find anything on an honest search path.
    out = resolvable_sts(33, SearchLimits(node_budget=10, max_classes=5))
    assert out is None
