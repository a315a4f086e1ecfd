"""Pins of the point permutations rank forcing builds and of the stock
triple systems.

The digests were recorded while these objects were computed with Python
tuples, dicts and `collections.Counter`, so these tests show that the
index-array code produces exactly the same permutations, blocks and
classes, and raises the same layout-sort failure.
"""

import hashlib
import json

import pytest

from trisys.constructions import kts15, small_sts
from trisys.designs import BlockDesign
from trisys.rankfix import StructureViolation, perm_intersection, verify_dual_structure


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def test_perm_intersection_images_golden():
    cases = [
        (T, t, list(perm_intersection(T, t).image))
        for T in range(4, 200)
        for t in range(6)
        if T % 3**t == 0
    ]
    assert len(cases) == 292
    assert digest(cases) == "9a4c7533869cb7d2ce1d83a0ffc3aec11b4686ff764561492a76d70302439903"


def test_small_sts_blocks_golden():
    orders = [t for t in range(1, 100) if t % 6 in (1, 3)]
    blocks = [[t, [list(b) for b in small_sts(t).blocks]] for t in orders]
    assert digest(blocks) == "710206c55f4c85cc9e4cf23f3527812e51dc31545bbc894cc57b2e303f8843a1"


def test_kts15_golden():
    sts, resolution = kts15()
    assert digest([list(b) for b in sts.blocks]) == (
        "a133d411ce20fd6a9e300a430ff3bff270e1a1f04652a14b74d0560222979401"
    )
    assert digest([list(c) for c in resolution.classes]) == (
        "2c2e803e05f37d0716e264bd68d3564f44dd9074b6a4f112be34c117643f98e5"
    )


def test_kts15_resolution_classes_golden():
    # The resolution the search finds for the order-15 system: a change in
    # the search engine must not silently change the stock system.
    assert kts15()[1].classes == (
        (0, 19, 25, 30, 32),
        (1, 9, 18, 28, 34),
        (2, 10, 17, 21, 23),
        (3, 11, 14, 22, 33),
        (4, 12, 13, 24, 27),
        (5, 7, 16, 26, 31),
        (6, 8, 15, 20, 29),
    )


def test_layout_sort_rejects_uneven_column_tuples():
    # The dual is spanned by the all-one vector and the unit vector of
    # point 1, so the one row extending the all-one vector takes one value
    # on five columns and another on one, where a layout code takes each
    # of 0, 1, 2 on exactly two.
    d = BlockDesign(6, [(0, 2, 5), (0, 3, 4), (0, 3, 5), (2, 3, 5)])
    with pytest.raises(StructureViolation) as exc:
        verify_dual_structure(d)
    assert str(exc.value) == "column tuples are not uniformly distributed over the value space"
