"""Pins of the resolution search: its answers, their order and its node counts.

Each pin records what both exact-cover passes return on one input: the
SHA-256 of repr() of the classes (so the class order and the block order
inside each class are fixed), the node count, the class count and the
budget flag.  The values were recorded from the linked-node dancing-links
engine that the bitset engine replaced, so any change to the choice rule,
the row order or the node count shows here.  The c1-9-3, c1-9-7, c1-7-4
and c1-7-2 pins, the rest of the order-27 and order-21 inputs the
benchmark's resolve workload draws, were recorded from the depth-first
bitset engine before the level sweep was added to it.
"""

import hashlib
import random
from functools import lru_cache

import pytest

from trisys.composition import compose, random_decomposition
from trisys.constructions import affine_geometry, small_sts
from trisys.resolution import SearchLimits, enumerate_parallel_classes, search_resolution


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


ABSENT = digest(None)


@lru_cache(maxsize=None)
def system(name: str):
    """"agK" is AG(K), "stsT" the stock system of order T, "cK-T-S" the
    system `construct compose --k K --T T --seed S` writes."""
    if name.startswith("ag"):
        return affine_geometry(int(name[2:])).sts.design
    if name.startswith("sts"):
        return small_sts(int(name[3:])).design
    k, T, seed = map(int, name[1:].split("-"))
    return compose(random_decomposition(k, T, random.Random(seed))).design


# name -> (digest of resolution.classes or of None, nodes_used, classes_found,
# budget_exceeded) under the default limits.
SEARCH = {
    "ag2": ("653d9373157f1e2c6ad6f400078e7f52782784cd948e7f6ad7a7c8ae1cdccfa7", 16, 4, False),
    "ag3": ("6e04edb568bd0daec03e0cf038b5104edabc0a5ad2ff0b435adb997b05f7916d",
            85437, 17641, False),
    "sts9": ("edd70f7b2a8afda733ac84be0cc01cf3861de12b239627fb99a192aec15f34db", 16, 4, False),
    "sts21": (ABSENT, 1458, 64, False),
    "c2-3-0": ("87529b6a3aa0f83a9d83084933d8f9f7501a844c5554cbe07d1206e0fb9c5f4f",
               48455, 5687, False),
    "c2-3-5": ("6059cf6404516197422767bf9ead851e226f6985562a317db9bdb01311fa810a",
               48367, 5671, False),
    "c1-9-2": ("22eab7ed1ed7f2dc1388446e692827008ca24cdd82a820e92d0d707b7935d169",
               39826, 3451, False),
    "c1-7-1": ("9ebb34ad9540847b9e65f0511bcb4ef64727098e9472f8ca03fc636ec19f0e76",
               1795, 237, False),
    "c1-7-0": (ABSENT, 1819, 212, False),
    "c1-9-3": ("91c7c87ff4159639332dabcf7aa6f0cc71325df31f924cd0af4e65fa0e0e3d9d",
               39984, 3495, False),
    "c1-9-7": ("d5b2b2631916256ea95c92636de878b3d9b7ed4e915128888a5de0f6c8676f1d",
               40126, 3583, False),
    "c1-7-4": ("40fccbfe8eb2b96d6ba5f68dece2b1e978fae4bda5773ec992450c19e311804a",
               1722, 212, False),
    "c1-7-2": (ABSENT, 1685, 202, False),
}

# name -> (digest of the classes, class count, complete, nodes) from
# enumerate_parallel_classes under the default limits.
PASS_A = {
    "ag2": ("653d9373157f1e2c6ad6f400078e7f52782784cd948e7f6ad7a7c8ae1cdccfa7", 4, True, 12),
    "ag3": ("d797fb97c9acc8ec119c3fe7f001261a7209332571a443abefa656630318432f",
            17641, True, 85424),
    "sts9": ("edd70f7b2a8afda733ac84be0cc01cf3861de12b239627fb99a192aec15f34db", 4, True, 12),
    "sts21": ("01793019075952b0e7cd5b12419b3acafa31df3f030f54d5d5a0ffc18839bdcb",
              64, True, 1443),
    "c2-3-0": ("0d93e5db86a6df0c9197b016f5fd864139271962b9b861d94bcfd39415322267",
               5687, True, 48090),
    "c2-3-5": ("b1f1bc2b6a721e56cfc9419c8e3335a221b1304d2de09f14533502694a5d67c7",
               5671, True, 48151),
    "c1-9-2": ("015ca9aa14fd917f909a2e5c9e0711159f3b9d9b77610613b36f241dce80c5c1",
               3451, True, 39808),
    "c1-7-1": ("973f71dcd2f54b852a9beff3682626ea1227030df8d8efbcf61fb55cd934e3d5",
               237, True, 1781),
    "c1-7-0": ("06e19d4d1e1cc392ec15dbb9b2e83a24e0f388150ed4a69f7ec1e16cb715b5aa",
               212, True, 1714),
    "c1-9-3": ("5b36a760e2b0b2e185d238609d9ddcbceed6940de411176f654dd7d478015c93",
               3495, True, 39879),
    "c1-9-7": ("6d8549aad2d2b276d204c6856f902cf2478f91d42a2e881d33e4781a311aacb4",
               3583, True, 40094),
    "c1-7-4": ("81441d62ff8f782efc9ce69d9a54bb9ca8e340a1d0bbbe3ed676211f7fab5327",
               212, True, 1692),
    "c1-7-2": ("03466a729323da6d4462505d786addefa0df5d5993122e4c5af699f2309f44b4",
               202, True, 1674),
}


@pytest.mark.parametrize("name", sorted(SEARCH))
def test_search_resolution_pinned(name):
    classes_digest, nodes, n_classes, exceeded = SEARCH[name]
    out = search_resolution(system(name))
    found = out.resolution is not None
    assert found == (classes_digest != ABSENT)
    assert out.exhausted == (not found and not exceeded)
    assert digest(out.resolution.classes if found else None) == classes_digest
    assert (out.nodes_used, out.classes_found, out.budget_exceeded) == (
        nodes, n_classes, exceeded
    )


@pytest.mark.parametrize("name", sorted(PASS_A))
def test_parallel_classes_pinned(name):
    classes, complete, nodes = enumerate_parallel_classes(system(name))
    assert (digest(classes), len(classes), complete, nodes) == PASS_A[name]


# AG(3) under a node budget: budget -> (search_resolution's nodes_used and
# classes_found, then enumerate_parallel_classes' digest and nodes).  Every
# cut-off stops in pass A, after budget + 1 node tries.
BUDGET = {
    10: (11, 0, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d", 11),
    1000: (1001, 197, "601d8d3db744254ee8cd310ab84863845d6863f6d208f17126ca3c1118afed02",
           1001),
    50000: (50001, 10337, "4615965f721d18d9bd9072fbe2db2a4f287271b9692ee14a916987bcad612dcb",
            50001),
}


@pytest.mark.parametrize("budget", sorted(BUDGET))
def test_budget_cutoff_pinned(budget):
    nodes_used, n_classes, classes_digest, nodes_a = BUDGET[budget]
    out = search_resolution(system("ag3"), SearchLimits(node_budget=budget))
    assert out.resolution is None and out.budget_exceeded
    assert (out.nodes_used, out.classes_found) == (nodes_used, n_classes)
    classes, complete, nodes = enumerate_parallel_classes(system("ag3"), node_budget=budget)
    assert (digest(classes), len(classes), complete, nodes) == (
        classes_digest, n_classes, False, nodes_a
    )


def test_class_cap_pinned():
    classes, complete, nodes = enumerate_parallel_classes(system("sts21"), max_classes=3)
    assert classes == (
        (0, 19, 37, 41, 48, 49, 60),
        (0, 23, 30, 37, 41, 45, 49),
        (0, 23, 27, 44, 46, 58, 66),
    )
    assert (complete, nodes) == (False, 118)
    out = search_resolution(system("sts21"), SearchLimits(max_classes=3))
    assert out.resolution is None
    assert (out.nodes_used, out.classes_found, out.budget_exceeded) == (118, 3, True)


def test_bose33_budget_pinned():
    out = search_resolution(system("sts33"), SearchLimits(node_budget=2 * 10**5))
    assert out.resolution is None and out.budget_exceeded
    assert (out.nodes_used, out.classes_found) == (200_001, 1_599)
