"""Resolution search: found, proven absent, and budget-limited outcomes."""

import pytest

from trisys.constructions import affine_geometry, small_sts
from trisys.designs import verify_resolution
from trisys.resolution import (
    SearchLimits,
    enumerate_parallel_classes,
    find_resolution,
    search_resolution,
)


@pytest.mark.parametrize("field", ["node_budget", "max_classes"])
def test_search_limits_reject_negative_values(field):
    with pytest.raises(ValueError, match=f"^{field} must be >= 0, got -1$"):
        SearchLimits(**{field: -1})
    assert getattr(SearchLimits(**{field: 0}), field) == 0


@pytest.mark.parametrize("field", ["node_budget", "max_classes"])
def test_parallel_classes_reject_negative_limits(field):
    d = affine_geometry(2).sts.design
    with pytest.raises(ValueError, match=f"^{field} must be >= 0, got -1$"):
        enumerate_parallel_classes(d, **{field: -1})
    classes, complete, nodes = enumerate_parallel_classes(d, **{field: 0})
    assert (classes, complete) == ((), False)


def test_find_resolution_affine_9():
    ag = affine_geometry(2)
    res = find_resolution(ag.sts)
    assert res is not None
    assert res.n_classes == 4
    assert verify_resolution(ag.sts.design, res).ok


def test_find_resolution_any_sts9():
    s = small_sts(9)
    res = find_resolution(s)
    assert res is not None
    assert verify_resolution(s.design, res).ok


def test_find_resolution_sts15():
    s = small_sts(15)
    res = find_resolution(s, SearchLimits(node_budget=10**6, max_classes=10**4))
    if res is not None:
        assert verify_resolution(s.design, res).ok


def test_find_resolution_rejects_wrong_order():
    with pytest.raises(ValueError):
        find_resolution(small_sts(7))


def test_search_proves_absence_on_bose21():
    # The stock order-21 system has only 64 parallel classes, which
    # cannot cover its 70 blocks: a complete search proves nonexistence.
    out = search_resolution(small_sts(21).design, SearchLimits(node_budget=10**6))
    assert out.resolution is None
    assert not out.budget_exceeded
    assert out.exhausted
    assert out.classes_found == 64


def test_search_budget_exhaustion_is_flagged():
    out = search_resolution(small_sts(21).design, SearchLimits(node_budget=10))
    assert out.resolution is None
    assert out.budget_exceeded
    assert not out.exhausted


def test_class_cap_is_flagged():
    out = search_resolution(
        small_sts(21).design, SearchLimits(node_budget=10**6, max_classes=3)
    )
    assert out.classes_found == 3
    assert out.budget_exceeded


def test_search_is_deterministic():
    s = small_sts(9)
    a = search_resolution(s.design)
    b = search_resolution(s.design)
    assert a.resolution == b.resolution
    assert a.nodes_used == b.nodes_used
