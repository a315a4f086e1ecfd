"""Resolution search: found, proven absent, and budget-limited outcomes;
verify_resolution against a walk over every index."""

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisys.constructions import affine_geometry, kts15, small_sts
from trisys.designs import BlockDesign, Resolution, VerificationReport, verify_resolution
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


def walk(d, classes):
    """The resolution check index by index, in class order: the oracle."""
    violations = []
    rows = d.array.tolist()
    n = len(rows)
    seen = {}
    for ci, cls in enumerate(classes):
        pts = []
        for idx in cls:
            if not 0 <= idx < n:
                violations.append(f"class {ci}: block index {idx} out of range")
                continue
            if idx in seen:
                violations.append(f"block index {idx} in classes {seen[idx]} and {ci}")
            seen[idx] = ci
            pts.extend(rows[idx])
        if sorted(pts) != list(range(d.v)):
            violations.append(f"class {ci} is not a partition of the points")
    missing = n - len(seen)
    if missing:
        violations.append(f"{missing} blocks not covered by any class")
    return VerificationReport.from_violations(violations)


@cache
def resolved_designs():
    """(design, classes) pairs whose classes resolve the design."""
    out = [(BlockDesign(0, ()), ()), (BlockDesign(3, ((0, 1, 2),)), ((0,),))]
    for k in (1, 2, 3):
        ag = affine_geometry(k)
        out.append((ag.sts.design, ag.standard_resolution.classes))
    s15, r15 = kts15()
    return tuple(out + [(s15.design, r15.classes)])


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_verify_resolution_matches_the_walk(data):
    d, good = data.draw(st.sampled_from(resolved_designs()))
    classes = [list(c) for c in good]
    b = len(d.array)
    for _ in range(data.draw(st.integers(0, 3))):
        op = data.draw(st.sampled_from(["drop", "shuffle", "swap", "move", "empty", "index"]))
        flat = [(i, j) for i, c in enumerate(classes) for j in range(len(c))]
        if op == "drop" and classes:
            del classes[data.draw(st.integers(0, len(classes) - 1))]
        elif op == "shuffle":
            classes = data.draw(st.permutations(classes))
        elif op == "swap" and flat:
            (i, j), (k, m) = data.draw(st.sampled_from(flat)), data.draw(st.sampled_from(flat))
            classes[i][j], classes[k][m] = classes[k][m], classes[i][j]
        elif op == "move" and flat and len(classes) > 1:
            i, j = data.draw(st.sampled_from(flat))
            classes[data.draw(st.integers(0, len(classes) - 1))].append(classes[i].pop(j))
        elif op == "empty":
            classes.insert(data.draw(st.integers(0, len(classes))), [])
        elif op == "index":
            idx = data.draw(st.integers(-3, b + 3))
            if flat:
                i, j = data.draw(st.sampled_from(flat))
                classes[i][j] = idx
            else:
                classes.append([idx])
    given_as = [np.array(c, dtype=np.int64) for c in classes] if data.draw(st.booleans()) else classes
    assert verify_resolution(d, Resolution(given_as)) == walk(d, classes)
