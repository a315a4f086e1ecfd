"""Parts that are valid by construction: td_from_latin, permute_sts,
decompose and force_exact_rank build StsInstance/TdInstance without
re-running the axiom check.  Each result must pass the verifiers and equal
the checked construction of the same blocks, and no other code may skip the
check."""

import ast
import random
from pathlib import Path

import pytest

from trisys import rankfix
from trisys.composition import ag_blocks, compose, decompose, random_decomposition, random_latin
from trisys.constructions import affine_geometry, small_sts
from trisys.designs import (
    BlockDesign,
    StsInstance,
    TdInstance,
    canonical_td_groups,
    permute_sts,
    td_from_latin,
    verify_sts,
    verify_td,
)

ORDERS = (3, 7, 9, 13)
SEEDS = range(3)
SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "trisys").glob("*.py"))
UNCHECKED_CALLERS = {"td_from_latin", "permute_sts", "decompose", "force_exact_rank"}


def checked_sts(s):
    return StsInstance(BlockDesign(s.v, s.blocks))


def checked_td(td):
    return TdInstance(BlockDesign(td.v, td.blocks), td.groups)


@pytest.mark.parametrize("order", ORDERS)
def test_td_from_latin_equals_the_checked_td(order):
    for seed in SEEDS:
        sq = random_latin(order, random.Random(seed))
        td = td_from_latin(sq)
        assert type(td) is TdInstance and verify_td(td.design, td.groups).ok
        cells = [(r, order + c, 2 * order + sq.cells[r][c])
                 for r in range(order) for c in range(order)]
        assert td == TdInstance(BlockDesign(3 * order, cells), canonical_td_groups(order))


@pytest.mark.parametrize("order", ORDERS)
def test_permute_sts_equals_the_checked_relabelling(order):
    base = small_sts(order)
    for seed in SEEDS:
        image = random.Random(seed).sample(range(order), order)
        s = permute_sts(base, image)
        assert type(s) is StsInstance and verify_sts(s.design).ok
        relabelled = [tuple(image[p] for p in b) for b in base.blocks]
        assert s == StsInstance(BlockDesign(order, relabelled))


@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize("order", ORDERS)
def test_decompose_parts_equal_the_checked_parts(order, k):
    for seed in SEEDS:
        dec = random_decomposition(k, order, random.Random(seed))
        for sub in dec.sub_systems:
            assert verify_sts(sub.design).ok and sub == checked_sts(sub)
        back = decompose(compose(dec), k)
        assert back == dec
        for sub in back.sub_systems:
            assert type(sub) is StsInstance and verify_sts(sub.design).ok
            assert sub == checked_sts(sub)
        for td in back.tds.values():
            assert type(td) is TdInstance and verify_td(td.design, td.groups).ok
            assert td == checked_td(td)


@pytest.mark.parametrize("t", (0, 1))
@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize("order", (7, 9, 13))
def test_force_exact_rank_parts_equal_the_checked_parts(monkeypatch, order, k, t):
    # The sub-system is the one dual_canonicalize receives; the result is returned.
    subs, canonicalize = [], rankfix.dual_canonicalize

    def capturing(sub):
        subs.append(sub)
        return canonicalize(sub)

    monkeypatch.setattr(rankfix, "dual_canonicalize", capturing)
    for seed in SEEDS:
        dec = random_decomposition(k, order, random.Random(seed), t)
        forced = rankfix.force_exact_rank(compose(dec), k)
        assert type(forced) is StsInstance and verify_sts(forced.design).ok
        assert forced == checked_sts(forced)
        (sub,) = subs
        assert type(sub) is StsInstance and sub.v == order and verify_sts(sub.design).ok
        assert sub == checked_sts(sub)
        subs.clear()


def test_ag_blocks_is_built_once_per_k():
    for k in range(5):
        first = ag_blocks(k)
        assert ag_blocks(k) is first
        assert first == (affine_geometry(k).sts.design.blocks if k else ())


def test_unchecked_constructor_is_called_only_where_parts_are_valid_by_construction():
    callers, stray = set(), []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner, call_funcs = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    owner[id(inner)] = node.name  # innermost def wins: walked last
            if isinstance(node, ast.Call):
                call_funcs.add(id(node.func))
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if isinstance(node, ast.alias) and node.name == "_unchecked" and node.asname:
                stray.append(f"{path.name}:{node.lineno} imports it as {node.asname}")
            if name != "_unchecked":
                continue
            where = owner.get(id(node))
            if id(node) in call_funcs and where in UNCHECKED_CALLERS:
                callers.add(where)
            else:
                stray.append(f"{path.name}:{node.lineno} in {where}")
    assert not stray, f"_unchecked used outside {sorted(UNCHECKED_CALLERS)}: {stray}"
    assert callers == UNCHECKED_CALLERS
