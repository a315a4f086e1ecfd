"""Resolution search for triple systems via two exact-cover passes.

Pass (a) enumerates parallel classes: exact covers of the point set by
blocks.  Pass (b) covers the block set by those classes; any solution is
a resolution.  Both passes share one node budget, and pass (a) is capped
at a configurable class count, so a missing answer is reported as either
"exhausted: no resolution exists" or "budget exceeded: unknown".

Both passes run `exact_cover`'s Algorithm X on int bitsets: the open
column with the fewest alive candidates first (leftmost on ties), rows in
insertion order, so classes and resolutions come out in a fixed order.
Pass (a) asks for every class (up to the cap), so `exact_cover` expands
whole subtrees of it in numpy level sweeps; a sweep keeps a subtree only
when the depth-first search would have finished it within the budget and
the cap too, so the classes, their order and the node counts are those of
the plain depth-first search.  Pass (b) asks for one resolution and stays
depth-first.  It has one row per class, and its column masks take
b * classes / 8 bytes (about 15 MB for the 117 blocks of AG(3) at the
default cap of 10^6 classes); clash masks are ORed from them per row try,
since a classes x classes table would need classes^2 / 8 bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .designs import BlockDesign, Resolution, StsInstance, verify_resolution
from .exact_cover import solve_exact_cover


@dataclass(frozen=True)
class SearchLimits:
    node_budget: int = 10**8
    max_classes: int = 10**6

    def __post_init__(self):
        for name in ("node_budget", "max_classes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class SearchOutcome:
    resolution: Resolution | None
    budget_exceeded: bool
    classes_found: int
    nodes_used: int

    @property
    def exhausted(self) -> bool:
        """True when absence of a resolution was actually proven."""
        return self.resolution is None and not self.budget_exceeded


def enumerate_parallel_classes(
    d: BlockDesign, max_classes=SearchLimits.max_classes, node_budget=SearchLimits.node_budget
) -> tuple[tuple[tuple[int, ...], ...], bool, int]:
    """All block-index sets partitioning the points; (classes, complete, nodes)."""
    SearchLimits(node_budget, max_classes)  # a negative limit is a ValueError
    if d.v % 3 != 0:
        return ((), True, 0)
    res = solve_exact_cover(
        d.v, d.array.tolist(), max_solutions=max_classes + 1, node_budget=node_budget
    )
    complete = res.complete and len(res.solutions) <= max_classes
    return (res.solutions[:max_classes], complete, res.nodes)


def search_resolution(d: BlockDesign, limits: SearchLimits | None = None) -> SearchOutcome:
    """Deterministic resolution search on any design with 3-element blocks."""
    limits = limits or SearchLimits()
    classes, complete_a, nodes_a = enumerate_parallel_classes(
        d, limits.max_classes, limits.node_budget
    )
    remaining = max(limits.node_budget - nodes_a, 0)
    res_b = solve_exact_cover(len(d.array), classes, max_solutions=1, node_budget=remaining)
    nodes = nodes_a + res_b.nodes
    if res_b.solutions:
        resolution = Resolution(sorted(classes[i] for i in res_b.solutions[0]))
        verify_resolution(d, resolution).require(
            AssertionError, "search produced an invalid resolution"
        )
        return SearchOutcome(resolution, False, len(classes), nodes)
    budget_exceeded = not (complete_a and res_b.complete)
    return SearchOutcome(None, budget_exceeded, len(classes), nodes)


def find_resolution(s: StsInstance, limits: SearchLimits | None = None) -> Resolution | None:
    """A resolution of the triple system, or None (budget or nonexistence).

    Use search_resolution for the full outcome; None here does not by
    itself distinguish a proven absence from an exhausted budget.
    """
    if s.v % 6 != 3:
        raise ValueError(f"resolvable triple systems need v = 3 (mod 6), got v={s.v}")
    return search_resolution(s.design, limits).resolution
