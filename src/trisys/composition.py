"""Grouped composition of triple systems.

A system on v = 3^k * T points orthogonal to the layout code G(v,k)
splits uniquely into 3^k sub-systems of order T (one per point group
S_i = {iT..(i+1)T-1}) plus one transversal design per zero-sum triple of
groups; compose/decompose realize the two directions of that bijection.
A Decomposition at split level t coarsens the grouping to 3^(k-t)
super-groups of 3^t point groups each: its sub-systems have order
3^t * T and are themselves orthogonal to their local layout code, and
only the triples meeting more than one super-group carry a TD.  The
plain grouping is t = 0.  A TD on canonical groups is its Latin square,
so all TDs are one stack of squares, drawn, placed (embedded_parts) and
read back (decompose) in bulk.  embedded_parts places every part in one
array, in part order, and resolution assembly maps each ingredient class
through one BlockDesign.lookup of that array, cut by part size.
The catalogue of resolvable ingredients, resolvable_sts, lives here
because it composes orders 9 (mod 18) over order t/3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cache
from typing import Mapping, Sequence

import numpy as np

from . import gf3
from .constructions import affine_geometry, kts15, latin_with_mate, small_sts
from .designs import (
    Block,
    BlockDesign,
    LatinSquare,
    Resolution,
    StsInstance,
    TdInstance,
    _non_permutations,
    _unchecked,
    canonical_td_groups,
    permute_sts,
    resolve_td,
    td_from_latin,
    verify_resolution,
)
from .resolution import SearchLimits, find_resolution


@cache
def ag_blocks(k: int) -> tuple[Block, ...]:
    """Sorted zero-sum triples of ternary k-tuples (the group-level system)."""
    return affine_geometry(k).sts.design.blocks if k else ()


@dataclass(frozen=True, eq=False, init=False)
class Decomposition(gf3._ArrayValue):
    """Ingredients of a composed system at split level t (0 <= t <= k):
    3^(k-t) sub-systems of order m = 3^t * T, each orthogonal to its local
    layout code G(m, t), plus one TD per zero-sum group triple that meets
    more than one super-group.  Sub-system j uses local points 0..m-1 and
    is embedded on points j*m..(j+1)*m-1.  The TDs are one read-only
    (n, T, T) int64 stack of Latin `squares`, one per sorted cross triple
    in split_ag's order; the TD of (i1,i2,i3) is its square's td_from_latin,
    whose canonical groups map onto S_i1, S_i2, S_i3 in order.  `tds` is
    given as that stack or as a mapping keyed by exactly those triples, and
    reads back as the mapping, built on access.  The plain case t = 0 has
    3^k sub-systems of order T and a TD for every zero-sum triple; its
    orthogonality check is skipped, since G(T, 0) is the all-one row and
    every BlockDesign block has 3 distinct points, summing to 0 mod 3."""

    k: int
    T: int
    sub_systems: tuple[StsInstance, ...]
    squares: np.ndarray = field(repr=False)
    t: int = 0

    def __init__(self, k: int, T: int, sub_systems, tds, t: int = 0):
        if not 0 <= t <= k or T < 1:
            raise ValueError(f"need 0 <= t <= k and T >= 1, got k={k}, t={t}, T={T}")
        sub_systems = tuple(sub_systems)
        n, m = 3 ** (k - t), 3**t * T
        if len(sub_systems) != n:
            raise ValueError(f"expected {n} sub-systems, got {len(sub_systems)}")
        local = gf3.row_space(gf3.generator_gvk(m, t)) if t else None
        for j, sub in enumerate(sub_systems):
            if sub.v != m:
                raise ValueError(f"sub-system {j} has order {sub.v}, expected {m}")
            if local is not None and not gf3.is_orthogonal(sub, local):
                raise ValueError(f"sub-system {j} is not orthogonal to its local G({m},{t})")
        _, outer = split_ag(k, t)
        if isinstance(tds, Mapping):
            if set(tds) != set(outer):
                raise ValueError("TD keys must be exactly the cross-group triples")
            for key in outer:
                if tds[key].groups != canonical_td_groups(T):
                    raise ValueError(f"triple {key}: TD must have canonical groups of size {T}")
            # A TD on the canonical groups lists (r, T+c, 2T+L[r,c]) cell by cell.
            tds = np.array([tds[key].array[:, 2] - 2 * T for key in outer]).reshape(-1, T, T)
        squares = np.array(tds, dtype=np.int64)
        if squares.shape != (len(outer), T, T):
            raise ValueError(f"TD stack must have shape {(len(outer), T, T)}, got {squares.shape}")
        for line, fault, bad in (
            ("row", f"holds a symbol outside 0..{T - 1}", ((squares < 0) | (squares >= T)).any(2)),
            ("row", "is not a permutation", _non_permutations(squares)),
            ("column", "is not a permutation", _non_permutations(squares.transpose(0, 2, 1))),
        ):
            if bad.any():
                i, j = divmod(int(bad.argmax()), T)
                raise ValueError(f"triple {outer[i]}: {line} {j} {fault}")
        squares.flags.writeable = False
        vars(self).update(k=k, T=T, sub_systems=sub_systems, squares=squares, t=t)

    @property
    def v(self) -> int:
        return 3**self.k * self.T

    @property
    def tds(self) -> dict[Block, TdInstance]:
        """The TD of each cross triple, in order, built from its square."""
        _, outer = split_ag(self.k, self.t)
        return {key: td_from_latin(LatinSquare(self.T, sq)) for key, sq in zip(outer, self.squares)}


def embedded_parts(d: Decomposition) -> np.ndarray:
    """The composed system's rows, one (b, 3) int64 array in part order:
    sub-system j shifted by j * 3^t * T, then, on each cross triple
    (i1, i2, i3) in split_ag's order, the blocks (i1*T + r, i2*T + c,
    i3*T + L[r, c]) of its square L, cell by cell as its TD lists them;
    all TDs are placed at once."""
    m = 3**d.t * d.T
    subs = [sub.array + j * m for j, sub in enumerate(d.sub_systems)]
    n, T = len(d.squares), d.T
    _, outer = split_ag(d.k, d.t)
    r, c = np.divmod(np.arange(T * T), T)
    cells = np.stack(np.broadcast_arrays(r, c, d.squares.reshape(n, T * T)), axis=2)
    placed = np.array(outer, dtype=np.int64).reshape(n, 1, 3) * T + cells
    return np.concatenate([*subs, placed.reshape(n * T * T, 3)])


def compose(d: Decomposition) -> StsInstance:
    """Union of embedded sub-system and TD blocks; a triple system on
    3^k * T points orthogonal to G(v, k)."""
    sts = StsInstance(BlockDesign(d.v, embedded_parts(d)))
    if not gf3.is_orthogonal(sts, gf3.row_space(gf3.generator_gvk(d.v, d.k))):
        raise AssertionError(f"composed system is not orthogonal to G({d.v},{d.k})")
    return sts


# The split decomposition is the plain type with t > 0; the names it had
# as a separate type stay importable.
SplitDecomposition = Decomposition
compose_split = compose


def decompose(s: StsInstance, k: int) -> Decomposition:
    """Read the ingredients back off a system orthogonal to G(v,k) as laid out.

    Inverse of compose block for block.  Raises if the system is not
    orthogonal in the standard layout; then no decomposition exists.
    The parts are valid by construction, cut from the checked STS s after
    its orthogonality check: a pair inside one group lies in a block inside
    that group, a cross pair in a block meeting its triple's third group.
    """
    v = s.v
    gf3._check_layout(v, k)
    if not gf3.is_orthogonal(s, gf3.row_space(gf3.generator_gvk(v, k))):
        raise ValueError(f"system is not orthogonal to G({v},{k}) as laid out")
    n = 3**k
    t = v // n
    # Orthogonal blocks lie in one group (T(T-1)/6 each: s is an STS) or a zero-sum triple (T^2).
    a = s.array
    groups = a // t
    inside = groups[:, 0] == groups[:, 2]
    subs = tuple(_unchecked(StsInstance, design=BlockDesign(t, b))
                 for b in np.split(a[inside] % t, n))
    codes = (groups[~inside, 0] * n + groups[~inside, 1]) * n + groups[~inside, 2]
    # By triple, then cell by cell: (i1*t + r, i2*t + c, i3*t + L[r, c]) in row-major order.
    cross = a[~inside][np.argsort(codes, kind="stable")]
    return Decomposition(k=k, T=t, sub_systems=subs, tds=(cross[:, 2] % t).reshape(-1, t, t))


def split_ag(k: int, t: int) -> tuple[list[list[Block]], list[Block]]:
    """Partition the group-level blocks by the coarse grouping
    L_j = {j*3^t .. (j+1)*3^t - 1}: per-L_j inner blocks, then the rest."""
    if not 0 <= t <= k:
        raise ValueError(f"need 0 <= t <= k, got t={t}, k={k}")
    size = 3**t
    inner: list[list[Block]] = [[] for _ in range(3 ** (k - t))]
    outer: list[Block] = []
    for blk in ag_blocks(k):  # sorted, so inside L_j iff its first and last points are
        (inner[blk[0] // size] if blk[0] // size == blk[2] // size else outer).append(blk)
    return inner, outer


def split_standard_resolution(k: int) -> tuple[BlockDesign, Resolution]:
    """The cross-group blocks for t = 1 with the translation resolution
    minus its one inner class (the class holding block (0,1,2), row 0)."""
    ag = affine_geometry(k)
    a = ag.sts.array
    inner = a[:, 0] // 3 == a[:, 2] // 3  # a sorted row inside one group of three
    classes = ag.standard_resolution.class_arrays()
    deleted = next(i for i, cls in enumerate(classes) if 0 in cls)
    if not np.array_equal(classes.pop(deleted), np.flatnonzero(inner)):
        raise AssertionError("the class of (0,1,2) is not the inner blocks of AG(k)")
    # Block i of AG(k) outside the inner class is row rank[i] of the remainder.
    rank = np.cumsum(~inner) - 1
    return BlockDesign(3**k, a[~inner]), Resolution([rank[cls] for cls in classes])


def compose_resolution(
    dec: Decomposition,
    sub_resolutions: Sequence[Resolution],
    td_resolutions: Mapping[Block, Resolution],
    outer_resolution: Resolution,
) -> Resolution:
    """Merge ingredient resolutions into one for the composed system.

    Produces (v-1)/2 classes: each sub-system class index contributes one
    merged class, and each (outer class, TD class index) pair contributes
    one class merged across that outer class's transversal designs.  Keys
    of td_resolutions are exactly dec.tds's, the sorted cross triples, and
    the outer resolution indexes them in sorted order: all zero-sum triples
    for t = 0, those meeting more than one super-group otherwise.
    """
    subs = dec.sub_systems
    if len(sub_resolutions) != len(subs):
        raise ValueError("one resolution per sub-system is required")
    for s, r in zip(subs, sub_resolutions):
        verify_resolution(s.design, r).require(ValueError, "invalid sub-system resolution")
    tds = dec.tds
    if set(td_resolutions) != set(tds):
        raise ValueError("need exactly one resolution per transversal design")
    for key, td in tds.items():
        verify_resolution(td.design, td_resolutions[key]).require(
            ValueError, f"invalid TD resolution at {key}"
        )
    outer = BlockDesign(3**dec.k, tuple(tds))  # row i is the i-th key
    verify_resolution(outer, outer_resolution).require(ValueError, "invalid outer resolution")

    # The blocks of compose(dec), whose certificates are compose's to give;
    # the resolution's own certificate is the verify_resolution below.
    rows = embedded_parts(dec)
    composed = BlockDesign(dec.v, rows)
    # Each ingredient's blocks in composed indices, cut by part size.
    sizes = [len(s.array) for s in subs] + [dec.T**2] * len(tds)
    parts = np.split(composed.lookup(rows), np.cumsum(sizes)[:-1])
    ingredients = [*sub_resolutions, *(td_resolutions[key] for key in tds)]
    part_classes = [[p[c] for c in r.class_arrays()] for p, r in zip(parts, ingredients)]
    # Class j of every sub-system makes one class, and so does class j of
    # the TDs on the triples of one outer class.
    n, classes = len(subs), []
    for group in [range(n), *(n + c for c in outer_resolution.class_arrays())]:
        classes += [np.concatenate(cs) for cs in zip(*(part_classes[i] for i in group))]
    resolution = Resolution([np.sort(c) for c in classes])
    verify_resolution(composed, resolution).require(AssertionError, "assembled resolution invalid")
    return resolution


def _random_squares(t: int, n: int, rng: random.Random) -> np.ndarray:
    """An (n, t, t) stack of random relabelings of the cyclic square: per square,
    rows, columns and symbols are drawn, and cell (r, c) is syms[(rows[r] + cols[c]) % t]."""
    draws = np.array([rng.sample(range(t), t) for _ in range(3 * n)], dtype=np.int64)
    rows, cols, syms = draws.reshape(n, 3, t).transpose(1, 0, 2)
    cells = (rows[:, :, None] + cols[:, None, :]) % t
    return np.take_along_axis(syms, cells.reshape(n, t * t), axis=1).reshape(n, t, t)


def random_latin(t: int, rng: random.Random) -> LatinSquare:
    """A random relabeling (row/column/symbol) of the cyclic square."""
    return LatinSquare(t, _random_squares(t, 1, rng)[0])


def random_decomposition(
    k: int, T: int, rng: random.Random, t: int = 0
) -> Decomposition:
    """Seeded ingredient selection at split level t: relabeled copies of
    the stock system of order T and random Latin-square transversal
    designs.  For t > 0 each sub-system of order 3^t * T is composed from
    its own plain level-t selection, drawn in turn before the cross TDs."""
    base = small_sts(T)

    def select(k: int, t: int) -> Decomposition:
        if t == 0:
            subs = tuple(permute_sts(base, rng.sample(range(T), T)) for _ in range(3**k))
        else:
            subs = tuple(compose(select(t, 0)) for _ in range(3 ** (k - t)))
        squares = _random_squares(T, len(split_ag(k, t)[1]), rng)
        return Decomposition(k=k, T=T, sub_systems=subs, tds=squares, t=t)

    return select(k, t)


def resolvable_sts(
    t: int, limits: SearchLimits | None = None
) -> tuple[StsInstance, Resolution] | None:
    """A triple system of order t = 3 (mod 6) together with a resolution.

    Powers of three come from the affine systems, 15 from kts15, orders
    9 (mod 18) from the grouped composition over order t/3, and anything
    else from budgeted search on the Bose system (None = budget ran out,
    not a nonexistence proof).
    """
    if t % 6 != 3:
        raise ValueError(f"resolvable triple systems need order 3 (mod 6), got {t}")
    m, k = t, 0
    while m % 3 == 0:
        m //= 3
        k += 1
    if m == 1:
        ag = affine_geometry(k)
        return ag.sts, ag.standard_resolution
    if t == 15:
        return kts15()
    if (t // 3) % 6 == 3:
        return _resolvable_by_composition(t, limits)
    sts = small_sts(t)
    found = find_resolution(sts, limits)
    return None if found is None else (sts, found)


def _resolvable_by_composition(t, limits):
    sub = resolvable_sts(t // 3, limits)
    if sub is None:
        return None
    sub_sts, sub_res = sub
    main, mate = latin_with_mate(t // 3)
    dec = Decomposition(k=1, T=t // 3, sub_systems=(sub_sts,) * 3, tds=main.cells[None])
    res = compose_resolution(
        dec,
        sub_resolutions=(sub_res,) * 3,
        td_resolutions={(0, 1, 2): resolve_td(main, mate)},
        outer_resolution=affine_geometry(1).standard_resolution,
    )
    return compose(dec), res
