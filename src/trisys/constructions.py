"""Generators for ingredient systems.

Affine triple systems with their translation resolutions, Bose/Skolem
small systems, Latin squares with orthogonal mates, and a stock
resolvable system of order 15.  Constants are re-verified at build time;
the checked constructors are the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import gf3
from .designs import (
    BlockDesign,
    LatinSquare,
    Resolution,
    StsInstance,
    are_orthogonal,
    resolve_td,
    td_from_latin,
    verify_resolution,
)
from .resolution import SearchLimits, find_resolution


@dataclass(frozen=True)
class AffineGeometry:
    """The zero-sum-triple system on 3^k points plus its translation resolution."""

    k: int
    sts: StsInstance
    standard_resolution: Resolution


@cache
def affine_geometry(k: int) -> AffineGeometry:
    """Point i carries the i-th ternary k-tuple; blocks are zero-sum triples.

    Two blocks share a parallel class exactly when one is a translate of
    the other, i.e. when their point tuples differ by a common shift;
    classes are keyed by line direction.  The result is immutable, so it is
    built and verified once per k and shared by every caller.
    """
    if k < 1:
        raise ValueError("k must be >= 1 (k = 0 has no blocks)")
    n = 3**k
    digits = gf3.generator_gvk(n, k)[1:].T  # row i: the ternary digits of point i
    weights = 3 ** np.arange(k - 1, -1, -1)
    a, b = np.triu_indices(n, 1)
    c = (-digits[a] - digits[b]) % 3 @ weights
    keep = c > b
    design = BlockDesign(n, np.stack([a[keep], b[keep], c[keep]], axis=1))
    sts = StsInstance(design)
    # The direction of a block: the digit difference of its first two
    # points, scaled so that its first nonzero digit is 1.
    diff = (digits[design.array[:, 1]] - digits[design.array[:, 0]]) % 3
    lead = diff[np.arange(len(diff)), (diff != 0).argmax(axis=1)]
    direction = (diff * lead[:, None]) % 3 @ weights
    # One class per direction in use, ascending, its blocks in index order.
    order = np.argsort(direction, kind="stable")
    resolution = Resolution(np.split(order, np.flatnonzero(np.diff(direction[order])) + 1))
    verify_resolution(design, resolution).require(AssertionError, "translation resolution invalid")
    return AffineGeometry(k, sts, resolution)


def latin_with_mate(t: int) -> tuple[LatinSquare, LatinSquare]:
    """The pair L(r,c) = r+c and mate(r,c) = r+2c mod t; orthogonal for odd t."""
    if t < 1 or t % 2 == 0:
        raise ValueError(f"order must be odd and positive, got {t}")
    r, c = np.indices((t, t))
    main, mate = LatinSquare(t, (r + c) % t), LatinSquare(t, (r + 2 * c) % t)
    if not are_orthogonal(main, mate):
        raise AssertionError("linear pair failed the orthogonality check")
    return main, mate


def _bose(n: int) -> StsInstance:
    """Order 3n for odd n: points Z_n x {0,1,2}, label (x, j) -> j*n + x."""
    x = np.arange(n)
    a, b = np.triu_indices(n, 1)
    z = (a + b) * ((n + 1) // 2) % n  # (n + 1) / 2 is the inverse of 2 mod n
    blocks = [np.stack([x, n + x, 2 * n + x], axis=1)]
    for j in range(3):
        up = (j + 1) % 3 * n
        blocks.append(np.stack([j * n + a, j * n + b, up + z], axis=1))
    return StsInstance(BlockDesign(3 * n, np.concatenate(blocks)))


def _skolem(t: int) -> StsInstance:
    """Order 6t+1: points (Z_2t x {0,1,2}) + one extra, label (x, j) -> j*2t + x."""
    n = 2 * t
    x = np.arange(t)
    a, b = np.triu_indices(n, 1)
    s = (a + b) % n
    q = s // 2 + t * (s % 2)  # commutative half-idempotent quasigroup on Z_2t
    blocks = [np.stack([x, n + x, 2 * n + x], axis=1)]
    for j in range(3):
        up = (j + 1) % 3 * n
        blocks.append(np.stack([np.full(t, 3 * n), j * n + t + x, up + x], axis=1))
        blocks.append(np.stack([j * n + a, j * n + b, up + q], axis=1))
    return StsInstance(BlockDesign(6 * t + 1, np.concatenate(blocks)))


def small_sts(t: int) -> StsInstance:
    """A concrete triple system of any admissible order t = 1, 3 (mod 6)."""
    if t < 1 or t % 6 not in (1, 3):
        raise ValueError(f"no triple system of order {t}")
    if t % 6 == 3:
        return _bose(t // 3)
    return _skolem(t // 6)


# Resolution of the order-15 system below, found once by search_resolution
# and frozen; re-verified on every call.
_KTS15_CLASSES = (
    (0, 19, 25, 30, 32),
    (1, 9, 18, 28, 34),
    (2, 10, 17, 21, 23),
    (3, 11, 14, 22, 33),
    (4, 12, 13, 24, 27),
    (5, 7, 16, 26, 31),
    (6, 8, 15, 20, 29),
)


def kts15() -> tuple[StsInstance, Resolution]:
    """A resolvable order-15 system: XOR-zero triples of the 4-bit nonzero codes.

    The constant class list is untrusted input here: both the triple-system
    axioms and the resolution are re-checked before returning.
    """
    a, b = np.triu_indices(16, 1)
    c = a ^ b
    keep = c > b  # also drops code a = 0, for which c = b
    sts = StsInstance(BlockDesign(15, np.stack([a[keep], b[keep], c[keep]], axis=1) - 1))
    resolution = Resolution(_KTS15_CLASSES)
    verify_resolution(sts.design, resolution).require(
        AssertionError, "stored order-15 resolution invalid"
    )
    return sts, resolution


def resolvable_sts(
    t: int, limits: SearchLimits | None = None
) -> tuple[StsInstance, Resolution] | None:
    """A triple system of order t = 3 (mod 6) together with a resolution.

    Powers of three come from the affine systems, 15 from stock, orders
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
    from .composition import Decomposition, compose, compose_resolution

    sub = resolvable_sts(t // 3, limits)
    if sub is None:
        return None
    sub_sts, sub_res = sub
    main, mate = latin_with_mate(t // 3)
    td = td_from_latin(main)
    td_res = resolve_td(main, mate)
    ag1 = affine_geometry(1)
    dec = Decomposition(k=1, T=t // 3, sub_systems=(sub_sts,) * 3, tds={(0, 1, 2): td})
    res = compose_resolution(
        dec,
        sub_resolutions=(sub_res,) * 3,
        td_resolutions={(0, 1, 2): td_res},
        outer_resolution=ag1.standard_resolution,
    )
    return compose(dec), res
