"""Generators for ingredient systems.

Affine triple systems with their translation resolutions, Bose/Skolem
small systems, Latin squares with orthogonal mates, and a resolvable
system of order 15 whose resolution the search finds.  Every result
passes its certificates.  The catalogue of resolvable systems, which
recurses through the composition, is composition.resolvable_sts.
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
    verify_resolution,
)
from .resolution import find_resolution


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


def kts15() -> tuple[StsInstance, Resolution]:
    """A resolvable order-15 system: XOR-zero triples of the 4-bit nonzero codes,
    with the resolution the deterministic search finds and certifies."""
    a, b = np.triu_indices(16, 1)
    c = a ^ b
    keep = c > b  # also drops code a = 0, for which c = b
    sts = StsInstance(BlockDesign(15, np.stack([a[keep], b[keep], c[keep]], axis=1) - 1))
    return sts, find_resolution(sts)
