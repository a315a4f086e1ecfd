"""Exact linear algebra over prime fields, with GF(3) as the main case.

Matrices are dense 2-D numpy int64 arrays with entries reduced mod p.
Everything here is integer arithmetic; no floating point is used anywhere.
Subspaces carry a canonical reduced-row-echelon basis, so two equal
subspaces compare equal entry for entry.  _ArrayValue, the package's one
value equality, compares and hashes every field, arrays by content.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_PRIME = 251
_GATHER_CHUNK = 1 << 16  # blocks per gather: bounds its dim x chunk x 3 temporary


def _check_prime(p: int) -> None:
    if p < 2 or p > MAX_PRIME or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
        raise ValueError(f"p must be a prime <= {MAX_PRIME}, got {p}")


def as_matrix(rows, p: int = 3) -> np.ndarray:
    """Coerce to a 2-D int64 array with entries reduced mod p."""
    a = np.asarray(rows, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    return np.mod(a, p)


def rref(m, p: int = 3) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p).

    Returns (R, pivot_cols).  R has unit pivots, zeros above and below
    every pivot, and pivot columns strictly increasing; len(pivot_cols)
    is the rank.
    """
    _check_prime(p)
    a = as_matrix(m, p)
    n_rows, n_cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if others.size:
            a[others] = (a[others] - np.outer(a[others, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def rank(m, p: int = 3) -> int:
    """Rank over GF(p) of a matrix (rows in any order)."""
    return len(rref(m, p)[1])


def _check_layout(v: int, k: int) -> None:
    """Raise unless 3^k divides v.  3^k > |v| once k reaches v's bit length,
    so a nonzero v is refused there without computing 3^k."""
    if k < 0 or v != 0 and (k >= abs(v).bit_length() or v % 3**k):
        raise ValueError(f"3^k must divide v, got v={v}, k={k}")


def generator_gvk(v: int, k: int) -> np.ndarray:
    """Generator matrix of the all-one-plus-tuple-rows code on v points.

    Row 0 is all ones.  Rows 1..k list, per column, the k ternary digits
    (most significant first) of the column's tuple index: all 3^k tuples
    appear in lexicographic order, each repeated v/3^k times consecutively.
    """
    if v <= 0 or k < 0:
        raise ValueError(f"need v >= 1 and k >= 0, got v={v}, k={k}")
    _check_layout(v, k)
    m = v // 3**k
    g = np.ones((k + 1, v), dtype=np.int64)
    cols = np.arange(v)
    for i in range(1, k + 1):
        g[i] = (cols // (m * 3 ** (k - i))) % 3
    return g


class _ArrayValue:
    """Equal to a value of the same type whose fields are all equal, arrays
    by content; never to anything else, not even to its own arrays (numpy
    defers to the class, so `value == array` is a plain False)."""

    __array_ufunc__ = None

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        for name in self.__dataclass_fields__:
            a, b = getattr(self, name), getattr(other, name)
            if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
                return False
        return True

    def __hash__(self) -> int:
        values = (getattr(self, name) for name in self.__dataclass_fields__)
        return hash(tuple(a.tobytes() if isinstance(a, np.ndarray) else a for a in values))


@dataclass(frozen=True, eq=False)
class Subspace(_ArrayValue):
    """A subspace of GF(3)^n held as a canonical RREF basis.

    Canonical form makes equality of subspaces a plain array comparison.
    The basis array is read-only; dim 0 subspaces have a (0, n) basis.
    """

    ambient_dim: int
    basis: np.ndarray

    @staticmethod
    def from_rows(rows, ambient_dim: int | None = None) -> "Subspace":
        r, pivots = rref(rows, 3)
        ambient_dim = r.shape[1] if ambient_dim is None else ambient_dim
        if r.shape[1] != ambient_dim:
            raise ValueError("row length does not match ambient dimension")
        b = np.ascontiguousarray(r[: len(pivots)])
        b.setflags(write=False)
        return Subspace(ambient_dim, b)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace.from_rows(np.zeros((0, ambient_dim), dtype=np.int64), ambient_dim)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains(self, vec) -> bool:
        v = np.mod(np.asarray(vec, dtype=np.int64), 3)
        if v.shape != (self.ambient_dim,):
            raise ValueError("vector length does not match ambient dimension")
        return rank(np.vstack([self.basis, v]), 3) == self.dim


def row_space(m) -> Subspace:
    return Subspace.from_rows(m)


def null_basis(r: np.ndarray, pivots: list[int], p: int = 3) -> np.ndarray:
    """Independent rows spanning the null space of a matrix with RREF (r, pivots),
    over any GF(p): per free column f, 1 at f and -r[i, f] at pivot column i."""
    is_free = np.ones(r.shape[1], dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, r.shape[1]), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = (-r[: len(pivots), free].T) % p
    return basis


def null_space(m) -> Subspace:
    """Right null space over GF(3): all x with m @ x = 0; dim equals
    cols - rank (rank-nullity)."""
    r, pivots = rref(m, 3)
    return Subspace.from_rows(null_basis(r, pivots), r.shape[1])


def intersect_dim(a: Subspace, b: Subspace) -> int:
    """dim(a ∩ b) = dim a + dim b - dim(a + b), by stacking and ranking."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError(
            f"ambient dimension mismatch: {a.ambient_dim} != {b.ambient_dim}"
        )
    return a.dim + b.dim - rank(np.vstack([a.basis, b.basis]), 3)


def _nonzero_sums(basis: np.ndarray, blocks: np.ndarray, p: int) -> np.ndarray:
    """Per row of a (b, 3) block array: does some basis row sum to nonzero mod p?"""
    chunks = [blocks[i:i + _GATHER_CHUNK] for i in range(0, len(blocks), _GATHER_CHUNK)]
    return np.concatenate([(basis[:, c].sum(axis=2) % p).any(axis=0) for c in chunks or [blocks]])


def is_orthogonal(design, s: Subspace) -> bool:
    """True iff every block of the design is orthogonal to every basis row.

    `design` is anything with `.v` and `.array`, the (b, 3) int array of
    its blocks (a BlockDesign, StsInstance or TdInstance); the block
    characteristic vectors are never materialized.
    """
    if s.ambient_dim != design.v:
        raise ValueError(
            f"ambient dimension {s.ambient_dim} does not match v={design.v}"
        )
    return not _nonzero_sums(s.basis, design.array, 3).any()


def permute_columns(m: np.ndarray, image) -> np.ndarray:
    """Move column i to position image[i] (the point-permutation action)."""
    a = as_matrix(m, 3)
    image = np.asarray(image, dtype=np.int64)
    order = np.argsort(image)
    if not np.array_equal(image[order], np.arange(a.shape[1])):
        raise ValueError("image is not a permutation of the columns")
    return a[:, order]


def permute_subspace(s: Subspace, image) -> Subspace:
    return Subspace.from_rows(permute_columns(s.basis, image), s.ambient_dim)
