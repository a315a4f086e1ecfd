"""Forcing the 3-rank of a composed system to exactly v - k - 1.

A composed system is orthogonal to the layout code G(v,k), so its rank
is at most v-k-1; aligned ingredients can push it lower.  Replacing the
first sub-system by a carefully permuted copy removes every stray dual
vector: the permutation is chosen so that the dual of the new sub-system
meets the relevant local layout code only in the all-one line.  The
result's certificate, its dual space equal to the layout code, is derived
from the dual of the blocks outside the first group, read off the
composed system's own block array and computed once: a vector of that
dual lies in the result's dual exactly when it is orthogonal to every
block of the new sub-system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf3
from .designs import (
    BlockDesign,
    StsInstance,
    _unchecked,
    dual_space,
    permute_design,
    permute_sts,
)


class StructureViolation(ValueError):
    """The dual space does not have the uniform layout-code structure."""


@dataclass(frozen=True)
class PointPermutation:
    """A bijection of {0..n-1}; image[i] is where point i goes."""

    n: int
    image: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "image", tuple(int(i) for i in self.image))
        if sorted(self.image) != list(range(self.n)):
            raise ValueError("image is not a bijection")

    @staticmethod
    def identity(n: int) -> "PointPermutation":
        return PointPermutation(n, tuple(range(n)))

    def inverse(self) -> "PointPermutation":
        return PointPermutation(self.n, np.argsort(self.image))

    def after(self, other: "PointPermutation") -> "PointPermutation":
        """Composite permutation: first `other`, then self."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return PointPermutation(self.n, tuple(self.image[j] for j in other.image))

    def apply_sts(self, s: StsInstance) -> StsInstance:
        return permute_sts(s, self.image)

    def apply_subspace(self, s: gf3.Subspace) -> gf3.Subspace:
        return gf3.permute_subspace(s, self.image)


def _extend_basis(rows: np.ndarray, d: gf3.Subspace) -> np.ndarray | None:
    """The basis rows of d that complete rows to a basis of d, as a greedy
    pass over d.basis picks them; None unless rows are independent and
    all lie in d.

    One elimination of the stacked rows as columns: its pivot columns are
    exactly the vectors independent of all before them."""
    n = len(rows)
    _, pivots = gf3.rref(np.vstack([rows, d.basis]).T)
    if len(pivots) != d.dim or pivots[:n] != list(range(n)):
        return None
    return d.basis[np.array(pivots[n:], dtype=np.intp) - n]


def _layout_sort(rows: np.ndarray) -> PointPermutation:
    """The positions sorted stably by column tuple (image[i] = rank of i),
    after checking that the columns take all 3^len(rows) tuple values
    equally often, as the columns of a relabeled layout code do.

    A column read as a base-3 number, first row most significant, sorts
    like its tuple.  Divisibility is checked first, so that 3^len(rows)
    is at most n and no code can overflow."""
    n = rows.shape[1]
    values = 3 ** len(rows)
    if n % values != 0:
        raise StructureViolation(f"{values} tuple values cannot split {n} columns evenly")
    codes = 3 ** np.arange(len(rows) - 1, -1, -1) @ rows
    if (np.bincount(codes, minlength=values) != n // values).any():
        raise StructureViolation(
            "column tuples are not uniformly distributed over the value space"
        )
    return PointPermutation(n, np.argsort(codes, kind="stable")).inverse()


def _dual_layout(d: gf3.Subspace) -> PointPermutation:
    """The layout sort of the rows completing the all-one vector to a basis
    of a dual space of dimension l + 1, whose columns must be uniform over
    the 3^l tuple values."""
    rows = _extend_basis(np.ones((1, d.ambient_dim), dtype=np.int64), d)
    if rows is None:
        raise StructureViolation(
            "dual space does not contain the all-one vector (corrupt design data)"
        )
    return _layout_sort(rows)


def dual_canonicalize(s: StsInstance) -> tuple[PointPermutation, int]:
    """A relabeling sending the dual space onto the standard layout code.

    Returns (sigma, l) with dual(sigma(s)) exactly the row space of
    generator_gvk(v, l), where l+1 is the dual dimension.  The sentinel
    l = -1 (trivial dual, identity sigma) occurs exactly at v = 0, where
    generator_gvk(0, -1) would raise: for v >= 1 the all-one vector is
    orthogonal to every block, so the dual is never trivial.
    """
    v = s.v
    d = dual_space(s.design)
    if d.dim == 0:
        return PointPermutation.identity(v), -1
    l = d.dim - 1
    target = gf3.row_space(gf3.generator_gvk(v, l))
    if d == target:
        return PointPermutation.identity(v), l
    sigma = _dual_layout(d)
    if sigma.apply_subspace(d) != target:
        raise AssertionError("canonicalization failed to reach the standard layout")
    return sigma, l


def mix_matrix(t: int) -> np.ndarray:
    """The t x t column prescription used by perm_intersection for t >= 2.

    Its defining property, det(I - 2C) != 0 over GF(3), makes the stacked
    generator pair full rank."""
    if t < 2:
        raise ValueError("defined for t >= 2")
    c = np.zeros((t, t), dtype=np.int64)
    c[0, t - 1] = 2
    for i in range(1, t):
        c[i, i - 1] = 2
    c[t - 1, t - 1] = 1
    return c


def perm_intersection(T: int, t: int) -> PointPermutation:
    """A coordinate permutation pi with dim(G(T,t) ∩ pi(G(T,t))) = 1.

    t = 0 is the identity; t = 1 interleaves the three thirds.  For
    t >= 2, the columns of G(T,t) come in blocks of T/3^t equal tuples; pi
    fixes the first column of the zero tuple's block and sends that of
    column i of mix_matrix(t) to e_i's and e_i's to 2e_i's, which puts a
    full rank (2t+1)-minor in the stacked generators.  No other position
    is constrained, so the rest map first-fit in increasing order.  The
    result is verified before returning.
    """
    if t < 0 or T % 3**t != 0:
        raise ValueError(f"3^t must divide T, got T={T}, t={t}")
    if t >= 1 and T <= 3:
        raise ValueError("T > 3 is required for t >= 1 (the two codes would coincide)")
    if t == 0:
        return PointPermutation.identity(T)
    if t == 1:
        i = np.arange(T)
        image = 3 * (i % (T // 3)) + i // (T // 3)
    else:
        # The block of tuple columns equal to x starts at x @ w.
        w = 3 ** np.arange(t - 1, -1, -1) * (T // 3**t)
        src = np.concatenate([[0], mix_matrix(t).T @ w, w])
        dst = np.concatenate([[0], w, 2 * w])
        image = np.full(T, -1)
        image[src] = dst
        image[image < 0] = np.flatnonzero(np.bincount(dst, minlength=T) == 0)
    pi = PointPermutation(T, image)
    g = gf3.row_space(gf3.generator_gvk(T, t))
    if gf3.intersect_dim(g, pi.apply_subspace(g)) != 1:
        raise AssertionError("intersection permutation failed verification")
    return pi


def verify_dual_structure(d: BlockDesign) -> int:
    """Check the dual of a (possibly partial) system is a relabeled layout
    code G(v, k'); returns k'.  Raises StructureViolation otherwise."""
    dual = dual_space(d)
    if dual.dim == 0:
        raise StructureViolation("dual space is trivial")
    _dual_layout(dual)
    return dual.dim - 1


def force_exact_rank(s: StsInstance, k: int) -> StsInstance:
    """Rebuild s, laid out over G(v,k), with its first sub-system permuted
    so the dual space is exactly the row space of generator_gvk(v, k).

    With T = v/3^k, the first sub-system is s's blocks in group 0 (points
    0..T-1), B- the rest.  G(v,k) is constant on group 0, so s is orthogonal
    to it exactly when its rows extend to a basis of dual(B-); the extending
    rows give the excess k'-k and the within-group layout.  Then
    canonicalize the sub-system's dual (sigma, l), pick the intersection
    permutation at level max(l, k'-k) and reinsert the sub-system through
    it, undoing within-group sorting.  Both parts are STSs by construction,
    as in decompose and permute_sts: in the orthogonal STS s, a block
    through two points of group 0 lies inside it, so the sub-system covers
    each pair there once and B- none; the result is B- plus the sub-system's
    image under a bijection of group 0.  The result's dual comes from
    dual(B-), the one v-point dual_space, as the vectors orthogonal to every
    new block; it must be G(v,k)'s row space: rank v-k-1.
    """
    if not isinstance(s, StsInstance):
        raise TypeError(f"force_exact_rank needs an StsInstance, got {type(s).__name__}")
    v = s.v
    gf3._check_layout(v, k)
    layout = gf3.generator_gvk(v, k)
    if k < 1:
        raise ValueError("k must be >= 1")
    t_order = v // 3**k
    first = s.array[:, 2] < t_order  # a sorted row inside points 0..T-1
    b_minus = BlockDesign(v, s.array[~first])
    dual_minus = dual_space(b_minus)
    # Rows extending the layout code to a basis of the bigger dual.
    extension = _extend_basis(layout, dual_minus)
    if extension is None:
        raise ValueError(f"system is not orthogonal to G({v},{k}) as laid out")
    if t_order <= 3:
        raise ValueError("sub-system order must exceed 3")
    kprime = dual_minus.dim - 1
    tau0 = _layout_sort(extension[:, :t_order])

    # An STS after the layout check: every block of s through two points of group 0.
    sub = _unchecked(StsInstance, design=BlockDesign(t_order, s.array[first]))
    sigma, l = dual_canonicalize(sub)
    pi = perm_intersection(t_order, max(l, kprime - k))
    replaced = permute_design(sub.design, tau0.inverse().after(pi.after(sigma)).image)
    # An STS: B- covers no pair of group 0, the relabelled sub-system each once.
    blocks = np.concatenate([b_minus.array, replaced.array])
    result = _unchecked(StsInstance, design=BlockDesign(v, blocks))

    # dual(result) = the combinations c @ dual_minus.basis with c orthogonal
    # to every column of sums, one column per replaced block.
    sums = dual_minus.basis[:, replaced.array].sum(axis=2) % 3
    dual = gf3.row_space(gf3.null_space(sums.T).basis @ dual_minus.basis)
    if dual != gf3.row_space(layout):
        raise AssertionError("rank forcing failed: dual space is not the layout code")
    return result
