"""Triple systems, transversal designs, Latin squares, resolutions.

A BlockDesign takes its blocks as triples or a (b, 3) int array and stores
them once, as one read-only int64 array (`array`: rows sorted, in
lexicographic order) on which code computes, compares and hashes; `blocks`,
the sorted 3-tuple view, is computed on each access, for output only.  One
sort key per row orders the array and finds repeated blocks as equal
neighbours, and `lookup` binary-searches the same keys: the code
(a*v + b)*v + c, or (a, b, c) records once v is too large for a code to fit
in int64.  Rows given sorted, with strictly increasing codes, are taken
without a sort, as every file the library writes and every mask of a design's
array are.  The STS and TD axioms are one check on the array: every required
pair p < q, coded p*v + q, must occur in exactly one block.  When an STS
check has exactly v(v - 1)/2 codes, marking them in a v x v mask decides it;
only a failing system, or another count, sorts them to name its faults.
A Resolution stores its classes in order as one read-only int64 `index` of
blocks plus class `bounds` (class i is index[bounds[i]:bounds[i + 1]], since
untrusted classes may be ragged); verify_resolution decides in one numpy
pass and walks only a failing resolution, to name its violations in order.
StsInstance, TdInstance and LatinSquare validate their axioms on
construction, except the parts valid by construction (_unchecked, called
from td_from_latin, permute_sts, decompose and force_exact_rank only); the
verify_* functions report on untrusted input.

Ranks and dual spaces are exact without the b x v incidence matrix M: the
null space of a stride sample of min(b, 2v) blocks contains null(M), and
equals it once every block is orthogonal to it (one gather checks all); a
failing block raises the sample's rank, so regrowing by failing blocks ends.
When 3 | v, the loop first runs on the blocks inside each third of the
points and stacks the three bases, placed on their thirds, as W (N x v).
W contains null(M): a block inside third j meets no other third, so any y in
null(M), restricted to third j, is orthogonal to it; and y is the sum of its
restrictions, since the thirds partition the points.  W's rows are
independent, since rows of different thirds have disjoint supports and each
third's rows are a basis; so x -> x @ W is injective, and the loop runs in
W's N unknowns (a block becomes its N sums over W's rows, the sample has
min(b, 2N) blocks, the null basis x maps back as x @ W) with v minus the
mapped basis's length still the rank.  Thirds, because G(v, k) cuts the
points into thirds by its first digit: a third of AG(k) is AG(k - 1), and
the blocks inside a third of a system composed over G(v, k) are one composed
over G(v/3, k - 1).  So the recursion reaches the sub-systems unasked, and N
is about 3k where v = 3^k * T (15 at v = 1701).  W is used only if 2N <= v:
mapping back costs dim x N x v, and a sparse design, whose large dual keeps
N near v, eliminates its few blocks in the plain v unknowns for much less.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gf3

Block = tuple[int, int, int]


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    violations: tuple[str, ...] = ()

    @staticmethod
    def from_violations(violations: list[str]) -> "VerificationReport":
        return VerificationReport(not violations, tuple(violations))

    def require(self, exc: type[Exception], what: str) -> None:
        """Raise exc(f"{what}: <first violation>") if the report failed: how
        checked constructors (ValueError) and the certificates of the
        library's own results (AssertionError) reject what they checked."""
        if not self.ok:
            raise exc(f"{what}: {self.violations[0]}")


def _sorted_block(b, v: int) -> Block:
    t = tuple(sorted(int(p) for p in b))
    if len(t) != 3 or len(set(t)) != 3:
        raise ValueError(f"block {b!r} does not have 3 distinct points")
    if t[0] < 0 or t[2] >= v:
        raise ValueError(f"block {b!r} out of range for v={v}")
    return t


def _ordered(a: np.ndarray, v: int) -> bool:
    """Is every row (a, b, c) of an (n, 3) int array 0 <= a < b < c < v?"""
    return bool(((a[:, 0] >= 0) & (a[:, 0] < a[:, 1]) & (a[:, 1] < a[:, 2]) & (a[:, 2] < v)).all())


def _sort_keys(rows: np.ndarray, v: int) -> np.ndarray:
    """Keys that order sorted rows (a, b, c) of points 0..v-1 as the rows:
    the code (a*v + b)*v + c while v^3 fits in int64, and beyond that
    (a, b, c) records, compared field by field."""
    if v**3 <= 1 << 63:
        return (rows[:, 0] * v + rows[:, 1]) * v + rows[:, 2]
    return np.ascontiguousarray(rows, np.int64).view("i8,i8,i8").ravel()


@dataclass(frozen=True, eq=False)
class BlockDesign(gf3._ArrayValue):
    """A point set 0..v-1 plus a sorted, duplicate-free set of 3-blocks."""

    v: int
    array: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.v < 0:
            raise ValueError(f"negative point count v={self.v}")
        blocks = self.array if isinstance(self.array, np.ndarray) else tuple(self.array)
        try:
            # Rows as given first: only rows that fail are sorted.
            a = np.asarray(blocks, dtype=np.int64)
            ok = a.shape == (len(blocks), 3) and (
                _ordered(a, self.v) or _ordered(a := np.sort(a, axis=1), self.v)
            )
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            # Block by block, in input order, so the first bad block is named,
            # a row of a 2-D array as a tuple of ints.
            if isinstance(blocks, np.ndarray) and blocks.ndim == 2:
                blocks = tuple(map(tuple, blocks.tolist()))
            a = np.array([_sorted_block(b, self.v) for b in blocks], dtype=np.int64)
            a = a.reshape(-1, 3)
        keys = _sort_keys(a, self.v)
        # Strictly increasing int64 keys are already in order, with no block
        # twice; record keys (no `>`) and any other keys take the argsort.
        if keys.dtype.names is None and (keys[1:] > keys[:-1]).all():
            if isinstance(blocks, np.ndarray) and np.may_share_memory(a, blocks):
                a = a.copy()  # never freeze or alias the caller's array
        else:
            order = np.argsort(keys)
            a, keys = a[order], keys[order]
            repeated = keys[1:] == keys[:-1]
            if repeated.any():
                raise ValueError(f"duplicate block {tuple(a[repeated.argmax()].tolist())!r}")
        a.flags.writeable = False
        object.__setattr__(self, "array", a)

    @property
    def blocks(self) -> tuple[Block, ...]:
        return tuple(zip(*self.array.T.tolist()))

    def lookup(self, rows: np.ndarray) -> np.ndarray:
        """Indices into `array` of the blocks given as sorted rows of an
        (n, 3) int array; KeyError naming the first row that is no block.
        Rows are searched by their sort keys (_sort_keys)."""
        a = self.array
        pos = np.searchsorted(_sort_keys(a, self.v), _sort_keys(rows, self.v))
        found = pos < len(a)
        found[found] = (a[pos[found]] == rows[found]).all(axis=1)
        if not found.all():
            raise KeyError(tuple(rows[found.argmin()].tolist()))
        return pos


def _characteristic(rows: np.ndarray, v: int) -> np.ndarray:
    """The 0/1 characteristic vectors of an (n, 3) block array."""
    m = np.zeros((len(rows), v), dtype=np.int64)
    m[np.arange(len(rows))[:, None], rows] = 1
    return m


def incidence_matrix(d: BlockDesign) -> np.ndarray:
    """|blocks| x v characteristic 0/1 matrix (the dense oracle for tests)."""
    return _characteristic(d.array, d.v)


def _pair_faults(v: int, blocks: np.ndarray, name: str, required=None) -> list[str]:
    """Violations of "every required pair lies in exactly one block".

    A pair p < q is coded p*v + q.  Every pair of a row of `blocks` must be
    required (default: all, coded only if one is missing); pairs covered more
    than once come first, ascending, then the uncovered ones in required's order.
    With the default and exactly v(v - 1)/2 codes, the codes cover every pair
    once exactly when they are distinct: marks in a v x v mask (v^2 bytes,
    under the codes' own 4v^2) decide that in linear time, and only a repeat
    takes the sort that names the faults.
    """
    codes = (blocks[:, [0, 0, 1]] * v + blocks[:, [1, 2, 2]]).ravel()
    if required is None and codes.size == v * (v - 1) // 2:
        seen = np.zeros(v * v, dtype=bool)
        seen[codes] = True
        if np.count_nonzero(seen) == codes.size:
            return []
    covered, counts = np.unique(codes, return_counts=True)
    over = counts > 1
    faults = [
        f"{name} {divmod(c, v)} covered {n} times"
        for c, n in zip(covered[over].tolist(), counts[over].tolist())
    ]
    if covered.size < (v * (v - 1) // 2 if required is None else required.size):
        if required is None:
            required = np.ravel_multi_index(np.triu_indices(v, 1), (v, v))
        missing = required[~np.isin(required, covered)]
        faults += [f"{name} {divmod(c, v)} covered 0 times" for c in missing.tolist()]
    return faults


def verify_sts(d: BlockDesign) -> VerificationReport:
    """Check the pair-coverage axiom: every pair in exactly one block."""
    return VerificationReport.from_violations(_pair_faults(d.v, d.array, "pair"))


class _DesignView:
    """The point count and block views of a checked wrapper's `design`."""

    @property
    def v(self) -> int:
        return self.design.v

    @property
    def blocks(self) -> tuple[Block, ...]:
        return self.design.blocks

    @property
    def array(self) -> np.ndarray:
        return self.design.array


@dataclass(frozen=True)
class StsInstance(_DesignView):
    """A verified Steiner triple system; construction fails on bad input."""

    design: BlockDesign

    def __post_init__(self):
        verify_sts(self.design).require(ValueError, "not an STS")


def verify_td(design: BlockDesign, groups: tuple[tuple[int, ...], ...]) -> VerificationReport:
    """Check the transversal-design axioms for 3 groups of equal size."""
    violations = []
    if len(groups) != 3:
        return VerificationReport(False, (f"expected 3 groups, got {len(groups)}",))
    w = len(groups[0])
    flat = [p for g in groups for p in g]
    if any(len(g) != w for g in groups):
        violations.append("groups have unequal sizes")
    if sorted(flat) != list(range(design.v)):
        violations.append("groups do not partition the point set")
    if violations:
        return VerificationReport.from_violations(violations)
    g = np.array(groups, dtype=np.int64).reshape(3, w)
    group_of = np.empty(design.v, dtype=np.int64)
    group_of[g] = np.arange(3)[:, None]
    met = group_of[design.array]
    transversal = (met[:, 0] != met[:, 1]) & (met[:, 0] != met[:, 2]) & (met[:, 1] != met[:, 2])
    violations = [
        f"block {tuple(b)} does not meet every group exactly once"
        for b in design.array[~transversal].tolist()
    ]
    # Cross pairs group pair by group pair, in the order the groups list them.
    p, q = g[[0, 0, 1], :, None], g[[1, 2, 2], None, :]
    cross = (np.minimum(p, q) * design.v + np.maximum(p, q)).ravel()
    violations += _pair_faults(design.v, design.array[transversal], "cross pair", cross)
    if len(design.array) != w * w:
        violations.append(f"expected {w * w} blocks, got {len(design.array)}")
    return VerificationReport.from_violations(violations)


@dataclass(frozen=True)
class TdInstance(_DesignView):
    """A verified transversal design on 3 equal groups."""

    design: BlockDesign
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "groups", tuple(tuple(int(p) for p in g) for g in self.groups)
        )
        verify_td(self.design, self.groups).require(ValueError, "not a TD")

    @property
    def w(self) -> int:
        return len(self.groups[0])


def _unchecked(cls, **fields):
    """An StsInstance or TdInstance without its axiom check (its BlockDesign
    still normalises), for a part valid by construction: td_from_latin,
    permute_sts, decompose and force_exact_rank say why in their docstrings."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True, eq=False, init=False)
class Resolution(gf3._ArrayValue):
    """Parallel classes of block indices into the owning design, given as
    sequences or 1-D arrays; `classes` is a tuple view computed on access."""

    index: np.ndarray
    bounds: np.ndarray

    def __init__(self, classes):
        parts = [np.asarray(c, dtype=np.int64) for c in classes]
        if any(c.ndim != 1 for c in parts):
            raise TypeError("a class must be a flat sequence of block indices")
        index = np.concatenate([np.zeros(0, dtype=np.int64), *parts])
        bounds = np.cumsum([0, *map(len, parts)])
        index.flags.writeable = bounds.flags.writeable = False
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "bounds", bounds)

    def class_arrays(self) -> list[np.ndarray]:
        """The classes in order, as read-only views of `index`."""
        b = self.bounds.tolist()
        return [self.index[i:j] for i, j in zip(b, b[1:])]

    @property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(c.tolist()) for c in self.class_arrays())

    @property
    def n_classes(self) -> int:
        return len(self.bounds) - 1


def verify_resolution(d: BlockDesign, r: Resolution) -> VerificationReport:
    """Check that each class partitions the points and the classes the blocks."""
    index, n, v = r.index, len(d.array), d.v
    # Ranges first, since a gather wraps a negative index; then each block in
    # one class, v/3 blocks per class, and each class's sorted points 0..v-1.
    if (
        ((index >= 0) & (index < n)).all()
        and (np.bincount(index, minlength=n) == 1).all()
        and (3 * np.diff(r.bounds) == v).all()
        and (np.sort(d.array[index].reshape(r.n_classes, v), axis=1) == np.arange(v)).all()
    ):
        return VerificationReport(True)
    violations = []
    rows = d.array.tolist()
    seen: dict[int, int] = {}
    for ci, cls in enumerate(r.classes):
        pts: list[int] = []
        for idx in cls:
            if not 0 <= idx < n:
                violations.append(f"class {ci}: block index {idx} out of range")
                continue
            if idx in seen:
                violations.append(f"block index {idx} in classes {seen[idx]} and {ci}")
            seen[idx] = ci
            pts.extend(rows[idx])
        if sorted(pts) != list(range(v)):
            violations.append(f"class {ci} is not a partition of the points")
    if len(seen) < n:
        violations.append(f"{n - len(seen)} blocks not covered by any class")
    return VerificationReport.from_violations(violations)


def _verified_null_basis(a: np.ndarray, v: int, p: int) -> np.ndarray:
    """Independent rows spanning the x in GF(p)^v with every row of the
    sorted (b, 3) block array a summing to 0 mod p (module docstring)."""
    gf3._check_prime(p)
    span = None
    w = v // 3
    # A sorted row whose first and last points share a third lies inside
    # it, and the array's order keeps each third's rows contiguous.
    inner = a[a[:, 0] // w == a[:, 2] // w] if v % 3 == 0 and v >= 9 else a[:0]
    # A third's dual has dimension at least its points minus its blocks, so
    # N >= v - len(inner): 2N <= v needs len(inner) >= v/2, as a Bose
    # system (no block inside a third) or a sparse design never has.
    if len(inner) and 2 * len(inner) >= v:
        cut = np.searchsorted(inner[:, 0], np.arange(4) * w)
        parts = [_verified_null_basis(inner[cut[j]:cut[j + 1]] - j * w, w, p) for j in range(3)]
        ends = np.cumsum([0, *map(len, parts)])
        if 2 * ends[-1] <= v:
            span = np.zeros((ends[-1], v), dtype=np.int64)
            for j, part in enumerate(parts):
                span[ends[j]:ends[j + 1], j * w:(j + 1) * w] = part
    n = v if span is None else len(span)

    def rows(blocks: np.ndarray) -> np.ndarray:  # each block's sums over span's rows
        return _characteristic(blocks, v) if span is None else span[:, blocks].sum(axis=2).T % p

    m = rows(a if len(a) <= 2 * n else a[np.arange(2 * n) * len(a) // (2 * n)])
    while True:
        r, pivots = gf3.rref(m, p)
        basis = gf3.null_basis(r, pivots, p)
        if span is not None:
            basis = basis @ span % p
        failing = np.flatnonzero(gf3._nonzero_sums(basis, a, p))
        if not failing.size:
            return basis
        # The reduced rows plus at most dim failing blocks: at most n rows.
        m = np.vstack([r[: len(pivots)], rows(a[failing[: len(basis)]])])


def p_rank(d: BlockDesign, p: int) -> int:
    """Rank over GF(p) of the incidence matrix, exactly: v minus the dimension
    of the verified null space (module docstring)."""
    return d.v - len(_verified_null_basis(d.array, d.v, p))


def dual_space(d: BlockDesign) -> gf3.Subspace:
    """The GF(3) dual, all vectors orthogonal to every block: exactly the
    verified null space (module docstring)."""
    return gf3.Subspace.from_rows(_verified_null_basis(d.array, d.v, 3), d.v)


@dataclass(frozen=True, eq=False)
class LatinSquare(gf3._ArrayValue):
    """A read-only T x T int64 array whose rows and columns are permutations of 0..T-1."""

    order: int
    cells: np.ndarray

    def __post_init__(self):
        t = self.order
        if len(self.cells) != t:
            raise ValueError("wrong number of rows")
        try:
            a = np.array(self.cells, dtype=np.int64).reshape(t, t)
        except (TypeError, ValueError, OverflowError):
            a = None
        if a is None or _non_permutations(a[None]).any():
            for row in self.cells:  # in order, so the first bad row is named as given
                if sorted(row) != list(range(t)):
                    raise ValueError(f"row {tuple(int(x) for x in row)} is not a permutation")
            a = np.array(self.cells, dtype=np.int64).reshape(t, t)
        bad = _non_permutations(a.T[None])[0]
        if bad.any():
            raise ValueError(f"column {bad.argmax()} is not a permutation")
        a.flags.writeable = False
        object.__setattr__(self, "cells", a)


def _non_permutations(squares: np.ndarray) -> np.ndarray:
    """Which rows of an (n, T, T) stack are not permutations of 0..T-1, as an (n, T) mask."""
    return (np.sort(squares, axis=2) != np.arange(squares.shape[2])).any(axis=2)


def are_orthogonal(a: LatinSquare, b: LatinSquare) -> bool:
    """True iff the T^2 superimposed cell pairs, coded a*T + b, are all distinct."""
    t = a.order
    return t == b.order and bool((np.bincount((a.cells * t + b.cells).ravel()) == 1).all())


def canonical_td_groups(t: int) -> tuple[tuple[int, ...], ...]:
    """The groups {0..t-1}, {t..2t-1}, {2t..3t-1} of a TD of group size t."""
    return (tuple(range(t)), tuple(range(t, 2 * t)), tuple(range(2 * t, 3 * t)))


def td_from_latin(sq: LatinSquare) -> TdInstance:
    """The standard correspondence: block {r, T+c, 2T+L(r,c)} per cell; valid
    by construction, since a row and a column of the checked square meet in
    one cell, and each holds every symbol once."""
    t = sq.order
    r, c = np.divmod(np.arange(t * t), t)
    blocks = np.stack([r, t + c, 2 * t + sq.cells.ravel()], axis=1)
    return _unchecked(TdInstance, design=BlockDesign(3 * t, blocks), groups=canonical_td_groups(t))


def resolve_td(sq: LatinSquare, mate: LatinSquare) -> Resolution:
    """Resolution of td_from_latin(sq): class s holds the cells where mate = s."""
    if sq.order != mate.order:
        raise ValueError("order mismatch")
    if not are_orthogonal(sq, mate):
        raise ValueError("squares are not orthogonal")
    # Block of cell (r, c) sits at index r*T + c in the sorted block list;
    # a stable sort of the mate's cells lists each symbol's cells in order.
    t = sq.order
    return Resolution(np.argsort(mate.cells, axis=None, kind="stable").reshape(t, t))


def permute_design(d: BlockDesign, image) -> BlockDesign:
    """Relabel points: point p becomes image[p]."""
    img = list(image)
    if sorted(img) != list(range(d.v)):
        raise ValueError("image is not a permutation of the points")
    return BlockDesign(d.v, np.array(img, dtype=np.int64)[d.array])


def permute_sts(s: StsInstance, image) -> StsInstance:
    """Relabel a checked STS; valid by construction, since permute_design
    checks that image is a bijection and a relabelled STS is an STS."""
    return _unchecked(StsInstance, design=permute_design(s.design, image))


def transport_resolution(d: BlockDesign, r: Resolution, image) -> Resolution:
    """Carry a resolution of d over to permute_design(d, image)."""
    img = list(image)
    moved = permute_design(d, img)
    pos = moved.lookup(np.sort(np.array(img, dtype=np.int64)[d.array], axis=1))
    return Resolution([np.sort(pos[c]) for c in r.class_arrays()])
