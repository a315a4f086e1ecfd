"""Exact cover by Algorithm X on integer bitsets.

Given columns 0..n-1 and rows (each a set of column indices), find row
subsets covering every column exactly once.  Deterministic: the open
column with the fewest alive candidates is chosen (leftmost on ties, the
rule of Knuth's "Dancing Links", arXiv:cs/0011047) and its rows are tried
in insertion order, so the solution sequence is a pure function of the
input ordering.

Each column holds one Python int whose bit r is set when row r has the
column.  The masks are read once per solve, one `int.from_bytes` per
column, off a packed table of uint64 words that is filled from the rows
(kept as sorted tuples of their columns) `_PACK_ROWS` rows at a time.
The search state is the list of open columns and the int of alive rows,
so a candidate count is one AND and one `int.bit_count`.  Trying a row
kills every row it clashes with: its clash mask is the OR of its columns'
masks, formed when the row is tried.  A precomputed rows x rows clash
table would cost rows^2 / 8 bytes (125 GB at 10^6 rows); the column masks
cost n_cols * rows / 8 bytes, about 15 MB for 117 columns and 10^6 rows.

A node is one row try.  A node budget caps the search, and so does the
solution cap (0 asks for none: no search); `complete` in the result tells
whether the space was exhausted, so "no solution found" and "ran out of
budget" stay distinguishable.

The level sweep.  When more than one solution is asked for and the packed
table holds at most `_SWEEP_WORDS` words, each node of the depth-first
search first hands its whole subtree to `_Sweep`, which expands the same
tree in numpy, `_SWEEP_WORDS` words' worth of (state, column) pairs per
step: a block of states of one level gets every open column's count from
a popcount of its alive words against the column words, the leftmost
fewest-candidates column from `argmin`, and its children from that
column's rows in row order.  Blocks are taken depth first, so the states
of each level, and the solutions, come out in the order of their row
sequences, which is the depth-first order.  The sweep keeps the subtree
only when it has at most the remaining node budget in nodes, fewer
solutions than the remaining cap, and never more than `_SWEEP_WORDS`
words of pending states; then the depth-first search would have tried
exactly those nodes and found exactly those solutions, so node counts,
solutions and their order are the same as without the sweep.  Otherwise
the sweep gives up, and the search tries the node's rows one at a time,
offering each child's subtree to the sweep in turn, so every cut-off by
budget or cap falls on the same node.  Asking for one solution (the
resolution pass) never sweeps, since a sweep finds all of a subtree's.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

# The sweep's one bound, in uint64 words: on the packed column table, on the
# pending states, and on one step's (state, column) pairs.
_SWEEP_WORDS = 1 << 16
# Rows per block when filling the packed table, to bound its index arrays.
_PACK_ROWS = 1 << 8


@dataclass(frozen=True)
class CoverResult:
    solutions: tuple[tuple[int, ...], ...]
    complete: bool
    nodes: int


def _entries(rows: Sequence[tuple[int, ...]], first: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's column and row (rows numbered from `first`), in row order."""
    lengths = np.fromiter(map(len, rows), np.intp, len(rows))
    cols = np.fromiter(chain.from_iterable(rows), np.intp, int(lengths.sum()))
    return cols, np.repeat(np.arange(first, first + len(rows)), lengths)


def _bit(i: np.ndarray) -> np.ndarray:
    """1 << (i mod 64) as uint64."""
    return np.left_shift(np.uint64(1), (i & 63).astype(np.uint64))


def _packed_columns(n_cols: int, rows: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Column c's rows as the bits of row c of a little-endian uint64 table:
    bit r is set when row r has column c.  A last, all-zero row pads, and
    every row has a spare bit past the last row."""
    words = np.zeros((n_cols + 1, len(rows) // 64 + 1), "<u8")
    as_bytes = words.view(np.uint8)  # byte r // 8 of a little-endian row holds bit r
    for lo in range(0, len(rows), _PACK_ROWS):
        cols, row_ids = _entries(rows[lo:lo + _PACK_ROWS], lo)
        np.bitwise_or.at(as_bytes, (cols, row_ids >> 3), (1 << (row_ids & 7)).astype(np.uint8))
    return words


def _grouped(keys: np.ndarray, values: np.ndarray, n: int, fill: int) -> np.ndarray:
    """Row k holds the values whose key is k, in their order, padded with `fill`."""
    counts = np.bincount(keys, minlength=n)
    order = np.argsort(keys, kind="stable")
    out = np.full((n, int(counts.max(initial=0))), fill)
    out[keys[order], np.arange(len(keys)) - np.repeat(np.cumsum(counts) - counts, counts)] = (
        values[order]
    )
    return out


class _Sweep:
    """A node's whole subtree, expanded a block of one level's states at a
    time (see the module docstring).  A state is its alive rows and its
    covered columns, each packed in uint64 words, and its row sequence."""

    def __init__(self, n_cols: int, words: np.ndarray, rows: Sequence[tuple[int, ...]]):
        n_rows, n_words = len(rows), words.shape[1]
        self.n_cols, self.words = n_cols, words
        self.keep = ~words  # a child's alive words: its parent's AND its row's columns' keep
        self.step = _SWEEP_WORDS // (n_cols * n_words)  # states per step
        self.frontier = _SWEEP_WORDS // n_words
        self.none = n_rows + 1  # more candidates than any column has
        self.row_dtype = np.min_scalar_type(n_rows)
        cols, row_ids = _entries(rows)
        # Each row's columns, padded with column n_cols, whose words are zero,
        # and the same columns as bits, for the covered words.
        self.row_cols = _grouped(row_ids, cols, n_rows, n_cols)
        self.row_bits = np.zeros((n_rows, n_cols // 64 + 1), "<u8")
        np.bitwise_or.at(self.row_bits, (row_ids, cols >> 6), _bit(cols))
        # Each column's rows in row order, padded with row n_rows, whose
        # alive bit is never set.
        self.col_rows = _grouped(cols, row_ids, n_cols, n_rows)

    def __call__(
        self, open_cols: list[int], alive: int, base: list[int], budget: int, cap: int
    ) -> tuple[list[tuple[int, ...]], int] | None:
        """The subtree's solutions, each with the rows in `base` above it,
        in depth-first order, and its node count; or None when it has more
        than `budget` nodes or at least `cap` solutions, or when its pending
        states outgrow the bound."""
        n_cols, words, step = self.n_cols, self.words, self.step
        closed = np.ones(64 * self.row_bits.shape[1], bool)
        closed[open_cols] = False
        # Blocks of pending states, each of one level and in row-sequence
        # order; the last block is the first in that order.
        stack = [(
            np.frombuffer(alive.to_bytes(8 * words.shape[1], "little"), "<u8")[None],
            np.packbits(closed, bitorder="little").view("<u8")[None],
            np.empty((1, 0), self.row_dtype),
        )]
        found: list[np.ndarray] = []
        n_found = nodes = 0
        held = 1
        while stack:
            a, c, p = stack.pop()
            if len(p) > step:
                stack.append((a[step:], c[step:], p[step:]))
                a, c, p = a[:step], c[:step], p[:step]
            counts = np.bitwise_count(a[:, :1] & words[:n_cols, 0]).astype(np.intp)
            for w in range(1, words.shape[1]):
                counts += np.bitwise_count(a[:, w:w + 1] & words[:n_cols, w])
            closed = np.unpackbits(c.view(np.uint8), axis=1, count=n_cols, bitorder="little")
            np.copyto(counts, self.none, where=closed.view(bool))
            best = counts.argmin(axis=1)
            fewest = np.take_along_axis(counts, best[:, None], axis=1)[:, 0]
            solved = fewest == self.none  # no open column left
            if solved.any():
                found.append(p[solved])
                n_found += int(solved.sum())
                if n_found >= cap:
                    return None
            grow = np.flatnonzero((fewest > 0) & ~solved)
            cand = self.col_rows[best[grow]]
            bits = np.take_along_axis(a[grow], cand >> 6, axis=1) & _bit(cand)
            parent, j = np.nonzero(bits)
            rows = cand[parent, j]
            parent = grow[parent]
            nodes += len(rows)
            held += len(rows) - len(p)
            if nodes > budget or held > self.frontier:
                return None
            if len(rows):
                child = a[parent]
                for col in self.row_cols[rows].T:
                    child &= self.keep[col]
                stack.append((child, c[parent] | self.row_bits[rows],
                              np.column_stack((p[parent], rows.astype(self.row_dtype)))))
        return _in_order(found, base), nodes


def _in_order(found: list[np.ndarray], base: list[int]) -> list[tuple[int, ...]]:
    """The found row sequences, each joined to `base` and sorted, in the
    order of the sequences.  Blocks of one depth are already in that order;
    blocks of several depths are merged on the sequences padded at the end,
    since no solution's sequence is a prefix of another's."""
    out: list[tuple[int, ...]] = []
    for p in found:
        full = np.column_stack((np.broadcast_to(np.array(base, p.dtype), (len(p), len(base))), p))
        out.extend(map(tuple, np.sort(full, axis=1).tolist()))
    depth = max((p.shape[1] for p in found), default=0)
    if any(p.shape[1] < depth for p in found):
        padded = np.concatenate([np.pad(p.astype(np.intp), ((0, 0), (0, depth - p.shape[1])),
                                        constant_values=-1) for p in found])
        out = [out[i] for i in np.lexsort(padded.T[::-1])]
    return out


class ExactCover:
    def __init__(self, n_cols: int):
        self.n_cols = n_cols
        self._rows: list[tuple[int, ...]] = []

    @property
    def n_rows(self) -> int:
        return len(self._rows)

    def add_row(self, cols: Iterable[int]) -> int:
        """Append a row (repeated columns merged) and return its index."""
        row_id = len(self._rows)
        row = tuple(sorted(set(cols)))
        if row and not (row[0] >= 0 and row[-1] < self.n_cols):
            bad = row[0] if row[0] < 0 else row[-1]
            raise ValueError(f"row {row_id} has column {bad}, not in range({self.n_cols})")
        self._rows.append(row)
        return row_id

    def solve(self, max_solutions: int = 1, node_budget: int = 10**8) -> CoverResult:
        if max_solutions < 0:
            raise ValueError(f"max_solutions must be >= 0, got {max_solutions}")
        if not max_solutions:
            return CoverResult((), False, 0)
        rows = self._rows
        words = _packed_columns(self.n_cols, rows)
        masks = [int.from_bytes(w.tobytes(), "little") for w in words[:-1]]
        sweep = None
        if max_solutions > 1 and 0 < self.n_cols * words.shape[1] <= _SWEEP_WORDS:
            sweep = _Sweep(self.n_cols, words, rows)
        del words  # the masks hold its bits; only a sweep needs the array
        none = len(rows) + 1  # more candidates than any column has
        solutions: list[tuple[int, ...]] = []
        nodes = 0
        # Depth-first on an explicit stack, so a solution may have any number
        # of rows: the loop holds the current node (open columns, alive rows,
        # untried candidates); `stack` holds each ancestor's plus its row tried.
        stack: list[tuple[list[int], int, int, int]] = []
        open_cols, alive = list(range(self.n_cols)), (1 << len(rows)) - 1
        while True:
            candidates = 0
            swept = None
            if sweep is not None and open_cols:
                swept = sweep(open_cols, alive, [frame[3] for frame in stack],
                              node_budget - nodes, max_solutions - len(solutions))
            if swept is not None:
                # The whole subtree fits the budget and the cap, so the
                # depth-first search would have found the same, in this order.
                solutions.extend(swept[0])
                nodes += swept[1]
            elif not open_cols:
                solutions.append(tuple(sorted(frame[3] for frame in stack)))
                if len(solutions) >= max_solutions:
                    return CoverResult(tuple(solutions), False, nodes)
            else:
                # Fewest alive candidates first; leftmost wins ties, and a
                # column with none ends this branch at once.
                best, fewest = -1, none
                for c in open_cols:
                    count = (masks[c] & alive).bit_count()
                    if count < fewest:
                        if not count:
                            break
                        best, fewest = c, count
                else:
                    candidates = masks[best] & alive
            # Back up to the nearest node with a row left to try.
            while not candidates and stack:
                open_cols, alive, candidates, _ = stack.pop()
            if not candidates:
                return CoverResult(tuple(solutions), True, nodes)
            low = candidates & -candidates
            candidates ^= low
            nodes += 1
            if nodes > node_budget:
                return CoverResult(tuple(solutions), False, nodes)
            r = low.bit_length() - 1
            cols = rows[r]
            clash = 0
            for c in cols:
                clash |= masks[c]
            stack.append((open_cols, alive, candidates, r))
            open_cols, alive = [c for c in open_cols if c not in cols], alive & ~clash


def solve_exact_cover(
    n_cols: int,
    rows: Sequence[Iterable[int]],
    max_solutions: int = 1,
    node_budget: int = 10**8,
) -> CoverResult:
    """One-shot helper: build the matrix from `rows` and run the search."""
    ec = ExactCover(n_cols)
    for r in rows:
        ec.add_row(r)
    return ec.solve(max_solutions=max_solutions, node_budget=node_budget)
