"""Exact cover by Algorithm X on integer bitsets.

Given columns 0..n-1 and rows (each a set of column indices), find row
subsets covering every column exactly once.  Deterministic: the open
column with the fewest alive candidates is chosen (leftmost on ties, the
rule of Knuth's "Dancing Links", arXiv:cs/0011047) and its rows are tried
in insertion order, so the solution sequence is a pure function of the
input ordering.

The rows are one table of their sorted columns, each padded at its end
with n_cols (a column no row has), in the smallest unsigned dtype holding
n_cols; rows given as a 2-D int array become it with no object per row.
Each column holds one Python int whose bit r is set when row r has the
column, read once per solve off a packed uint64 table filled from the row
table `_PACK_ROWS` rows at a time.  The search state is the list of open
columns and the int of alive rows, so a candidate count is one AND and one
`int.bit_count`.  Trying a row kills every row in the OR of its columns'
masks; a rows x rows clash table would cost rows^2 / 8 bytes (125 GB at
10^6 rows), the column masks n_cols * rows / 8 (15 MB for 117 columns).

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
from typing import Iterable, Sequence

import numpy as np

from .gf3 import _ArrayValue

# The sweep's one bound, in uint64 words: on the packed column table, on the
# pending states, and on one step's (state, column) pairs.
_SWEEP_WORDS = 1 << 16
# Rows per block when filling the packed table, to bound its index arrays.
_PACK_ROWS = 1 << 8


@dataclass(frozen=True, eq=False, init=False)
class CoverResult(_ArrayValue):
    """Solution i is index[bounds[i]:bounds[i + 1]], as in `Resolution`, and
    the index takes the smallest unsigned dtype, so equal results hash alike.
    Each item given is a solution, or a 2-D array whose rows are solutions."""

    index: np.ndarray
    bounds: np.ndarray
    complete: bool
    nodes: int

    def __init__(self, solutions: Sequence[Sequence[int]], complete: bool, nodes: int):
        blocks = [np.atleast_2d(np.asarray(s)) for s in solutions]
        index = np.concatenate([b.ravel() for b in blocks]) if blocks else np.zeros(0, np.uint8)
        index = index.astype(np.min_scalar_type(int(index.max(initial=0))), copy=False)
        bounds = np.concatenate([[0], *(np.full(len(b), b.shape[1]) for b in blocks)]).cumsum()
        for name, value in zip(self.__dataclass_fields__, (index, bounds, complete, nodes)):
            object.__setattr__(self, name, value)

    @property
    def solutions(self) -> tuple[tuple[int, ...], ...]:
        b = self.bounds.tolist()
        return tuple(tuple(self.index[i:j].tolist()) for i, j in zip(b, b[1:]))


def _bit(i: np.ndarray) -> np.ndarray:
    """1 << (i mod 64) as uint64."""
    return np.left_shift(np.uint64(1), (i & 63).astype(np.uint64))


def _packed_columns(n_cols: int, table: np.ndarray) -> np.ndarray:
    """Column c's rows as the bits of row c of a little-endian uint64 table:
    bit r is set when row r has column c.  A last, all-zero row, the pad
    column's, ends it, and every row has a spare bit past the last row."""
    words = np.zeros((n_cols + 1, len(table) // 64 + 1), "<u8")
    as_bytes = words.view(np.uint8)  # byte r // 8 of a little-endian row holds bit r
    for lo in range(0, len(table), _PACK_ROWS):
        block = table[lo:lo + _PACK_ROWS]
        r = np.arange(lo, lo + len(block))[:, None]
        np.bitwise_or.at(as_bytes, (block, r >> 3), (1 << (r & 7)).astype(np.uint8))
    words[n_cols] = 0
    return words


class _Sweep:
    """A node's whole subtree, expanded a block of one level's states at a
    time (see the module docstring).  A state is its alive rows and its
    covered columns, each packed in uint64 words, and its row sequence."""

    def __init__(self, n_cols: int, words: np.ndarray, table: np.ndarray):
        n_rows, n_words = len(table), words.shape[1]
        self.n_cols, self.words = n_cols, words
        self.keep = ~words  # a child's alive words: its parent's AND its row's columns' keep
        self.step = _SWEEP_WORDS // (n_cols * n_words)  # states per step
        self.frontier = _SWEEP_WORDS // n_words
        self.none = n_rows + 1  # more candidates than any column has
        self.row_dtype = np.min_scalar_type(n_rows)
        cols, row_ids = table[table < n_cols], np.nonzero(table < n_cols)[0]  # pads skipped
        # Each row's columns, padded with column n_cols, whose words are zero,
        # and the same columns as bits, for the covered words.
        self.row_cols = table
        self.row_bits = np.zeros((n_rows, n_cols // 64 + 1), "<u8")
        np.bitwise_or.at(self.row_bits, (row_ids, cols >> 6), _bit(cols))
        # Each column's rows in row order, padded with row n_rows (never alive).
        per_col = np.bincount(cols, minlength=n_cols)
        self.col_rows = rows = np.full((n_cols, per_col.max(initial=0)), n_rows)
        rows[np.arange(rows.shape[1]) < per_col[:, None]] = row_ids[cols.argsort(kind="stable")]

    def __call__(
        self, open_cols: list[int], alive: int, base: list[int], budget: int, cap: int
    ) -> tuple[list[np.ndarray], int, int] | None:
        """The subtree's solutions, each with the rows in `base` above it, in
        depth-first order, their number and its node count; or None when it
        has more than `budget` nodes or at least `cap` solutions, or when its
        pending states outgrow the bound."""
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
        return _in_order(found, base), n_found, nodes


def _in_order(found: list[np.ndarray], base: list[int]) -> list[np.ndarray]:
    """The found row sequences, each joined to `base` and sorted, in the
    order of the sequences, as 2-D blocks.  Blocks of one depth are already
    in that order; blocks of several depths are merged into single solutions
    on the sequences padded at the end, since none is a prefix of another."""
    out = [np.sort(np.column_stack((np.broadcast_to(np.array(base, p.dtype), (len(p), len(base))),
                                    p)), axis=1) for p in found]
    depth = max((p.shape[1] for p in found), default=0)
    if any(p.shape[1] < depth for p in found):
        padded = np.concatenate([np.pad(p.astype(np.intp), ((0, 0), (0, depth - p.shape[1])),
                                        constant_values=-1) for p in found])
        rows = [row for block in out for row in block]
        out = [rows[i] for i in np.lexsort(padded.T[::-1])]
    return out


class ExactCover:
    def __init__(self, n_cols: int):
        self.n_cols, self.n_rows = n_cols, 0
        self._tables: list[np.ndarray] = []  # row tables, joined by `solve`

    def add_row(self, cols: Iterable[int]) -> int:
        """Append a row (repeated columns merged) and return its index."""
        return self.add_rows(np.array([list(cols)]))  # object dtype past int64: the range error

    def add_rows(self, rows: np.ndarray) -> int:
        """Append a 2-D int array's rows as `add_row` would; return the first's index."""
        n_cols, first = self.n_cols, self.n_rows
        if rows.size and not (rows.min() >= 0 and rows.max() < n_cols):
            r = int(np.flatnonzero(((rows < 0) | (rows >= n_cols)).any(axis=1))[0])
            bad = rows[r].min() if rows[r].min() < 0 else rows[r].max()
            raise ValueError(f"row {first + r} has column {bad}, not in range({n_cols})")
        table = rows.astype(np.min_scalar_type(n_cols), copy=False)
        if not (table[:, 1:] > table[:, :-1]).all():  # sort; repeats become pads, pads go last
            table = np.sort(table, axis=1)
            table[:, 1:][table[:, 1:] == table[:, :-1]] = n_cols
            table.sort(axis=1)
        self._tables.append(table)
        self.n_rows += len(table)
        return first

    def solve(self, max_solutions: int = 1, node_budget: int = 10**8) -> CoverResult:
        if max_solutions < 0:
            raise ValueError(f"max_solutions must be >= 0, got {max_solutions}")
        if not max_solutions:
            return CoverResult((), False, 0)
        n_cols, tables = self.n_cols, self._tables
        if len(tables) != 1:  # one table, each row padded to the widest
            self._tables = [np.full((self.n_rows, max((t.shape[1] for t in tables), default=0)),
                                    n_cols, np.min_scalar_type(n_cols))]
            for first, t in zip(np.cumsum([0, *map(len, tables)]).tolist(), tables):
                self._tables[0][first:first + len(t), :t.shape[1]] = t
        table = self._tables[0]
        words = _packed_columns(n_cols, table)
        masks = [int.from_bytes(w.tobytes(), "little") for w in words]  # the pad's is 0
        sweep = None
        if max_solutions > 1 and 0 < n_cols * words.shape[1] <= _SWEEP_WORDS:
            sweep = _Sweep(n_cols, words, table)
        del words  # the masks hold its bits; only a sweep needs the array
        none = len(table) + 1  # more candidates than any column has
        row_dtype = np.min_scalar_type(len(table))
        found: list[np.ndarray] = []  # solutions, each 1-D, or 2-D blocks of them
        n_found = nodes = 0
        # Depth-first on an explicit stack, so a solution may have any number
        # of rows: the loop holds the current node (open columns, alive rows,
        # untried candidates); `stack` holds each ancestor's plus its row tried.
        stack: list[tuple[list[int], int, int, int]] = []
        open_cols, alive = list(range(n_cols)), (1 << len(table)) - 1
        while True:
            candidates = 0
            swept = None
            if sweep is not None and open_cols:
                swept = sweep(open_cols, alive, [frame[3] for frame in stack],
                              node_budget - nodes, max_solutions - n_found)
            if swept is not None:
                # The whole subtree fits the budget and the cap, so the
                # depth-first search would have found the same, in this order.
                found.extend(swept[0])
                n_found, nodes = n_found + swept[1], nodes + swept[2]
            elif not open_cols:
                found.append(np.array(sorted(frame[3] for frame in stack), row_dtype))
                n_found += 1
                if n_found >= max_solutions:
                    return CoverResult(found, False, nodes)
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
                return CoverResult(found, True, nodes)
            low = candidates & -candidates
            candidates ^= low
            nodes += 1
            if nodes > node_budget:
                return CoverResult(found, False, nodes)
            r = low.bit_length() - 1
            cols = table[r].tolist()
            clash = 0
            for c in cols:
                clash |= masks[c]
            stack.append((open_cols, alive, candidates, r))
            open_cols, alive = [c for c in open_cols if c not in cols], alive & ~clash


def solve_exact_cover(
    n_cols: int,
    rows: np.ndarray | Sequence[Iterable[int]],
    max_solutions: int = 1,
    node_budget: int = 10**8,
) -> CoverResult:
    """One-shot helper: build the matrix from `rows` (or a 2-D int array) and run the search."""
    ec = ExactCover(n_cols)
    if isinstance(rows, np.ndarray):
        ec.add_rows(rows)
    else:
        for r in rows:
            ec.add_row(r)
    return ec.solve(max_solutions=max_solutions, node_budget=node_budget)
