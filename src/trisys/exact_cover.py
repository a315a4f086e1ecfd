"""Exact cover by Algorithm X on integer bitsets.

Given columns 0..n-1 and rows (each a set of column indices), find row
subsets covering every column exactly once.  Deterministic: the open
column with the fewest alive candidates is chosen (leftmost on ties, the
rule of Knuth's "Dancing Links", arXiv:cs/0011047) and its rows are tried
in insertion order, so the solution sequence is a pure function of the
input ordering.

Each column holds one Python int whose bit r is set when row r has the
column; the masks are built once per solve, through one bytearray per
column, from the rows kept as sorted tuples of their columns.  The
search state is the list of open columns and the int of alive rows, so a
candidate count is one AND and one `int.bit_count`.  Trying a row kills
every row it clashes with: its clash mask is the OR of its columns' masks,
formed when the row is tried.  A precomputed rows x rows clash table would
cost rows^2 / 8 bytes (125 GB at 10^6 rows); the column masks cost
n_cols * rows / 8 bytes, about 15 MB for 117 columns and 10^6 rows.

A node is one row try.  A node budget caps the search, and so does the
solution cap (0 asks for none: no search); `complete` in the result tells
whether the space was exhausted, so "no solution found" and "ran out of
budget" stay distinguishable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class CoverResult:
    solutions: tuple[tuple[int, ...], ...]
    complete: bool
    nodes: int


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

    def _column_masks(self) -> list[int]:
        bufs = [bytearray((len(self._rows) + 7) // 8) for _ in range(self.n_cols)]
        for r, row in enumerate(self._rows):
            byte, bit = r >> 3, 1 << (r & 7)
            for c in row:
                bufs[c][byte] |= bit
        return [int.from_bytes(buf, "little") for buf in bufs]

    def solve(self, max_solutions: int = 1, node_budget: int = 10**8) -> CoverResult:
        if max_solutions < 0:
            raise ValueError(f"max_solutions must be >= 0, got {max_solutions}")
        if not max_solutions:
            return CoverResult((), False, 0)
        masks = self._column_masks()
        rows = self._rows
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
            if not open_cols:
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
