"""The bitset exact-cover engine: answers, order, caps and input checks.

The hypothesis test compares `solve_exact_cover` with a brute-force
oracle over every subset of a few random rows; the pinned cases fix the
edge behaviour (no columns, empty rows, repeated and bad column indices).
A second hypothesis test compares the search with and without the level
sweep (`_SWEEP_WORDS` set to 0 turns it off): the results must be equal,
node counts included, under every cap and budget.  A third compares rows
given as a 2-D int array with the same rows given as tuples: results, and
the text of a bad column's error.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisys import exact_cover
from trisys.exact_cover import CoverResult, ExactCover, solve_exact_cover

# Knuth's running example: 7 columns, unique solution {row0, row3, row4}.
KNUTH_ROWS = [
    (2, 4, 5),
    (0, 3, 6),
    (1, 2, 5),
    (0, 3),
    (1, 6),
    (3, 4, 6),
]


def test_unique_solution():
    res = solve_exact_cover(7, KNUTH_ROWS, max_solutions=10)
    assert res.solutions == ((0, 3, 4),)
    assert res.complete


def test_enumerates_all_solutions():
    # Partitions of 4 columns into pairs from all 2-subsets: 3 solutions.
    rows = [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)]
    res = solve_exact_cover(4, rows, max_solutions=100)
    assert set(res.solutions) == {(0, 1), (2, 3), (4, 5)}
    assert res.complete


def test_unsatisfiable_is_complete():
    res = solve_exact_cover(3, [(0, 1)], max_solutions=5)
    assert res.solutions == ()
    assert res.complete


def test_solution_cap_marks_incomplete():
    rows = [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)]
    res = solve_exact_cover(4, rows, max_solutions=1)
    assert len(res.solutions) == 1
    assert not res.complete


def test_node_budget_marks_incomplete():
    rows = [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)]
    res = solve_exact_cover(4, rows, max_solutions=100, node_budget=1)
    assert not res.complete


def test_deterministic_order():
    rows = [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)]
    a = solve_exact_cover(4, rows, max_solutions=100)
    b = solve_exact_cover(4, rows, max_solutions=100)
    assert a.solutions == b.solutions
    assert a.nodes == b.nodes


def brute_force(n_cols, rows):
    """Every set of nonempty rows that covers each column exactly once."""
    sets = [frozenset(r) for r in rows]
    nonempty = [i for i, s in enumerate(sets) if s]
    found = set()
    for size in range(len(nonempty) + 1):
        for chosen in combinations(nonempty, size):
            cols = [c for i in chosen for c in sets[i]]
            if len(cols) == n_cols and set(cols) == set(range(n_cols)):
                found.add(chosen)
    return found


@st.composite
def instances(draw):
    n_cols = draw(st.integers(0, 8))
    row = st.lists(st.integers(0, n_cols - 1), max_size=5) if n_cols else st.just([])
    rows = draw(st.lists(row, max_size=10))
    return n_cols, rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(instances(), st.integers(1, 4))
def test_matches_brute_force(instance, cap):
    n_cols, rows = instance
    expected = brute_force(n_cols, rows)
    full = solve_exact_cover(n_cols, rows, max_solutions=len(expected) + 1)
    assert full.complete
    assert all(list(s) == sorted(s) for s in full.solutions)
    assert len(full.solutions) == len(expected)
    assert set(full.solutions) == expected
    capped = solve_exact_cover(n_cols, rows, max_solutions=cap)
    assert capped.solutions == full.solutions[:cap]
    assert capped.complete == (len(expected) < cap)
    assert capped.nodes <= full.nodes


def test_no_columns_has_the_empty_cover():
    assert solve_exact_cover(0, []) == CoverResult(((),), False, 0)
    assert solve_exact_cover(0, [], max_solutions=2) == CoverResult(((),), True, 0)


def test_solution_cap_of_zero_searches_nothing():
    rows = [(0,), (1,), (2,), (0, 1, 2)]
    assert solve_exact_cover(3, rows, max_solutions=0) == CoverResult((), False, 0)
    assert solve_exact_cover(3, rows, max_solutions=1).solutions == ((0, 1, 2),)


@pytest.mark.parametrize("cap", [-1, -5])
def test_negative_solution_cap_raises_value_error(cap):
    with pytest.raises(ValueError) as info:
        solve_exact_cover(3, [(0,), (1,), (2,), (0, 1, 2)], max_solutions=cap)
    assert str(info.value) == f"max_solutions must be >= 0, got {cap}"


def test_empty_row_is_never_chosen():
    res = solve_exact_cover(2, [(), (0, 1), ()], max_solutions=5)
    assert res == CoverResult(((1,),), True, 1)
    assert solve_exact_cover(1, [()], max_solutions=5) == CoverResult((), True, 0)


def test_repeated_columns_are_merged():
    res = solve_exact_cover(2, [(0, 0, 1), (1, 1), (0,)], max_solutions=5)
    assert res == CoverResult(((0,), (1, 2)), True, 3)


@pytest.mark.parametrize(
    "n_cols, rows, text",
    [
        (3, [(0, 1), (-1,)], "row 1 has column -1, not in range(3)"),
        (3, [(3, 0)], "row 0 has column 3, not in range(3)"),
        (3, [(2,), (-2, 1, 5)], "row 1 has column -2, not in range(3)"),
        (0, [(0,)], "row 0 has column 0, not in range(0)"),
    ],
)
def test_bad_column_raises_value_error(n_cols, rows, text):
    with pytest.raises(ValueError) as info:
        solve_exact_cover(n_cols, rows)
    assert str(info.value) == text


def test_rejected_row_is_not_added():
    ec = ExactCover(2)
    assert ec.add_row((0,)) == 0
    with pytest.raises(ValueError):
        ec.add_row((1, 2))
    assert ec.n_rows == 1
    assert ec.add_row((1,)) == 1
    assert ec.solve(max_solutions=5) == CoverResult(((0, 1),), True, 2)


def test_solution_deeper_than_the_recursion_limit():
    # 1,100 disjoint rows over 3,300 columns: the one solution takes every
    # row, one search level each, far past Python's default recursion limit.
    rows = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(1100)]
    res = solve_exact_cover(3300, rows, max_solutions=2)
    assert res == CoverResult((tuple(range(1100)),), True, 1100)


@st.composite
def sweep_instances(draw):
    """Rows of mixed width, empty ones included; 63, 64 and 65 rows put the
    row words on either side of a word boundary."""
    n_cols = draw(st.integers(1, 9))
    n_rows = draw(st.sampled_from([1, 4, 12, 30, 63, 64, 65]))
    row = st.lists(st.integers(0, n_cols - 1), max_size=4)
    return n_cols, draw(st.lists(row, min_size=n_rows, max_size=n_rows))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    sweep_instances(),
    st.one_of(st.integers(1, 6), st.just(10**9)),
    st.one_of(st.integers(0, 300), st.just(10**8)),
)
def test_sweep_matches_depth_first(instance, cap, budget):
    n_cols, rows = instance
    swept = solve_exact_cover(n_cols, rows, max_solutions=cap, node_budget=budget)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact_cover, "_SWEEP_WORDS", 0)
        plain = solve_exact_cover(n_cols, rows, max_solutions=cap, node_budget=budget)
    assert swept == plain


def test_sweep_takes_a_whole_tree():
    # Partitions of 6 columns into pairs: 15 solutions, all found by the
    # sweep at the root, in the depth-first order and with its node count.
    rows = list(combinations(range(6), 2))
    ec = ExactCover(6)
    for r in rows:
        ec.add_row(r)
    calls = []
    sweep = exact_cover._Sweep.__call__

    def counted(self, *args):
        calls.append(sweep(self, *args))
        return calls[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact_cover._Sweep, "__call__", counted)
        res = ec.solve(max_solutions=16)
    assert len(calls) == 1 and calls[0] is not None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact_cover, "_SWEEP_WORDS", 0)
        assert ec.solve(max_solutions=16) == res
    assert len(res.solutions) == 15 and res.complete


@st.composite
def array_instances(draw):
    """Rows of one width in a 2-D int array of some dtype, repeats and
    unsorted columns included; a bad column, when drawn, is in some row."""
    n_cols = draw(st.integers(0, 9))
    dtype = draw(st.sampled_from(["int64", "int16", "uint8", "uint16"]))
    lo = -3 if dtype.startswith("int") else 0
    col = st.integers(0, n_cols - 1) if n_cols else st.nothing()
    if draw(st.booleans()):  # some rows may hold columns out of range
        col = st.integers(lo, n_cols + 2)
    width = draw(st.integers(0, 4)) if n_cols else 0
    rows = draw(st.lists(st.lists(col, min_size=width, max_size=width), max_size=70))
    return n_cols, np.array(rows, dtype).reshape(len(rows), width)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(array_instances(), st.one_of(st.integers(0, 5), st.just(10**9)), st.integers(0, 400))
def test_array_rows_match_tuple_rows(instance, cap, budget):
    n_cols, table = instance
    as_tuples = [tuple(r) for r in table.tolist()]
    try:
        expected = solve_exact_cover(n_cols, as_tuples, max_solutions=cap, node_budget=budget)
    except ValueError as error:
        with pytest.raises(ValueError) as info:
            solve_exact_cover(n_cols, table, max_solutions=cap, node_budget=budget)
        assert str(info.value) == str(error)
        return
    got = solve_exact_cover(n_cols, table, max_solutions=cap, node_budget=budget)
    assert got == expected
    assert got.solutions == expected.solutions
    assert hash(got) == hash(expected)


@pytest.mark.parametrize(
    "n_cols, rows, dtype, text",
    [
        (3, [(0, 1), (-1, 2)], "int64", "row 1 has column -1, not in range(3)"),
        (3, [(3, 0)], "uint8", "row 0 has column 3, not in range(3)"),
        (3, [(2, 2), (-2, 5)], "int16", "row 1 has column -2, not in range(3)"),
        (3, [(0, 1), (1, 9), (-1, 0)], "int64", "row 1 has column 9, not in range(3)"),
        (0, [(0,)], "uint8", "row 0 has column 0, not in range(0)"),
    ],
)
def test_bad_column_in_an_array_raises_the_tuple_text(n_cols, rows, dtype, text):
    with pytest.raises(ValueError) as info:
        solve_exact_cover(n_cols, np.array(rows, dtype))
    assert str(info.value) == text
    with pytest.raises(ValueError) as info:
        solve_exact_cover(n_cols, rows)
    assert str(info.value) == text


def test_array_rows_on_knuths_example():
    table = np.array([r + (r[0],) * (3 - len(r)) for r in KNUTH_ROWS], np.uint8)
    res = solve_exact_cover(7, table, max_solutions=10)
    assert res == solve_exact_cover(7, KNUTH_ROWS, max_solutions=10)
    assert res.solutions == ((0, 3, 4),) and res.complete
    held_wider = CoverResult([np.array([[0, 3, 4]], np.uint16)], True, res.nodes)
    assert res == held_wider and hash(res) == hash(held_wider)


def test_column_past_int64_raises_the_range_error():
    with pytest.raises(ValueError) as info:
        solve_exact_cover(3, [(0, 1), (2**70, 0)])
    assert str(info.value) == f"row 1 has column {2**70}, not in range(3)"
