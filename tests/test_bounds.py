"""Exact big-integer bound arithmetic and the minimum-rank classifier."""

import sys
from itertools import permutations
from math import factorial

import pytest

from trisys.bounds import (
    BoundReport,
    agl_order,
    bound_rcw,
    bound_thm1,
    bound_thm1prime,
    bound_thm2,
    example_n3_bound,
    gl2_order,
    min_rank,
)
from trisys.constructions import affine_geometry, small_sts
from trisys.designs import p_rank


def test_agl_order_small():
    assert agl_order(0) == 1
    assert agl_order(1) == 6
    assert agl_order(2) == 432  # 9 * 8 * 6


def test_agl_order_is_affine_automorphism_count():
    # Oracle: brute-force count of point permutations preserving the
    # affine block set, k = 1 and k = 2.
    for k in (1, 2):
        ag = affine_geometry(k)
        blockset = set(ag.sts.blocks)
        count = 0
        for perm in permutations(range(3**k)):
            if all(
                tuple(sorted((perm[a], perm[b], perm[c]))) in blockset
                for a, b, c in ag.sts.blocks
            ):
                count += 1
        assert count == agl_order(k)


def test_gl2_order_small():
    assert gl2_order(0) == 1
    assert gl2_order(1) == 1
    assert gl2_order(2) == 6
    assert gl2_order(4) == 20160  # 15 * 14 * 12 * 8


def test_min_rank_values():
    assert min_rank(63) == 60
    assert min_rank(27) == 23
    assert min_rank(15) == 14
    assert min_rank(9) == 6
    assert min_rank(21) == 19
    assert min_rank(45) == 43
    assert min_rank(7) == 6
    assert min_rank(13) == 12


def test_min_rank_no_sts():
    for v in (2, 4, 5, 6, 8, 10, 11, 12, 14):
        assert min_rank(v) is None


def test_min_rank_lower_bounds_constructed_systems():
    for t in (7, 9, 13, 15):
        assert min_rank(t) <= p_rank(small_sts(t).design, 3)
    for k in (1, 2, 3):
        assert min_rank(3**k) == p_rank(affine_geometry(k).sts.design, 3)


def test_bound_thm1_denominator():
    rep = bound_thm1(15, 1, 2, 3)
    assert rep.denominator == factorial(15) ** 3 * 6
    assert rep.numerator == 2**3 * 3**1
    assert rep.hypothesis_ok


def test_bound_thm1_scaling():
    base = bound_thm1(15, 2, 5, 7)
    scaled = bound_thm1(15, 2, 5, 14)
    m = 9
    assert scaled.numerator == base.numerator * 2 ** (m * (m - 1) // 6)


def test_bound_thm1_degenerate_k0():
    rep = bound_thm1(5, 0, 1, 1)
    assert rep.floor_value == 0
    assert not rep.hypothesis_ok


def test_bound_thm2_headline_example():
    rep = bound_thm2(7, 2, 38102400, 435456000)
    assert rep.floor_value >= 10**64
    assert rep.decimal_digits == 65
    assert rep.denominator == factorial(7) ** 9 * 432
    assert rep.hypothesis_ok


def test_bound_thm2_zero_count():
    assert bound_thm2(7, 1, 0, 5).floor_value == 0


def test_bound_thm2_k1_exponents():
    rep = bound_thm2(7, 1, 1000, 99)
    # M = 3: exponents are 1 and 0.
    assert rep.numerator == 1000
    assert rep.denominator == factorial(7) ** 3 * 6


def test_bound_thm2_rejects_k0():
    with pytest.raises(ValueError):
        bound_thm2(7, 0, 1, 1)


def test_bound_thm1prime_vs_thm1():
    a = bound_thm1(9, 1, 12, 7)
    b = bound_thm1prime(9, 1, 12, 7)
    assert a.numerator == b.numerator * 12
    assert a.denominator == b.denominator


def test_bound_thm1prime_placeholder_inputs():
    rep = bound_thm1prime(9, 1, 4, 5)
    assert rep.numerator == 4**2 * 5
    assert rep.denominator == factorial(9) ** 3 * 6


def test_bound_thm1prime_trivial_floor():
    assert bound_thm1prime(9, 1, 1, 1).floor_value == 0


def test_bound_rcw_reference_value():
    rep = bound_rcw(7)
    assert rep.floor_value == 38102400
    assert rep.numerator == 768144384000
    assert rep.denominator == 20160
    assert rep.hypothesis_ok


def test_bound_rcw_t1():
    rep = bound_rcw(1)
    assert rep.inputs["m"] == 2
    assert rep.floor_value == 1


def test_bound_rcw_t13():
    rep = bound_rcw(13)
    assert rep.inputs["m"] == 5  # floor(log2(40))
    assert rep.numerator == 6 * factorial(13) ** 3
    assert rep.denominator == gl2_order(5)


def test_bound_rcw_hypothesis_flag():
    assert not bound_rcw(9).hypothesis_ok  # 9 = 3 (mod 6)
    assert not bound_rcw(55).hypothesis_ok  # 55 = 5 * 11 not a prime power
    assert bound_rcw(49).hypothesis_ok  # 49 = 7^2, and 49 = 1 (mod 6)


def test_example_n3_bound():
    assert example_n3_bound() == 435456000
    assert factorial(3) * factorial(7) ** 3 == 768144384000
    assert 435456000 * 1764 == 768144384000


def test_reports_are_exact_integers():
    rep = bound_thm2(7, 2, 38102400, 435456000)
    assert isinstance(rep.numerator, int)
    assert isinstance(rep.floor_value, int)
    assert rep.floor_value == rep.numerator // rep.denominator
    assert rep.decimal_digits == len(str(rep.floor_value))


def _str_digits(x: int) -> int:
    """len(str(x)) with Python's 4,300-digit conversion limit lifted."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return len(str(x))
    finally:
        sys.set_int_max_str_digits(limit)


def test_decimal_digits_past_the_string_conversion_limit():
    big = bound_thm2(7, 4, 38102400, 435456000)
    assert big.decimal_digits == 8993
    values = [0, 9, 10, 10**4300 - 1, 10**4300, big.floor_value, -1, -10**4300]
    for x in values:
        assert BoundReport("x", {}, x).decimal_digits == _str_digits(x), x
