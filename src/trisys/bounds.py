"""Exact evaluation of the counting lower bounds.

Everything is Python big-integer arithmetic; a bound is reported as an
exact numerator/denominator pair plus its floor and digit count.  Bounds
are evaluated even when a formula's hypothesis fails, with the failure
recorded in the report rather than enforced (except where an exponent
stops being integral).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial


@dataclass(frozen=True)
class BoundReport:
    formula_id: str
    inputs: dict[str, int] = field(compare=False)
    numerator: int = 0
    denominator: int = 1
    hypothesis_ok: bool = True
    hypothesis_note: str = ""

    @property
    def floor_value(self) -> int:
        return self.numerator // self.denominator

    @property
    def decimal_digits(self) -> int:
        """len(str(floor_value)), counted against powers of ten: str()
        refuses an int of more than 4,300 digits."""
        n = abs(self.floor_value)
        # A lower bound on the count: 2^(bits-1) <= n, and 0.30102999566 < log10(2).
        d = max(1, (n.bit_length() - 1) * 30102999566 // 10**11)
        while n >= 10**d:
            d += 1
        return d + (self.floor_value < 0)


def agl_order(k: int) -> int:
    """Order of the affine group on the 3^k-point geometry:
    3^k * prod(3^k - 3^i, i < k)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    n = 3**k
    out = n
    for i in range(k):
        out *= n - 3**i
    return out


def gl2_order(m: int) -> int:
    """Order of the invertible m x m matrices over GF(2)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    out = 1
    for i in range(m):
        out *= 2**m - 2**i
    return out


def min_rank(v: int) -> int | None:
    """Minimum possible 3-rank of a triple system on v points.

    Write v = 3^t * T' with T' coprime to 3: rank v-t-1 when T' = 1
    (mod 6), rank v-t when T' = 5 (mod 6).  None when no triple system
    of order v exists (v != 1, 3 mod 6).
    """
    if v < 1 or v % 6 not in (1, 3):
        return None
    t, rest = 0, v
    while rest % 3 == 0:
        rest //= 3
        t += 1
    return v - t - 1 if rest % 6 == 1 else v - t


def is_prime_power(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, n + 1):
        if p * p > n:
            return True  # n itself is prime
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1


def _grouped_bound(formula_id: str, T: int, k: int, counts: dict[str, int],
                   numerator, ok: bool, hypothesis: str) -> BoundReport:
    """numerator(M) over T!^M * |AGL(k,3)|, M = 3^k; the hypothesis is
    named in the note when it fails."""
    m = 3**k
    return BoundReport(
        formula_id,
        {"T": T, "k": k, "M": m, **counts},
        numerator(m),
        factorial(T) ** m * agl_order(k),
        ok,
        "" if ok else f"hypothesis {hypothesis} not satisfied",
    )


def bound_thm1(T: int, k: int, n1_resolvable: int, n3_resolvable: int) -> BoundReport:
    """Count bound for orders 3^k * T with T = 15 (mod 18):
    N1~^M * N3~^(M(M-1)/6) over T!^M * |AGL(k,3)|, M = 3^k."""
    return _grouped_bound(
        "thm1", T, k, {"n1_resolvable": n1_resolvable, "n3_resolvable": n3_resolvable},
        lambda m: n1_resolvable**m * n3_resolvable ** (m * (m - 1) // 6),
        T % 18 == 15, "T = 15 (mod 18)",
    )


def bound_thm2(T: int, k: int, n1hat_3t: int, n3_resolvable: int) -> BoundReport:
    """Count bound for orders 3^k * T with T = 1 (mod 6):
    N1^(M/3) * N3~^(M(M-3)/6) over T!^M * |AGL(k,3)|, M = 3^k."""
    if k < 1:
        raise ValueError("k >= 1 is required (the exponent M/3 must be integral)")
    return _grouped_bound(
        "thm2", T, k, {"n1hat_3t": n1hat_3t, "n3_resolvable": n3_resolvable},
        lambda m: n1hat_3t ** (m // 3) * n3_resolvable ** (m * (m - 3) // 6),
        T % 6 == 1, "T = 1 (mod 6)",
    )


def bound_thm1prime(T: int, k: int, n1_resolvable: int, n3_resolvable: int) -> BoundReport:
    """Count bound with the forced first sub-system:
    N1~^(M-1) * N3~^(M(M-1)/6) over T!^M * |AGL(k,3)|, M = 3^k."""
    return _grouped_bound(
        "thm1prime", T, k, {"n1_resolvable": n1_resolvable, "n3_resolvable": n3_resolvable},
        lambda m: n1_resolvable ** (m - 1) * n3_resolvable ** (m * (m - 1) // 6),
        T % 6 in (1, 3) and k >= 1, "T = 1,3 (mod 6) and k >= 1",
    )


def bound_rcw(T: int) -> BoundReport:
    """Lower bound on layout-orthogonal resolvable systems of order 3T:
    6 * T!^3 / |GL(floor(log2(3T+1)), 2)|."""
    m = (3 * T + 1).bit_length() - 1
    num = 6 * factorial(T) ** 3
    den = gl2_order(m)
    ok = T % 6 == 1 and is_prime_power(T)
    return BoundReport(
        "rcw",
        {"T": T, "m": m},
        num,
        den,
        ok,
        "" if ok else "hypothesis T = 1 (mod 6) and T a prime power not satisfied",
    )


def example_n3_bound() -> int:
    """The stock transversal-design count bound 3! * 7!^3 / 1764 = 435456000."""
    num = factorial(3) * factorial(7) ** 3
    if num % 1764 != 0:
        raise AssertionError("1764 does not divide 3! * 7!^3")
    return num // 1764
