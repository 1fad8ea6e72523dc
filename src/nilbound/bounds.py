"""Exact integer arithmetic for the order bounds.

Everything here is pure big-integer / exact-rational arithmetic.  The central
object is the composition score: a composition (a_1, ..., a_c) of k scores

    T(a) = sum_i  a_i * (1 + s_i + s_i^2 + ... + s_i^(i-1)),   s_i = a_1 + ... + a_{i-1},

always evaluated as the geometric *sum* so that s_i = 0 contributes 1 and
s_i = 1 contributes i.  The maximum of T over all compositions of k into c
non-negative parts is the upper bound on the log_p-order of a nilpotent
transitive group of degree p^k and class at most c.

f_upper and best_composition share one cached suffix dynamic program: the
best score of parts i..c after a prefix sum s is the maximum over the next part
t of t * (1 + s + ... + s^(i-1)) plus the best score of parts i+1..c after
s + t.  The smallest such t, part by part, gives the lexicographically least
witness.  The closed forms f_closed for c <= 4 cross-check it.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .perm import GuardExceeded


def _geometric_sum(s: int, length: int) -> int:
    """1 + s + ... + s^(length-1), with the empty sum equal to 0."""
    if s == 0:
        return 1 if length >= 1 else 0
    if s == 1:
        return length
    return (s**length - 1) // (s - 1)


def composition_value(parts: Sequence[int]) -> int:
    """The composition score T(a) of a sequence of non-negative parts."""
    if any(part < 0 for part in parts):
        raise ValueError("parts must be non-negative")
    total = 0
    prefix = 0
    for i, part in enumerate(parts, start=1):
        total += part * _geometric_sum(prefix, i)
        prefix += part
    return total


# Every admitted cell finishes in about a second, its scores far below the
# 4300 digits past which Python refuses to print an int.
DP_CELL_LIMIT = 4_000_000
SCORE_DIGIT_LIMIT = 1000


@functools.lru_cache(maxsize=None)
def _maximize(k: int, c: int) -> tuple[int, tuple[int, ...]]:
    """f_upper(k, c) and its lexicographically least witness (module docstring)."""
    if k < 1 or c < 1:
        raise ValueError("k and c must be positive")
    cells = k * k * c
    if cells > DP_CELL_LIMIT:
        raise GuardExceeded(f"f_upper needs k*k*c = {cells} DP cells, "
                            f"over the limit {DP_CELL_LIMIT}")
    digits = math.ceil(c * math.log10(k + 1))
    if digits > SCORE_DIGIT_LIMIT:
        raise GuardExceeded(f"f_upper scores reach c*log10(k+1) = {digits} digits, "
                            f"over the limit {SCORE_DIGIT_LIMIT}")
    # best[i][s]: the best score of parts i..c after the prefix sum s
    best = [[]] * c + [[(k - s) * _geometric_sum(s, c) for s in range(k + 1)]]
    for i in range(c - 1, 0, -1):
        # t * g for t = 0..k-s, paired with best[i + 1][s + t]
        best[i] = [max(map(operator.add, range(0, (k - s) * g + 1, g), best[i + 1][s:]))
                   for s, g in enumerate(_geometric_sum(s, i) for s in range(k + 1))]
    parts, s = [], 0
    for i in range(1, c):
        g = _geometric_sum(s, i)
        parts.append(next(t for t in range(k - s + 1) if t * g + best[i + 1][s + t] == best[i][s]))
        s += parts[-1]
    parts.append(k - s)
    if composition_value(parts) != best[1][0]:
        raise ArithmeticError(f"witness {parts} does not score f_upper({k}, {c}) = {best[1][0]}")
    return best[1][0], tuple(parts)


def f_upper(k: int, c: int) -> int:
    """Exact maximum of the composition score over compositions of k into c
    non-negative parts."""
    return _maximize(k, c)[0]


# the dynamic program is f_upper itself; the name stays for callers using it
f_upper_dp = f_upper


def best_composition(k: int, c: int) -> tuple[int, ...]:
    """The lexicographically least composition achieving f_upper(k, c)."""
    return _maximize(k, c)[1]


_TABLE1 = {
    # c -> residue -> polynomial coefficients (constant first), exact rationals
    3: {
        0: (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(4, 27)),
        1: (Fraction(-10, 27), Fraction(8, 9), Fraction(1, 3), Fraction(4, 27)),
        2: (Fraction(-8, 27), Fraction(8, 9), Fraction(1, 3), Fraction(4, 27)),
    },
    4: {
        0: (Fraction(0), Fraction(1), Fraction(3, 8), Fraction(13, 64), Fraction(27, 256)),
        1: (Fraction(-117, 256), Fraction(53, 64), Fraction(41, 128), Fraction(13, 64), Fraction(27, 256)),
        2: (Fraction(-11, 16), Fraction(7, 16), Fraction(1, 8), Fraction(13, 64), Fraction(27, 256)),
        3: (Fraction(-77, 256), Fraction(57, 64), Fraction(37, 128), Fraction(13, 64), Fraction(27, 256)),
    },
}

# the two k values where the generic degree-4 polynomial does not apply
_TABLE1_EXCEPTIONS = {(4, 2): 5, (4, 6): 188}


def f_closed(k: int, c: int) -> int:
    """Closed-form value of the composition maximum for c <= 4."""
    if not 1 <= c <= 4:
        raise ValueError("closed forms cover 1 <= c <= 4 only")
    if k < 1:
        raise ValueError("k must be positive")
    if c == 1:
        return k
    if c == 2:
        return class2_exponent(k)
    if (c, k) in _TABLE1_EXCEPTIONS:
        return _TABLE1_EXCEPTIONS[(c, k)]
    coeffs = _TABLE1[c][k % c]
    value = sum(coef * k**power for power, coef in enumerate(coeffs))
    if value.denominator != 1:
        raise ArithmeticError(f"table formula mismatch at k={k}, c={c}: {value}")
    return int(value)


def elementary_bound(k: int, c: int) -> int:
    """k * (1 + k + ... + k^(c-1)); equals c at k = 1."""
    if k < 1 or c < 1:
        raise ValueError("k and c must be positive")
    return k * _geometric_sum(k, c)


def class2_exponent(k: int) -> int:
    """Exact log_p of the maximum order at class <= 2: k + floor(k/2)*ceil(k/2)."""
    if k < 1:
        raise ValueError("k must be positive")
    return k + (k // 2) * ((k + 1) // 2)


def binomial_lower(k: int, c: int) -> int:
    """Wreath-witness lower bound (k/c) * C(k(c-1)/c, c-1); needs c | k."""
    if k < 1 or c < 1:
        raise ValueError("k and c must be positive")
    if k % c != 0:
        raise ValueError("divisibility required: c must divide k")
    return (k // c) * math.comb(k * (c - 1) // c, c - 1)


def asymptotic_coefficient(c: int) -> Fraction:
    """Leading coefficient (c-1)^(c-1) / c^c of the composition maximum,
    with 0^0 = 1 at c = 1."""
    if c < 1:
        raise ValueError("c must be positive")
    numerator = 1 if c == 1 else (c - 1) ** (c - 1)
    return Fraction(numerator, c**c)


def monomial_count(v: int, i: int, p: int) -> int:
    """Monomials in v variables of total degree i with every exponent <= p-1.

    Equals the coefficient of x^i in (1 + x + ... + x^(p-1))^v.
    """
    if v < 0 or i < 0:
        raise ValueError("v and i must be non-negative")
    coeffs = [1]
    for _ in range(v):
        nxt = [0] * (i + 1)
        for d, cur in enumerate(coeffs):
            if cur == 0:
                continue
            for e in range(min(p - 1, i - d) + 1):
                nxt[d + e] += cur
        coeffs = nxt[: i + 1]
    return coeffs[i] if i < len(coeffs) else 0


def prime_power(n: int) -> tuple[int, int]:
    """(p, e) with n = p^e for a prime p, by trial division up to sqrt(n)."""
    if n < 2:
        raise ValueError(f"{n} is not a prime power")
    p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
    e, m = 0, n
    while m % p == 0:
        m, e = m // p, e + 1
    if m != 1:
        raise ValueError(f"{n} is not a prime power")
    return p, e


def combine_multiplicative(factors: Mapping[int, int]) -> int:
    """Combine per-prime-power exponents into one order.

    factors maps a prime power p^a to the exponent e = log_p of the maximal
    order at that degree; the result is the product of p^e over all factors.
    """
    total = 1
    seen_bases = set()
    for q in sorted(factors):
        p, _ = prime_power(q)
        if p in seen_bases:
            raise ValueError(f"repeated prime base {p}")
        seen_bases.add(p)
        total *= p ** factors[q]
    return total


@dataclass(frozen=True)
class BoundReport:
    """All bound values for one (p, k, c) triple."""

    p: int
    k: int
    c: int
    f_upper: int
    elementary: int
    class2_exact: int | None
    binomial_lower: int | None
    witness: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "c": self.c,
            "f_upper": self.f_upper,
            "elementary": self.elementary,
            "class2_exact": self.class2_exact,
            "binomial_lower": self.binomial_lower,
            "witness_composition": list(self.witness),
            "provenance": {
                "f_upper": "composition maximum",
                "elementary": "point-stabilizer intersection bound",
                "class2_exact": "exact value for class <= 2",
                "binomial_lower": "wreath/polynomial witness",
            },
        }


def bound_report(p: int, k: int, c: int) -> BoundReport:
    """Assemble every applicable bound exponent for degree p^k, class <= c."""
    return BoundReport(
        p=p,
        k=k,
        c=c,
        f_upper=f_upper(k, c),
        elementary=elementary_bound(k, c),
        class2_exact=class2_exponent(k) if c >= 2 else None,
        binomial_lower=binomial_lower(k, c) if k % c == 0 else None,
        witness=best_composition(k, c),
    )
