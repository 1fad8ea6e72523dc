"""Exact integer arithmetic for the order bounds.

Everything here is pure big-integer / exact-rational arithmetic.  The central
object is the composition score: a composition (a_1, ..., a_c) of k scores

    T(a) = sum_i  a_i * (1 + s_i + s_i^2 + ... + s_i^(i-1)),   s_i = a_1 + ... + a_{i-1},

always evaluated as the geometric *sum* so that s_i = 0 contributes 1 and
s_i = 1 contributes i.  The maximum of T over all compositions of k into c
non-negative parts is the upper bound on the log_p-order of a nilpotent
transitive group of degree p^k and class at most c.

f_upper and best_composition read one forward pass over prefix sums: with
P_2(s) = s, the best score of parts 1..i summing to t is P_(i+1)(t), the max
over s <= t of P_i(s) + (t - s) * g_i(s), g_i(s) = 1 + s + ... + s^(i-1), and
F(k, c) = P_(c+1)(k); no cell enters the recurrence, so a pass to (kmax, cmax)
gives every smaller cell.  Each level is a monotone upper envelope of lines in
t (slopes g_i(s) and queries t both rise), O(kmax) steps.  Ties go to the
smallest s, and as (t - s) * g_i(s) satisfies the quadrangle inequality,
walking the smallest predecessors back gives the lexicographically least
witness.  The closed forms f_closed for c <= 4 cross-check it.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Mapping, Sequence

from .perm import GuardExceeded


def _geometric_sum(s: int, length: int) -> int:
    """1 + s + ... + s^(length-1), with the empty sum equal to 0."""
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


# The admitted set of cells, kept from the O(k*k*c) dynamic program that
# preceded the forward pass; their scores stay far below the 4300 digits past
# which Python refuses to print an int.
DP_CELL_LIMIT = 4_000_000
SCORE_DIGIT_LIMIT = 1000


def composition_maxima(kmax: int, cmax: int) -> tuple[list[list[int]], list[list[int]]]:
    """One forward pass (module docstring): rows[c-1][t] = F(t, c) for
    t <= kmax, c <= cmax, and preds[c-1][t] the sum of the first c-1 parts of
    its lexicographically least witness."""
    m = kmax + 1
    rows, preds = [list(range(m))], [[0] * m]
    for c in range(2, cmax + 1):
        prev, row, pred = rows[-1], [], []
        # predecessor s's line maps t to a*t + b = (its score) * m + kmax - s;
        # hull holds the upper envelope as (least t >= 0 where the line beats
        # the one before it, a, b)
        hull: list[tuple[int, int, int]] = []
        front = 0
        for t in range(m):
            g = _geometric_sum(t, c)
            a, b = g * m, (prev[t] - t * g) * m + kmax - t
            # pop the last line while it is nowhere above both its neighbours
            start = 0
            while hull and (start := max(0, (hull[-1][2] - b) // (a - hull[-1][1]) + 1)) <= hull[-1][0]:
                hull.pop()
            hull.append((start, a, b))
            front = min(front, len(hull) - 1)
            while front + 1 < len(hull) and hull[front + 1][0] <= t:
                front += 1
            value, tie = divmod(hull[front][1] * t + hull[front][2], m)
            row.append(value)
            pred.append(kmax - tie)
        rows.append(row)
        preds.append(pred)
    return rows, preds


def _witness(preds: list[list[int]], k: int, c: int) -> tuple[int, ...]:
    """The composition of k into c parts that preds of composition_maxima name."""
    parts = []
    for pred in reversed(preds[:c]):
        parts.append(k - pred[k])
        k = pred[k]
    return tuple(reversed(parts))


@functools.lru_cache(maxsize=None)
def _maximize(k: int, c: int) -> tuple[int, tuple[int, ...]]:
    """f_upper(k, c) and its lexicographically least witness, from one pass."""
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
    rows, preds = composition_maxima(k, c)
    value, parts = rows[-1][k], _witness(preds, k, c)
    if composition_value(parts) != value:
        raise ArithmeticError(f"witness {list(parts)} does not score f_upper({k}, {c}) = {value}")
    return value, parts


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
    # c -> (denominator, numerators of the polynomial's coefficients per
    # residue k % c, constant first)
    3: (27, ((0, 27, 9, 4), (-10, 24, 9, 4), (-8, 24, 9, 4))),
    4: (256, ((0, 256, 96, 52, 27), (-117, 212, 82, 52, 27), (-176, 112, 32, 52, 27),
              (-77, 228, 74, 52, 27))),
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
    denominator, numerators = _TABLE1[c]
    numerator = sum(a * k**power for power, a in enumerate(numerators[k % c]))
    value, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(f"table formula mismatch at k={k}, c={c}: {numerator}/{denominator}")
    return value


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
    return Fraction((c - 1) ** (c - 1), c**c)


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


def bound_report(p: int, k: int, c: int) -> dict:
    """Every applicable bound exponent for degree p^k, class <= c, with its
    provenance, as the object ``bound --json`` prints."""
    return {
        "p": p,
        "k": k,
        "c": c,
        "f_upper": f_upper(k, c),
        "elementary": elementary_bound(k, c),
        "class2_exact": class2_exponent(k) if c >= 2 else None,
        "binomial_lower": binomial_lower(k, c) if k % c == 0 else None,
        "witness_composition": list(best_composition(k, c)),
        "provenance": {
            "f_upper": "composition maximum",
            "elementary": "point-stabilizer intersection bound",
            "class2_exact": "exact value for class <= 2",
            "binomial_lower": "wreath/polynomial witness",
        },
    }
