"""Bound arithmetic: frozen values, closed-form agreement, and invariants."""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilbound import bounds
from nilbound.bounds import (
    asymptotic_coefficient,
    best_composition,
    binomial_lower,
    bound_report,
    class2_exponent,
    combine_multiplicative,
    composition_maxima,
    composition_value,
    elementary_bound,
    f_closed,
    f_upper,
    f_upper_dp,
    monomial_count,
    prime_power,
)

from conftest import brute_force_maximum, compositions, suffix_dp_maximum


class TestCompositionValue:
    def test_single_part(self):
        # one part: the score is just k
        for k in (1, 4, 9):
            assert composition_value((k,)) == k

    def test_two_twos(self):
        # 2*1 + 2*(1+2) = 8
        assert composition_value((2, 2)) == 8

    def test_zero_parts_resolve_geometric_sum(self):
        # (0,0,1,1): empty prefixes contribute factor 1, the final prefix sum
        # is 1 so the factor is 4; total 0 + 0 + 1 + 4 = 5
        assert composition_value((0, 0, 1, 1)) == 5

    def test_rejects_negative_parts(self):
        with pytest.raises(ValueError):
            composition_value((1, -1))


class TestFUpper:
    def test_frozen_values(self):
        assert f_upper(3, 3) == 10
        assert f_upper(6, 4) == 188
        assert f_upper(2, 4) == 5

    def test_single_class_is_k(self):
        for k in range(1, 20):
            assert f_upper(k, 1) == k

    def test_witness_achieves_maximum(self):
        for k, c in [(3, 3), (6, 4), (7, 3), (10, 2)]:
            witness = best_composition(k, c)
            assert len(witness) == c and sum(witness) == k
            assert composition_value(witness) == f_upper(k, c)

    def test_witness_is_lexicographically_least(self):
        # every lex-smaller composition scores strictly less
        for k in range(1, 11):
            for c in range(1, 6):
                witness = best_composition(k, c)
                best = f_upper(k, c)
                for parts in compositions(k, c):
                    if parts == witness:
                        break
                    assert composition_value(parts) < best, (k, c, parts)
                else:
                    raise AssertionError(f"witness {witness} is no composition of {k}")

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            f_upper(0, 3)
        with pytest.raises(ValueError):
            f_upper(3, 0)

    def test_dp_agrees_with_enumeration(self):
        for k in range(1, 21):
            for c in range(1, 7):
                value, witness = brute_force_maximum(k, c)
                assert f_upper_dp(k, c) == f_upper(k, c) == value, (k, c)
                assert best_composition(k, c) == witness, (k, c)


# one pass to (KMAX, CMAX), checked cell by cell against the suffix DP
KMAX, CMAX = 60, 12


@pytest.fixture(scope="module")
def pass_to_max():
    return composition_maxima(KMAX, CMAX)


class TestForwardPass:
    def test_one_pass_matches_the_suffix_dp_at_every_cell(self, pass_to_max):
        rows, preds = pass_to_max
        for k in range(1, KMAX + 1):
            for c in range(1, CMAX + 1):
                assert (rows[c - 1][k], bounds._witness(preds, k, c)) == suffix_dp_maximum(k, c), (k, c)

    @pytest.mark.parametrize("kmax,cmax", [(1, 1), (1, 12), (60, 1), (2, 3), (17, 5), (41, 12), (59, 11)])
    def test_smaller_passes_read_the_same_cells(self, pass_to_max, kmax, cmax):
        # neither kmax nor cmax enters the recurrence or the tie-break
        rows, preds = composition_maxima(kmax, cmax)
        big_rows, big_preds = pass_to_max
        assert rows == [row[: kmax + 1] for row in big_rows[:cmax]]
        for k in range(1, kmax + 1):
            for c in range(1, cmax + 1):
                assert bounds._witness(preds, k, c) == bounds._witness(big_preds, k, c), (k, c)

    @pytest.mark.parametrize("k,c", [(1000, 4), (500, 16), (100, 400)])
    def test_large_admitted_cells(self, k, c):
        assert bounds._maximize.__wrapped__(k, c) == suffix_dp_maximum(k, c)

    def test_a_witness_that_misses_its_score_is_an_invariant_error(self, monkeypatch):
        monkeypatch.setattr(bounds, "composition_value", lambda parts: -1)
        with pytest.raises(ArithmeticError, match=r"witness \[5, 5\] does not score f_upper\(10, 2\) = 35"):
            bounds._maximize.__wrapped__(10, 2)


# the closed forms of Table 1 as exact rationals: c -> residue k % c ->
# coefficients, constant first
TABLE1_FRACTIONS = {
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


class TestClosedForms:
    def test_integer_numerators_are_the_rational_coefficients(self):
        for c, residues in TABLE1_FRACTIONS.items():
            denominator, numerators = bounds._TABLE1[c]
            assert len(numerators) == len(residues) == c
            for r, coeffs in residues.items():
                assert tuple(Fraction(a, denominator) for a in numerators[r]) == coeffs, (c, r)

    def test_agrees_with_the_rational_polynomials(self):
        for c, residues in TABLE1_FRACTIONS.items():
            for k in range(1, 2000):
                if (c, k) in bounds._TABLE1_EXCEPTIONS:
                    continue
                value = sum(coef * k**power for power, coef in enumerate(residues[k % c]))
                assert value.denominator == 1 and f_closed(k, c) == value, (k, c)

    def test_a_fractional_value_is_an_arithmetic_error(self, monkeypatch):
        monkeypatch.setitem(bounds._TABLE1, 3, (27, ((1, 27, 9, 4),) * 3))
        with pytest.raises(ArithmeticError, match="table formula mismatch at k=3, c=3: 271/27"):
            f_closed(3, 3)


    def test_frozen_values(self):
        assert f_closed(4, 2) == 8
        assert f_closed(2, 4) == 5
        assert f_closed(6, 4) == 188
        # exact rational evaluation of the residue-1 cubic row:
        # (4/27)*343 + (1/3)*49 + (8/9)*7 - 10/27 = 1971/27 = 73
        assert f_closed(7, 3) == 73
        assert f_upper(7, 3) == 73

    def test_agrees_with_maximum_everywhere(self):
        for c in (1, 2, 3, 4):
            for k in range(1, 41):
                assert f_closed(k, c) == f_upper(k, c), (k, c)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            f_closed(3, 5)
        with pytest.raises(ValueError):
            f_closed(0, 2)


class TestElementaryBound:
    def test_values(self):
        assert elementary_bound(2, 2) == 6
        assert elementary_bound(3, 3) == 39

    def test_k_equal_one_gives_c(self):
        # geometric-sum reading of the 0/0 closed form
        for c in range(1, 8):
            assert elementary_bound(1, c) == c

    def test_dominates_composition_maximum(self):
        for k in range(1, 31):
            for c in range(1, 7):
                assert f_upper(k, c) <= elementary_bound(k, c), (k, c)


class TestClass2Exponent:
    def test_values(self):
        assert class2_exponent(1) == 1
        assert class2_exponent(4) == 8
        assert class2_exponent(5) == 11

    def test_matches_composition_maximum_at_c2(self):
        for k in range(1, 61):
            assert f_upper(k, 2) == class2_exponent(k), k


class TestBinomialLower:
    def test_values(self):
        assert binomial_lower(4, 2) == 4
        assert binomial_lower(6, 3) == 12

    def test_c_equal_one(self):
        for k in (1, 5, 12):
            assert binomial_lower(k, 1) == k

    def test_divisibility_required(self):
        with pytest.raises(ValueError, match="divisibility required"):
            binomial_lower(5, 2)

    def test_below_upper_bound(self):
        for c in range(1, 6):
            for k in range(c, 40, c):
                assert binomial_lower(k, c) <= f_upper(k, c), (k, c)


class TestAsymptotics:
    def test_coefficients(self):
        assert asymptotic_coefficient(1) == Fraction(1)
        assert asymptotic_coefficient(2) == Fraction(1, 4)
        assert asymptotic_coefficient(3) == Fraction(4, 27)

    def test_ratio_at_large_k(self):
        k = 300
        assert abs(f_upper(k, 3) * 27 / (4 * k**3) - 1) <= 0.05
        assert abs(f_upper(k, 2) * 4 / k**2 - 1) <= 0.05


class TestMonomialCount:
    def test_values(self):
        assert monomial_count(2, 1, 2) == 2
        assert monomial_count(2, 2, 2) == 1
        assert monomial_count(3, 2, 3) == 6

    def test_against_direct_enumeration(self):
        # oracle: enumerate exponent tuples directly
        for v, p, i in itertools.product((1, 2, 3), (2, 3, 5), range(0, 5)):
            direct = sum(
                1
                for exps in itertools.product(range(p), repeat=v)
                if sum(exps) == i
            )
            assert monomial_count(v, i, p) == direct, (v, i, p)


@pytest.mark.parametrize(
    "function, args, message",
    [
        (elementary_bound, (0, 2), "k and c must be positive"),
        (elementary_bound, (2, 0), "k and c must be positive"),
        (class2_exponent, (0,), "k must be positive"),
        (binomial_lower, (0, 1), "k and c must be positive"),
        (binomial_lower, (2, -1), "k and c must be positive"),
        (asymptotic_coefficient, (0,), "c must be positive"),
        (monomial_count, (-1, 0, 2), "v and i must be non-negative"),
        (monomial_count, (2, -1, 2), "v and i must be non-negative"),
    ],
    ids=["elementary-k", "elementary-c", "class2", "binomial-k", "binomial-c", "asymptotic",
         "monomial-v", "monomial-i"],
)
def test_out_of_range_arguments_are_refused(function, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        function(*args)


class TestCombineMultiplicative:
    def test_single_factor(self):
        assert combine_multiplicative({8: 5}) == 2**5

    def test_mixed_primes(self):
        assert combine_multiplicative({4: 3, 3: 1}) == 24
        assert combine_multiplicative({2: 1, 3: 1, 5: 1}) == 30

    def test_order_independent(self):
        factors = {9: 4, 4: 3, 5: 1}
        reordered = dict(reversed(list(factors.items())))
        assert combine_multiplicative(factors) == combine_multiplicative(reordered)

    def test_repeated_base_rejected(self):
        with pytest.raises(ValueError, match="repeated prime base"):
            combine_multiplicative({2: 1, 4: 1})

    def test_non_prime_power_rejected(self):
        with pytest.raises(ValueError):
            combine_multiplicative({6: 1})


def test_prime_power_against_factorint():
    sympy = pytest.importorskip("sympy")
    for n in range(0, 3000):
        factors = sympy.factorint(n)
        if n >= 2 and len(factors) == 1:
            assert prime_power(n) == next(iter(factors.items())), n
        else:
            with pytest.raises(ValueError, match="is not a prime power"):
                prime_power(n)


class TestBoundReport:
    def test_fields(self):
        report = bound_report(2, 6, 4)
        assert report["f_upper"] == 188
        assert report["elementary"] == elementary_bound(6, 4)
        assert report["class2_exact"] == class2_exponent(6)
        assert report["binomial_lower"] is None  # 4 does not divide 6
        assert composition_value(report["witness_composition"]) == 188

    def test_binomial_present_when_divisible(self):
        report = bound_report(5, 4, 2)
        assert report["binomial_lower"] == 4
        assert report["f_upper"] == 8

    def test_class2_absent_at_c1(self):
        assert bound_report(2, 3, 1)["class2_exact"] is None

    def test_json_round_trip_stable(self):
        data = bound_report(3, 6, 3)
        assert json.dumps(data, sort_keys=True) == json.dumps(
            bound_report(3, 6, 3), sort_keys=True
        )
        assert data["witness_composition"] == list(best_composition(6, 3))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=18), st.integers(min_value=1, max_value=5))
def test_monotone_in_both_arguments(k, c):
    assert f_upper(k, c) <= f_upper(k, c + 1)
    assert f_upper(k, c) <= f_upper(k + 1, c)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=5))
def test_every_composition_bounded_by_maximum(k, c):
    best = f_upper(k, c)
    for parts in compositions(k, c):
        assert composition_value(parts) <= best
