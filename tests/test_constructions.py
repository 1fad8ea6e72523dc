"""Construction families: degrees, orders, classes, centers, blueprints."""

import hashlib
import itertools
import re
from pathlib import Path

import pytest

from nilbound.bounds import binomial_lower, class2_exponent, f_upper, monomial_count
from nilbound.constructions import (
    _KINDS,
    DEGREE_GUARD,
    GroupBlueprint,
    abelian_class2_group,
    affine_unitriangular,
    blueprint_from_json,
    dihedral_times_abelian,
    iterated_wreath_sylow,
    make_blueprint,
    product_action,
    realize,
    sylow_exponent,
    wreath_polynomial_exponent,
    wreath_polynomial_group,
)
from nilbound.perm import (
    GuardExceeded,
    PermGroup,
    Permutation,
    center,
    lower_central_series,
)

from conftest import class_of, cyclic, naive_closure


def assert_center_is_second_term(G, expected_order):
    Z = center(G)
    g2 = lower_central_series(G).terms[1]
    assert Z.order() == expected_order
    assert g2.order() == expected_order
    assert all(g in Z for g in g2.generators) and all(z in g2 for z in Z.generators)


class TestAffineUnitriangular:
    @pytest.mark.parametrize(
        "p,k,m",
        [(2, 2, 1), (2, 3, 1), (2, 4, 2), (3, 2, 1), (3, 3, 1), (5, 2, 1)],
    )
    def test_family(self, p, k, m):
        G = affine_unitriangular(p, k, m)
        assert G.degree == p**k
        assert G.order() == p ** (k + m * (k - m))
        assert G.is_transitive()
        assert class_of(G) == 2
        assert_center_is_second_term(G, p**m)

    def test_extremal_order(self):
        # with m = floor(k/2) the order exponent meets the exact class-2 value
        for p, k in [(2, 2), (2, 3), (3, 2), (2, 4)]:
            G = affine_unitriangular(p, k, k // 2)
            assert G.order() == p ** class2_exponent(k)

    def test_degenerate_m(self):
        # m = 0 or m = k leaves only the translations: abelian regular
        for m in (0, 2):
            G = affine_unitriangular(3, 2, m)
            assert G.order() == 9 and G.is_regular()
            assert class_of(G) == 1

    def test_k_equal_one(self):
        G = affine_unitriangular(5, 1, 0)
        assert G.order() == 5 and G.is_regular()

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            affine_unitriangular(2, 3, 4)


class TestAbelianClass2:
    @pytest.mark.parametrize(
        "p,k,m,a",
        [
            (2, 2, 1, 0),
            (2, 2, 1, 1),
            (2, 3, 1, 0),
            (2, 3, 1, 1),
            (2, 3, 2, 1),
            (3, 2, 1, 0),
            (3, 2, 1, 1),
            (3, 3, 1, 1),
            (3, 3, 2, 1),
        ],
    )
    def test_family(self, p, k, m, a):
        G = abelian_class2_group(p, k, m, a)
        assert G.degree == p**k
        assert G.order() == p ** class2_exponent(k)
        assert G.is_transitive()
        assert class_of(G) == 2
        assert_center_is_second_term(G, p**m)

    def test_mixed_exponent_base_group(self):
        # a = 1 at (3, 3) means the base group is C9 x C3
        G = abelian_class2_group(3, 3, 1, 1)
        assert G.degree == 27 and G.order() == 3**5

    def test_k_equal_one_degenerates_to_cyclic(self):
        for m in (0, 1):
            G = abelian_class2_group(5, 1, m, 0)
            assert G.order() == 5 and G.is_regular()
            assert class_of(G) == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            abelian_class2_group(2, 3, 1, 2)  # a > min(m, k-m)
        with pytest.raises(ValueError):
            abelian_class2_group(2, 3, 4, 0)  # m > k


class TestProductAction:
    def test_cyclic_product_is_regular(self):
        G = product_action(cyclic(2), cyclic(3))
        assert G.degree == 6
        assert G.order() == 6
        assert G.is_regular()

    def test_mixed_prime_product(self):
        D4 = affine_unitriangular(2, 2, 1)
        G = product_action(D4, cyclic(3))
        assert G.degree == 12
        assert G.order() == 24
        assert G.is_transitive()
        assert class_of(G) == 2

    def test_trivial_factor_is_identity_operation(self):
        D4 = affine_unitriangular(2, 2, 1)
        P = product_action(D4, PermGroup(1))
        assert P.degree == D4.degree
        assert P.generators == D4.generators

    @pytest.mark.parametrize(
        "left,right",
        [
            ("C4", "C3"),
            ("D4", "C3"),
            ("D4", "W(3,2)"),
            ("affine(3,2,1)", "C2"),
        ],
    )
    def test_order_class_transitivity(self, left, right, corpus):
        groups = dict(corpus)
        G, H = groups[left], groups[right]
        P = product_action(G, H)
        assert P.order() == G.order() * H.order()
        assert P.is_transitive() == (G.is_transitive() and H.is_transitive())
        assert class_of(P) == max(class_of(G), class_of(H))


class TestWreathTower:
    def test_degree_two(self):
        G = iterated_wreath_sylow(2, 1)
        assert G.order() == 2 and G.is_regular()

    def test_degree_eight(self):
        G = iterated_wreath_sylow(2, 3)
        assert G.degree == 8
        assert G.order() == 2**7
        assert G.is_transitive()
        assert len(naive_closure(8, G.generators)) == 2**7

    def test_degree_nine(self):
        G = iterated_wreath_sylow(3, 2)
        assert G.degree == 9
        assert G.order() == 3**4
        assert class_of(G) == 3

    def test_exponent_formula(self):
        assert sylow_exponent(2, 3) == 7
        assert sylow_exponent(3, 2) == 4
        assert sylow_exponent(2, 5) == 31

    def test_tower_class_is_p_power(self):
        # the k-fold tower over p = 2 has class 2^(k-1)
        for k, expected in [(1, 1), (2, 2), (3, 4), (4, 8)]:
            G = iterated_wreath_sylow(2, k)
            assert lower_central_series(G).nilpotency_class == expected

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            iterated_wreath_sylow(2, 6)


class TestWreathPolynomial:
    def test_smallest_case_is_full_wreath(self):
        # u = v = 1, c = 2 over F_2: the full C2 wr C2 of order 8
        G = wreath_polynomial_group(2, 1, 1, 2)
        assert G.degree == 4
        assert G.order() == 8
        assert class_of(G) == 2

    def test_degree_sixteen_extremal(self):
        G = wreath_polynomial_group(2, 2, 2, 2)
        assert G.degree == 16
        assert G.order() == 2**8
        assert G.is_transitive()
        assert class_of(G) == 2
        # meets the exact class-2 value at k = 4, so it is extremal
        assert G.order() == 2 ** class2_exponent(4)

    def test_full_three_wreath(self):
        G = wreath_polynomial_group(3, 1, 1, 3)
        assert G.degree == 9
        assert G.order() == 3**4
        assert class_of(G) == 3

    def test_class_at_most_c(self):
        for p, u, v, c in [(2, 1, 2, 2), (2, 1, 2, 3), (2, 1, 3, 2), (2, 2, 2, 3), (3, 1, 1, 2)]:
            G = wreath_polynomial_group(p, u, v, c)
            assert G.is_transitive()
            assert G.order() == p ** wreath_polynomial_exponent(p, u, v, c)
            assert class_of(G) <= c, (p, u, v, c)

    def test_meets_binomial_lower_bound(self):
        # with u = k/c and v = k(c-1)/c the log-order dominates the binomial bound
        for p, c, k in [(2, 2, 4), (2, 2, 6), (2, 3, 3), (3, 2, 2)]:
            u, v = k // c, k * (c - 1) // c
            exponent = wreath_polynomial_exponent(p, u, v, c)
            assert exponent >= binomial_lower(k, c), (p, c, k)

    def test_guard_refuses_large_degree(self):
        with pytest.raises(GuardExceeded):
            wreath_polynomial_group(2, 3, 4, 2)

    def test_exponent_matches_monomial_sum(self):
        # oracle: the summed monomial counts for every degree below c
        for p, u, v, c in itertools.product((2, 3, 5), (0, 1, 2), range(5), range(1, 14)):
            summed = v + u * sum(monomial_count(v, i, p) for i in range(c))
            assert wreath_polynomial_exponent(p, u, v, c) == summed, (p, u, v, c)


class TestDihedralTimesAbelian:
    @pytest.mark.parametrize("k,c", [(3, 2), (4, 2), (4, 3), (5, 4), (5, 2)])
    def test_family(self, k, c):
        G = dihedral_times_abelian(k, c)
        assert G.degree == 2**k
        assert G.order() == 2**k
        assert G.is_regular()
        assert class_of(G) == c

    def test_class_one_degenerates_to_abelian(self):
        G = dihedral_times_abelian(3, 1)
        assert G.order() == 8 and G.is_regular()
        assert class_of(G) == 1

    def test_c_too_large(self):
        with pytest.raises(ValueError):
            dihedral_times_abelian(3, 3)


class TestBlueprints:
    CASES = [
        ("affine-unitriangular", {"p": 2, "k": 3, "m": 1}),
        ("abelian-class2", {"p": 3, "k": 3, "m": 1, "a": 1}),
        ("sylow-wreath", {"p": 2, "k": 3}),
        ("wreath-polynomial", {"p": 2, "u": 2, "v": 2, "c": 2}),
        ("dihedral-abelian", {"k": 4, "c": 3}),
        ("wreath-polynomial", {"p": 3, "u": 0, "v": 2, "c": 9}),
        ("affine-unitriangular", {"p": 3, "k": 0, "m": 0}),
        (
            "product",
            {"factors": [
                {"kind": "affine-unitriangular", "params": {"p": 2, "k": 2, "m": 1}},
                {"kind": "dihedral-abelian", "params": {"k": 3, "c": 2}},
            ]},
        ),
    ]

    def test_cases_cover_every_kind(self):
        assert {kind for kind, _ in self.CASES} == {*_KINDS, "product"}

    @pytest.mark.parametrize("kind,params", CASES)
    def test_prediction_matches_realization(self, kind, params):
        bp = make_blueprint(kind, params)
        assert blueprint_from_json(bp.to_json()) == bp
        G = realize(bp)
        assert G.degree == bp.degree
        assert G.order() == bp.order
        assert G.is_transitive()
        assert class_of(G) <= bp.class_bound
        if bp.log_p_order is not None:
            assert G.order() == bp.p_power[0] ** bp.log_p_order
            assert G.degree % bp.p_power[0] == 0

    @pytest.mark.parametrize(
        "kind,params,degree,limit",
        [
            ("product", {"factors": [{"kind": "sylow-wreath", "params": {"p": 2, "k": 5}}] * 2}, 1024, 256),
            ("affine-unitriangular", {"p": 2, "k": 10, "m": 5}, 1024, 256),
            ("abelian-class2", {"p": 2, "k": 10, "m": 5, "a": 2}, 1024, 256),
            ("dihedral-abelian", {"k": 9, "c": 3}, 512, 256),
            ("sylow-wreath", {"p": 2, "k": 6}, 64, 32),
            ("wreath-polynomial", {"p": 2, "u": 3, "v": 4, "c": 2}, 128, 64),
        ],
    )
    def test_realization_guard_comes_before_building(self, kind, params, degree, limit):
        with pytest.raises(GuardExceeded) as info:
            realize(make_blueprint(kind, params))
        assert str(info.value) == f"degree {degree} exceeds realization guard {limit}"

    def test_nested_product_is_refused_on_its_own_degree(self):
        cyclic = {"kind": "sylow-wreath", "params": {"p": 2, "k": 1}}
        bp = cyclic
        for _ in range(12):
            bp = {"kind": "product", "params": {"factors": [bp, cyclic]}}
        with pytest.raises(GuardExceeded, match="^degree 8192 exceeds realization guard 256$"):
            realize(blueprint_from_json(bp))

    @pytest.mark.parametrize(
        "kind,params,message",
        [
            ("sylow-wreath", {"p": 2, "k": 14}, "predicted order 2^16383 is over the limit 2^3321"),
            ("sylow-wreath", {"p": 2, "k": 10**6}, "predicted degree 2^1000000 is over the limit 2^3321"),
            ("affine-unitriangular", {"p": 2, "k": 100000, "m": 3}, "predicted degree 2^100000"),
            ("wreath-polynomial", {"p": 3, "u": 1, "v": 2000, "c": 3},
             "predicted order 3^2005001 is over the limit 3^2095"),
            ("sylow-wreath", {"p": 2, "k": 3000},
             "predicted order 2^(904-digit exponent) is over the limit 2^3321 (1000 digits)"),
        ],
    )
    def test_prediction_past_digit_limit_is_refused(self, kind, params, message):
        with pytest.raises(GuardExceeded, match=re.escape(message)):
            make_blueprint(kind, params)

    def test_large_class_bound_predicts_quickly(self):
        # every reduced monomial has degree <= v(p-1) = 2, so c past 3 adds none
        bp = make_blueprint("wreath-polynomial", {"p": 2, "u": 1, "v": 2, "c": 10**6})
        assert bp.log_p_order == 2 + 4 and bp.class_bound == 10**6

    def test_product_blueprint(self):
        bp = make_blueprint(
            "product",
            {
                "factors": [
                    {"kind": "affine-unitriangular", "params": {"p": 2, "k": 2, "m": 1}},
                    {"kind": "sylow-wreath", "params": {"p": 3, "k": 1}},
                ]
            },
        )
        assert bp.degree == 12
        assert bp.order == 24
        assert bp.log_p_order is None  # 12 is not a prime power
        G = realize(bp)
        assert G.degree == 12 and G.order() == 24

    def test_blueprint_json_round_trip(self):
        bp = make_blueprint("wreath-polynomial", {"p": 2, "u": 1, "v": 2, "c": 2})
        again = blueprint_from_json(bp.to_json())
        assert again == bp

    def test_log_p_order(self):
        bp = make_blueprint("sylow-wreath", {"p": 2, "k": 3})
        assert bp.log_p_order == 7
        assert bp.prediction_json()["class_bound"] == 4
        assert make_blueprint("sylow-wreath", {"p": 2, "k": 11}).log_p_order == 2047

    def test_readme_lists_every_kind(self):
        # README rows: | `kind` | `p, k, m` | ranges | limit |
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = {m[0]: m[1:] for m in re.findall(r"^\| `([a-z0-9-]+)` \| `([^`]*)` \| .* \| (\d+) \|$",
                                                readme, re.M)}
        assert set(rows) == {*_KINDS, "product"}
        for kind, entry in _KINDS.items():
            assert rows[kind] == (", ".join(entry.params), str(entry.degree_limit))
        assert rows["product"] == ("factors", str(DEGREE_GUARD))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match=re.escape(", ".join([*_KINDS, "product"]))):
            make_blueprint("mystery", {})


def _module_groups():
    """Every realized construction used for the bound audit, with (p, k)."""
    return [
        (2, 2, affine_unitriangular(2, 2, 1)),
        (2, 3, affine_unitriangular(2, 3, 1)),
        (2, 4, affine_unitriangular(2, 4, 2)),
        (3, 2, affine_unitriangular(3, 2, 1)),
        (5, 2, affine_unitriangular(5, 2, 1)),
        (2, 2, abelian_class2_group(2, 2, 1, 1)),
        (2, 3, abelian_class2_group(2, 3, 1, 1)),
        (3, 3, abelian_class2_group(3, 3, 1, 1)),
        (2, 1, iterated_wreath_sylow(2, 1)),
        (2, 2, iterated_wreath_sylow(2, 2)),
        (2, 3, iterated_wreath_sylow(2, 3)),
        (2, 4, iterated_wreath_sylow(2, 4)),
        (3, 2, iterated_wreath_sylow(3, 2)),
        (2, 2, wreath_polynomial_group(2, 1, 1, 2)),
        (2, 4, wreath_polynomial_group(2, 2, 2, 2)),
        (2, 4, wreath_polynomial_group(2, 1, 3, 2)),
        (2, 4, wreath_polynomial_group(2, 1, 3, 3)),
        (2, 5, wreath_polynomial_group(2, 1, 4, 2)),
        (3, 2, wreath_polynomial_group(3, 1, 1, 3)),
        (2, 3, dihedral_times_abelian(3, 2)),
        (2, 4, dihedral_times_abelian(4, 2)),
        (2, 4, dihedral_times_abelian(4, 3)),
        (2, 5, dihedral_times_abelian(5, 4)),
        (2, 5, dihedral_times_abelian(5, 2)),
    ]


def test_every_construction_respects_upper_bound():
    # log_p(order) <= composition maximum at the group's own class
    for p, k, G in _module_groups():
        assert G.degree == p**k
        assert G.is_transitive()
        cls = class_of(G)
        exponent = 0
        order = G.order()
        while order > 1:
            assert order % p == 0
            order //= p
            exponent += 1
        assert exponent <= f_upper(k, cls), (p, k, cls, exponent)


def test_degree_16_and_32_constructions_dominated_by_reference():
    from nilbound.search import TABLE2_REFERENCE

    for p, k, G in _module_groups():
        if p != 2 or k not in (4, 5):
            continue
        cls = class_of(G)
        exponent = 0
        order = G.order()
        while order > 1:
            order //= 2
            exponent += 1
        reference = TABLE2_REFERENCE[k][min(cls, 16) - 1]
        assert exponent <= reference, (k, cls, exponent, reference)


def test_wreath_tower_realizes_reference_plateau():
    # the degree-16 tower has class 8 and log-order 15, exactly the
    # reference row entry where the plateau starts
    from nilbound.search import TABLE2_REFERENCE

    W = iterated_wreath_sylow(2, 4)
    series = lower_central_series(W)
    assert series.nilpotency_class == 8
    assert W.order() == 2**15
    assert TABLE2_REFERENCE[4][7] == 15


def _pinned_groups():
    """Every builder over small params, edge cases and products, labelled."""
    for p, k in [(2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 0), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]:
        for m in range(k + 1):
            yield f"affine{p, k, m}", affine_unitriangular(p, k, m)
            for a in range(min(m, k - m) + 1):
                yield f"class2{p, k, m, a}", abelian_class2_group(p, k, m, a)
    for p, k in [(2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]:
        yield f"sylow{p, k}", iterated_wreath_sylow(p, k)
    for p, u, v in [(2, 0, 0), (2, 0, 2), (2, 2, 0), (2, 1, 1), (2, 1, 2), (2, 2, 2), (2, 1, 4),
                    (2, 3, 3), (3, 1, 1), (3, 1, 2), (3, 0, 2), (5, 1, 1), (5, 0, 2)]:
        for c in range(1, 5):
            yield f"wreath{p, u, v, c}", wreath_polynomial_group(p, u, v, c)
    for k in range(2, 6):
        for c in range(1, k):
            yield f"dihedral{k, c}", dihedral_times_abelian(k, c)
    factors = [PermGroup(1), iterated_wreath_sylow(3, 1), iterated_wreath_sylow(5, 1),
               affine_unitriangular(2, 2, 1), abelian_class2_group(3, 2, 1, 1),
               wreath_polynomial_group(2, 1, 2, 2), dihedral_times_abelian(3, 2)]
    for (i, G), (j, H) in itertools.product(enumerate(factors), repeat=2):
        yield f"product{i, j}", product_action(G, H)


def test_generator_json_is_pinned():
    # the point encodings fix every generator list; a rewrite of a builder
    # must give these exact bytes
    digest = hashlib.sha256()
    count = 0
    for label, G in _pinned_groups():
        digest.update(f"{label} {G.dumps()}\n".encode())
        count += 1
    assert count == 193
    assert digest.hexdigest() == "5801704d85ef949b3e02a76310797cc456f20541074cd6d3e85b1a2ccc7ce5a0"
