"""Permutation and group engine tests against closure-based oracles."""

import collections
import hashlib
import json
import time

import pytest

from nilbound import perm
from nilbound.cli import main
from nilbound.constructions import (
    affine_unitriangular,
    dihedral_times_abelian,
    iterated_wreath_sylow,
    blueprint_from_json,
    make_blueprint,
    product_action,
    realize,
    wreath_polynomial_group,
)
from nilbound.perm import (
    GuardExceeded,
    PermGroup,
    Permutation,
    center,
    commutator,
    lower_central_series,
    _central_from_point_images,
)
from nilbound.search import enumerate_subgroups

from conftest import (
    MIXED_PRODUCT,
    NAIVE_CLOSURE_LIMIT,
    WITNESS_BLUEPRINTS,
    abelian_groups,
    assert_chain_verified,
    build_chain,
    build_corpus,
    class_of,
    compose,
    cyclic,
    klein_four,
    naive_closure,
    stabilizer_levels,
    stabilizer_order,
    sym3,
)


class TestPermutation:
    def test_identity_compose(self):
        e = Permutation.identity(4)
        assert e * e == e

    def test_involution_squares_to_identity(self):
        t = Permutation.from_cycles(2, (0, 1))
        assert (t * t).is_identity()

    def test_three_cycle_square(self):
        # hand evaluation: images of (0 1 2) are (1, 2, 0); composing with
        # itself sends 0->2, 1->0, 2->1
        a = Permutation.from_cycles(3, (0, 1, 2))
        assert (a * a).images == (2, 0, 1)
        assert a * a == Permutation.from_cycles(3, (0, 2, 1))

    def test_right_action_order(self):
        # a then b, not b then a
        a = Permutation.from_cycles(3, (0, 1))
        b = Permutation.from_cycles(3, (1, 2))
        assert (a * b).images == (2, 0, 1)

    def test_compose_inverse(self):
        p = Permutation((2, 0, 3, 1))
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()

    def test_degree_mismatch(self):
        for m, n in ((3, 4), (1, 2), (0, 1)):
            with pytest.raises(ValueError, match="degree mismatch"):
                Permutation.identity(m) * Permutation.identity(n)

    def test_negative_degree_is_rejected(self):
        # degree 0 is the empty set's one permutation; below that is no set
        assert Permutation.identity(0).degree == 0
        assert PermGroup(0).order() == 1
        for n in (-1, -3):
            with pytest.raises(ValueError, match=f"degree must be non-negative, got {n}"):
                Permutation.identity(n)
            with pytest.raises(ValueError, match=f"degree must be non-negative, got {n}"):
                PermGroup(n)

    @pytest.mark.parametrize("other", [3, None, (1, 0)])
    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_mul_by_non_permutation_is_a_type_error(self, degree, other):
        with pytest.raises(TypeError):
            Permutation.identity(degree) * other

    @pytest.mark.parametrize("point", [-1, 3, 10])
    def test_call_checks_its_point(self, point):
        p = Permutation([1, 0, 2])
        assert [p(x) for x in range(3)] == [1, 0, 2]
        with pytest.raises(ValueError, match=f"point {point} out of range for degree 3"):
            p(point)

    @pytest.mark.parametrize("point", [1.0, "1", True, None])
    def test_call_refuses_a_non_integer_point(self, point):
        # True == 1, so without the type check p(True) would read the image of 1
        p = Permutation([1, 0, 2])
        with pytest.raises(ValueError, match=f"^point {point!r} is not an integer$"):
            p(point)

    @pytest.mark.parametrize("point", [-1, 3, 10])
    def test_from_cycles_checks_its_points(self, point):
        assert Permutation.from_cycles(3, (2, 1)).images == (0, 2, 1)
        with pytest.raises(ValueError, match=f"point {point} out of range for degree 3"):
            Permutation.from_cycles(3, (point, 1))

    @pytest.mark.parametrize("cycles", [((0, 1), (1, 2)), ((1, 2, 1),)], ids=["two-cycles", "one-cycle"])
    def test_from_cycles_refuses_a_repeated_point(self, cycles):
        with pytest.raises(ValueError, match="^point 1 is repeated in the cycles$"):
            Permutation.from_cycles(3, *cycles)

    @pytest.mark.parametrize("point", [1.0, "1", True])
    def test_from_cycles_refuses_a_non_integer_point(self, point):
        with pytest.raises(ValueError, match=f"^point {point!r} is not an integer$"):
            Permutation.from_cycles(3, (0, point))

    @pytest.mark.parametrize("other", [3, None, (1, 0)])
    def test_order_against_non_permutation_is_a_type_error(self, other):
        assert Permutation([0, 1]) < Permutation([1, 0])
        with pytest.raises(TypeError):
            Permutation([1, 0]) < other

    def test_order_across_the_byte_boundary(self):
        # a permutation is bytes up to degree 256 and a _Wide tuple past it,
        # which do not compare; the order stays that of the image tuples,
        # a proper prefix first
        short, wide = Permutation(range(3)), Permutation(range(300))
        swap = Permutation((1, 0, 2))
        edge, past = Permutation.identity(256), Permutation.from_cycles(257, (0, 256))
        assert short < wide and not wide < short
        assert wide < swap and not swap < wide
        assert edge < past and not past < edge
        assert sorted([past, swap, wide, short, edge]) == [short, edge, wide, swap, past]

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))
        with pytest.raises(ValueError):
            Permutation((0, 1, 3))
        with pytest.raises(ValueError):
            Permutation((True, False))

    def test_pow(self):
        c = Permutation.from_cycles(5, (0, 1, 2, 3, 4))
        assert c**5 == Permutation.identity(5)
        assert c**-1 == c.inverse()
        assert c**7 == c * c

    def test_commutator_convention(self):
        # [x, y] = x^-1 y^-1 x y
        x = Permutation.from_cycles(4, (0, 1, 2, 3))
        y = Permutation.from_cycles(4, (0, 2))
        assert commutator(x, y) == x.inverse() * y.inverse() * x * y


class TestGroupBasics:
    def test_empty_generating_set(self):
        G = PermGroup(4)
        assert G.order() == 1
        assert G.generators == ()
        assert Permutation.identity(4) in G

    def test_cyclic_order(self):
        assert cyclic(4).order() == 4

    def test_dihedral_from_generators(self):
        gens = [Permutation.from_cycles(4, (0, 1, 2, 3)), Permutation.from_cycles(4, (0, 2))]
        G = PermGroup(4, gens)
        assert G.order() == len(naive_closure(4, gens)) == 8

    def test_generator_degree_mismatch(self):
        with pytest.raises(ValueError):
            PermGroup(4, [Permutation.identity(3)])

    def test_repr_names_degree_and_generator_count(self):
        gens = [Permutation.from_cycles(4, (0, 1, 2, 3)), Permutation.from_cycles(4, (0, 2))]
        assert repr(PermGroup(4, gens)) == "PermGroup(degree=4, ngens=2)"
        assert repr(PermGroup(0)) == "PermGroup(degree=0, ngens=0)"

    def test_wreath_tower_order(self):
        # exponent 1 + 2 + 4 of the degree-8 tower, checked by closure
        W = iterated_wreath_sylow(2, 3)
        assert W.order() == 128
        assert len(naive_closure(8, W.generators)) == 128

    def test_membership_matches_closure(self):
        G = iterated_wreath_sylow(2, 2)
        closure = naive_closure(4, G.generators)
        for images in closure:
            assert Permutation(images) in G
        outside = Permutation.from_cycles(4, (0, 1, 2))  # odd order, not in a 2-group
        assert outside not in G

    @pytest.mark.parametrize(
        "other", [(1, 0, 3, 2), [1, 0, 3, 2], Permutation.identity(3), Permutation.identity(8)],
        ids=["tuple", "list", "lower-degree", "higher-degree"],
    )
    def test_membership_of_a_non_member_type_or_degree_is_false(self, other):
        assert other not in iterated_wreath_sylow(2, 2)

    def test_element_list_is_refused_past_the_limit(self):
        G = iterated_wreath_sylow(2, 5)  # order 2^31
        message = f"^group of order {2**31} exceeds element limit {perm.ELEMENT_LIMIT}$"
        with pytest.raises(GuardExceeded, match=message):
            G.elements()

    def test_identity_and_generators_are_members(self, corpus):
        for _, G in corpus:
            assert G.identity in G
            for g in G.generators:
                assert g in G


class TestOrbitsAndStabilizers:
    def test_trivial_group_orbit(self):
        assert PermGroup(4).orbit(0) == [0]

    def test_full_cycle_orbit(self):
        assert cyclic(4).orbit(2) == [0, 1, 2, 3]

    def test_partial_orbit(self):
        G = PermGroup(4, [Permutation.from_cycles(4, (0, 1), (2, 3))])
        assert G.orbit(0) == [0, 1]

    def test_point_out_of_range(self):
        with pytest.raises(ValueError):
            cyclic(4).orbit(4)

    def test_regular_group_has_trivial_stabilizer(self):
        for G in (cyclic(5), klein_four()):
            for point in range(G.degree):
                assert stabilizer_order(G, point) == 1

    def test_dihedral_stabilizer(self):
        # order 8, orbit 4, so the stabilizer has order 2
        G = iterated_wreath_sylow(2, 2)
        assert stabilizer_order(G, 0) == 2

    def test_product_with_fixed_point(self):
        G = iterated_wreath_sylow(2, 2)
        P = product_action(G, PermGroup(1))
        assert P.degree == G.degree
        assert stabilizer_order(P, 0) == stabilizer_order(G, 0)

    def test_transitive_regular_flags(self):
        assert cyclic(6).is_transitive() and cyclic(6).is_regular()
        assert not PermGroup(3).is_transitive()
        D4 = iterated_wreath_sylow(2, 2)
        assert D4.is_transitive() and not D4.is_regular()

    def test_degree_zero_is_not_transitive(self):
        # the empty set has no orbit; degree 1 has the one orbit {0}
        assert not PermGroup(0).is_transitive() and not PermGroup(0).is_regular()
        assert PermGroup(1).is_transitive() and PermGroup(1).is_regular()


class TestNormalClosureAndCommutators:
    def test_empty_seeds(self):
        G = iterated_wreath_sylow(2, 2)
        assert G._closure([])[0].order() == 1

    def test_full_seeds(self):
        G = iterated_wreath_sylow(2, 2)
        assert G._closure([perm._element(g.images) for g in G.generators])[0].order() == G.order()

    def test_dihedral_center_seed(self):
        # the square of the 4-cycle generates a normal subgroup of order 2
        r = Permutation.from_cycles(4, (0, 1, 2, 3))
        G = PermGroup(4, [r, Permutation.from_cycles(4, (0, 2))])
        N = G._closure([perm._element((r * r).images)])[0]
        assert N.order() == 2
        # oracle: closed under conjugation by everything
        for images in naive_closure(4, G.generators):
            g = Permutation(images)
            assert g.inverse() * (r * r) * g in N

    def test_series_and_center_do_not_retest_their_seeds(self, monkeypatch):
        # the series seeds with commutators of members, and the center
        # closes only candidates it has tested once each: once G's chain is
        # built, no element is sifted through it, by a membership test or
        # otherwise, but the center's candidates
        groups = [G for _, G in build_corpus()] + [realize_json(bp) for bp in WITNESS_BLUEPRINTS]
        tested = []
        real_sift = perm._sift

        def sift(levels, h, start=0):
            if levels is chain:
                tested.append(h)
            return real_sift(levels, h, start)

        for G in groups:
            G = PermGroup(G.degree, G.generators)  # no chain yet
            candidates = 0
            if not G.is_abelian() and G.is_transitive():
                # one per point fixed by a point stabilizer, other than its own
                stabilizer = [s for level in stabilizer_levels(G, 0) for s in level.gens]
                candidates = sum(all(s[t] == t for s in stabilizer) for t in range(1, G.degree))
            chain = G._levels()
            monkeypatch.setattr(perm, "_sift", sift)
            lower_central_series(G)
            assert tested == [], G.generators
            if G.order() <= perm.ELEMENT_LIMIT:
                center(G)
                assert len(tested) == candidates, G.generators
            monkeypatch.undo()
            tested.clear()

    def test_parent_group_is_left_unchanged(self):
        G = iterated_wreath_sylow(2, 3)
        gens, order, chain = G.generators, G.order(), G._levels()
        snapshot = [(lv.point, list(lv.gens), dict(lv.transversal)) for lv in chain]
        N = G._closure([perm._element(commutator(G.generators[0], G.generators[2]).images)])[0]
        assert 1 < N.order() < order
        assert G.generators == gens and G.order() == order
        assert G._levels() is chain
        assert [(lv.point, lv.gens, lv.transversal) for lv in chain] == snapshot

    def test_dihedral_derived_subgroup_brute_force(self):
        # oracle: commutators of all element pairs of the order-8 group;
        # the derived subgroup [G, G] is the second lower-central-series term
        G = iterated_wreath_sylow(2, 2)
        elements = [Permutation(i) for i in naive_closure(4, G.generators)]
        pair_comms = {commutator(a, b).images for a in elements for b in elements}
        oracle = naive_closure(4, [Permutation(i) for i in pair_comms])
        derived = lower_central_series(G).terms[1]
        assert derived.order() == len(oracle) == 2
        for images in oracle:
            assert Permutation(images) in derived


class TestCentralSeries:
    def test_abelian_series(self):
        G = cyclic(6)
        series = lower_central_series(G)
        assert series.order_profile() == [6, 1]
        assert series.nilpotency_class == 1

    def test_dihedral_series(self):
        series = lower_central_series(iterated_wreath_sylow(2, 2))
        assert series.order_profile() == [8, 2, 1]
        assert series.nilpotency_class == 2

    def test_degree8_tower_class(self):
        series = lower_central_series(iterated_wreath_sylow(2, 3))
        assert series.nilpotency_class == 4

    def test_terms_match_commutator_subgroup(self, corpus):
        # oracle: [term, G] closed from the commutators of all element pairs
        # x in term, y in G, with no chain; past the last term the series is
        # fixed: [1, G] = 1, and a stalled term is its own [term, G]
        oracle_orders = {}
        for name, G in corpus:
            if G.order() > 128:
                continue
            n = G.degree
            terms = lower_central_series(G).terms  # terms[0] is G
            elements = [  # (g, g^-1) as image tuples
                [(g, tuple(sorted(range(n), key=g.__getitem__))) for g in naive_closure(n, T.generators)]
                for T in terms
            ]
            orders = oracle_orders[name] = []
            for current, nxt in zip(elements, terms[1:] + terms[-1:]):
                # [x, y] = x^-1 y^-1 x y, applied left to right
                comms = {tuple(y[x[yi[xi[p]]]] for p in range(n))
                         for x, xi in current for y, yi in elements[0]}
                oracle = naive_closure(n, [Permutation(c) for c in comms])
                assert nxt.order() == len(oracle), name
                assert all(Permutation(c) in nxt for c in oracle), name
                orders.append(len(oracle))
        # the dihedral group of order 8 has a derived subgroup of order 2
        assert oracle_orders["D4"] == [2, 1, 1]
        assert len(oracle_orders) == 26

    def test_not_nilpotent_marker(self):
        series = lower_central_series(sym3())
        assert series.nilpotency_class is None
        assert series.order_profile()[-1] > 1

    def test_class_values(self):
        assert class_of(PermGroup(3)) == 0
        assert class_of(cyclic(5)) == 1

    @pytest.mark.parametrize("p, k", [(2, 4), (2, 5)])
    def test_terms_keep_at_most_log_p_generators(self, p, k):
        # every generator a normal closure keeps enlarges the term by a
        # factor of at least p
        for term in lower_central_series(iterated_wreath_sylow(p, k)).terms:
            assert p ** len(term.generators) <= term.order()

    def test_construct_degree32_tower(self, capsys):
        blueprint = '{"kind":"sylow-wreath","params":{"p":2,"k":5}}'
        assert main(["construct", "--blueprint", blueprint]) == 0
        assert json.loads(capsys.readouterr().out)["realized"] is True

    def test_series_containment(self, corpus):
        for _, G in corpus:
            series = lower_central_series(G)
            for prev, nxt in zip(series.terms, series.terms[1:]):
                assert all(g in prev for g in nxt.generators)
            if series.nilpotency_class is not None:
                assert series.terms[-1].order() == 1
                nontrivial = sum(1 for t in series.terms if t.order() > 1)
                assert series.nilpotency_class == nontrivial


class TestChainOracle:
    """Every chain the incremental builder grows, re-verified from scratch."""

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("affine-unitriangular", {"p": 2, "k": 4, "m": 2}),
            ("abelian-class2", {"p": 3, "k": 3, "m": 1, "a": 1}),
            ("sylow-wreath", {"p": 2, "k": 4}),
            ("wreath-polynomial", {"p": 2, "u": 1, "v": 2, "c": 2}),
            ("dihedral-abelian", {"k": 4, "c": 3}),
            (
                "product",
                {
                    "factors": [
                        {"kind": "sylow-wreath", "params": {"p": 3, "k": 2}},
                        {"kind": "dihedral-abelian", "params": {"k": 2, "c": 1}},
                    ]
                },
            ),
        ],
    )
    def test_blueprint_chains(self, kind, params):
        G = realize(make_blueprint(kind, params))
        assert_chain_verified(G._levels(), G.generators)

    @pytest.mark.parametrize(
        "G", [iterated_wreath_sylow(2, 4), wreath_polynomial_group(2, 2, 2, 2)]
    )
    def test_series_terms_grown_one_generator_at_a_time(self, G):
        G = PermGroup(G.degree, G.generators)  # no chain or engine yet
        for term in lower_central_series(G).terms[1:]:
            assert_chain_verified(term._levels(), term.generators)
            assert term.order() == PermGroup(term.degree, term.generators).order()

    @pytest.mark.parametrize(
        "gens",
        [
            [(3, 0, 1, 2), (0, 3, 1, 2)],
            [(4, 1, 3, 2, 0), (0, 3, 2, 1, 4)],
            [(3, 0, 1, 2, 4, 5), (2, 1, 5, 3, 4, 0)],
        ],
    )
    def test_non_nilpotent_chains(self, gens):
        # each needs a level's own verification progress: one record shared
        # by all the levels of a generator loses these groups' orders
        G = PermGroup(len(gens[0]), [Permutation(g) for g in gens])
        assert_chain_verified(G._levels(), G.generators)
        assert G.order() == len(naive_closure(G.degree, G.generators))

    def test_point_stabilizer_chains(self, corpus):
        for name, G in corpus:
            G = PermGroup(G.degree, G.generators)  # no chain or engine yet
            for point in range(G.degree):
                # a chain with its base fixed at point; the levels below
                # the first are the stabilizer's chain
                levels = build_chain(G, point)
                assert_chain_verified(levels, G.generators)
                stabilizer = [Permutation(tuple(s)) for level in levels[1:] for s in level.gens]
                assert_chain_verified(levels[1:], stabilizer)
                assert G.order() == len(G.orbit(point)) * stabilizer_order(G, point), name

    def test_each_schreier_pair_is_sifted_once(self, monkeypatch):
        # only first_residue sifts from a level below the top; its sifts of
        # one chain, over all the calls that grow it, must be exactly the
        # finished chain's non-tree pairs (u_x * s != u_{x^s}, s stored at
        # that level or deeper): none skipped, none sifted twice
        chains, sifted = [], collections.Counter()
        real_build, real_sift = perm._build_chain, perm._sift

        def build(levels, generators):
            if all(levels is not seen for seen in chains):
                chains.append(levels)
            return real_build(levels, generators)

        def sift(levels, h, start=0):
            if start >= 1:
                sifted[id(levels)] += 1
            return real_sift(levels, h, start)

        monkeypatch.setattr(perm, "_build_chain", build)
        monkeypatch.setattr(perm, "_sift", sift)
        s5 = PermGroup(5, [Permutation((1, 2, 3, 4, 0)), Permutation((1, 0, 2, 3, 4))])
        for _, G in build_corpus() + [("S5", s5)]:
            levels = G._levels()
            # a chain that starts with a base point already in place
            point = next(x for x in range(G.degree) if not levels or x != levels[0].point)
            build_chain(G, point)
            lower_central_series(G)
        for levels in chains:
            non_tree = sum(
                compose(u, s) != tuple(level.transversal[s[x]])
                for i, level in enumerate(levels)
                for s in [g for deeper in levels[i:] for g in deeper.gens]
                for x, u in level.transversal.items()
            )
            assert sifted[id(levels)] == non_tree, [level.point for level in levels]


@pytest.fixture
def schreier_only(monkeypatch):
    # the push loop gives up at once, as on a group that is not nilpotent;
    # a group's chain build picks its engine, so this reaches only the
    # groups whose chains are built under it
    monkeypatch.setattr(perm, "_close", lambda *args: False)


@pytest.mark.usefixtures("schreier_only")
class TestChainOracleOnSchreierSims(TestChainOracle):
    """TestChainOracle again with the push loop switched off, so every
    chain, normal closure and series term of the groups each test makes is
    grown by the Schreier-Sims fallback."""


@pytest.mark.parametrize("engine", ["push loop", "worklist"])
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_small_degrees_run_every_kernel_path(degree, engine):
    # the engine's elements are empty or one byte long below degree 2, and
    # Permutation.__mul__ forms no product there: the trivial groups, and at
    # degree 2 the group of the transposition, through order, membership,
    # elements, both chain builders, closures by either engine, the series
    # and the center
    identity = Permutation.identity(degree)
    groups = [PermGroup(degree), PermGroup(degree, [identity, identity])]
    if degree == 2:
        groups.append(PermGroup(2, [Permutation((1, 0)), identity]))
    for G in groups:
        closure = naive_closure(degree, G.generators)
        assert G.order() == len(closure)
        assert_chain_verified(G._levels(), G.generators)
        gens = [perm._element(g.images) for g in G.generators]
        assert_chain_verified(perm._build_chain([], gens), G.generators)
        if engine == "worklist":
            G._engine = perm._worklist_closure
        assert {g.images for g in G.elements()} == closure
        assert identity in G and all(Permutation(x) in G for x in closure)
        if degree == 2:
            assert (Permutation((1, 0)) in G) == (G.order() == 2)
        assert G._closure([])[0].order() == 1
        N, closed = G._closure([perm._element(x) for x in (identity.images, *sorted(closure))])
        assert N.order() == G.order() and len(closed) == (G.order() > 1)
        assert_chain_verified(N._levels(), N.generators)
        series = lower_central_series(G)
        assert series.order_profile() == sorted({G.order(), 1}, reverse=True)
        assert series.nilpotency_class == (G.order() > 1)
        assert center(G).order() == G.order()


def naive_series_profile(H: PermGroup) -> list[int]:
    """Orders of H's lower central series, from element sets, up to the
    first term that repeats."""
    elements = H.elements()
    term, profile = elements, [len(elements)]
    while True:
        commutators = {c.images: c for c in (commutator(x, g) for x in term for g in elements)}
        term = [Permutation(t) for t in naive_closure(H.degree, commutators.values())]
        if len(term) == profile[-1]:
            return profile
        profile.append(len(term))


def realize_json(blueprint: dict) -> PermGroup:
    return realize(blueprint_from_json(blueprint))


class TestAdjoinPath:
    """Nilpotent groups grow their chains by index-p adjoins; other groups
    fall back to Schreier-Sims."""

    def test_nilpotent_groups_need_no_schreier_sims(self, monkeypatch):
        groups = [(name, G) for name, G in build_corpus() if name != "S3"]
        groups += [(json.dumps(bp), realize_json(bp)) for bp in WITNESS_BLUEPRINTS]

        def refuse(*args):
            raise AssertionError("_build_chain ran on a nilpotent group")

        monkeypatch.setattr(perm, "_build_chain", refuse)
        for name, G in groups:
            G = PermGroup(G.degree, G.generators)  # no chain yet
            series = lower_central_series(G)
            assert series.nilpotency_class is not None, name
            if G.order() <= NAIVE_CLOSURE_LIMIT:
                assert G.order() == len(naive_closure(G.degree, G.generators)), name
                Z = center(G)
                assert Z.order() == len(naive_closure(G.degree, Z.generators)), name
            elif G.order() <= perm.ELEMENT_LIMIT:
                center(G).order()
        mixed = PermGroup(72, realize_json(MIXED_PRODUCT).generators)
        assert mixed.order() == 3**3 * 2**7
        assert lower_central_series(mixed).order_profile() == [3456, 48, 4, 2, 1]
        assert center(mixed).order() == 3 * 2

    @pytest.mark.parametrize(
        "gens, profile",
        [
            ([(1, 2, 0), (1, 0, 2)], [6, 3]),
            # seeded by the transposition t first: S3 = <[t, c], t> is shown
            # not nilpotent only by conjugating [t, c] by t itself
            ([(1, 0, 2), (1, 2, 0)], [6, 3]),
            ([(1, 2, 0, 3), (0, 2, 3, 1)], [12, 4]),
            ([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], [120, 60]),
            # the 4-cycle's normal closure is S4, yet it generates only C4
            ([(1, 2, 3, 0), (1, 0, 2, 3)], [24, 12]),
        ],
        ids=["S3", "S3-transposition-first", "A4", "S5", "S4"],
    )
    def test_non_nilpotent_groups_fall_back(self, monkeypatch, gens, profile):
        gave_up, built = [], []
        real_close, real_build = perm._close, perm._build_chain

        def close(*args):
            done = real_close(*args)
            gave_up.append(not done)
            return done

        def build(*args):
            built.append(args[0])
            return real_build(*args)

        monkeypatch.setattr(perm, "_close", close)
        monkeypatch.setattr(perm, "_build_chain", build)
        G = PermGroup(len(gens[0]), [Permutation(g) for g in gens])
        assert {g.images for g in G.elements()} == naive_closure(G.degree, G.generators)
        assert any(gave_up) and G._levels() in built
        series = lower_central_series(G)
        assert series.nilpotency_class is None and series.order_profile() == profile
        for term in series.terms:
            assert {g.images for g in term.elements()} == naive_closure(G.degree, term.generators)
        # G's chain build picked the worklist, so no chain in G runs the
        # push loop again: not the closure, nor the series terms and
        # closures of G's subgroups, which must match the oracles
        gave_up.clear()
        N = G._closure([perm._element(G.generators[0].images)])[0]
        assert gave_up == []
        for H in [*series.terms, N]:
            x = H.generators[0]
            closure = H._closure([perm._element(x.images)])[0]
            assert {g.images for g in closure.elements()} == naive_closure(
                H.degree, [g.inverse() * x * g for g in H.elements()]
            )
            assert lower_central_series(H).order_profile() == naive_series_profile(H)
            assert center(H).order() == sum(all(z * g == g * z for g in H.generators) for z in H.elements())
        assert gave_up == []


    def test_normal_generators_generate_the_group(self, monkeypatch):
        # the generators that seeded G's chain: a subsequence of G's
        # generators whose normal closure is G, which G's nilpotency makes
        # G itself; the degree-64 wreath/polynomial groups, with 27, 26 and
        # 24 generators, need only 6, 16 and 12.  Each y is stored with its
        # inverse: in G, in its series terms and center, whose ys are the
        # elements the engine adjoined, and in the A4 and S4 groups whose
        # chain build falls back to Schreier-Sims
        groups = [(name, G) for name, G in build_corpus() if name != "S3"]
        groups += [(json.dumps(bp), realize_json(bp)) for bp in WITNESS_BLUEPRINTS]
        fewer = 0
        for name, G in groups:
            Y = [y for _, y in G._normal_generators()]
            rest = iter(G.generators)
            assert all(any(tuple(y) == g.images for g in rest) for y in Y), name
            Y = [Permutation(tuple(y)) for y in Y]
            if G.order() <= NAIVE_CLOSURE_LIMIT:
                assert len(naive_closure(G.degree, Y)) == G.order(), name
            else:
                assert PermGroup(G.degree, Y).order() == G.order(), name
            fewer += len(G.generators) - len(Y)
        assert fewer >= 21 + 10 + 12
        for gens in ([(1, 2, 0, 3), (0, 2, 3, 1)], [(1, 2, 3, 0), (1, 0, 2, 3)]):
            G = PermGroup(4, [Permutation(g) for g in gens])
            G.order()
            assert G._engine is perm._worklist_closure
            groups.append((repr(gens), G))
        adjoined = []
        real_adjoin, real_build = perm._adjoin, perm._build_chain

        def adjoin(levels, w, *args):
            adjoined.append(w)
            real_adjoin(levels, w, *args)

        def build(levels, generators):
            adjoined.extend(generators)
            return real_build(levels, generators)

        monkeypatch.setattr(perm, "_adjoin", adjoin)
        monkeypatch.setattr(perm, "_build_chain", build)
        for name, G in groups:
            adjoined.clear()
            series = lower_central_series(G)
            closures = list(series.terms[1:])
            if G.order() <= perm.ELEMENT_LIMIT and not G.is_abelian():
                closures.append(center(G))
            if series.nilpotency_class is not None:  # else a stalled closure adjoined too
                kept = [g.images for H in closures for g in H.generators]
                assert kept == list(map(tuple, adjoined)), name
            for H in [G, *closures]:
                for y_inv, y in H._normal_generators():
                    assert len(y_inv) == H.degree, name
                    assert [y_inv[x] for x in y] == list(range(H.degree)), name

    def test_series_and_center_do_not_invert_the_normal_generators(self, monkeypatch):
        # G's chain build stores each normal generator y with its inverse,
        # which the series and the center read: once G's order is known,
        # neither inverts any generator of G again (the worklist inverts
        # what it adjoins, which in S3 may equal a y, but not the stored y)
        groups = [G for _, G in build_corpus()] + [realize_json(bp) for bp in WITNESS_BLUEPRINTS]
        inverted = []
        real_invert = perm._invert

        def invert(g):
            inverted.append(g)
            return real_invert(g)

        for G in groups:
            G = PermGroup(G.degree, G.generators)  # no chain yet
            G.order()
            Y = [y for _, y in G._normal_generators()]
            assert all(any(tuple(y) == g.images for g in G.generators) for y in Y)
            monkeypatch.setattr(perm, "_invert", invert)
            lower_central_series(G)
            if G.order() <= perm.ELEMENT_LIMIT:
                center(G)
            monkeypatch.undo()
            assert not any(x is y for x in inverted for y in Y), G.generators
            inverted.clear()

    def test_adjoin_and_series_invert_only_new_elements(self, monkeypatch):
        # _adjoin inverts the r it stores only when the sift changed w, as
        # the push loop's frame holds w^-1; the series seeds each term with
        # the (x^-1, x) pairs the engine stored for the seeds it adjoined,
        # so outside the engine it never inverts an element the engine
        # stored with its inverse
        groups = [G for _, G in build_corpus()] + [realize_json(bp) for bp in WITNESS_BLUEPRINTS]
        real_invert, real_adjoin = perm._invert, perm._adjoin
        inverted, stored, sifts = [], [], collections.Counter()

        def invert(g):
            inverted.append(g)
            return real_invert(g)

        def adjoin(levels, w, w_inv, q):
            assert [w_inv[x] for x in w] == list(range(len(w)))
            changed = perm._sift(levels, w) is not w
            before = len(inverted)
            real_adjoin(levels, w, w_inv, q)
            assert len(inverted) - before == changed
            sifts[changed] += 1

        monkeypatch.setattr(perm, "_invert", invert)
        monkeypatch.setattr(perm, "_adjoin", adjoin)
        for G in groups:
            G = PermGroup(G.degree, G.generators)  # no chain yet
            G.order()
            real_engine = G._engine

            def engine(levels, conjugators, seed, adjoined):
                # keep only the inversions made outside the engine
                start, before = len(adjoined), len(inverted)
                done = real_engine(levels, conjugators, seed, adjoined)
                del inverted[before:]
                stored.extend(w for _, w in adjoined[start:])
                return done

            G._engine = engine
            inverted.clear()
            lower_central_series(G)
            assert not any(x is w for x in inverted for w in stored), G.generators
        assert stored and sifts[True] and sifts[False]

    def test_closed_seed_the_engine_did_not_adjoin_is_inverted(self):
        # c^3 closes first, so the push loop closes c, of order 6, by
        # adjoining c^2, after which c lies in <c^3, c^2> and is never
        # adjoined itself: _closure pairs c with its inverse
        c = Permutation.from_cycles(6, (0, 1, 2, 3, 4, 5))
        N, closed = PermGroup(6, [c])._closure([perm._element((c**3).images), perm._element(c.images)])
        assert N.order() == 6 and [g.images for g in N.generators] == [(c**3).images, (c**2).images]
        assert [(tuple(h_inv), tuple(h)) for h_inv, h in closed] == [
            ((c**3).inverse().images, (c**3).images),
            (c.inverse().images, c.images),
        ]


class TestCenter:
    def test_abelian_center_is_whole_group(self):
        G = klein_four()
        assert center(G).order() == G.order()

    @pytest.mark.parametrize("G", [pytest.param(G, id=name) for name, G in abelian_groups()])
    def test_abelian_group_is_its_own_center(self, G):
        assert center(G) is G

    def test_abelian_center_guard_comes_first(self):
        # an abelian group past the limit is refused, not returned
        transpositions = [Permutation.from_cycles(42, (2 * i, 2 * i + 1)) for i in range(21)]
        G = PermGroup(42, transpositions)
        assert G.is_abelian()
        with pytest.raises(
            GuardExceeded, match="too large for center scan: order 2097152 is over the limit 1000000$"
        ):
            center(G)

    def test_dihedral_center(self):
        assert center(iterated_wreath_sylow(2, 2)).order() == 2

    def test_affine_center_equals_second_term(self):
        from nilbound.constructions import affine_unitriangular

        G = affine_unitriangular(2, 2, 1)
        Z = center(G)
        g2 = lower_central_series(G).terms[1]
        assert Z.order() == g2.order() == 2
        assert all(g in Z for g in g2.generators) and all(z in g2 for z in Z.generators)

    def test_center_guard(self, monkeypatch):
        big = iterated_wreath_sylow(2, 3)
        monkeypatch.setattr(perm, "ELEMENT_LIMIT", 100)
        with pytest.raises(
            GuardExceeded, match="too large for center scan: order 128 is over the limit 100$"
        ):
            center(big)

    def test_transitive_center_needs_no_element_list(self, monkeypatch):
        # order 2^24: the one-point method never lists G
        from nilbound.constructions import wreath_polynomial_group

        G = wreath_polynomial_group(2, 3, 3, 3)
        assert G.is_transitive() and G.order() == 2**24
        monkeypatch.setattr(perm, "ELEMENT_LIMIT", 2**30)
        start = time.perf_counter()
        Z = center(G)
        assert time.perf_counter() - start < 5
        assert Z.order() > 1
        for z in Z.generators:
            assert z in G
            assert all(z * g == g * z for g in G.generators)

    @pytest.mark.parametrize("source", ["corpus", (2, 3), (3, 2)], ids=["corpus", "tower(2,3)", "tower(3,2)"])
    def test_candidates_are_the_central_elements(self, source):
        # oracle: scan every element for those commuting with each generator;
        # the candidates must be exactly these, in the order of z(0)
        if source == "corpus":
            groups = [G for _, G in build_corpus()]
        else:
            groups = list(enumerate_subgroups(iterated_wreath_sylow(*source), dedupe="set"))
        checked = 0
        for G in groups:
            if not G.is_transitive() or G.is_abelian():
                continue
            scan = [
                z
                for z in G.elements()
                if not z.is_identity() and all(z * g == g * z for g in G.generators)
            ]
            candidates = _central_from_point_images(G)
            expected = [z.images for z in sorted(scan, key=lambda z: z.images[0])]
            assert list(map(tuple, candidates)) == expected, G.generators
            assert len(candidates) == center(G).order() - 1
            checked += 1
        assert checked > 0

    def test_center_elements_commute_with_everything(self, corpus):
        for _, G in corpus:
            if G.order() > NAIVE_CLOSURE_LIMIT:
                continue
            elements = [Permutation(i) for i in naive_closure(G.degree, G.generators)]
            Z = center(G)
            # each kept generator at least doubles the group
            assert 2 ** len(Z.generators) <= Z.order()
            central = {z.images for z in Z.elements()}
            for z_images in central:
                z = Permutation(z_images)
                assert all(z * g == g * z for g in elements)
            # and conversely, the scan found everything central
            for g in elements:
                if all(g * h == h * g for h in elements):
                    assert g.images in central


class TestJsonInterchange:
    def test_round_trip(self):
        G = iterated_wreath_sylow(2, 2)
        data = G.to_json()
        H = PermGroup.from_json(data)
        assert H.degree == G.degree
        assert H.generators == G.generators
        assert H.order() == G.order()

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match=r"generators\[0\]"):
            PermGroup.from_json({"degree": 3, "generators": [[0, 0, 1]]})

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match=r"generators\[1\]"):
            PermGroup.from_json({"degree": 3, "generators": [[0, 1, 2], [1, 0]]})


class TestEngineInvariants:
    def test_order_oracle(self, corpus):
        for name, G in corpus:
            if G.order() > NAIVE_CLOSURE_LIMIT:
                continue
            assert G.order() == len(naive_closure(G.degree, G.generators)), name

    def test_orbit_stabilizer(self, corpus):
        for name, G in corpus:
            for point in range(G.degree):
                assert G.order() == len(G.orbit(point)) * stabilizer_order(G, point), (name, point)

    def test_elements_enumeration_matches_closure(self, corpus):
        for name, G in corpus:
            if G.order() > 1000:
                continue
            via_chain = {g.images for g in G.elements()}
            assert via_chain == naive_closure(G.degree, G.generators), name

    def test_elements_order_is_pinned(self, corpus):
        # a rewrite of elements() must list each group's elements in this
        # exact order; the stabilizer is left out, since its chain's base is
        # chosen by the group it was taken from
        groups = [G for name, G in corpus if not name.startswith("stab") and G.order() <= 1000]
        groups += [affine_unitriangular(2, 4, 2), dihedral_times_abelian(5, 3)]
        digest = hashlib.sha256()
        for G in groups:
            for g in G.elements():
                digest.update(f"{g.images}\n".encode())
        assert digest.hexdigest() == "8912cf4d9972f01c8563c68bc4585acf5de9be59b76116563df488539e44edf9"

    def test_chains_are_pinned(self):
        # a rewrite of the kernel must build exactly these chains: base
        # points, strong generators and transversal key order of each
        # group's own chain, its series terms' and its center's, for the
        # corpus, the witness groups and the A4 and S4 fall-back groups,
        # then the Schreier-Sims chains of the corpus based at point 0
        groups = [G for _, G in build_corpus()] + [realize_json(bp) for bp in WITNESS_BLUEPRINTS]
        groups += [
            PermGroup(4, [Permutation(g) for g in gens])
            for gens in ([(1, 2, 0, 3), (0, 2, 3, 1)], [(1, 2, 3, 0), (1, 0, 2, 3)])
        ]
        digest = hashlib.sha256()

        def update(levels):
            for level in levels:
                gens = [tuple(g) for g in level.gens]
                digest.update(f"{level.point} {gens} {list(level.transversal)}\n".encode())
            digest.update(b"\n")

        for G in groups:
            G = PermGroup(G.degree, G.generators)  # no chain yet
            update(G._levels())
            for term in lower_central_series(G).terms[1:]:
                update(term._levels())
            if G.order() <= perm.ELEMENT_LIMIT:
                update(center(G)._levels())
        for _, G in build_corpus():
            update(build_chain(G, 0))
        assert digest.hexdigest() == "8db180a08c7e60bb48ee708483f77f7b4e30f7b414dbd0f88540a9c6ae91e0f5"

    def test_abelian_transitive_implies_regular(self, corpus):
        for name, G in corpus:
            if G.is_abelian() and G.is_transitive():
                assert G.is_regular(), name

    def test_central_elements_of_transitive_groups_fix_nothing(self, corpus):
        # a nonidentity element commuting with a transitive group moves
        # every point
        for name, G in corpus:
            if not G.is_transitive() or G.order() > NAIVE_CLOSURE_LIMIT:
                continue
            for z in center(G).elements():
                if z.is_identity():
                    continue
                assert all(z.images[x] != x for x in range(G.degree)), name

    def test_index_intersection_bound(self):
        # subgroups of common index k intersect in index at most k^l
        K = iterated_wreath_sylow(2, 3)
        elements = K.elements()
        stabs = [{g.images for g in elements if g(point) == point} for point in (0, 3, 5)]
        k = K.order() // len(stabs[0])
        assert all(K.order() // len(s) == k for s in stabs)
        common = set.intersection(*stabs)
        index = K.order() // len(common)
        assert index <= k ** len(stabs)
