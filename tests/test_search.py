"""Subgroup enumeration and the exhaustive transitive-subgroup search."""

import hashlib
import itertools
import json
import operator
import tracemalloc

import pytest

from nilbound import search
from nilbound.bounds import class2_exponent, f_upper, prime_power
from nilbound.constructions import dihedral_times_abelian, iterated_wreath_sylow, sylow_exponent
from nilbound.perm import GuardExceeded, PermGroup, Permutation, nilpotency_class
from nilbound.search import (
    SearchRow,
    TABLE2_REFERENCE,
    _Tables,
    audit_row,
    enumerate_subgroups,
    fnil_exact,
)

from conftest import cyclic, naive_closure, sym3


def brute_force_subgroups(group, max_generators=4):
    """All subgroups as element frozensets, via closures of small generating
    sets (complete as long as every subgroup needs <= max_generators)."""
    elements = sorted(naive_closure(group.degree, group.generators))
    found = {frozenset({tuple(range(group.degree))})}
    for r in range(1, max_generators + 1):
        for subset in itertools.combinations(elements, r):
            gens = [Permutation(im) for im in subset]
            found.add(frozenset(naive_closure(group.degree, gens)))
    return found


def as_element_set(subgroup):
    return frozenset(im for im in naive_closure(subgroup.degree, subgroup.generators))


class TestEnumerateSubgroups:
    def test_trivial_group(self):
        for degree in (0, 1, 3):
            subs = list(enumerate_subgroups(PermGroup(degree)))
            assert len(subs) == 1
            assert subs[0].order() == 1

    def test_cyclic_four(self):
        subs = list(enumerate_subgroups(cyclic(4)))
        assert sorted(s.order() for s in subs) == [1, 2, 4]

    def test_dihedral_against_subset_oracle(self):
        # oracle: every subset of the order-8 group closed under the
        # operation
        D4 = iterated_wreath_sylow(2, 2)
        elements = sorted(naive_closure(4, D4.generators))
        oracle = set()
        for r in range(0, len(elements) + 1):
            for subset in itertools.combinations(elements, r):
                subset_set = set(subset)
                if tuple(range(4)) not in subset_set:
                    continue
                closed = all(
                    tuple(b[x] for x in a) in subset_set
                    for a in subset_set
                    for b in subset_set
                )
                if closed:
                    oracle.add(frozenset(subset_set))
        found = {as_element_set(H) for H in enumerate_subgroups(D4)}
        assert len(oracle) == 10
        assert found == oracle

    def test_order_sixteen_against_generated_oracle(self):
        from nilbound.constructions import dihedral_times_abelian

        G = dihedral_times_abelian(4, 2)
        oracle = brute_force_subgroups(G)
        found = {as_element_set(H) for H in enumerate_subgroups(G)}
        assert found == oracle

    def test_budget_refusal(self):
        with pytest.raises(GuardExceeded, match="search budget exceeded"):
            list(enumerate_subgroups(iterated_wreath_sylow(2, 3), max_count=10))

    def test_negative_budget_is_a_usage_error(self):
        with pytest.raises(ValueError, match="max_count must be non-negative, got -5"):
            list(enumerate_subgroups(iterated_wreath_sylow(2, 2), max_count=-5))
        with pytest.raises(ValueError, match="max_count must be non-negative, got -1"):
            fnil_exact(2, 2, 4, max_count=-1)

    @pytest.mark.parametrize("budget", [True, False, 1.5, "3"])
    def test_non_integer_budget_is_a_usage_error(self, budget):
        # bool is not a budget, as it is not a point or a blueprint param
        with pytest.raises(ValueError, match=f"^max_count must be an integer, got {budget!r}$"):
            fnil_exact(2, 1, 1, max_count=budget)
        with pytest.raises(ValueError, match=f"^max_count must be an integer, got {budget!r}$"):
            enumerate_subgroups(iterated_wreath_sylow(2, 2), max_count=budget)

    def test_zero_budget_yields_nothing(self):
        stream = enumerate_subgroups(iterated_wreath_sylow(2, 3), max_count=0)
        with pytest.raises(
            GuardExceeded, match="^search budget exceeded: visited 1 subgroups, over the budget 0$"
        ):
            next(stream)
        with pytest.raises(GuardExceeded, match="visited 1 subgroups, over the budget 0$"):
            fnil_exact(2, 3, 8, max_count=0)

    def test_arguments_are_checked_before_the_tables(self, monkeypatch):
        def no_tables(group):
            raise AssertionError("tables built before the arguments were checked")

        monkeypatch.setattr(search, "_Tables", no_tables)
        tower = iterated_wreath_sylow(2, 3)
        with pytest.raises(ValueError, match="unknown dedupe mode 'bogus'"):
            enumerate_subgroups(tower, "bogus")
        with pytest.raises(ValueError, match="max_count must be non-negative, got -1"):
            enumerate_subgroups(tower, max_count=-1)
        with pytest.raises(GuardExceeded, match="exceeds subgroup enumeration guard 128"):
            enumerate_subgroups(iterated_wreath_sylow(2, 4))
        with pytest.raises(ValueError, match="unknown dedupe mode 'bogus'"):
            fnil_exact(2, 3, 8, dedupe="bogus")
        with pytest.raises(ValueError, match="max_count must be non-negative, got -1"):
            fnil_exact(2, 3, 8, max_count=-1)

    @pytest.mark.parametrize("dedupe", ["set", "conjugacy"])
    def test_prime_order_past_the_byte_masks(self, dedupe, monkeypatch):
        # the guard admits order p for p >= 5; 257 elements do not fit the
        # stream's byte masks, so the trivial group and C_257 come directly,
        # as does a group of order 7 with fixed points and two generators,
        # on its least element but 1, all with no element list
        C = cyclic(257)
        g = Permutation.from_cycles(12, (9, 3, 7, 5, 8, 4, 6))
        S = PermGroup(12, [g**3, g])
        least = min(Permutation(im) for im in naive_closure(12, S.generators) if im != tuple(range(12)))

        def no_elements(group):
            raise AssertionError("element list built")

        monkeypatch.setattr(PermGroup, "elements", no_elements)
        stream = [H.dumps() for H in enumerate_subgroups(C, dedupe=dedupe)]
        assert stream == [PermGroup(257).dumps(), C.dumps()]
        stream = [H.dumps() for H in enumerate_subgroups(S, dedupe=dedupe)]
        assert stream == [PermGroup(12).dumps(), PermGroup(12, [least]).dumps()]
        with pytest.raises(GuardExceeded, match="visited 2 subgroups, over the budget 1$"):
            list(enumerate_subgroups(C, dedupe=dedupe, max_count=1))

    @pytest.mark.parametrize(
        "g",
        [
            pytest.param(cyclic(5).generators[0], id="C5"),
            pytest.param(cyclic(257).generators[0], id="C257"),
            pytest.param(cyclic(1009).generators[0], id="C1009"),
            pytest.param(Permutation.from_cycles(8, (3, 5, 7, 4, 6)), id="5-cycle-on-3..7"),
            pytest.param(Permutation.from_cycles(6, (0, 2, 1), (3, 5, 4)), id="two-3-cycles"),
        ],
    )
    def test_prime_order_least_element_is_the_least_power(self, g):
        # the stream reads its least power off one cycle; the oracle is the
        # least of all p - 1 powers
        S = PermGroup(g.degree, [g])
        least = min(itertools.accumulate(itertools.repeat(g, S.order() - 1), operator.mul))
        assert [H.generators for H in enumerate_subgroups(S)] == [(), (least,)]

    def test_prime_order_builds_no_chain(self):
        # a group with one distinct non-identity generator has the lcm of its
        # cycle lengths for its order; the stabilizer chain of C_1009 alone
        # takes ~16 MiB
        C = cyclic(1009)
        g = C.generators[0]
        tracemalloc.start()
        try:
            stream = [H.generators for H in enumerate_subgroups(C)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stream == [(), (g,)]
        assert peak < 2**20
        # a repeated generator and the identity leave one distinct generator
        S = PermGroup(1009, [g, Permutation.identity(1009), g])
        assert [H.generators for H in enumerate_subgroups(S)] == [(), (g,)]

    def test_order_guard(self):
        with pytest.raises(GuardExceeded):
            list(enumerate_subgroups(iterated_wreath_sylow(2, 4)))

    def test_conjugacy_mode_yields_class_representatives(self):
        D4 = iterated_wreath_sylow(2, 2)
        set_mode = {as_element_set(H) for H in enumerate_subgroups(D4, dedupe="set")}
        reps = [as_element_set(H) for H in enumerate_subgroups(D4, dedupe="conjugacy")]
        elements = [Permutation(im) for im in naive_closure(4, D4.generators)]
        # representatives are pairwise non-conjugate and cover everything
        covered = set()
        for rep in reps:
            orbit = {
                frozenset((g.inverse() * Permutation(h) * g).images for h in rep)
                for g in elements
            }
            assert len(orbit & set(covered)) == 0
            covered |= orbit
        assert covered == set_mode

    def test_stream_is_deterministic(self):
        W = iterated_wreath_sylow(3, 2)
        first = [H.to_json() for H in enumerate_subgroups(W)]
        second = [H.to_json() for H in enumerate_subgroups(W)]
        assert first == second


def _with_idle_generators():
    # the identity and a repeated generator lead the Cayley-graph walk to no new element
    a, b = iterated_wreath_sylow(2, 2).generators
    return PermGroup(4, [Permutation.identity(4), a, b, a])


def _lift(g, degree):
    """g moved onto the last g.degree points of degree points."""
    shift = degree - g.degree
    return Permutation([*range(shift), *(shift + x for x in g.images)])


def _lifted(group, degree):
    return PermGroup(degree, [_lift(g, degree) for g in group.generators])


@pytest.mark.parametrize(
    "group",
    [
        pytest.param(lambda: iterated_wreath_sylow(2, 1), id="2-1"),
        pytest.param(lambda: iterated_wreath_sylow(2, 3), id="2-3"),
        pytest.param(lambda: iterated_wreath_sylow(3, 2), id="3-2"),
        pytest.param(_with_idle_generators, id="idle-generators"),
        pytest.param(lambda: PermGroup(0), id="trivial-degree-0"),
        pytest.param(lambda: PermGroup(1), id="trivial-degree-1"),
        pytest.param(sym3, id="S3"),
        pytest.param(lambda: dihedral_times_abelian(6, 5), id="dihedral-times-abelian-6-5"),
        # past degree 256 the tables sort, multiply and index _Wide elements
        pytest.param(lambda: _lifted(iterated_wreath_sylow(2, 2), 260), id="2-2-on-degree-260"),
    ],
)
def test_tables_match_permutation_products(group):
    group = group()
    tables = _Tables(group)
    perms = tables.elements
    assert [g.images for g in perms] == sorted(naive_closure(group.degree, group.generators))
    for i, a in enumerate(perms):
        assert tables.elements[tables.inv[i]] == a.inverse()
        for j, b in enumerate(perms):
            assert tables.elements[tables.mult[i][j]] == a * b
            assert tables.elements[tables.conj[i][j]] == a.inverse() * b * a
            assert tables.conj_of[j][i] == tables.conj[i][j]


@pytest.mark.parametrize("dedupe", ["set", "conjugacy"])
def test_stream_past_degree_256_is_the_shifted_stream(dedupe):
    # tower(2,3) on points 292-299 of 300 sorts its elements as on 0-7, so
    # its stream is the degree-8 stream with every generator lifted
    tower = iterated_wreath_sylow(2, 3)
    expected = [[_lift(g, 300) for g in H.generators] for H in enumerate_subgroups(tower, dedupe)]
    lifted = [list(H.generators) for H in enumerate_subgroups(_lifted(tower, 300), dedupe)]
    assert lifted == expected
    assert len(lifted) == STREAM_COUNTS[2, 3][dedupe == "conjugacy"]


def test_search_runs_without_permutation_arithmetic(monkeypatch):
    # the tables, the stream and the witnesses work on engine elements and
    # byte strings: no Permutation product or comparison from the tower on
    tower = iterated_wreath_sylow(2, 3)
    streams = {
        mode: [H.dumps() for H in enumerate_subgroups(tower, mode)] for mode in ("set", "conjugacy")
    }
    row = fnil_exact(2, 3, 8).to_json()

    def refuse(*args):
        raise AssertionError("Permutation arithmetic in the search")

    monkeypatch.setattr(Permutation, "__mul__", refuse)
    monkeypatch.setattr(Permutation, "__lt__", refuse)
    _Tables(tower)
    for mode, expected in streams.items():
        assert [H.dumps() for H in enumerate_subgroups(tower, mode)] == expected
    assert fnil_exact(2, 3, 8).to_json() == row


def as_mask(tables, indices):
    """The search's byte-mask encoding of a set of element indices."""
    chosen = set(indices)
    return int.from_bytes(bytes(i in chosen for i in range(len(tables.elements))), "big")


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2)])
def test_carried_generators_and_class(p, k):
    # oracles that do not use the tables' arithmetic: the naive closure of
    # the generators as permutations, and the chain-based series of perm
    tables = _Tables(iterated_wreath_sylow(p, k))
    for mode, budget in zip(("set", "conjugacy"), STREAM_COUNTS[p, k]):
        count = 0
        for K, gens in search._iter_subgroup_sets(tables, p, mode, budget):
            count += 1
            assert p ** len(gens) <= K.bit_count()
            perms = [tables.elements[g] for g in gens]
            closure = naive_closure(tables.degree, perms)
            assert as_mask(tables, (tables.index[Permutation(x)._element] for x in closure)) == K
            assert tables.subgroup_class(K, gens) == nilpotency_class(tables.to_perm_group(K))
        assert count == budget


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2)])
def test_witness_generators_are_the_greedy_scan(p, k):
    # oracle through the naive closure alone: scan a subgroup's elements in
    # sorted-images order, keeping each one outside the closure of those kept
    tables = _Tables(iterated_wreath_sylow(p, k))
    count = 0
    for K, gens in search._iter_subgroup_sets(tables, p, "set", search.DEFAULT_BUDGET):
        count += 1
        members = sorted(naive_closure(tables.degree, [tables.elements[g] for g in gens]))
        kept, closure = [], {members[0]}
        for images in members:
            if images not in closure:
                kept.append(Permutation(images))
                closure = naive_closure(tables.degree, kept)
        assert tables.to_perm_group(K).generators == tuple(kept)
    assert count == STREAM_COUNTS[p, k][0]


# two towers and a non-tower p-group whose generators include central ones
STREAM_GROUPS = [
    pytest.param(lambda: iterated_wreath_sylow(2, 3), id="2-3"),
    pytest.param(lambda: iterated_wreath_sylow(3, 2), id="3-2"),
    pytest.param(lambda: dihedral_times_abelian(5, 2), id="dihedral-times-abelian-5-2"),
]


@pytest.mark.parametrize("group", STREAM_GROUPS)
def test_set_stream_is_the_union_of_the_conjugacy_orbits(group):
    # oracle through Permutation products and the naive closure alone: the
    # G-conjugates of every conjugacy-mode representative, level by level
    group = group()
    elements = [Permutation(im) for im in sorted(naive_closure(group.degree, group.generators))]
    expected = set()
    for rep in enumerate_subgroups(group, dedupe="conjugacy"):
        members = [Permutation(im) for im in naive_closure(rep.degree, rep.generators)]
        for g in elements:
            g_inv = g.inverse()
            expected.add(frozenset((g_inv * h * g).images for h in members))
    # order, then descending mask order: of one order, the larger mask holds
    # the least sorted elements
    images = [g.images for g in elements]
    expected = sorted(expected, key=lambda s: (len(s), [im not in s for im in images]))
    assert [as_element_set(H) for H in enumerate_subgroups(group, dedupe="set")] == expected


@pytest.mark.parametrize("group", STREAM_GROUPS)
def test_mask_transitivity_matches_the_orbits(group):
    group = group()
    tables = _Tables(group)
    p, _ = prime_power(len(tables.elements))
    for mode in ("set", "conjugacy"):
        for K, _ in search._iter_subgroup_sets(tables, p, mode, search.DEFAULT_BUDGET):
            assert tables.is_transitive(K) == tables.to_perm_group(K).is_transitive()


def test_mask_transitivity_at_degrees_zero_and_one():
    # perm's convention: the empty set has no orbit, a single point is one
    for degree in (0, 1):
        tables = _Tables(PermGroup(degree))
        transitive = tables.is_transitive(tables.trivial)
        assert transitive == PermGroup(degree).is_transitive() == bool(degree)


# set-mode refusals on tower(2,3) by budget: the count and digest of the
# subgroups yielded before each
SET_BUDGET_PINS = {
    10: (1, "9212c92d1310a865a8ce9b1bea68125b0ba10e07eb8b155c15bf0a33b17cbfec"),
    11: (1, "9212c92d1310a865a8ce9b1bea68125b0ba10e07eb8b155c15bf0a33b17cbfec"),
    100: (44, "92f3a5669a7b30df7228281c9c6682c09239f76eb74248ccd2a2c59b49bcaabf"),
}


@pytest.mark.parametrize("budget", sorted(SET_BUDGET_PINS))
def test_set_mode_refusal_is_pinned(budget):
    # the set stream counts every subgroup it yields, one at a time, so a
    # refusal names budget + 1 after the same prefix of whole levels
    count, prefix_digest = SET_BUDGET_PINS[budget]
    yielded = []
    with pytest.raises(
        GuardExceeded,
        match=f"^search budget exceeded: visited {budget + 1} subgroups, over the budget {budget}$",
    ):
        for H in enumerate_subgroups(iterated_wreath_sylow(2, 3), "set", max_count=budget):
            yielded.append(H.dumps())
    assert len(yielded) == count
    assert hashlib.sha256("".join(f"{s}\n" for s in yielded).encode()).hexdigest() == prefix_digest


def test_class_needs_the_normal_closure():
    # <a, b> of order 32 and class 3 in the degree-16 tower, where <[a, b]>
    # has order 2 but the commutator subgroup has order 4, so a lower central
    # series term must be a normal closure.  The tables read the class off
    # the upper central series, which needs none; the group stays as a
    # regression input, its class confirmed by perm's lower central series.
    a = Permutation((3, 2, 0, 1, 5, 4, 7, 6, 10, 11, 9, 8, 12, 13, 15, 14))
    b = Permutation((11, 10, 9, 8, 13, 12, 14, 15, 1, 0, 3, 2, 4, 5, 7, 6))
    G = PermGroup(16, [a, b])
    tables = _Tables(G)
    whole = as_mask(tables, range(len(tables.elements)))
    gens = [tables.index[a._element], tables.index[b._element]]
    assert (G.order(), nilpotency_class(G)) == (32, 3)
    assert tables.subgroup_class(whole, gens) == 3


def test_class_past_the_towers():
    # the dihedral group of order 64 has class 5, past the class 4 of the
    # largest admitted tower; every subgroup against perm's lower central series
    G = dihedral_times_abelian(6, 5)
    tables = _Tables(G)
    count = 0
    for K, gens in search._iter_subgroup_sets(tables, 2, "set", search.DEFAULT_BUDGET):
        count += 1
        assert tables.subgroup_class(K, gens) == nilpotency_class(tables.to_perm_group(K))
    assert (G.order(), nilpotency_class(G), count) == (64, 5, 69)  # tau(32) + sigma(32)


def test_class_of_a_non_nilpotent_group_stalls():
    # S_3 has trivial center, so its upper central series stalls at {1}
    S3 = PermGroup(3, [Permutation.from_cycles(3, (0, 1, 2)), Permutation.from_cycles(3, (0, 1))])
    tables = _Tables(S3)
    with pytest.raises(AssertionError, match="stalled"):
        tables.subgroup_class(as_mask(tables, range(6)), tables.gen_indices)


class TestDegreeFourCompleteness:
    def test_transitive_subgroups_match_symmetric_group_oracle(self):
        # independent enumeration of all 2-power subgroups of the full
        # symmetric group on 4 points (every subgroup there is 2-generated)
        sym4 = PermGroup(
            4, [Permutation.from_cycles(4, (0, 1, 2, 3)), Permutation.from_cycles(4, (0, 1))]
        )
        all_subgroups = brute_force_subgroups(sym4, max_generators=2)
        tower = iterated_wreath_sylow(2, 2)
        tower_elements = as_element_set(tower)

        def transitive(subgroup):
            return len({im[0] for im in subgroup}) == 4

        oracle = {
            s
            for s in all_subgroups
            if len(s) & (len(s) - 1) == 0 and transitive(s) and s <= tower_elements
        }
        found = {
            as_element_set(H)
            for H in enumerate_subgroups(tower)
            if H.is_transitive()
        }
        assert found == oracle
        assert len(found) == 3  # cyclic, Klein, dihedral
        assert sorted(len(s) for s in found) == [4, 4, 8]


class TestFnilExact:
    def test_degree_two_row(self):
        assert fnil_exact(2, 1, 8).exponents == (1,) * 8

    def test_degree_four_row(self):
        assert fnil_exact(2, 2, 4).exponents == (2, 3, 3, 3)

    def test_degree_eight_row(self):
        row = fnil_exact(2, 3, 8)
        assert row.exponents == (3, 5, 6, 7, 7, 7, 7, 7)

    def test_degree_three_row(self):
        assert fnil_exact(3, 1, 2).exponents == (1, 1)

    def test_degree_nine_row(self):
        # class-1 entry forced by regular abelian, class-2 entry by the exact
        # value, class-3 entry confirmed by this exhaustive run
        row = fnil_exact(3, 2, 3)
        assert row.exponents == (2, 3, 4)

    def test_set_and_conjugacy_modes_agree(self):
        # whole rows, witnesses included, at every degree the guard admits
        for p, k in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
            a = fnil_exact(p, k, 6, dedupe="set").to_json()
            b = fnil_exact(p, k, 6, dedupe="conjugacy").to_json()
            assert a == b, (p, k)

    @pytest.mark.parametrize(
        "p, k, c_max", [(4, 1, 2), (9, 1, 2), (8, 1, 3), (1, 3, 2), (0, 2, 2), (-2, 2, 2)]
    )
    def test_p_must_be_prime(self, p, k, c_max):
        # without the check these gave rows for towers that are not p-groups,
        # an IndexError or an AssertionError
        with pytest.raises(ValueError, match=f"^p must be prime, got {p}$"):
            fnil_exact(p, k, c_max)

    def test_guard_refuses_degree_sixteen(self):
        with pytest.raises(GuardExceeded, match="exceeds exhaustive search guard"):
            fnil_exact(2, 4, 2)

    def test_row_invariants(self):
        for p, k in [(2, 2), (2, 3), (3, 2)]:
            row = fnil_exact(p, k, 6)
            assert row.exponents[0] == k
            assert all(a <= b for a, b in zip(row.exponents, row.exponents[1:]))
            assert row.exponents[-1] <= sylow_exponent(p, k)
            for c, e in enumerate(row.exponents, start=1):
                assert e <= f_upper(k, c)
            if row.c_max >= 2:
                assert row.exponents[1] == class2_exponent(k)

    def test_witnesses_reproduce_their_claims(self):
        row = fnil_exact(2, 3, 5)
        for c, witness in enumerate(row.witnesses, start=1):
            reloaded = PermGroup.from_json(json.loads(json.dumps(witness.to_json())))
            assert reloaded.degree == 8
            assert reloaded.is_transitive()
            assert reloaded.order() == 2 ** row.exponents[c - 1]
            assert nilpotency_class(reloaded) <= c

    def test_deterministic_json(self):
        first = json.dumps(fnil_exact(2, 3, 4).to_json(), sort_keys=True)
        second = json.dumps(fnil_exact(2, 3, 4).to_json(), sort_keys=True)
        assert first == second


class TestAuditRow:
    def test_real_rows_pass(self):
        for p, k in [(2, 2), (2, 3), (3, 2)]:
            report = audit_row(fnil_exact(p, k, 5))
            assert report.ok, report.to_json()

    def test_table_row_includes_class2_value(self):
        report = audit_row(fnil_exact(2, 3, 4))
        class2 = [c for c in report.checks if c.name == "class2-exact"]
        assert len(class2) == 1 and class2[0].passed
        assert "5" in class2[0].detail

    def test_abelian_regular_violation_detected(self):
        row = fnil_exact(2, 2, 2)
        fake = SearchRow(2, 2, 2, (3, 3), row.witnesses)
        report = audit_row(fake)
        assert not report.ok
        failed = {c.name for c in report.checks if not c.passed}
        assert "abelian-regular" in failed

    def test_upper_bound_violation_detected(self):
        row = fnil_exact(2, 2, 2)
        fake = SearchRow(2, 2, 2, (2, 99), row.witnesses)
        report = audit_row(fake)
        assert not report.ok
        failed = {c.name for c in report.checks if not c.passed}
        assert "composition-upper-bound[c=2]" in failed

    def test_non_nilpotent_witness_is_reported_not_raised(self):
        report = audit_row(SearchRow(3, 1, 1, (1,), (sym3(),)))
        assert not report.ok
        [witness] = [c for c in report.checks if c.name == "witness-valid[c=1]"]
        assert not witness.passed
        assert witness.detail == "degree 3, order 6, not nilpotent"


def test_reference_rows_are_self_consistent():
    # monotone in c, bounded by the tower exponent and the composition
    # maximum, and starting at the regular abelian value
    for k, row in TABLE2_REFERENCE.items():
        assert row[0] == k
        assert all(a <= b for a, b in zip(row, row[1:]))
        assert row[-1] <= sylow_exponent(2, k)
        for c, e in enumerate(row, start=1):
            assert e <= f_upper(k, c), (k, c)
        if k >= 2:
            assert row[1] == class2_exponent(k)


def test_exhaustive_rows_match_reference_table():
    for k in (1, 2, 3):
        row = fnil_exact(2, k, 16)
        assert row.exponents == TABLE2_REFERENCE[k]


# every tower the exhaustive search guard admits, with the set / conjugacy
# stream lengths of the three that have more than a handful of subgroups
SEARCH_TOWERS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]
STREAM_COUNTS = {(2, 2): (10, 8), (2, 3): (576, 177), (3, 2): (50, 20)}


def test_subgroup_stream_is_pinned():
    # a rewrite of the extension step must yield these exact subgroups in
    # this exact order, and the search rows built from them
    digest = hashlib.sha256()
    for p, k in SEARCH_TOWERS:
        tower = iterated_wreath_sylow(p, k)
        counts = []
        for mode in ("set", "conjugacy"):
            count = 0
            for H in enumerate_subgroups(tower, dedupe=mode):
                digest.update(f"{p} {k} {mode} {H.dumps()}\n".encode())
                count += 1
            counts.append(count)
            row = json.dumps(fnil_exact(p, k, 8, dedupe=mode).to_json(), sort_keys=True)
            digest.update(f"{p} {k} {mode} row {row}\n".encode())
        if (p, k) in STREAM_COUNTS:
            assert tuple(counts) == STREAM_COUNTS[p, k]
    assert digest.hexdigest() == "bc65657dc06507d160eee2f518144320d6b7841daf7b9f01fe31bc076ab81ca9"
