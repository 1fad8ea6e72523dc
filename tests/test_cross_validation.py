"""Cross-validation against an independent implementation (sympy).

The closure oracle in conftest is capped at 10^4 elements, so groups past
that cap (the degree-16 tower has order 2^15) only get formula-level checks
elsewhere.  sympy.combinatorics shares no code with this package, which
makes it a true second opinion on orders, stabilizers and series.
"""

import functools
import operator

import pytest

sympy_comb = pytest.importorskip("sympy.combinatorics")

from sympy.combinatorics import Permutation as SymPerm
from sympy.combinatorics import PermutationGroup as SymGroup

from nilbound import perm
from nilbound.constructions import (
    _KINDS,
    affine_unitriangular,
    blueprint_from_json,
    iterated_wreath_sylow,
    realize,
    wreath_polynomial_group,
)
from nilbound.perm import PermGroup, Permutation, center, lower_central_series
from nilbound.search import enumerate_subgroups

from conftest import (
    NAIVE_CLOSURE_LIMIT,
    WITNESS_BLUEPRINTS,
    abelian_groups,
    assert_chain_verified,
    build_corpus,
    cyclic,
    naive_closure,
    stabilizer_levels,
    stabilizer_order,
)


def to_sympy(group):
    if not group.generators:
        return SymGroup(SymPerm(list(range(group.degree))))
    return SymGroup([SymPerm(list(g.images)) for g in group.generators])


def test_corpus_orders_match(corpus):
    for name, G in corpus:
        assert G.order() == to_sympy(G).order(), name


def test_corpus_series_profiles_match(corpus):
    for name, G in corpus:
        ours = lower_central_series(G).order_profile()
        assert ours == [t.order() for t in to_sympy(G).lower_central_series()], name


def test_large_tower_order_and_class():
    W = iterated_wreath_sylow(2, 4)
    sym = to_sympy(W)
    assert W.order() == sym.order() == 2**15
    ours = lower_central_series(W)
    theirs = sym.lower_central_series()
    assert ours.order_profile() == [t.order() for t in theirs]


def test_point_stabilizers_match():
    for G in (iterated_wreath_sylow(2, 3), affine_unitriangular(3, 2, 1)):
        sym = to_sympy(G)
        for point in range(0, G.degree, 3):
            assert stabilizer_order(G, point) == sym.stabilizer(point).order()


def test_centers_match():
    for G in (
        iterated_wreath_sylow(2, 3),
        affine_unitriangular(2, 3, 1),
        wreath_polynomial_group(2, 1, 3, 2),
    ):
        assert center(G).order() == to_sympy(G).center().order()


def assert_center_matches_sympy(G):
    """Same order and ours inside sympy's, so the two centers are equal."""
    ours = center(G)
    theirs = to_sympy(G).center()
    assert ours.order() == theirs.order()
    assert all(theirs.contains(SymPerm(list(z.images))) for z in ours.generators)


# one realized group per registry kind, each within center's element limit
CENTER_BLUEPRINTS = {
    "affine-unitriangular": {"p": 2, "k": 4, "m": 2},
    "abelian-class2": {"p": 2, "k": 4, "m": 2, "a": 1},
    "sylow-wreath": {"p": 3, "k": 2},
    "wreath-polynomial": {"p": 2, "u": 2, "v": 2, "c": 2},
    "dihedral-abelian": {"k": 5, "c": 3},
}


def test_centers_of_every_kind_match():
    assert set(CENTER_BLUEPRINTS) == set(_KINDS)
    for kind, params in CENTER_BLUEPRINTS.items():
        G = realize(blueprint_from_json({"kind": kind, "params": params}))
        assert G.is_transitive(), kind
        assert_center_matches_sympy(G)


def test_centers_off_base_point_0_match():
    # a first generator that fixes point 0 moves the chain's base point off 0
    moved = 0
    for kind, params in CENTER_BLUEPRINTS.items():
        G = realize(blueprint_from_json({"kind": kind, "params": params}))
        stabilizer = [s for level in stabilizer_levels(G, 0) for s in level.gens]
        if not stabilizer:
            continue
        H = PermGroup(G.degree, (Permutation(stabilizer[0]),) + G.generators)
        assert H._levels()[0].point != 0, kind
        assert_center_matches_sympy(H)
        moved += 1
    assert moved >= 4


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2)])
def test_centers_of_transitive_tower_subgroups_match(p, k):
    transitive = [H for H in enumerate_subgroups(iterated_wreath_sylow(p, k)) if H.is_transitive()]
    assert transitive
    for H in transitive:
        assert_center_matches_sympy(H)


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2)])
def test_center_generators_do_not_depend_on_the_base_point(p, k):
    # the candidates come in the order of their image of point 0, so moving
    # the chain's base point leaves the center's generators as they were
    moved = 0
    for G in enumerate_subgroups(iterated_wreath_sylow(p, k)):
        stabilizer = [s for level in stabilizer_levels(G, 0) for s in level.gens]
        if not G.is_transitive() or not stabilizer:
            continue
        first = next(g for g in G.generators if g(0) != 0)
        at_0 = PermGroup(G.degree, (first,) + G.generators)
        off_0 = PermGroup(G.degree, (Permutation(stabilizer[0]),) + G.generators)
        assert at_0._levels()[0].point == 0 != off_0._levels()[0].point
        assert center(off_0).generators == center(at_0).generators
        moved += 1
    assert moved


@pytest.mark.parametrize("G", [pytest.param(G, id=name) for name, G in abelian_groups()])
def test_abelian_centers_match(G):
    assert_center_matches_sympy(G)


def test_center_of_intransitive_group_matches():
    # a dihedral group on points 0..3 beside a 3-cycle on 4..6: the element scan
    G = PermGroup(
        7,
        [
            Permutation.from_cycles(7, (0, 1, 2, 3)),
            Permutation.from_cycles(7, (0, 2)),
            Permutation.from_cycles(7, (4, 5, 6)),
        ],
    )
    assert not G.is_transitive()
    assert_center_matches_sympy(G)


def test_center_past_the_default_limit_matches(monkeypatch):
    G = wreath_polynomial_group(2, 3, 3, 3)
    assert G.order() == 2**24
    monkeypatch.setattr(perm, "ELEMENT_LIMIT", 2**30)
    assert_center_matches_sympy(G)


def test_series_profiles_match():
    # the chain engine stores an element of degree n <= 256 as n bytes and
    # a larger one as a tuple: degrees 1 and 2 are its shortest byte
    # strings, 255 and 256 its longest, 257 the first past them
    for G in (
        iterated_wreath_sylow(3, 2),
        affine_unitriangular(2, 4, 2),
        wreath_polynomial_group(2, 2, 2, 2),
        *(cyclic(n) for n in (1, 2, 255, 256, 257)),
        affine_unitriangular(2, 8, 1),
    ):
        sym = to_sympy(G)
        assert G.order() == sym.order()
        ours = lower_central_series(G).order_profile()
        theirs = [t.order() for t in sym.lower_central_series()]
        assert ours == theirs
        # the transposition (0 1) lies in C2 alone; at degree 1 the
        # identity stands in for it
        outsider = Permutation.from_cycles(G.degree, (0, 1)) if G.degree > 1 else G.identity
        assert (outsider in G) == sym.contains(SymPerm(list(outsider.images)))
        assert all(g in G for g in (*G.generators, functools.reduce(operator.mul, G.generators)))
        if G.order() <= NAIVE_CLOSURE_LIMIT:
            closure = naive_closure(G.degree, G.generators)
            assert {g.images for g in G.elements()} == closure and len(closure) == G.order()


@pytest.mark.parametrize("p, k, cls", [(2, 4, 8), (2, 5, 16), (3, 3, 9)])
def test_tower_series_profiles_match(p, k, cls):
    W = iterated_wreath_sylow(p, k)
    ours = lower_central_series(W)
    theirs = [t.order() for t in to_sympy(W).lower_central_series()]
    assert ours.order_profile() == theirs
    assert ours.nilpotency_class == len(theirs) - 1 == cls


def relistings(G):
    """G's generators listed again: each twice, after the identity, and
    with the product of each and the next inserted after it."""
    gens = G.generators
    products = [x for i, g in enumerate(gens) for x in (g, g * gens[(i + 1) % len(gens)])]
    return [[g for g in gens for _ in range(2)], [G.identity, *gens], products]


def test_relisted_generators_keep_the_series_and_the_center(corpus):
    # the normal generators, and with them the series seeds and the
    # closures' conjugators, depend on how the generators are listed; the
    # series profile and the center must not
    for name, G in corpus:
        sym = to_sympy(G)
        profile = [t.order() for t in sym.lower_central_series()]
        center_order = sym.center().order()
        for gens in relistings(G):
            H = PermGroup(G.degree, gens)
            assert lower_central_series(H).order_profile() == profile, (name, len(gens))
            assert center(H).order() == center_order, (name, len(gens))


def adjoin_groups(source):
    """The nilpotent groups whose chains the push loop grows, by source."""
    if source == "corpus":
        return [G for name, G in build_corpus() if name != "S3"]
    if source == "center-blueprints":
        return [realize(blueprint_from_json({"kind": k, "params": v})) for k, v in CENTER_BLUEPRINTS.items()]
    if source == "witness":
        return [realize(blueprint_from_json(bp)) for bp in WITNESS_BLUEPRINTS]
    return list(enumerate_subgroups(iterated_wreath_sylow(*source), dedupe="set"))


@pytest.mark.parametrize(
    "source, count",
    [("corpus", 28), ("center-blueprints", 5), ("witness", 11), ((2, 2), 10), ((2, 3), 576), ((3, 2), 50)],
    ids=["corpus", "center-blueprints", "witness", "tower(2,2)", "tower(2,3)", "tower(3,2)"],
)
def test_adjoin_chains_are_verified(monkeypatch, source, count):
    # every chain the push loop grows for G, its series terms and its
    # center passes the from-scratch oracle with the generators of the
    # group that keeps it; G's order and series profile match sympy's
    chains = []
    real_close = perm._close

    def close(levels, *args):
        if all(levels is not seen for seen in chains):
            chains.append(levels)
        return real_close(levels, *args)

    groups = adjoin_groups(source)
    assert len(groups) == count
    monkeypatch.setattr(perm, "_close", close)
    for G in groups:
        G = PermGroup(G.degree, G.generators)  # no chain yet
        chains.clear()
        series = lower_central_series(G)
        kept = [G, *series.terms]
        if G.order() <= perm.ELEMENT_LIMIT:
            kept.append(center(G))
        generators = {id(H._levels()): H.generators for H in kept}
        assert G.order() <= 1 or chains, G.generators
        for levels in chains:
            assert id(levels) in generators, G.generators
            assert_chain_verified(levels, generators[id(levels)])
        theirs = to_sympy(G).lower_central_series()
        assert series.order_profile() == [t.order() for t in theirs], G.generators
