"""Property-based checks of the group engine on random generator sets."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilbound import perm
from nilbound.perm import PermGroup, Permutation, commutator

from conftest import assert_chain_verified, naive_closure, stabilizer_order


def permutations_of(degree: int):
    return st.permutations(range(degree)).map(Permutation)


@st.composite
def small_groups(draw):
    degree = draw(st.integers(min_value=1, max_value=6))
    gens = draw(st.lists(permutations_of(degree), max_size=3))
    return PermGroup(degree, gens)


@st.composite
def permutation_pairs(draw):
    degree = draw(st.integers(min_value=0, max_value=9))
    return draw(permutations_of(degree)), draw(permutations_of(degree))


def reversal_and_rotation(degree: int) -> tuple[Permutation, Permutation]:
    return Permutation(range(degree - 1, -1, -1)), Permutation.from_cycles(degree, tuple(range(degree)))


@example((Permutation(()), Permutation(())))
@example((Permutation((0,)), Permutation((0,))))
@example(reversal_and_rotation(255))
@example(reversal_and_rotation(256))  # the last degree stored as bytes
@example(reversal_and_rotation(257))  # the first stored as a _Wide tuple
@given(permutation_pairs())
def test_kernel_matches_naive_loops(pair):
    a, b = pair
    n = a.degree
    assert type(a.images) is tuple
    assert hash(a) == hash(Permutation(a.images))
    assert (a * b).images == tuple(b.images[x] for x in a.images)
    for p in (a, a * a.inverse()):
        assert p.is_identity() == (p.images == tuple(range(n)))
    assert commutator(a, b) == a.inverse() * b.inverse() * a * b
    assert Permutation.identity(n).images == tuple(range(n))


@given(permutations_of(6), permutations_of(6), permutations_of(6))
def test_composition_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(permutations_of(7))
def test_inverse_cancels(p):
    assert (p * p.inverse()).is_identity()
    assert p.inverse().inverse() == p


@given(permutations_of(5), permutations_of(5))
def test_inverse_antihomomorphism(a, b):
    assert (a * b).inverse() == b.inverse() * a.inverse()


@settings(max_examples=60, deadline=None)
@given(small_groups())
def test_order_matches_naive_closure(G):
    closure = naive_closure(G.degree, G.generators, limit=1000)
    assert G.order() == len(closure)
    for images in closure:
        assert Permutation(images) in G


@settings(max_examples=40, deadline=None)
@given(small_groups())
def test_orbit_stabilizer_identity(G):
    for point in range(G.degree):
        assert G.order() == len(G.orbit(point)) * stabilizer_order(G, point)


@settings(max_examples=40, deadline=None)
@given(small_groups(), st.data())
def test_membership_rejects_outsiders(G, data):
    candidate = data.draw(permutations_of(G.degree))
    closure = naive_closure(G.degree, G.generators, limit=1000)
    assert (candidate in G) == (candidate.images in closure)


@settings(max_examples=40, deadline=None)
@given(small_groups(), st.data())
def test_normal_closure_matches_naive_closure(G, data):
    closure = sorted(naive_closure(G.degree, G.generators, limit=1000))
    elements = [Permutation(images) for images in closure]
    seed = data.draw(st.sampled_from(elements))
    conjugates = [g.inverse() * seed * g for g in elements]
    assert G._closure([perm._element(seed.images)])[0].order() == len(
        naive_closure(G.degree, conjugates, limit=1000)
    )


@settings(max_examples=40, deadline=None)
@given(small_groups(), st.data())
def test_chains_pass_the_independent_oracle(G, data):
    assert_chain_verified(G._levels(), G.generators)
    # a normal closure grows its chain one kept generator at a time
    seeds = data.draw(st.lists(st.sampled_from(G.elements()), max_size=3))
    N = G._closure([perm._element(s.images) for s in seeds])[0]
    assert_chain_verified(N._levels(), N.generators + tuple(seeds))
