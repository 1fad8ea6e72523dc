"""Shared fixtures: the test corpus and independent oracles.

The oracles here deliberately avoid the stabilizer-chain engine: closure is
plain breadth-first multiplication of image tuples, so order/membership
results can be checked against an implementation with nothing in common.
"""

from __future__ import annotations

import math
import operator

import pytest

from nilbound import perm
from nilbound.bounds import composition_value
from nilbound.constructions import (
    abelian_class2_group,
    affine_unitriangular,
    dihedral_times_abelian,
    iterated_wreath_sylow,
    product_action,
    wreath_polynomial_group,
)
from nilbound.perm import PermGroup, Permutation

NAIVE_CLOSURE_LIMIT = 10_000

# a nilpotent group that is not a p-group: degree 9 * 8 = 72, order 3^3 * 2^7
MIXED_PRODUCT = {
    "kind": "product",
    "params": {
        "factors": [
            {"kind": "affine-unitriangular", "params": {"p": 3, "k": 2, "m": 1}},
            {"kind": "sylow-wreath", "params": {"p": 2, "k": 3}},
        ]
    },
}

# the witness groups: every blueprint kind up to the degree-64
# wreath/polynomial groups, MIXED_PRODUCT, and one of order 2^24, past the
# center's element limit
WITNESS_BLUEPRINTS = [
    {"kind": "affine-unitriangular", "params": {"p": 2, "k": 6, "m": 3}},
    {"kind": "abelian-class2", "params": {"p": 2, "k": 6, "m": 3, "a": 1}},
    {"kind": "sylow-wreath", "params": {"p": 2, "k": 4}},
    {"kind": "sylow-wreath", "params": {"p": 3, "k": 2}},
    {"kind": "wreath-polynomial", "params": {"p": 2, "u": 3, "v": 3, "c": 4}},
    {"kind": "wreath-polynomial", "params": {"p": 2, "u": 2, "v": 4, "c": 3}},
    {"kind": "wreath-polynomial", "params": {"p": 3, "u": 1, "v": 2, "c": 3}},
    {"kind": "dihedral-abelian", "params": {"k": 6, "c": 4}},
    {"kind": "dihedral-abelian", "params": {"k": 6, "c": 5}},
    MIXED_PRODUCT,
    {"kind": "wreath-polynomial", "params": {"p": 2, "u": 3, "v": 3, "c": 3}},
]


def naive_closure(degree: int, gens, limit: int = NAIVE_CLOSURE_LIMIT) -> set[tuple[int, ...]]:
    """All products of the generators, as image tuples (oracle for order and
    membership, independent of the stabilizer chain)."""
    gen_images = [g.images for g in gens]
    identity = tuple(range(degree))
    closed = {identity}
    frontier = [identity]
    while frontier:
        a = frontier.pop()
        for b in gen_images:
            c = tuple(b[x] for x in a)
            if c not in closed:
                if len(closed) >= limit:
                    raise RuntimeError(f"naive closure exceeded {limit} elements")
                closed.add(c)
                frontier.append(c)
    return closed


def compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The image tuple of "apply a, then b"."""
    return tuple(b[x] for x in a)


def assert_chain_verified(levels, generators) -> None:
    """Re-verify a stabilizer chain of image tuples from scratch (oracle for
    the incremental chain builder, sharing none of its bookkeeping or its
    products): each strong generator fixes the base points above its level
    and moves its own, each transversal entry u_x sends the base point to x
    and cancels with its stored inverse, every Schreier generator
    u_x * s * u_{x^s}^-1 of level i (s over the generators at levels >= i)
    sifts to the identity through the deeper levels, and so does every one
    of the given generators (Permutations)."""

    def sifts_to_identity(h, deeper) -> bool:
        for level in deeper:
            x = h[level.point]
            if x not in level.transversal:
                return False
            h = compose(h, level.inverses[x])
        return h == tuple(range(len(h)))

    for i, level in enumerate(levels):
        for s in level.gens:
            assert s[level.point] != level.point
            assert all(s[above.point] == above.point for above in levels[:i])
        assert level.transversal.keys() == level.inverses.keys()
        gens = [s for deeper in levels[i:] for s in deeper.gens]
        for x, u in level.transversal.items():
            assert u[level.point] == x
            assert compose(u, level.inverses[x]) == tuple(range(len(u)))
            for s in gens:
                y = s[x]
                assert y in level.transversal, "orbit not closed"
                schreier = compose(compose(u, s), level.inverses[y])
                assert sifts_to_identity(schreier, levels[i + 1 :]), (i, x, s)
    assert all(sifts_to_identity(g.images, levels) for g in generators)


def build_chain(G: PermGroup, point: int) -> list:
    """A verified Schreier-Sims chain of G based first at point."""
    gens = [perm._element(g.images) for g in G.generators]
    return perm._build_chain([perm._Level(point, perm._one(G.degree))], gens)


def stabilizer_levels(G: PermGroup, point: int) -> list:
    """A verified chain of the stabilizer of point in G: the levels below
    the first of a Schreier-Sims chain of G based at point."""
    return build_chain(G, point)[1:]


def stabilizer_order(G: PermGroup, point: int) -> int:
    return math.prod(len(level.transversal) for level in stabilizer_levels(G, point))


def compositions(k: int, c: int):
    """All compositions of k into c non-negative parts, lexicographically."""
    if c == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in compositions(k - first, c - 1):
            yield (first, *rest)


def brute_force_maximum(k: int, c: int) -> tuple[int, tuple[int, ...]]:
    """The composition maximum and its lexicographically least witness, by
    scoring every composition (oracle for the dynamic program)."""
    best, witness = -1, ()
    for parts in compositions(k, c):
        value = composition_value(parts)
        if value > best:
            best, witness = value, parts
    return best, witness


def suffix_dp_maximum(k: int, c: int) -> tuple[int, tuple[int, ...]]:
    """The composition maximum and its lexicographically least witness, by a
    backward suffix dynamic program in O(k*k*c) (oracle for the forward pass,
    sharing none of its envelope or tie-break): best[i][s] is the best score
    of parts i..c after the prefix sum s, the maximum over the next part t of
    t * (1 + s + ... + s^(i-1)) plus best[i + 1][s + t], and the smallest
    such t, part by part, gives the witness."""

    def geometric(s: int, i: int) -> int:  # 1 + s + ... + s^(i-1)
        return i if s == 1 else (s**i - 1) // (s - 1)

    best = [[]] * c + [[(k - s) * geometric(s, c) for s in range(k + 1)]]
    for i in range(c - 1, 0, -1):
        # t * g for t = 0..k-s, paired with best[i + 1][s + t]
        best[i] = [max(map(operator.add, range(0, (k - s) * g + 1, g), best[i + 1][s:]))
                   for s, g in enumerate(geometric(s, i) for s in range(k + 1))]
    parts, s = [], 0
    for i in range(1, c):
        g = geometric(s, i)
        parts.append(next(t for t in range(k - s + 1) if t * g + best[i + 1][s + t] == best[i][s]))
        s += parts[-1]
    parts.append(k - s)
    return best[1][0], tuple(parts)


def cyclic(n: int) -> PermGroup:
    return PermGroup(n, [Permutation.from_cycles(n, tuple(range(n)))])


def klein_four() -> PermGroup:
    return PermGroup(
        4,
        [Permutation.from_cycles(4, (0, 1), (2, 3)), Permutation.from_cycles(4, (0, 2), (1, 3))],
    )


def sym3() -> PermGroup:
    return PermGroup(3, [Permutation.from_cycles(3, (0, 1, 2)), Permutation.from_cycles(3, (0, 1))])


def abelian_groups() -> list[tuple[str, PermGroup]]:
    """Abelian groups, transitive and not: each is its own center."""
    return [
        ("C12", cyclic(12)),
        ("V4", klein_four()),
        ("affine(2,3,0)", affine_unitriangular(2, 3, 0)),
        (
            "C3xC2 on 5 points",
            PermGroup(5, [Permutation.from_cycles(5, (0, 1, 2)), Permutation.from_cycles(5, (3, 4))]),
        ),
    ]


def build_corpus() -> list[tuple[str, PermGroup]]:
    """Groups of order <= 10^4 exercising every construction family."""
    # the tower's chain is based at point 0, so its levels below the first
    # are a chain of the stabilizer of 0
    tower = iterated_wreath_sylow(2, 3)._levels()
    assert tower[0].point == 0
    corpus: list[tuple[str, PermGroup]] = [
        ("trivial4", PermGroup(4)),
        ("C2", cyclic(2)),
        ("C3", cyclic(3)),
        ("C4", cyclic(4)),
        ("C5", cyclic(5)),
        ("V4", klein_four()),
        ("S3", sym3()),
        ("D4", iterated_wreath_sylow(2, 2)),
        ("W(2,3)", iterated_wreath_sylow(2, 3)),
        ("W(3,2)", iterated_wreath_sylow(3, 2)),
        ("affine(2,2,1)", affine_unitriangular(2, 2, 1)),
        ("affine(2,3,1)", affine_unitriangular(2, 3, 1)),
        ("affine(2,4,2)", affine_unitriangular(2, 4, 2)),
        ("affine(3,2,1)", affine_unitriangular(3, 2, 1)),
        ("affine(5,2,1)", affine_unitriangular(5, 2, 1)),
        ("abelian2(2,2,1,0)", abelian_class2_group(2, 2, 1, 0)),
        ("abelian2(2,2,1,1)", abelian_class2_group(2, 2, 1, 1)),
        ("abelian2(2,3,1,1)", abelian_class2_group(2, 3, 1, 1)),
        ("abelian2(3,3,1,1)", abelian_class2_group(3, 3, 1, 1)),
        ("wpoly(2,1,1,2)", wreath_polynomial_group(2, 1, 1, 2)),
        ("wpoly(2,2,2,2)", wreath_polynomial_group(2, 2, 2, 2)),
        ("wpoly(2,1,3,2)", wreath_polynomial_group(2, 1, 3, 2)),
        ("wpoly(3,1,1,3)", wreath_polynomial_group(3, 1, 1, 3)),
        ("dihedral(3,2)", dihedral_times_abelian(3, 2)),
        ("dihedral(4,2)", dihedral_times_abelian(4, 2)),
        ("dihedral(4,3)", dihedral_times_abelian(4, 3)),
        ("dihedral(5,4)", dihedral_times_abelian(5, 4)),
        ("D4xC3", product_action(iterated_wreath_sylow(2, 2), cyclic(3))),
        ("stab(W(2,3),0)", PermGroup(8, [Permutation(tuple(g)) for lv in tower[1:] for g in lv.gens])),
    ]
    return corpus


@pytest.fixture(scope="session")
def corpus() -> list[tuple[str, PermGroup]]:
    return build_corpus()
