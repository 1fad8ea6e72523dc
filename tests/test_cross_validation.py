"""Cross-validation against an independent implementation (sympy).

The closure oracle in conftest is capped at 10^4 elements, so groups past
that cap (the degree-16 tower has order 2^15) only get formula-level checks
elsewhere.  sympy.combinatorics shares no code with this package, which
makes it a true second opinion on orders, stabilizers and series.
"""

import pytest

sympy_comb = pytest.importorskip("sympy.combinatorics")

from sympy.combinatorics import Permutation as SymPerm
from sympy.combinatorics import PermutationGroup as SymGroup

from nilbound.constructions import (
    affine_unitriangular,
    iterated_wreath_sylow,
    wreath_polynomial_group,
)
from nilbound.perm import center, lower_central_series


def to_sympy(group):
    if not group.generators:
        return SymGroup(SymPerm(list(range(group.degree))))
    return SymGroup([SymPerm(list(g.images)) for g in group.generators])


def test_corpus_orders_match(corpus):
    for name, G in corpus:
        assert G.order() == to_sympy(G).order(), name


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
            assert G.point_stabilizer(point).order() == sym.stabilizer(point).order()


def test_centers_match():
    for G in (
        iterated_wreath_sylow(2, 3),
        affine_unitriangular(2, 3, 1),
        wreath_polynomial_group(2, 1, 3, 2),
    ):
        assert center(G).order() == to_sympy(G).center().order()


def test_series_profiles_match():
    for G in (
        iterated_wreath_sylow(3, 2),
        affine_unitriangular(2, 4, 2),
        wreath_polynomial_group(2, 2, 2, 2),
    ):
        ours = lower_central_series(G).order_profile()
        theirs = [t.order() for t in to_sympy(G).lower_central_series()]
        assert ours == theirs


@pytest.mark.parametrize("p, k, cls", [(2, 4, 8), (2, 5, 16), (3, 3, 9)])
def test_tower_series_profiles_match(p, k, cls):
    W = iterated_wreath_sylow(p, k)
    ours = lower_central_series(W)
    theirs = [t.order() for t in to_sympy(W).lower_central_series()]
    assert ours.order_profile() == theirs
    assert ours.nilpotency_class == len(theirs) - 1 == cls
