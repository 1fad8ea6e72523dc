"""Explicit transitive p-group constructions realized as permutation groups.

Every builder lists its points and gives each generator as a map on them;
a point's index is its position in the builder's point list, so these
orders fix the generator JSON bit-for-bit:

* affine_unitriangular: the vectors of F_p^k, little-endian, so
  index = sum v_i * p^i;
* abelian_class2_group: the mixed-radix tuples of C_{p^2}^a x C_p^(k-2a),
  first coordinate most significant;
* iterated_wreath_sylow: the integers 0 .. p^k - 1;
* wreath_polynomial_group: the pairs (x, y) of little-endian vectors of
  F_p^u x F_p^v, row-major, so index = index(x) * p^v + index(y);
* dihedral_times_abelian: the triples (rotation, reflection, bits) in
  C_{2^c} x C_2 x F_2^(k-c-1) (bits as an integer mask), first coordinate
  most significant;
* product_action: the pairs (i, j) of points of G and H, row-major, so
  index = i * deg(H) + j.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .bounds import SCORE_DIGIT_LIMIT, prime_power
from .perm import GuardExceeded, PermGroup, Permutation

# Realization degree limits.  Every degree-256 group of the other kinds builds
# and verifies in a few seconds; the tower and the polynomial groups have long
# lower central series, so they stop lower.
SYLOW_DEGREE_GUARD = 32
WREATH_POLY_DEGREE_GUARD = 64
DEGREE_GUARD = 256

# require_prime divides by every d <= sqrt(p): about 0.1 s at this limit
PRIME_LIMIT = 2**40


def _guard_degree(degree: int, limit: int) -> None:
    if degree > limit:
        raise GuardExceeded(f"degree {degree} exceeds realization guard {limit}")


def _action(points: Sequence, maps: Iterable[Callable]) -> PermGroup:
    """The group generated by maps, each a function on points, acting on the
    indices of points: a point's index is its position in points."""
    index = {x: i for i, x in enumerate(points)}
    return PermGroup(len(index), [Permutation([index[f(x)] for x in points]) for f in maps])


def _bump(v: tuple[int, ...], i: int, d: int, radix: int) -> tuple[int, ...]:
    """v with coordinate i increased by d modulo radix."""
    return v[:i] + ((v[i] + d) % radix,) + v[i + 1:]


def _vectors(p: int, length: int):
    """All vectors of F_p^length, little-endian (the first coordinate least
    significant)."""
    return [v[::-1] for v in itertools.product(range(p), repeat=length)]


def affine_unitriangular(p: int, k: int, m: int) -> PermGroup:
    """Translations of F_p^k together with the block-unitriangular maps that
    add linear functions of the last k-m coordinates to the first m.

    Acts on the p^k vectors; order p^(k + m(k-m)); class exactly 2 for
    k > 1 with 1 <= m <= k-1, and 1 (abelian regular) in the degenerate
    cases m in {0, k}.
    """
    if not 0 <= m <= k:
        raise ValueError(f"m={m} out of range 0..{k}")
    # translations v -> v + e_i, then v -> v + v[m+i] * e_j for j < m <= m+i
    translations = [lambda v, i=i: _bump(v, i, 1, p) for i in range(k)]
    shears = [lambda v, i=i, j=j: _bump(v, j, v[m + i], p) for i in range(k - m) for j in range(m)]
    return _action(_vectors(p, k), translations + shears)


def abelian_class2_group(p: int, k: int, m: int, a: int) -> PermGroup:
    """Holomorph-style class-2 group built from the abelian group
    V = C_{p^2}^a x C_p^(k-2a).

    Z is the subgroup generated by the p-th powers of the C_{p^2}
    coordinates together with the first m-a of the C_p coordinates; the
    automorphism part multiplies each remaining generator of V by an
    element of Z while fixing Z pointwise.  Acts on the p^k elements of V;
    order p^(k + m(k-m)); class exactly 2 for k > 1 (with m(k-m) >= 1).
    """
    if not 0 <= m <= k:
        raise ValueError(f"m={m} out of range 0..{k}")
    if not 0 <= a <= min(m, k - m):
        raise ValueError(f"a={a} out of range 0..min({m}, {k - m})")
    radices = [p * p] * a + [p] * (k - 2 * a)
    # generators of Z as (coordinate, value): p-th powers of the C_{p^2}
    # coordinates, then the first m-a of the C_p coordinates
    z_gens = [(i, p) for i in range(a)] + [(a + j, 1) for j in range(m - a)]
    # generators of V modulo Z: the C_{p^2} coordinates and the remaining
    # C_p coordinates
    v_positions = list(range(a)) + list(range(m, len(radices)))
    # V acting on itself by right multiplication, one translation per
    # coordinate; then the automorphisms v_i -> v_i * z for one modulo-Z
    # generator and one generator z of Z, everything else fixed: v_i occurs
    # with multiplicity v[pos], so the automorphism multiplies by z^(v[pos])
    translations = [lambda v, i=i: _bump(v, i, 1, radices[i]) for i in range(len(radices))]
    automorphisms = [lambda v, pos=pos, i=i, z=z: _bump(v, i, z * v[pos], radices[i])
                     for pos in v_positions for i, z in z_gens]
    return _action(list(itertools.product(*map(range, radices))), translations + automorphisms)


def product_action(G: PermGroup, H: PermGroup) -> PermGroup:
    """Coordinate-wise action of G x H on the pairs (i, j), row-major."""
    return _action(list(itertools.product(range(G.degree), range(H.degree))),
                   [lambda x, g=g: (g(x[0]), x[1]) for g in G.generators]
                   + [lambda x, h=h: (x[0], h(x[1])) for h in H.generators])


def iterated_wreath_sylow(p: int, k: int) -> PermGroup:
    """The k-fold iterated wreath tower of the p-cycle, acting on p^k points.

    Level j contributes the generator x -> x + p^(j-1) mod p^j on the first
    p^j points; the group has order p^((p^k - 1)/(p - 1)) and contains a
    conjugate of every transitive p-subgroup of the symmetric group on p^k
    points.
    """
    degree = p**k
    _guard_degree(degree, SYLOW_DEGREE_GUARD)
    return _action(range(degree), [lambda x, b=p**j: (x + b // p) % b if x < b else x
                                   for j in range(1, k + 1)])


def sylow_exponent(p: int, k: int) -> int:
    """log_p of the wreath tower order: 1 + p + ... + p^(k-1)."""
    return (p**k - 1) // (p - 1)


def _reduced_monomials(v: int, p: int, max_degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples in v variables, entries <= p-1, total degree <= max_degree,
    in a fixed deterministic order."""
    monos = [m for m in itertools.product(range(p), repeat=v) if sum(m) <= max_degree]
    return sorted(monos, key=lambda m: (sum(m), m))


def wreath_polynomial_exponent(p: int, u: int, v: int, c: int) -> int:
    """Predicted log_p order: v + u * M, with M the number of reduced monomials
    in v variables of total degree < c.

    No reduced monomial has degree above d = v(p-1), so the count stops there.
    By inclusion-exclusion over the j variables whose exponent would reach p,
    M = sum_j (-1)^j C(v, j) C(v + d - jp, v) with d = min(c - 1, v(p-1)).
    """
    d = min(c - 1, v * (p - 1))
    m_total = sum(
        (-1) ** j * math.comb(v, j) * math.comb(v + d - j * p, v)
        for j in range(min(v, d // p) + 1)
    )
    return v + u * m_total


def wreath_polynomial_group(p: int, u: int, v: int, c: int) -> PermGroup:
    """Pairs (f, t) acting on F_p^u x F_p^v by (x, y) -> (x + f(y), y + t),
    where f ranges over the reduced polynomial maps of total degree < c.

    Generated by the v translations of the second coordinate and, for each
    basis vector of F_p^u and each reduced monomial of degree < c, the map
    adding that monomial of y to one coordinate of x.  Order
    p^(v + u*M) with M the reduced-monomial count; class at most c.
    """
    _guard_degree(p ** (u + v), WREATH_POLY_DEGREE_GUARD)
    vs = _vectors(p, v)
    # translations of the V coordinate, then the monomial generators on the
    # U coordinate, each monomial evaluated once per y
    values = [{y: math.prod(pow(t, e, p) for t, e in zip(y, mono)) % p for y in vs}
              for mono in _reduced_monomials(v, p, c - 1)]
    maps = [lambda xy, r=r: (xy[0], _bump(xy[1], r, 1, p)) for r in range(v)]
    maps += [lambda xy, s=s, value=value: (_bump(xy[0], s, value[xy[1]], p), xy[1])
             for s in range(u) for value in values]
    return _action(list(itertools.product(_vectors(p, u), vs)), maps)


def dihedral_times_abelian(k: int, c: int) -> PermGroup:
    """The dihedral group of order 2^(c+1) times an elementary abelian group
    of order 2^(k-c-1), in its right regular action on 2^k points.

    Regular of order 2^k with class exactly c (for c = 1 the dihedral factor
    of order 4 degenerates to the Klein group, so the whole group is
    abelian).  Requires 1 <= c <= k-1.
    """
    if not 1 <= c <= k - 1:
        raise ValueError(f"need 1 <= c <= k-1, got c={c}, k={k}")
    half = 2**c  # rotation subgroup size
    n_bits = k - c - 1

    def right_mul(i2: int, j2: int, mask: int):
        # (i, j) * (i2, j2) = (i + (-1)^j i2, j + j2) in the dihedral factor
        return lambda x: ((x[0] + (-i2 if x[1] else i2)) % half, x[1] ^ j2, x[2] ^ mask)

    points = list(itertools.product(range(half), range(2), range(2**n_bits)))
    return _action(points, [right_mul(1, 0, 0), right_mul(0, 1, 0)]
                   + [right_mul(0, 0, 1 << bit) for bit in range(n_bits)])


@dataclass(frozen=True)
class GroupBlueprint:
    """A construction recipe with its predicted degree, order and class bound.

    For the product kind, params carries the two factor blueprints under
    "factors"; every other kind uses integer parameters only.  p_power is
    (p, e) when the degree is a positive power of the prime p and the order is
    p^e, else None (degree 1, mixed-prime products).
    """

    kind: str
    params: dict
    degree: int
    order: int
    class_bound: int
    p_power: tuple[int, int] | None

    @property
    def log_p_order(self) -> int | None:
        return self.p_power and self.p_power[1]

    def prediction_json(self) -> dict:
        return {
            "degree": self.degree,
            "order": self.order,
            "log_p_order": self.log_p_order,
            "class_bound": self.class_bound,
        }

    def to_json(self) -> dict:
        params = dict(self.params)
        if self.kind == "product":
            params["factors"] = [f.to_json() for f in params["factors"]]
        return {"kind": self.kind, "params": params}


@dataclass(frozen=True)
class _Kind:
    """A blueprint kind.  Its functions take the integer params by name:
    ranges gives (low, high or None) per checked param (a param p must also
    be prime), degree gives (p, k) for degree p^k, predict gives the order's
    log_p and the class bound, and build realizes up to degree_limit."""

    params: tuple[str, ...]
    ranges: Callable[..., dict[str, tuple[int, int | None]]]
    degree: Callable[..., tuple[int, int]]
    predict: Callable[..., tuple[int, int]]
    build: Callable[..., PermGroup]
    degree_limit: int


_KINDS = {
    "affine-unitriangular": _Kind(
        ("p", "k", "m"), lambda p, k, m: {"p": (2, None), "k": (0, None), "m": (0, k)},
        lambda p, k, m: (p, k), lambda p, k, m: (k + m * (k - m), 2 if 0 < m < k else 1),
        affine_unitriangular, DEGREE_GUARD),
    "abelian-class2": _Kind(
        ("p", "k", "m", "a"),
        lambda p, k, m, a: {"p": (2, None), "k": (0, None), "m": (0, k), "a": (0, min(m, k - m))},
        lambda p, k, m, a: (p, k), lambda p, k, m, a: (k + m * (k - m), 2 if 0 < m < k else 1),
        abelian_class2_group, DEGREE_GUARD),
    "sylow-wreath": _Kind(
        ("p", "k"), lambda p, k: {"p": (2, None), "k": (1, None)},
        lambda p, k: (p, k), lambda p, k: (sylow_exponent(p, k), p ** (k - 1)),
        iterated_wreath_sylow, SYLOW_DEGREE_GUARD),
    "wreath-polynomial": _Kind(
        ("p", "u", "v", "c"),
        lambda p, u, v, c: {"p": (2, None), "u": (0, None), "v": (0, None), "c": (1, None)},
        lambda p, u, v, c: (p, u + v), lambda p, u, v, c: (wreath_polynomial_exponent(p, u, v, c), c),
        wreath_polynomial_group, WREATH_POLY_DEGREE_GUARD),
    "dihedral-abelian": _Kind(
        ("k", "c"), lambda k, c: {"k": (2, None), "c": (1, k - 1)},
        lambda k, c: (2, k), lambda k, c: (k, c),
        dihedral_times_abelian, DEGREE_GUARD),
}


def require_prime(p: int) -> None:
    """Raise ValueError unless p is prime, GuardExceeded past PRIME_LIMIT."""
    if p > PRIME_LIMIT:
        raise GuardExceeded(f"p = {p} is over the primality check limit {PRIME_LIMIT}")
    try:
        prime = prime_power(p)[1] == 1
    except ValueError:
        prime = False
    if not prime:
        raise ValueError(f"p must be prime, got {p}")


def _guard_digits(quantity: str, p: int, e: int) -> None:
    """Refuse a predicted p^e of over SCORE_DIGIT_LIMIT digits, judged from e;
    an exponent of over 20 digits is named by its digit count."""
    limit = int(SCORE_DIGIT_LIMIT / math.log10(p))
    if e > limit:
        digits = str(e)
        exponent = digits if len(digits) <= 20 else f"({len(digits)}-digit exponent)"
        raise GuardExceeded(f"predicted {quantity} {p}^{exponent} is over the limit "
                            f"{p}^{limit} ({SCORE_DIGIT_LIMIT} digits)")


def _fields(data: dict, names: tuple[str, ...], what: str) -> dict:
    """The entries of data for names; ValueError names a key not among them."""
    for key in data:
        if key not in names:
            raise ValueError(f"unknown {what} {key!r}")
    return {name: data[name] for name in names}


def make_blueprint(kind: str, params: dict) -> GroupBlueprint:
    """Validate parameters and compute the predictions for one construction.

    Raises ValueError for an unknown kind or param or a bad value, GuardExceeded
    for a predicted degree or order past SCORE_DIGIT_LIMIT digits.
    """
    if not isinstance(kind, str):
        raise ValueError("kind must be a string")
    if not isinstance(params, dict):
        raise ValueError("params must be an object")
    if kind == "product":
        return _product_blueprint(params)
    if kind not in _KINDS:
        raise ValueError(f"unknown blueprint kind {kind!r}, "
                         f"expected one of {', '.join([*_KINDS, 'product'])}")
    entry = _KINDS[kind]
    values = _fields(params, entry.params, "param")
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"need an integer {name}, got {name}={value!r}")
    for name, (low, high) in entry.ranges(**values).items():
        if values[name] < low or high is not None and values[name] > high:
            bound = f"{name} >= {low}" if high is None else f"{low} <= {name} <= {high}"
            raise ValueError(f"need {bound}, got {name}={values[name]}")
    if "p" in values:
        require_prime(values["p"])
    p, k = entry.degree(**values)
    _guard_digits("degree", p, k)
    e, class_bound = entry.predict(**values)
    _guard_digits("order", p, e)
    return GroupBlueprint(kind, values, p**k, p**e, class_bound, (p, e) if k else None)


def _product_blueprint(params: dict) -> GroupBlueprint:
    factors = _fields(params, ("factors",), "param")["factors"]
    if not isinstance(factors, list):
        raise ValueError("factors must be a list")
    factors = [f if isinstance(f, GroupBlueprint) else blueprint_from_json(f) for f in factors]
    if len(factors) != 2:
        raise ValueError("product takes exactly two factors")
    left, right = factors
    lp, rp = left.p_power, right.p_power
    if lp and rp:
        p_power = (lp[0], lp[1] + rp[1]) if lp[0] == rp[0] else None
    else:  # a degree-1 factor keeps the other's; mixed primes stay mixed
        p_power = lp or rp if 1 in (left.degree, right.degree) else None
    order = left.order * right.order
    # mixed primes have no common exponent: judge the order by its digits
    _guard_digits("order", *(p_power or (10, len(str(order)) - 1)))
    return GroupBlueprint("product", {"factors": factors}, left.degree * right.degree, order,
                          max(left.class_bound, right.class_bound), p_power)


def blueprint_from_json(data: dict) -> GroupBlueprint:
    if not isinstance(data, dict):
        raise ValueError("blueprint must be an object")
    return make_blueprint(**_fields(data, ("kind", "params"), "key"))


def realize(blueprint: GroupBlueprint) -> PermGroup:
    """Build the permutation group a blueprint describes.

    Raises GuardExceeded past the kind's degree limit before building
    anything; a product is checked on its own degree before its factors.
    Callers that want the prediction only use blueprint.prediction_json().
    """
    product = blueprint.kind == "product"
    _guard_degree(blueprint.degree, DEGREE_GUARD if product else _KINDS[blueprint.kind].degree_limit)
    if product:
        return product_action(*map(realize, blueprint.params["factors"]))
    return _KINDS[blueprint.kind].build(**blueprint.params)
