"""Explicit transitive p-group constructions realized as permutation groups.

Point encodings are fixed so that generator JSON is reproducible
bit-for-bit:

* vectors over F_p use little-endian digits, point = sum v_i * p^i;
* pairs are row-major, point = first * (size of second factor) + second;
* mixed-radix tuples put the first coordinate most significant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import monomial_count, prime_power
from .perm import GuardExceeded, PermGroup, Permutation

SYLOW_DEGREE_GUARD = 32
WREATH_POLY_DEGREE_GUARD = 64


def _vector_index(v: tuple[int, ...], p: int) -> int:
    index = 0
    for digit in reversed(v):
        index = index * p + digit
    return index


def _vectors(p: int, length: int):
    """All vectors of F_p^length, in index order."""
    out = []
    for index in range(p**length):
        v = []
        n = index
        for _ in range(length):
            n, digit = divmod(n, p)
            v.append(digit)
        out.append(tuple(v))
    return out


def affine_unitriangular(p: int, k: int, m: int) -> PermGroup:
    """Translations of F_p^k together with the block-unitriangular maps that
    add linear functions of the last k-m coordinates to the first m.

    Acts on the p^k vectors; order p^(k + m(k-m)); class exactly 2 for
    k > 1 with 1 <= m <= k-1, and 1 (abelian regular) in the degenerate
    cases m in {0, k}.
    """
    if not 0 <= m <= k:
        raise ValueError(f"m={m} out of range 0..{k}")
    points = _vectors(p, k)
    degree = p**k
    gens: list[Permutation] = []
    # translations v -> v + e_i
    for i in range(k):
        images = [0] * degree
        for idx, v in enumerate(points):
            w = list(v)
            w[i] = (w[i] + 1) % p
            images[idx] = _vector_index(tuple(w), p)
        gens.append(Permutation(images))
    # unitriangular maps v -> v + v[m+i] * e_j for coordinates j < m <= m+i
    for i in range(k - m):
        for j in range(m):
            images = [0] * degree
            for idx, v in enumerate(points):
                w = list(v)
                w[j] = (w[j] + v[m + i]) % p
                images[idx] = _vector_index(tuple(w), p)
            gens.append(Permutation(images))
    return PermGroup(degree, gens)


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
    degree = p**k

    def index_of(v: tuple[int, ...]) -> int:
        index = 0
        for digit, radix in zip(v, radices):
            index = index * radix + digit
        return index

    points: list[tuple[int, ...]] = []
    for index in range(degree):
        digits = []
        n = index
        for radix in reversed(radices):
            n, digit = divmod(n, radix)
            digits.append(digit)
        points.append(tuple(reversed(digits)))

    def add(v: tuple[int, ...], w: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((x + y) % r for x, y, r in zip(v, w, radices))

    def unit(position: int, value: int = 1) -> tuple[int, ...]:
        v = [0] * len(radices)
        v[position] = value
        return tuple(v)

    n_coords = len(radices)
    # generators of Z: p-th powers of the C_{p^2} coordinates, then the
    # first m-a of the C_p coordinates
    z_gens = [unit(i, p) for i in range(a)]
    z_gens += [unit(a + j) for j in range(m - a)]
    # generators of V modulo Z: the C_{p^2} coordinates and the remaining
    # C_p coordinates
    v_positions = list(range(a)) + list(range(a + (m - a), n_coords))

    gens: list[Permutation] = []
    # V acting on itself by right multiplication, one translation per
    # generator of V (the v's and the Z' part)
    for pos in list(range(a)) + list(range(a, n_coords)):
        step = unit(pos)
        images = [index_of(add(v, step)) for v in points]
        gens.append(Permutation(images))
    # automorphisms: v_i -> v_i * z for one modulo-Z generator and one
    # generator z of Z, everything else fixed
    for i, pos in enumerate(v_positions):
        for z in z_gens:
            images = [0] * degree
            for idx, v in enumerate(points):
                # v_i occurs with multiplicity v[pos], so the automorphism
                # multiplies by z^(v[pos])
                shift = tuple((c * v[pos]) % r for c, r in zip(z, radices))
                images[idx] = index_of(add(v, shift))
            gens.append(Permutation(images))
    return PermGroup(degree, gens)


def product_action(G: PermGroup, H: PermGroup) -> PermGroup:
    """Coordinate-wise action of G x H on pairs, point = i * deg(H) + j."""
    dg, dh = G.degree, H.degree
    degree = dg * dh
    gens: list[Permutation] = []
    for g in G.generators:
        images = [0] * degree
        for i in range(dg):
            gi = g.images[i] * dh
            base = i * dh
            for j in range(dh):
                images[base + j] = gi + j
        gens.append(Permutation(images))
    for h in H.generators:
        images = [0] * degree
        for i in range(dg):
            base = i * dh
            for j in range(dh):
                images[base + j] = base + h.images[j]
        gens.append(Permutation(images))
    return PermGroup(degree, gens)


def iterated_wreath_sylow(p: int, k: int, max_degree: int = SYLOW_DEGREE_GUARD) -> PermGroup:
    """The k-fold iterated wreath tower of the p-cycle, acting on p^k points.

    Level j contributes the generator x -> x + p^(j-1) mod p^j on the first
    p^j points; the group has order p^((p^k - 1)/(p - 1)) and contains a
    conjugate of every transitive p-subgroup of the symmetric group on p^k
    points.
    """
    degree = p**k
    if degree > max_degree:
        raise GuardExceeded(
            f"degree {degree} exceeds wreath tower guard {max_degree}"
        )
    gens: list[Permutation] = []
    for j in range(1, k + 1):
        block = p**j
        step = p ** (j - 1)
        images = list(range(degree))
        for x in range(block):
            images[x] = (x + step) % block
        gens.append(Permutation(images))
    return PermGroup(degree, gens)


def sylow_exponent(p: int, k: int) -> int:
    """log_p of the wreath tower order: 1 + p + ... + p^(k-1)."""
    return (p**k - 1) // (p - 1)


def _reduced_monomials(v: int, p: int, max_degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples in v variables, entries <= p-1, total degree <= max_degree,
    in a fixed deterministic order."""
    monos: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], remaining: int):
        if len(prefix) == v:
            monos.append(prefix)
            return
        for e in range(min(p - 1, remaining) + 1):
            extend(prefix + (e,), remaining - e)

    extend((), max_degree)
    return sorted(monos, key=lambda m: (sum(m), m))


def wreath_polynomial_exponent(p: int, u: int, v: int, c: int) -> int:
    """Predicted log_p order: v + u * (number of reduced monomials of degree < c)."""
    m_total = sum(monomial_count(v, i, p) for i in range(c))
    return v + u * m_total


def wreath_polynomial_group(
    p: int, u: int, v: int, c: int, max_degree: int = WREATH_POLY_DEGREE_GUARD
) -> PermGroup:
    """Pairs (f, t) acting on F_p^u x F_p^v by (x, y) -> (x + f(y), y + t),
    where f ranges over the reduced polynomial maps of total degree < c.

    Generated by the v translations of the second coordinate and, for each
    basis vector of F_p^u and each reduced monomial of degree < c, the map
    adding that monomial of y to one coordinate of x.  Order
    p^(v + u*M) with M the reduced-monomial count; class at most c.
    """
    degree = p ** (u + v)
    if degree > max_degree:
        raise GuardExceeded(
            f"degree {degree} exceeds realization guard {max_degree}"
        )
    us = _vectors(p, u)
    vs = _vectors(p, v)
    nv = len(vs)

    def pair_index(xi: int, yi: int) -> int:
        return xi * nv + yi

    gens: list[Permutation] = []
    # translations of the V coordinate
    for r in range(v):
        y_image = [0] * nv
        for yi, y in enumerate(vs):
            w = list(y)
            w[r] = (w[r] + 1) % p
            y_image[yi] = _vector_index(tuple(w), p)
        images = [0] * degree
        for xi in range(len(us)):
            for yi in range(nv):
                images[pair_index(xi, yi)] = pair_index(xi, y_image[yi])
        gens.append(Permutation(images))
    # monomial generators on the U coordinate
    monomials = _reduced_monomials(v, p, c - 1)
    for s in range(u):
        for mono in monomials:
            values = [0] * nv
            for yi, y in enumerate(vs):
                value = 1
                for coord, e in zip(y, mono):
                    value = (value * pow(coord, e, p)) % p
                values[yi] = value
            images = [0] * degree
            for xi, x in enumerate(us):
                for yi in range(nv):
                    w = list(x)
                    w[s] = (w[s] + values[yi]) % p
                    images[pair_index(xi, yi)] = pair_index(
                        _vector_index(tuple(w), p), yi
                    )
            gens.append(Permutation(images))
    return PermGroup(degree, gens)


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
    abelian_rank = k - c - 1
    n_abelian = 2**abelian_rank
    degree = 2**k

    def dihedral_mul(e1: tuple[int, int], e2: tuple[int, int]) -> tuple[int, int]:
        i1, j1 = e1
        i2, j2 = e2
        sign = -1 if j1 else 1
        return ((i1 + sign * i2) % half, j1 ^ j2)

    def point(d: tuple[int, int], q: int) -> int:
        return (d[0] * 2 + d[1]) * n_abelian + q

    elements = [(i, j) for i in range(half) for j in range(2)]

    def right_mul_perm(d_factor: tuple[int, int], q_mask: int) -> Permutation:
        images = [0] * degree
        for d in elements:
            for q in range(n_abelian):
                images[point(d, q)] = point(dihedral_mul(d, d_factor), q ^ q_mask)
        return Permutation(images)

    gens = [right_mul_perm((1, 0), 0), right_mul_perm((0, 1), 0)]
    for bit in range(abelian_rank):
        gens.append(right_mul_perm((0, 0), 1 << bit))
    return PermGroup(degree, gens)


BLUEPRINT_KINDS = (
    "affine-unitriangular",
    "abelian-class2",
    "product",
    "sylow-wreath",
    "wreath-polynomial",
    "dihedral-abelian",
)


@dataclass(frozen=True)
class GroupBlueprint:
    """A construction recipe with its predicted degree, order and class bound.

    For the product kind, params carries the two factor blueprints under
    "factors"; every other kind uses integer parameters only.  log_p_order
    is None when the predicted degree is not a prime power (mixed-prime
    products); order is always the exact predicted group order.
    """

    kind: str
    params: dict
    degree: int
    order: int
    class_bound: int

    @property
    def log_p_order(self) -> int | None:
        try:
            p, _ = prime_power(self.degree)
            q, e = prime_power(self.order)
        except ValueError:
            return None
        return e if q == p else None

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


def _int_params(params: dict, *names: str) -> tuple[int, ...]:
    """The named params, each required to be an int (bool is not)."""
    values = tuple(params[name] for name in names)
    for name, value in zip(names, values):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"need an integer {name}, got {name}={value!r}")
    return values


def require_prime(p: int) -> None:
    """Raise ValueError unless p is prime."""
    try:
        prime = prime_power(p)[1] == 1
    except ValueError:
        prime = False
    if not prime:
        raise ValueError(f"p must be prime, got {p}")


def make_blueprint(kind: str, params: dict) -> GroupBlueprint:
    """Validate parameters and compute the predictions for one construction."""
    if kind == "affine-unitriangular":
        p, k, m = _int_params(params, "p", "k", "m")
        require_prime(p)
        if not 0 <= m <= k:
            raise ValueError(f"m={m} out of range 0..{k}")
        cls = 2 if k > 1 and 1 <= m <= k - 1 else 1
        return GroupBlueprint(
            kind, {"p": p, "k": k, "m": m}, p**k, p ** (k + m * (k - m)), cls
        )
    if kind == "abelian-class2":
        p, k, m, a = _int_params(params, "p", "k", "m", "a")
        require_prime(p)
        if not 0 <= m <= k or not 0 <= a <= min(m, k - m):
            raise ValueError("parameter constraints violated")
        cls = 2 if k > 1 and 1 <= m <= k - 1 else 1
        return GroupBlueprint(
            kind,
            {"p": p, "k": k, "m": m, "a": a},
            p**k,
            p ** (k + m * (k - m)),
            cls,
        )
    if kind == "sylow-wreath":
        p, k = _int_params(params, "p", "k")
        if p < 2 or k < 1:
            raise ValueError(f"need p >= 2 and k >= 1, got p={p}, k={k}")
        require_prime(p)
        return GroupBlueprint(
            kind, {"p": p, "k": k}, p**k, p ** sylow_exponent(p, k), p ** (k - 1)
        )
    if kind == "wreath-polynomial":
        p, u, v, c = _int_params(params, "p", "u", "v", "c")
        require_prime(p)
        if c < 1:
            raise ValueError(f"need c >= 1, got c={c}")
        return GroupBlueprint(
            kind,
            {"p": p, "u": u, "v": v, "c": c},
            p ** (u + v),
            p ** wreath_polynomial_exponent(p, u, v, c),
            c,
        )
    if kind == "dihedral-abelian":
        k, c = _int_params(params, "k", "c")
        if not 1 <= c <= k - 1:
            raise ValueError(f"need 1 <= c <= k-1, got c={c}, k={k}")
        return GroupBlueprint(kind, {"k": k, "c": c}, 2**k, 2**k, c)
    if kind == "product":
        factors = [
            f if isinstance(f, GroupBlueprint) else blueprint_from_json(f)
            for f in params["factors"]
        ]
        if len(factors) != 2:
            raise ValueError("product takes exactly two factors")
        left, right = factors
        return GroupBlueprint(
            kind,
            {"factors": factors},
            left.degree * right.degree,
            left.order * right.order,
            max(left.class_bound, right.class_bound),
        )
    raise ValueError(f"unknown blueprint kind {kind!r}")


def blueprint_from_json(data: dict) -> GroupBlueprint:
    return make_blueprint(data["kind"], data["params"])


def realize(blueprint: GroupBlueprint) -> PermGroup:
    """Build the permutation group a blueprint describes.

    Raises GuardExceeded for realizations past the degree guards; callers
    that want the prediction only should use blueprint.prediction_json().
    """
    kind, params = blueprint.kind, blueprint.params
    if kind == "affine-unitriangular":
        return affine_unitriangular(params["p"], params["k"], params["m"])
    if kind == "abelian-class2":
        return abelian_class2_group(params["p"], params["k"], params["m"], params["a"])
    if kind == "sylow-wreath":
        return iterated_wreath_sylow(params["p"], params["k"])
    if kind == "wreath-polynomial":
        return wreath_polynomial_group(
            params["p"], params["u"], params["v"], params["c"]
        )
    if kind == "dihedral-abelian":
        return dihedral_times_abelian(params["k"], params["c"])
    if kind == "product":
        left, right = params["factors"]
        return product_action(realize(left), realize(right))
    raise ValueError(f"unknown blueprint kind {kind!r}")
