"""Exhaustive search for maximal-order transitive subgroups at tiny degree.

Every transitive p-subgroup of the symmetric group on p^k points is
conjugate to a subgroup of the iterated wreath tower, and conjugation
preserves order, transitivity and nilpotency class, so searching one fixed
tower is lossless.  Subgroups are enumerated bottom-up by index-p cyclic
extension: a subgroup H of order p^i extends to <H, g> for each g in the
normalizer of H with g^p in H, and every subgroup of order p^(i+1) arises
this way from a maximal subgroup.  As |K:H| = p is prime, every g in K - H
gives the same K, so each overgroup K of H is built once, from its least g.

The search works over byte tables of the tower's element list, built from
perm's engine elements with no Permutation arithmetic, and keeps each
subgroup, from the stream to the witnesses, as a byte mask.  Both dedupe
modes run one stream: it extends one subgroup per conjugacy class and
expands each new class into its orbit under conjugation by the generators,
the orbit's members keyed by their mask bytes; set mode yields every member
of the orbits, conjugacy mode one representative each.  Each subgroup K
carries at most log_p |K| generators as a byte string of element indices;
the normality test and the conjugacy orbits run on them, and the nilpotency
class is the length of K's upper central series, each term screened on
them.  audit_row re-analyzes the reported witnesses through the
permutation-group engine, whose class comes from the lower central series,
so the two arithmetic paths and the two series check each other.  A stream
yields at most max_count subgroups, or DEFAULT_BUDGET of them when the
caller passes none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import attrgetter
from typing import Iterator, Sequence

from . import bounds
from .constructions import iterated_wreath_sylow, require_prime
from .perm import GuardExceeded, PermGroup, _pad, lower_central_series

DEFAULT_BUDGET = 500_000

# exhaustive mode is limited to these degrees; the next tower (degree 16,
# order 2^15) is far past desk scale for full subgroup enumeration
EXHAUSTIVE_DEGREE_GUARD = 9
# a row holds one exponent per class bound; 1000 of them take ~0.2 s
CLASS_BOUND_LIMIT = 1000


class _Tables:
    """Multiplication, inverse and conjugation tables over the group's own
    elements sorted by images, as byte rows built from perm's engine
    elements, which index numbers: mult[i][j] indexes
    elements[i] * elements[j], inv[i] is the column of row i holding the
    identity, conj[g][x] indexes g^-1 x g and conj_of[x] is column x of
    conj; column g of a table is a stride-n slice of its joined rows.  The
    rows grow along the Cayley graph: when elements[i] = s * elements[k]
    for a generator s, row i is row k read through left, the index map of
    x -> s * x, each entry one engine product s.translate(x + pad).  stab
    masks the elements fixing point 0, and closures memoizes the witness
    generators' closures <H, g> by (H, g).

    A subgroup is a byte mask: an n-byte 0/1 string read as a big-endian
    int, so its least element is its top set byte and, of one order, the
    larger int has the least sorted elements.  row.translate reads a mask,
    padded to 256 bytes, along a row: row g^-1 of mult gives g*H, conj_of[h]
    the g with g^-1 h g in H, and row s^-1 of conj the conjugate of H by s."""

    def __init__(self, group: PermGroup):
        self.elements = elements = sorted(group.elements(), key=attrgetter("_element"))
        keys = [g._element for g in elements]
        self.index = index = {x: i for i, x in enumerate(keys)}
        self.identity = identity = index[group.identity._element]
        self.n = n = len(elements)
        self.pad = pad = bytes(256 - n)
        self.trivial = 1 << 8 * (n - 1 - identity)
        gens, image_pad = [g._element for g in group.generators], _pad(group.degree)
        lefts = [bytes(index[s.translate(x + image_pad)] for x in keys) + pad for s in gens]
        mult: list = [bytes(range(n)) if i == identity else None for i in range(n)]
        reached = [identity]
        for k in reached:
            for left in lefts:
                i = left[k]
                if mult[i] is None:
                    mult[i] = mult[k].translate(left)
                    reached.append(i)
        self.mult = mult
        self.inv = inv = [row.index(identity) for row in mult]
        # conj[g] is row g^-1 read along column g
        flat = b"".join(mult)
        self.conj = conj = [flat[g::n].translate(mult[inv[g]] + pad) for g in range(n)]
        flat = b"".join(conj)
        self.conj_of = [flat[x::n] for x in range(n)]
        self.degree = group.degree
        self.gen_indices = sorted(index[s] for s in gens)
        # degree 0 has no point 0: stab is empty and no subgroup is transitive
        self.stab = int.from_bytes(bytes(x[0] == 0 for x in keys), "big") if group.degree else 0
        self.closures: dict[tuple[int, int], int] = {}

    def table(self, mask: int) -> bytes:
        """mask as a 256-byte translate table."""
        return mask.to_bytes(self.n, "big") + self.pad

    def is_transitive(self, K: int) -> bool:
        """By orbit-stabilizer: K is transitive iff |K| = degree * |K_0|."""
        return K.bit_count() == self.degree * (K & self.stab).bit_count()

    def subgroup_class(self, K: int, gens: Sequence[int]) -> int:
        """Nilpotency class of subgroup K = <gens> as the length of its upper
        central series: Z_(i+1) holds the z in K whose commutators [y, z]
        with every generator y lie in Z_i, that is z^-1 y z in y*Z_i.
        Testing the generators suffices because Z_i is normal in K."""
        mult, inv, conj_of = self.mult, self.inv, self.conj_of
        center, cls = self.trivial, 0
        while center != K:
            table, grown = self.table(center), K
            for y in gens:
                coset = mult[inv[y]].translate(table) + self.pad
                grown &= int.from_bytes(conj_of[y].translate(coset), "big")
            if grown == center:
                raise AssertionError("upper central series stalled: not nilpotent")
            center = grown
            cls += 1
        return cls

    def generating_set(self, K: int) -> list[int]:
        """A small deterministic generating set of subgroup K: the least
        element of K outside the subgroup H generated so far, until H is K.
        Each step grows H Dimino-style as a union of left cosets x*H: s*r
        starts a new coset whenever it falls outside the union, for a coset
        representative r and a generator s, read off the union's mask
        bytes.  The greedy set of each H is a prefix of K's, so a step is
        looked up in closures first."""
        mult, inv, closures, n = self.mult, self.inv, self.closures, self.n
        gens: list[int] = []
        H = self.trivial
        while H != K:
            g = (8 * n - (K ^ H).bit_length()) >> 3  # H lies in K: K ^ H is K - H
            gens.append(g)
            grown = closures.get((H, g))
            if grown is None:
                grown, table, reps = H, self.table(H), [self.identity]
                member = table
                for r in reps:
                    for s in gens:
                        x = mult[s][r]
                        if not member[x]:
                            grown |= int.from_bytes(mult[inv[x]].translate(table), "big")
                            member = grown.to_bytes(n, "big")
                            reps.append(x)
                closures[H, g] = grown
            H = grown
        return gens

    def to_perm_group(self, K: int) -> PermGroup:
        return PermGroup(self.degree, map(self.elements.__getitem__, self.generating_set(K)))


def _stream_budget(dedupe: str, max_count: int | None) -> int:
    """Check the subgroup stream's arguments; returns the budget, where
    max_count None means DEFAULT_BUDGET."""
    if dedupe not in ("set", "conjugacy"):
        raise ValueError(f"unknown dedupe mode {dedupe!r}")
    if max_count is None:
        return DEFAULT_BUDGET
    if type(max_count) is not int:  # bool is not a budget
        raise ValueError(f"max_count must be an integer, got {max_count!r}")
    if max_count < 0:
        raise ValueError(f"max_count must be non-negative, got {max_count}")
    return max_count


def _check_budget(visited: int, max_count: int) -> None:
    if visited > max_count:
        raise GuardExceeded(
            f"search budget exceeded: visited {visited} subgroups, over the budget {max_count}"
        )


def _iter_subgroup_sets(
    tables: _Tables, p: int, dedupe: str, max_count: int
) -> Iterator[tuple[int, bytes]]:
    """Yield subgroups K of the table group as masks, each with at most
    log_p |K| generators as a byte string of element indices, smallest
    order first and, within an order, in descending mask order.  Only one
    representative per conjugacy class, the one with the least sorted
    elements, is extended: extensions of conjugate subgroups are conjugate.
    Each overgroup K of H is built once, from the least g in K - H, keeping
    H's generators plus g, and a new K is expanded into its class by a
    search under conjugation by the noncentral generators, keyed by the
    members' n-byte masks; a member's generators are its parent's read
    through the conjugation row.  Set mode yields every member of every
    class, conjugacy mode the representatives.  Every subgroup yielded, the
    trivial one included, counts against max_count, one at a time."""
    mult, conj, inv, conj_of, pad = tables.mult, tables.conj, tables.inv, tables.conj_of, tables.pad
    n = tables.n
    pth = list(range(n))  # pth[g] = g^p
    for _ in range(p - 1):
        pth = [mult[x][g] for g, x in enumerate(pth)]
    pth = bytes(pth)
    # conjugation by a central generator is the identity map
    noncentral = [s for s in tables.gen_indices if conj[s] != bytes(range(n))]
    conjugators = [(conj[inv[s]], conj[s] + pad) for s in noncentral]
    yield_members = dedupe == "set"

    yielded = 1
    _check_budget(yielded, max_count)
    level: list[tuple[int, bytes]] = [(tables.trivial, b"")]
    yield tables.trivial, b""

    while level:
        next_level: list[tuple[int, bytes]] = []
        others: list[tuple[int, bytes]] = []  # set mode: members but the rep
        next_seen: set[int] = set()
        for H, gens in level:
            table = H.to_bytes(n, "big") + pad
            # <H, g> has order p*|H| when g^p is in H and g normalizes H
            todo = ~H  # negative until ANDed with the g^p in H
            for row in (pth, *map(conj_of.__getitem__, gens)):
                todo &= int.from_bytes(row.translate(table), "big")
            while todo:
                g = (8 * n - todo.bit_length()) >> 3
                K, coset, left_inverse = H, table, mult[inv[g]]
                for _ in range(p - 1):  # K is H, g*H, ..., g^(p-1)*H
                    coset = left_inverse.translate(coset)
                    K |= int.from_bytes(coset, "big")
                    coset += pad
                todo &= ~K
                if K in next_seen:
                    continue
                key = K.to_bytes(n, "big")
                orbit = {key: (K, gens + bytes((g,)))}
                # with central generators only, every class is one subgroup
                frontier = [key] if conjugators else []
                while frontier:
                    current = frontier.pop()
                    mask, parent_gens = current + pad, orbit[current][1]
                    for row_inverse, row in conjugators:
                        image = row_inverse.translate(mask)
                        if image not in orbit:
                            member = int.from_bytes(image, "big")
                            orbit[image] = member, parent_gens.translate(row)
                            frontier.append(image)
                            if member & H == H:  # each g in member - H builds it
                                todo &= ~member
                next_seen.update(member for member, _ in orbit.values())
                # of equal-length byte keys the greatest is the greatest int
                next_level.append(orbit.pop(max(orbit)))
                if yield_members:
                    others.extend(orbit.values())
                # one count per subgroup yielded, so a refusal names max_count + 1
                for _ in range(1 + len(orbit) if yield_members else 1):
                    yielded += 1
                    _check_budget(yielded, max_count)
        next_level.sort(reverse=True)
        # next_level is sorted already, so sorted() merges the others into it
        yield from sorted(next_level + others, reverse=True) if yield_members else next_level
        level = next_level


def _prime_order_stream(S: PermGroup, max_count: int) -> Iterator[PermGroup]:
    """1, then S on its least element but 1, for S of prime order p: the
    guard admits any p, whose elements may not fit the stream's byte masks.
    The elements but 1 are the powers g^a, 0 < a < p, of any one of them,
    and all move the same points, so they first differ at x, the least
    point g moves: the least is the g^a that sends x to the least point of
    x's cycle under g but x."""
    g = next(s for s in S.generators if not s.is_identity())
    cycle = g.cycles()[0]  # x, x^g, x^(g^2), ...
    least = g ** min(range(1, len(cycle)), key=cycle.__getitem__)
    for visited, gens in enumerate(([], [least]), start=1):
        _check_budget(visited, max_count)
        yield PermGroup(S.degree, gens)


def enumerate_subgroups(
    S: PermGroup,
    dedupe: str = "set",
    max_count: int | None = None,
) -> Iterator[PermGroup]:
    """Stream every subgroup of the p-group S exactly once (set mode) or one
    representative per S-conjugacy class (conjugacy mode).  The arguments
    and the order guard are checked at call time."""
    # <g> has the lcm of g's cycle lengths for its order, which needs no chain
    moving = {g for g in S.generators if not g.is_identity()}
    order = math.lcm(*map(len, moving.pop().cycles())) if len(moving) == 1 else S.order()
    p, _ = bounds.prime_power(order) if order > 1 else (2, 0)
    max_order = 128 if p == 2 else 81 if p == 3 else p
    if order > max_order:
        raise GuardExceeded(
            f"group order {order} exceeds subgroup enumeration guard {max_order}"
        )
    max_count = _stream_budget(dedupe, max_count)
    if order == p:
        return _prime_order_stream(S, max_count)
    tables = _Tables(S)
    return (tables.to_perm_group(K) for K, _ in _iter_subgroup_sets(tables, p, dedupe, max_count))


@dataclass(frozen=True)
class SearchRow:
    """Per-class maxima of log_p order over transitive subgroups of the
    degree-p^k wreath tower."""

    p: int
    k: int
    c_max: int
    exponents: tuple[int, ...]
    witnesses: tuple[PermGroup, ...]

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "exponents": list(self.exponents),
            "witnesses": [w.to_json() for w in self.witnesses],
        }


def fnil_exact(
    p: int,
    k: int,
    c_max: int,
    dedupe: str = "conjugacy",
    max_count: int | None = None,
) -> SearchRow:
    """Exhaustively maximize order over transitive subgroups of the wreath
    tower on p^k points, stratified by nilpotency class."""
    # p >= 2, so a degree within the guard has k below it
    if p ** min(k, EXHAUSTIVE_DEGREE_GUARD) > EXHAUSTIVE_DEGREE_GUARD:
        raise GuardExceeded(
            f"degree {p}^{k} exceeds exhaustive search guard {EXHAUSTIVE_DEGREE_GUARD}; "
            "use the constructions for lower bounds instead"
        )
    if k < 1 or c_max < 1:
        raise ValueError("k and c_max must be positive")
    if c_max > CLASS_BOUND_LIMIT:
        raise GuardExceeded(f"search --cmax {c_max} is over the limit {CLASS_BOUND_LIMIT}")
    require_prime(p)
    max_count = _stream_budget(dedupe, max_count)
    tower = iterated_wreath_sylow(p, k)
    tables = _Tables(tower)

    # each order's subgroups come in descending mask order, so the first of
    # the largest order has the largest (order, mask) key; best[c-1], the
    # running max of the best key per class, is the witness for class <= c
    keys: dict[int, tuple[int, int]] = {}
    for K, gens in _iter_subgroup_sets(tables, p, dedupe, max_count):
        if tables.is_transitive(K):
            cls = tables.subgroup_class(K, gens)
            keys[cls] = max(keys.get(cls, (0, 0)), (K.bit_count(), K))
    best = list(accumulate((keys.get(c, (0, 0)) for c in range(1, c_max + 1)), max))
    if not best[0][0]:
        raise AssertionError("no transitive subgroup found for class 1")
    groups = {K: tables.to_perm_group(K) for _, K in set(best)}
    exponents = [bounds.prime_power(order)[1] for order, _ in best]
    witnesses = [groups[K] for _, K in best]
    return SearchRow(p, k, c_max, tuple(exponents), tuple(witnesses))


@dataclass(frozen=True)
class AuditCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class AuditReport:
    checks: tuple[AuditCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def audit_row(row: SearchRow) -> AuditReport:
    """Re-verify a search row against the bound functions and re-analyze
    every witness from its generators.  Failures are reported, not raised."""
    checks: list[AuditCheck] = []
    checks.append(
        AuditCheck(
            "abelian-regular",
            row.exponents[0] == row.k,
            f"class-1 exponent {row.exponents[0]} vs degree exponent {row.k}",
        )
    )
    for c in range(1, row.c_max + 1):
        limit = bounds.f_upper(row.k, c)
        checks.append(
            AuditCheck(
                f"composition-upper-bound[c={c}]",
                row.exponents[c - 1] <= limit,
                f"exponent {row.exponents[c - 1]} vs bound {limit}",
            )
        )
    if row.c_max >= 2:
        exact = bounds.class2_exponent(row.k)
        checks.append(
            AuditCheck(
                "class2-exact",
                row.exponents[1] == exact,
                f"class-2 exponent {row.exponents[1]} vs exact value {exact}",
            )
        )
    for c, witness in enumerate(row.witnesses, start=1):
        reloaded = PermGroup.from_json(witness.to_json())
        order = reloaded.order()
        cls = lower_central_series(reloaded).nilpotency_class
        good = (
            reloaded.degree == row.p**row.k
            and reloaded.is_transitive()
            and order == row.p ** row.exponents[c - 1]
            and cls is not None
            and cls <= c
        )
        checks.append(
            AuditCheck(
                f"witness-valid[c={c}]",
                good,
                f"degree {reloaded.degree}, order {order}, "
                + ("not nilpotent" if cls is None else f"class {cls}"),
            )
        )
    return AuditReport(tuple(checks))


# reference values for the two rows past the exhaustive guard (degree 16
# and 32 towers have orders 2^15 and 2^31); not recomputed here, used only
# for consistency checks against realized constructions
TABLE2_REFERENCE = {
    1: (1,) * 16,
    2: (2,) + (3,) * 15,
    3: (3, 5, 6) + (7,) * 13,
    4: (4, 8, 10, 12, 13, 14, 14) + (15,) * 9,
    5: (5, 11, 17, 19, 22, 25, 26, 27, 28, 29, 29, 30, 30, 30, 30, 31),
}
