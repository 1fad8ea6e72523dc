"""Exhaustive search for maximal-order transitive subgroups at tiny degree.

Every transitive p-subgroup of the symmetric group on p^k points is
conjugate to a subgroup of the iterated wreath tower, and conjugation
preserves order, transitivity and nilpotency class, so searching one fixed
tower is lossless.  Subgroups are enumerated bottom-up by index-p cyclic
extension: a subgroup H of order p^i extends to <H, g> for each g in the
normalizer of H with g^p in H, and every subgroup of order p^(i+1) arises
this way from a maximal subgroup.  As |K:H| = p is prime, every g in K - H
gives the same K, so each overgroup K of H is built once, from its least g.

The enumeration works over tables of the tower's sorted element list,
built along its Cayley graph, and keeps each subgroup as a byte mask.
Each subgroup K carries at most log_p |K| generators; the normality test
and the conjugacy orbits run on them, and the nilpotency class is the
length of K's upper central series, each term screened on them.  audit_row
re-analyzes the reported witnesses through the permutation-group engine,
whose class comes from the lower central series, so the two arithmetic
paths and the two series check each other.  A stream visits at most
max_count subgroups, or DEFAULT_BUDGET of them when the caller passes none.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import Iterator

from . import bounds
from .constructions import iterated_wreath_sylow, require_prime
from .perm import GuardExceeded, PermGroup, lower_central_series

DEFAULT_BUDGET = 500_000

# exhaustive mode is limited to these degrees; the next tower (degree 16,
# order 2^15) is far past desk scale for full subgroup enumeration
EXHAUSTIVE_DEGREE_GUARD = 9
# a row holds one exponent per class bound; 1000 of them take ~0.2 s
CLASS_BOUND_LIMIT = 1000


class _Tables:
    """Multiplication, inverse and conjugation tables over the group's own
    elements sorted by images: mult[i][j] indexes elements[i] * elements[j],
    inv[i] is the column of row i holding the identity and conj[g][x]
    indexes g^-1 x g.  The rows grow along the Cayley graph: when
    elements[i] = s * elements[k] for a generator s, row i is row k read
    through left, the index map of x -> s * x."""

    def __init__(self, group: PermGroup):
        self.elements = elements = sorted(group.elements())
        self.index = index = {g.images: i for i, g in enumerate(elements)}
        self.identity = identity = index[tuple(range(group.degree))]
        lefts = [[index[(s * x).images] for x in elements] for s in group.generators]
        n = len(elements)
        mult: list = [tuple(range(n)) if i == identity else None for i in range(n)]
        reached = [identity]
        for k in reached:
            for left in lefts:
                i = left[k]
                if mult[i] is None:  # i is not the identity, so itemgetter gets 2+ indices
                    mult[i] = itemgetter(*mult[k])(left)
                    reached.append(i)
        self.mult = mult
        self.inv = inv = [row.index(identity) for row in mult]
        # conj[g] is row g^-1 read along column g; the trivial group's is its one row
        self.conj = [itemgetter(*c)(mult[i]) for i, c in zip(inv, zip(*mult))] if n > 1 else mult
        self.degree = group.degree
        self.gen_indices = sorted(index[g.images] for g in group.generators)

    def adjoin(self, subgroup: frozenset[int], gens: list[int], g: int) -> frozenset[int]:
        """<subgroup, g> for subgroup = <gens>, grown Dimino-style as a union
        of left cosets r*subgroup: s*r starts a new coset whenever it falls
        outside the union for a coset representative r and a generator s."""
        mult = self.mult
        grown = set(subgroup)
        reps = [self.identity]
        for r in reps:
            for s in (*gens, g):
                x = mult[s][r]
                if x not in grown:
                    grown.update(map(mult[x].__getitem__, subgroup))
                    reps.append(x)
        return frozenset(grown)

    def is_transitive(self, subgroup: frozenset[int]) -> bool:
        return len({self.elements[h].images[0] for h in subgroup}) == self.degree

    def subgroup_class(self, subgroup: frozenset[int], gens: list[int]) -> int:
        """Nilpotency class of subgroup = <gens> as the length of its upper
        central series: Z_(i+1) holds the z in the subgroup whose commutators
        [z, y] = z^-1 (y^-1 z y) with every generator y lie in Z_i.  Testing
        the generators suffices because Z_i is normal in the subgroup."""
        mult, inv = self.mult, self.inv
        center = {self.identity}
        cls = 0
        while len(center) < len(subgroup):
            grown = subgroup
            for row in map(self.conj.__getitem__, gens):
                grown = [z for z in grown if mult[inv[z]][row[z]] in center]
            if len(grown) == len(center):
                raise AssertionError("upper central series stalled: not nilpotent")
            center = set(grown)
            cls += 1
        return cls

    def generating_set(self, subgroup: frozenset[int]) -> list[int]:
        """A small deterministic generating set: scan elements in index
        order, keeping those that enlarge the generated subgroup."""
        gens: list[int] = []
        generated: frozenset[int] = frozenset({self.identity})
        for h in sorted(subgroup):
            if h not in generated:
                generated = self.adjoin(generated, gens, h)
                gens.append(h)
                if len(generated) == len(subgroup):
                    break
        return gens

    def to_perm_group(self, subgroup: frozenset[int]) -> PermGroup:
        return PermGroup(self.degree, map(self.elements.__getitem__, self.generating_set(subgroup)))


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
) -> Iterator[tuple[frozenset[int], list[int]]]:
    """Yield subgroups K of the table group as element-index sets, each with
    at most log_p |K| generators, smallest order first, deterministic.  In
    conjugacy mode only one representative per conjugacy class, the one
    with the least sorted elements, is yielded and extended: extensions of
    conjugate subgroups are conjugate.  Set mode has no conjugators.  Each
    overgroup K of H is built once, from the least g in K - H, keeping H's
    generators plus g.  Every subgroup visited, the trivial one included,
    counts against max_count.  A subgroup is an n-byte 0/1 mask read as a
    big-endian int, so its least element is its top set byte and, of one
    order, the larger int has the least sorted elements.  row.translate
    reads a mask, padded to 256 bytes, along a row: row g^-1 of mult gives
    g*H, column h of conj the g with g^-1 h g in H, and row s^-1 of conj
    the conjugate of H by s."""
    mult, conj, inv = tables.mult, tables.conj, tables.inv
    n = len(mult)
    pth = list(range(n))  # pth[g] = g^p
    for _ in range(p - 1):
        pth = [mult[x][g] for g, x in enumerate(pth)]
    pth, pad = bytes(pth), bytes(256 - n)
    left_inverse = [bytes(mult[i]) for i in inv]
    conj_of = [bytes(column) for column in zip(*conj)]
    conjugating = tables.gen_indices if dedupe == "conjugacy" else []
    conjugators = [(bytes(conj[inv[s]]), conj[s]) for s in conjugating]

    yielded = 1
    _check_budget(yielded, max_count)
    level: list[tuple[int, list[int]]] = [(1 << 8 * (n - 1 - tables.identity), [])]
    yield frozenset({tables.identity}), []

    while level:
        next_level: list[tuple[int, list[int]]] = []
        next_seen: set[int] = set()
        for H, gens in level:
            table = H.to_bytes(n, "big") + pad
            # <H, g> has order p*|H| when g^p is in H and g normalizes H
            todo = ~H  # negative until ANDed with the g^p in H
            for row in (pth, *map(conj_of.__getitem__, gens)):
                todo &= int.from_bytes(row.translate(table), "big")
            while todo:
                g = (8 * n - todo.bit_length()) >> 3
                K, coset = H, table
                for _ in range(p - 1):  # K is H, g*H, ..., g^(p-1)*H
                    coset = left_inverse[g].translate(coset)
                    K |= int.from_bytes(coset, "big")
                    coset += pad
                todo &= ~K
                if K in next_seen:
                    continue
                orbit = {K: [*gens, g]}
                frontier = [K]
                while frontier:
                    current = frontier.pop()
                    mask = current.to_bytes(n, "big") + pad
                    for row_inverse, row in conjugators:
                        image = int.from_bytes(row_inverse.translate(mask), "big")
                        if image not in orbit:
                            orbit[image] = [row[x] for x in orbit[current]]
                            frontier.append(image)
                next_seen.update(orbit)
                rep = max(orbit)
                next_level.append((rep, orbit[rep]))
                yielded += 1
                _check_budget(yielded, max_count)
        next_level.sort(reverse=True)
        for K, gens in next_level:
            yield frozenset(compress(range(n), K.to_bytes(n, "big"))), gens
        level = next_level


def _prime_order_stream(S: PermGroup, max_count: int) -> Iterator[PermGroup]:
    """1, then S on its least element but 1, for S of prime order p: the
    guard admits any p, whose elements may not fit the stream's byte masks."""
    least = sorted(S.elements())[1]  # the identity sorts first
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
    order = S.order()
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

    # best[c-1] = maximal transitive subgroup of class <= c; the stream is
    # ordered by level then canonical key, and subgroups of equal order share
    # a level, so keeping the first strict maximum is deterministic
    best: list[frozenset[int] | None] = [None] * c_max
    for subgroup, gens in _iter_subgroup_sets(tables, p, dedupe, max_count):
        if not tables.is_transitive(subgroup):
            continue
        cls = tables.subgroup_class(subgroup, gens)
        for c in range(cls, c_max + 1):
            if best[c - 1] is None or len(best[c - 1]) < len(subgroup):
                best[c - 1] = subgroup

    exponents = []
    witnesses = []
    for c in range(1, c_max + 1):
        subgroup = best[c - 1]
        if subgroup is None:
            raise AssertionError(f"no transitive subgroup found for class {c}")
        _, e = bounds.prime_power(len(subgroup)) if len(subgroup) > 1 else (p, 0)
        exponents.append(e)
        witnesses.append(tables.to_perm_group(subgroup))
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
TABLE2_EXHAUSTIVE_KMAX = 3
