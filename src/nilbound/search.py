"""Exhaustive search for maximal-order transitive subgroups at tiny degree.

Every transitive p-subgroup of the symmetric group on p^k points is
conjugate to a subgroup of the iterated wreath tower, and conjugation
preserves order, transitivity and nilpotency class, so searching one fixed
tower is lossless.  Subgroups are enumerated bottom-up by index-p cyclic
extension: a subgroup H of order p^i extends to <H, g> for each g in the
normalizer of H with g^p in H, and every subgroup of order p^(i+1) arises
this way from a maximal subgroup.  As |K:H| = p is prime, every g in K - H
gives the same K, so each overgroup K of H is built once, from its least g.

The enumeration works over a multiplication table indexed by the sorted
element list of the tower, which keeps subgroups as plain integer sets; the
reported witnesses are re-analyzed through the permutation-group engine by
audit_row, so the two arithmetic paths check each other.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

from . import bounds
from .constructions import iterated_wreath_sylow, require_prime
from .perm import GuardExceeded, PermGroup, Permutation, nilpotency_class

DEFAULT_BUDGET = 500_000
BUDGET_ENV_VAR = "NILBOUND_BUDGET"

# exhaustive mode is limited to these degrees; the next tower (degree 16,
# order 2^15) is far past desk scale for full subgroup enumeration
EXHAUSTIVE_DEGREE_GUARD = 9
# a row holds one exponent per class bound; 1000 of them take ~0.2 s
CLASS_BOUND_LIMIT = 1000


def default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}")
    if budget < 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be non-negative, got {budget}")
    return budget


class _Tables:
    """Multiplication/inverse tables over the sorted element list of a group.

    mult[i][j] indexes elements[i] * elements[j]; the inverse of element i
    is read from its row as the column holding the identity."""

    def __init__(self, group: PermGroup):
        elements = sorted(g.images for g in group.elements())
        index = {images: i for i, images in enumerate(elements)}
        mult = []
        for a in elements:
            # a_times(b) is the image tuple of a * b; itemgetter of one index
            # gives a scalar, so degrees 0 and 1 (identity only) use tuple
            a_times = itemgetter(*a) if len(a) > 1 else tuple
            mult.append([index[a_times(b)] for b in elements])
        self.elements = elements
        self.index = index
        self.mult = mult
        self.identity = index[tuple(range(group.degree))]
        self.inv = [row.index(self.identity) for row in mult]
        self.degree = group.degree
        self.gen_indices = sorted(index[g.images] for g in group.generators)

    def conjugate_set(self, subgroup: frozenset[int], g: int) -> frozenset[int]:
        gi = self.inv[g]
        mult = self.mult
        return frozenset(mult[mult[gi][h]][g] for h in subgroup)

    def closure(self, seed: set[int]) -> frozenset[int]:
        """Subgroup generated by seed."""
        mult = self.mult
        closed = {self.identity} | seed
        frontier = list(closed)
        gens = list(seed)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = mult[x][g]
                if y not in closed:
                    closed.add(y)
                    frontier.append(y)
        return frozenset(closed)

    def is_transitive(self, subgroup: frozenset[int]) -> bool:
        return len({self.elements[h][0] for h in subgroup}) == self.degree

    def subgroup_class(self, subgroup: frozenset[int]) -> int:
        """Nilpotency class via the descending commutator series, computed
        from all element pairs (exact, no generator subtleties)."""
        mult, inv = self.mult, self.inv
        current = subgroup
        cls = 0
        while len(current) > 1:
            comms = set()
            for x in current:
                xi = inv[x]
                for h in subgroup:
                    comms.add(mult[mult[mult[xi][inv[h]]][x]][h])
            comms.discard(self.identity)
            nxt = self.closure(comms)
            if len(nxt) == len(current):
                raise AssertionError("commutator series stalled in a p-group")
            current = nxt
            cls += 1
        return cls

    def generating_set(self, subgroup: frozenset[int]) -> list[int]:
        """A small deterministic generating set: scan elements in index
        order, keeping those that enlarge the generated subgroup."""
        gens: list[int] = []
        generated: frozenset[int] = frozenset({self.identity})
        for h in sorted(subgroup):
            if h not in generated:
                gens.append(h)
                generated = self.closure(set(gens))
                if len(generated) == len(subgroup):
                    break
        return gens

    def to_perm_group(self, subgroup: frozenset[int]) -> PermGroup:
        gens = [Permutation(self.elements[h]) for h in self.generating_set(subgroup)]
        return PermGroup(self.degree, gens)


def _iter_subgroup_sets(
    tables: _Tables, p: int, dedupe: str, max_count: int | None
) -> Iterator[frozenset[int]]:
    """Yield subgroups of the table group as element-index sets, smallest
    order first, deterministic.  In conjugacy mode one representative per
    conjugacy class is yielded (the one with the least sorted element key)
    and only representatives are extended, which is sound because
    extensions of conjugate subgroups are conjugate.  Set mode is the same
    loop with no conjugators, so every orbit is {K} and K is its own
    representative.  Each overgroup K of H is built once, from the least g
    in K - H.  max_count None means default_budget()."""
    if dedupe not in ("set", "conjugacy"):
        raise ValueError(f"unknown dedupe mode {dedupe!r}")
    if max_count is None:
        max_count = default_budget()
    if max_count < 0:
        raise ValueError(f"max_count must be non-negative, got {max_count}")
    conjugators = tables.gen_indices if dedupe == "conjugacy" else ()
    identity, mult = tables.identity, tables.mult
    # powers[g] = [1, g, ..., g^(p-1)], so H<g> is the union of the cosets H g^j
    powers = [[identity] for _ in tables.elements]
    for _ in range(p - 1):
        for g, row in enumerate(powers):
            row.append(mult[row[-1]][g])

    trivial = frozenset({identity})
    yielded = 1
    level = [trivial]
    yield trivial

    while level:
        next_level: list[frozenset[int]] = []
        next_seen: set[frozenset[int]] = set()
        for H in level:
            covered = set(H)  # H and every overgroup already built from it
            for g, row in enumerate(powers):
                # <H, g> has order p*|H| when g^p is in H and g normalizes H
                if g in covered or mult[row[-1]][g] not in H or tables.conjugate_set(H, g) != H:
                    continue
                K = frozenset(mult[h][x] for h in H for x in row)
                covered |= K
                if K in next_seen:
                    continue
                orbit = {K}
                frontier = [K]
                while frontier:
                    current = frontier.pop()
                    for s in conjugators:
                        conj = tables.conjugate_set(current, s)
                        if conj not in orbit:
                            orbit.add(conj)
                            frontier.append(conj)
                next_seen |= orbit
                next_level.append(min(orbit, key=sorted))
                yielded += 1
                if yielded > max_count:
                    raise GuardExceeded(
                        f"search budget exceeded: visited {yielded} subgroups, "
                        f"over the budget {max_count}"
                    )
        next_level.sort(key=sorted)
        for K in next_level:
            yield K
        level = next_level


def enumerate_subgroups(
    S: PermGroup,
    dedupe: str = "set",
    max_count: int | None = None,
) -> Iterator[PermGroup]:
    """Stream every subgroup of the p-group S exactly once (set mode) or one
    representative per S-conjugacy class (conjugacy mode)."""
    order = S.order()
    p, _ = bounds.prime_power(order) if order > 1 else (2, 0)
    max_order = 128 if p == 2 else 81 if p == 3 else p
    if order > max_order:
        raise GuardExceeded(
            f"group order {order} exceeds subgroup enumeration guard {max_order}"
        )
    tables = _Tables(S)
    for subgroup in _iter_subgroup_sets(tables, p, dedupe, max_count):
        yield tables.to_perm_group(subgroup)


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
    tower = iterated_wreath_sylow(p, k)
    tables = _Tables(tower)

    # best[c-1] = maximal transitive subgroup of class <= c; the stream is
    # ordered by level then canonical key, and subgroups of equal order share
    # a level, so keeping the first strict maximum is deterministic
    best: list[frozenset[int] | None] = [None] * c_max
    for subgroup in _iter_subgroup_sets(tables, p, dedupe, max_count):
        if not tables.is_transitive(subgroup):
            continue
        cls = tables.subgroup_class(subgroup)
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
        cls = nilpotency_class(reloaded)
        good = (
            reloaded.degree == row.p**row.k
            and reloaded.is_transitive()
            and order == row.p ** row.exponents[c - 1]
            and cls <= c
        )
        checks.append(
            AuditCheck(
                f"witness-valid[c={c}]",
                good,
                f"degree {reloaded.degree}, order {order}, class {cls}",
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
