"""Exact arithmetic for finite permutation groups.

Points are 0-indexed and actions are on the right: ``g(point)`` is the image
of a point and ``a * b`` means "apply a, then b".  Group order and membership
come from a deterministic base/strong-generating-set chain (no random
Schreier-Sims), built once per group on first demand; a series term or a
center keeps the chain grown for it.  G's own chain build picks the engine
for every chain in G: if the push loop grows it by index-p adjoins (Sims
1990; Seress, "Permutation Group Algorithms", 2003, ch. 7), which sift no
Schreier generator, G and its subgroups are nilpotent and grow that way, so
a p-group's series term N keeps exactly log_p |N| generators; else G uses
incremental Schreier-Sims (a chain is verified data between calls, so a call
sifts only the Schreier generators with a new point or strong generator) and
its closures a worklist.  A nilpotent G's chain is seeded by its normal
generators Y, which generate G: closures conjugate by Y alone, and the lower
central series seeds each term with the commutators of Y and the seeds that
closed the term before (Holt, Eick & O'Brien, "Handbook of Computational
Group Theory", 2005).  The series and the center close members of G, which
are not checked again.  A chain attached to a group is never mutated
afterwards, so groups are safe to share across threads.  The engine works on
byte strings: an element of degree n <= 256 is the n-byte string of its
images, and a Permutation wraps its engine element, so the engine reads a
generator and hands an element back with no conversion.  A chain's levels
and the seeds of a closure are such strings, and a group's normal generators
are stored once with their inverses as (y^-1, y) pairs, which every closure
and series term reads.  A product "apply a, then b", public or in the
engine, runs in C as ``a.translate(b + pad)``, with pad the identity's bytes
past n, so b + pad is the 256-byte table translate reads; an inverse is
``bytes.maketrans(a, identity)[:n]``.  Elements are stored unpadded.  Past
degree 256 a point does not fit in a byte: there an element is a _Wide image
tuple whose translate is the product ``itemgetter(*a)(b)`` and whose pad is
empty, so every engine function runs on both.  The engine only combines
elements of one group, whose generators' degrees PermGroup checks once.
Past order ``ELEMENT_LIMIT``, a group's element list and its center are
refused.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import math
import threading
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

ELEMENT_LIMIT = 1_000_000  # the largest order whose elements or center are computed

class GroupError(Exception):
    """A group-theoretic precondition failed."""


class NotNilpotentError(GroupError):
    """Raised when an operation requires a nilpotent group."""


class GuardExceeded(GroupError):
    """A size guard or search budget was exceeded."""


class Permutation:
    """A bijection of {0, ..., n-1}, wrapping its engine element: the n-byte
    string of its images up to degree 256, a _Wide image tuple past it."""

    __slots__ = ("_element",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        n = len(images)
        seen = [False] * n
        for x in images:
            if type(x) is not int or not 0 <= x < n or seen[x]:  # bool is not a point
                raise ValueError(f"not a permutation of 0..{n - 1}: {images!r}")
            seen[x] = True
        self._element = _element(images)

    @staticmethod
    @functools.cache
    def identity(degree: int) -> Permutation:
        if degree < 0:
            raise ValueError(f"degree must be non-negative, got {degree}")
        return _raw(_one(degree))

    @classmethod
    def from_cycles(cls, degree: int, *cycles: Sequence[int]) -> Permutation:
        """Build a permutation from disjoint cycles; omitted points are fixed."""
        images = list(range(degree))
        seen = set()
        for cycle in cycles:
            for x in cycle:
                if type(x) is not int:  # bool is not a point
                    raise ValueError(f"point {x!r} is not an integer")
                if not 0 <= x < degree:
                    raise ValueError(f"point {x} out of range for degree {degree}")
                if x in seen:
                    raise ValueError(f"point {x} is repeated in the cycles")
                seen.add(x)
            for a, b in zip(cycle, cycle[1:]):
                images[a] = b
            if cycle:
                images[cycle[-1]] = cycle[0]
        return cls(images)

    @property
    def images(self) -> tuple[int, ...]:
        return tuple(self._element)

    @property
    def degree(self) -> int:
        return len(self._element)

    def __call__(self, point: int) -> int:
        if not 0 <= point < len(self._element):
            raise ValueError(f"point {point} out of range for degree {len(self._element)}")
        return self._element[point]

    def __mul__(self, other: Permutation) -> Permutation:
        # apply self first, then other
        if not isinstance(other, Permutation):
            return NotImplemented
        a, b = self._element, other._element
        if len(a) != len(b):
            raise ValueError("degree mismatch")
        return _raw(a.translate(b + _pad(len(a))))

    def inverse(self) -> Permutation:
        return _raw(_invert(self._element))

    def __pow__(self, n: int) -> Permutation:
        if n < 0:
            return self.inverse() ** (-n)
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return Permutation.identity(self.degree) if result is None else result

    def is_identity(self) -> bool:
        return self._element == _one(len(self._element))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its minimum."""
        seen = set()
        out = []
        for i in range(len(self._element)):
            if i in seen or self._element[i] == i:
                continue
            cycle = [i]
            j = self._element[i]
            while j != i:
                seen.add(j)
                cycle.append(j)
                j = self._element[j]
            out.append(tuple(cycle))
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._element == other._element

    def __hash__(self) -> int:
        return hash(self._element)

    def __lt__(self, other: Permutation) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        a, b = self._element, other._element
        # bytes and _Wide do not compare with each other
        return a < b if type(a) is type(b) else tuple(a) < tuple(b)

    def __repr__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return f"Permutation.identity({self.degree})"
        text = "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)
        return f"Permutation[{self.degree}: {text}]"


def _raw(g: _Element) -> Permutation:
    """Wrap an engine element, which is already known to be a bijection."""
    p = Permutation.__new__(Permutation)
    p._element = g
    return p


class _Wide(tuple):
    """An engine element past degree 256, where a point does not fit in a
    byte: an image tuple whose translate(b), b a tuple (the pad is empty),
    is the product "apply self, then b"."""

    __slots__ = ()

    def translate(self, b: tuple[int, ...]) -> _Wide:
        return _Wide(itemgetter(*self)(b))


_Element = bytes | _Wide  # a permutation as the engine stores it
_Pair = tuple[_Element, _Element]  # (g^-1, g)
_ID = bytes(range(256))  # _ID[:n] is the identity of degree n <= 256, _ID[n:] its pad


def _element(images: Sequence[int]) -> _Element:
    """The engine element of an image sequence: its bytes up to degree 256."""
    return bytes(images) if len(images) <= 256 else _Wide(images)


@functools.cache
def _one(degree: int) -> _Element:
    """The engine's identity element of a degree."""
    return _element(range(degree))


@functools.cache
def _pad(degree: int) -> bytes | tuple[()]:
    """What a product a.translate(b + pad) appends to b: the identity's
    bytes past degree, which make b the 256-byte table translate reads, and
    nothing for a _Wide."""
    return _ID[degree:] if degree <= 256 else ()


def _invert(g: _Element) -> _Element:
    """g^-1: maketrans(g, identity) sends each g[x] back to x."""
    n = len(g)
    if n <= 256:
        return bytes.maketrans(g, _ID[:n])[:n]
    inv = [0] * n
    for i, x in enumerate(g):
        inv[x] = i
    return _Wide(inv)


def commutator(x: Permutation, y: Permutation) -> Permutation:
    """[x, y] = x^-1 y^-1 x y, computed as (y x)^-1 (x y) with one inverse."""
    return (y * x).inverse() * (x * y)


class _Level:
    """One level of a stabilizer chain, every element an engine element: a
    base point, the strong generators that move it, a transversal mapping
    each orbit point to a coset representative u with point_base^u = point,
    and the inverses of those representatives."""

    __slots__ = ("point", "gens", "transversal", "inverses")

    def __init__(self, point: int, identity: _Element):
        self.point = point
        self.gens: list[_Element] = []
        self.transversal: dict[int, _Element] = {point: identity}
        self.inverses: dict[int, _Element] = {point: identity}


def _sift(levels: list[_Level], h: _Element, start: int = 0) -> _Element:
    """Strip h through levels[start:]; the residue is the identity exactly
    when h lies in the group those levels describe."""
    pad = _pad(len(h))
    for level in itertools.islice(levels, start, None):
        point = level.point
        x = h[point]
        if x != point:
            u_inv = level.inverses.get(x)
            if u_inv is None:
                return h
            h = h.translate(u_inv + pad)
    return h


def _place(levels: list[_Level], g: _Element) -> int:
    """Store g at its home level, the first whose base point it moves, and
    return that level's index; when g fixes every base point, its home is a
    new last level based at the least point it moves."""
    for i, level in enumerate(levels):
        if g[level.point] != level.point:
            level.gens.append(g)
            return i
    levels.append(_Level(_least_moved(g), _one(len(g))))
    levels[-1].gens.append(g)
    return len(levels) - 1


def _least_moved(g: _Element) -> int:
    return next(x for x, y in enumerate(g) if x != y)


def _build_chain(levels: list[_Level], generators: Iterable[_Element]) -> list[_Level]:
    """Deterministic incremental Schreier-Sims: extend levels, a verified
    chain that no group holds yet ([] or base points with no generators), by
    generators, engine elements of the chain's degree.

    A strong generator is stored at the first level whose base point it
    moves; the group at level i is generated by everything stored at levels
    >= i.  Levels are verified bottom-up from the highest one touched: every
    Schreier generator u_x * s * u_{x^s}^-1 of level i must sift to the
    identity through the deeper levels, and the first non-identity residue
    becomes a new strong generator, after which verification restarts at its
    home level.

    Transversals only grow, from the points already in them, and no u_x is
    replaced; the deeper levels' group only grows too, so a Schreier
    generator once verified stays verified.  As the chain is verified on
    entry, a call sifts only the pairs with a new point or a new generator:
    verified, local to the call, maps (i, id(s)) to how many points of level
    i's transversal have a verified pair with s, starting at the level's
    size on entry for an s already stored and at 0 for an s this call
    places (the chain keeps every s alive, so no id is reused).
    Verification skips tree edges (u_x * s == u_{x^s}).  A new point
    y = x^s gets u_y = u_x * s and u_y^-1 = s^-1 * u_x^-1, each s inverted
    once per call.
    """

    def level_gens(i: int) -> list[_Element]:
        return [g for level in levels[i:] for g in level.gens]

    verified = {
        (i, id(s)): len(level.transversal) for i, level in enumerate(levels) for s in level_gens(i)
    }
    inverse = functools.cache(_invert)

    def extend_transversals(top: int) -> None:
        for j, level in enumerate(levels[: top + 1]):
            transversal, inverses = level.transversal, level.inverses
            pad = _pad(len(transversal[level.point]))
            frontier = list(transversal)
            gens = level_gens(j)
            while frontier:
                x = frontier.pop()
                u = transversal[x]
                for s in gens:
                    y = s[x]
                    if y not in transversal:
                        transversal[y] = u.translate(s + pad)
                        inverses[y] = inverse(s).translate(inverses[x] + pad)
                        frontier.append(y)

    def first_residue(i: int) -> _Element | None:
        """Sift the Schreier generators of level i not verified yet; return
        the first non-identity residue, or None once all are verified."""
        level = levels[i]
        identity = level.transversal[level.point]
        pad = _pad(len(identity))
        points = list(level.transversal.items())
        for s in level_gens(i):
            key = (i, id(s))
            s_pad = s + pad
            for k in range(verified.get(key, 0), len(points)):
                x, u = points[k]
                us, y = u.translate(s_pad), s[x]
                if us != level.transversal[y]:
                    residue = _sift(levels, us.translate(level.inverses[y] + pad), i + 1)
                    if residue != identity:
                        # this pair is residue times deeper transversal
                        # elements, so placing residue verifies it
                        verified[key] = k + 1
                        return residue
            verified[key] = len(points)
        return None

    i = max((_place(levels, g) for g in generators if g != _one(len(g))), default=-1)
    extend_transversals(i)
    while i >= 0:
        residue = first_residue(i)
        if residue is None:
            i -= 1
        else:
            # residue fixes the base points of levels 0..i, so its home is
            # at least i + 1
            i = _place(levels, residue)
            extend_transversals(i)
    return levels


def _adjoin(levels: list[_Level], w: _Element, w_inv: _Element, q: int) -> None:
    """Extend levels, the verified chain of M, to that of <M, w>, where w
    normalizes M, w^q lies in M and w does not (q prime); w_inv is w^-1.

    w sifts to r = w m (m in M), stored at level i where the sift stopped.
    r fixes the base points before i, so it normalizes M_i, the group of the
    levels >= i, and r^q lies in M_i.  r moves level i's base point out of
    its M_i-orbit D and permutes the M_i-orbits with period q, so <M_i, r>
    has the orbit D, D^r, ..., D^(r^(q-1)): u_(x^(r^a)) = u_x r^a, with
    inverse r^-a u_x^-1, the product r^-1 * u^-1, where r^-1 is w_inv when
    the sift left w as it was.  That growth is all of the index q, so the
    other levels stay verified, and no Schreier generator is sifted.
    """
    r = _sift(levels, w)
    level = levels[_place(levels, r)]
    r_inv = w_inv if r is w else _invert(r)
    pad = _pad(len(r))
    r_pad = r + pad
    coset = [(x, u, level.inverses[x]) for x, u in level.transversal.items()]
    for _ in range(q - 1):
        coset = [(r[x], u.translate(r_pad), r_inv.translate(u_inv + pad)) for x, u, u_inv in coset]
        for y, u, u_inv in coset:
            level.transversal[y] = u
            level.inverses[y] = u_inv


def _least_prime(w: _Element) -> int:
    """The least prime dividing the order of w, which is not the identity:
    the least d > 1 dividing the length of one of its cycles, 2 as soon as
    one cycle has even length."""
    seen = bytearray(len(w))
    lengths = set()
    for start in range(len(w)):
        if not seen[start]:
            n, x = 0, start
            while not seen[x]:
                seen[x] = 1
                x = w[x]
                n += 1
            if n % 2 == 0:
                return 2
            lengths.add(n)
    return next(d for d in itertools.count(3) if any(n % d == 0 for n in lengths))


def _close(
    levels: list[_Level],
    conjugators: Sequence[_Pair],
    seed: _Element,
    adjoined: list[_Pair],
) -> bool:
    """Grow levels, the verified chain of a normal subgroup M of G, to that
    of the normal closure of <M, seed> (seed in G), appending (w^-1, w) for
    each adjoined w to adjoined; conjugators holds (g^-1, g) for g in G that
    with M generate G, such as G's normal generators (a g in M may be left
    out: [w, g] lies in M).  False, with levels still a chain of a normal
    subgroup, when the loop proves G is not nilpotent.  Every element is an
    engine element.

    The top w of a stack started at the seed is adjoined once w^q (q the
    least prime dividing w's order) and every [w, g] lie in M: then wM is
    central of order q in G/M.  Until then the first not in M is pushed;
    after an adjoin, the frames now in M are dropped.

    For nilpotent G, each push strictly lowers the normal closure N of the
    top, so the stack holds at most log_2 |G| <= log_2 n! < limit frames:
    [N, G] < N for N != 1, and N/[N, G] is cyclic on w; if w^q generated it
    too, the q-part of w, not 1, would lie in [N, G], and its normal
    closure, the q-part of N, would equal its commutator with G, so be 1.
    A pushed element equal to one on the stack also proves G is not
    nilpotent: power steps alone lower the order, and a cycle through a
    commutator step puts it in every lower-central term.
    """
    identity, pad = _one(len(seed)), _pad(len(seed))
    if _sift(levels, seed) == identity:
        return True
    limit = math.factorial(len(seed)).bit_length()

    def frame(w: _Element):
        q, w_inv = _least_prime(w), _invert(w)

        def children():
            # w^q as q - 1 products w * w^a
            power = w
            for _ in range(1, q):
                power = w.translate(power + pad)
            yield power
            w_pad = w + pad
            for g_inv, g in conjugators:
                yield w_inv.translate(g_inv + pad).translate(w_pad).translate(g + pad)  # w^-1 g^-1 w g

        return w, w_inv, q, children()

    stack = [frame(seed)]
    while stack:
        w, w_inv, q, children = stack[-1]
        h = next((h for h in children if _sift(levels, h) != identity), None)
        if h is None:
            stack.pop()
            _adjoin(levels, w, w_inv, q)
            adjoined.append((w_inv, w))
            while stack and _sift(levels, stack[-1][0]) == identity:
                stack.pop()
        elif len(stack) >= limit or any(h == f[0] for f in stack):
            return False
        else:
            stack.append(frame(h))
    return True


def _worklist_closure(
    levels: list[_Level],
    conjugators: Sequence[_Pair],
    seed: _Element,
    adjoined: list[_Pair],
) -> bool:
    """_close by Schreier-Sims, for any G: a candidate that sifts through
    the chain is dropped; any other h is appended to adjoined as (h^-1, h),
    extends the chain and queues its conjugates g^-1 h g.  Always True."""
    identity, pad = _one(len(seed)), _pad(len(seed))
    queue = collections.deque([seed])
    while queue:
        h = queue.popleft()
        if _sift(levels, h) != identity:
            adjoined.append((_invert(h), h))
            _build_chain(levels, (h,))
            h_pad = h + pad
            queue.extend(g_inv.translate(h_pad).translate(g + pad) for g_inv, g in conjugators)
    return True


class PermGroup:
    """A permutation group given by generators of one common degree."""

    def __init__(self, degree: int, generators: Iterable[Permutation] = ()):
        if degree < 0:
            raise ValueError(f"degree must be non-negative, got {degree}")
        generators = tuple(generators)
        for g in generators:
            if g.degree != degree:
                raise ValueError("degree mismatch among generators")
        self._degree = degree
        self._generators = generators
        self._chain: list[_Level] | None = None
        self._normal: Sequence[_Pair] = ()  # set with _chain
        self._engine = _close  # grows every chain in self; _levels may pick the worklist
        self._transitive: bool | None = None  # set by is_transitive
        self._lock = threading.Lock()

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def generators(self) -> tuple[Permutation, ...]:
        return self._generators

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self._degree)

    def _levels(self) -> list[_Level]:
        # the push loop closes each generator g_j in turn, conjugating by
        # g_j and the ones after it (those before lie in the closure so far);
        # the g_j it adjoins for are the normal generators Y, which for
        # nilpotent self generate it (G' lies in the Frattini subgroup); if
        # it proves self is not nilpotent, Schreier-Sims builds the chain
        if self._chain is None:
            with self._lock:
                if self._chain is None:
                    gens = [g._element for g in self._generators]
                    identity = _one(self._degree)
                    first = next((g for g in gens if g != identity), None)
                    levels = [] if first is None else [_Level(_least_moved(first), identity)]
                    pairs = [(_invert(g), g) for g in gens]
                    normal: list[_Pair] = []
                    for j, pair in enumerate(pairs):
                        adjoined: list[_Pair] = []
                        if not _close(levels, pairs[j:], pair[1], adjoined):
                            levels, normal, self._engine = _build_chain([], gens), pairs, _worklist_closure
                            break
                        if adjoined:
                            normal.append(pair)
                    self._normal, self._chain = normal, levels
        return self._chain

    def _normal_generators(self) -> Sequence[_Pair]:
        """(y^-1, y) pairs of engine elements y whose normal closure is self and
        which generate it: the normal generators Y for nilpotent self, else
        all the generators."""
        self._levels()
        return self._normal

    def order(self) -> int:
        n = 1
        for level in self._levels():
            n *= len(level.transversal)
        return n

    def __contains__(self, g: Permutation) -> bool:
        if not isinstance(g, Permutation) or g.degree != self._degree:
            return False
        return _sift(self._levels(), g._element) == _one(self._degree)

    def is_abelian(self) -> bool:
        gens = self._generators
        return all(
            (a * b) == (b * a) for a, b in itertools.combinations(gens, 2)
        )

    def orbit(self, point: int) -> list[int]:
        """The orbit of point, sorted ascending."""
        if not 0 <= point < self._degree:
            raise ValueError(f"point {point} out of range for degree {self._degree}")
        gens = [g._element for g in self._generators]
        seen = {point}
        frontier = [point]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = g[x]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return sorted(seen)

    def is_transitive(self) -> bool:
        """Whether one orbit covers every point (kept, as the generators never
        change); the empty set has no orbit."""
        if self._transitive is None:
            self._transitive = self._degree > 0 and len(self.orbit(0)) == self._degree
        return self._transitive

    def is_regular(self) -> bool:
        return self.is_transitive() and self.order() == self._degree

    def elements(self) -> list[Permutation]:
        """All group elements; raises GuardExceeded when order > ELEMENT_LIMIT."""
        if self.order() > ELEMENT_LIMIT:
            raise GuardExceeded(f"group of order {self.order()} exceeds element limit {ELEMENT_LIMIT}")
        pad = _pad(self._degree)
        products = [_one(self._degree)]
        for level in reversed(self._levels()):
            tables = [u + pad for u in level.transversal.values()]
            products = [rest.translate(t) for rest in products for t in tables]
        return [_raw(g) for g in products]

    def _closure(self, seeds: Sequence[_Element]) -> tuple[PermGroup, list[_Pair]]:
        """The normal closure of the seeds, engine elements of members of self
        not checked again, and the seeds h it closed (those outside the
        closure of the ones before, for which the engine adjoined) as
        (h^-1, h): the pair the engine stored if it adjoined h itself, else
        h inverted here.  One pass of the engine self's chain build picked,
        so the push loop cannot give up."""
        conjugators = self._normal_generators()
        gens: list[_Pair] = []
        levels: list[_Level] = []
        closed: list[_Pair] = []
        for h in seeds:
            adjoined = len(gens)
            if not self._engine(levels, conjugators, h, gens):
                raise RuntimeError("the push loop gave up in a group whose chain it built")
            if len(gens) > adjoined:
                closed.append(next((p for p in gens[adjoined:] if p[1] is h), None) or (_invert(h), h))
        return _group_on(self, gens, levels), closed

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "degree": self._degree,
            "generators": [list(g._element) for g in self._generators],
        }

    @classmethod
    def from_json(cls, data: dict) -> PermGroup:
        for key in sorted(data):
            if key not in ("degree", "generators"):
                raise ValueError(f"unknown key {key!r}")
        degree = data["degree"]
        if type(degree) is not int or degree < 1:  # bool is not a degree
            raise ValueError("degree must be a positive integer")
        generators = data.get("generators", [])
        if not isinstance(generators, list):
            raise ValueError("generators must be a list")
        gens = []
        for i, images in enumerate(generators):
            if not isinstance(images, list) or len(images) != degree:
                raise ValueError(f"generators[{i}] must be a list of {degree} points")
            try:
                gens.append(Permutation(images))
            except ValueError as exc:
                raise ValueError(f"generators[{i}]: {exc}") from exc
        return cls(degree, gens)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    def __repr__(self) -> str:
        return f"PermGroup(degree={self._degree}, ngens={len(self._generators)})"


def _group_on(parent: PermGroup, pairs: list[_Pair], levels: list[_Level]) -> PermGroup:
    """The subgroup of parent generated by the gs of pairs, (g^-1, g) of
    engine elements, keeping levels, a verified chain of it, pairs as its
    normal generators, and parent's engine: a subgroup of a nilpotent group
    is nilpotent, and the worklist serves any group."""
    group = PermGroup(parent.degree, (_raw(g) for _, g in pairs))
    group._engine, group._chain = parent._engine, levels
    group._normal = pairs
    return group


@dataclass(frozen=True)
class CentralSeries:
    """The descending commutator series G = term[0] >= term[1] >= ...

    nilpotency_class is None when the series stalls above the trivial group.
    """

    terms: tuple[PermGroup, ...]
    nilpotency_class: int | None

    def order_profile(self) -> list[int]:
        return [t.order() for t in self.terms]


def _commutators(xs: Sequence[_Pair], ys: Sequence[_Pair]) -> list[_Element]:
    """The non-identity commutators [x, y] = x^-1 y^-1 x y of the (x^-1, x)
    and (y^-1, y) pairs of engine elements, x-major.  When xs is ys, only
    the pairs (y_i, y_j) with i < j are formed: [y_j, y_i] is the inverse of
    [y_i, y_j], so it lies in any closure that [y_i, y_j] does, and
    [y, y] = 1."""
    degree = len(ys[0][1])
    identity, pad = _one(degree), _pad(degree)
    x_pairs = [(x_inv, x + pad) for x_inv, x in xs]
    y_pairs = [(y_inv + pad, y + pad) for y_inv, y in ys]
    seeds = (
        x_inv.translate(y_inv).translate(x).translate(y)
        for i, (x_inv, x) in enumerate(x_pairs)
        for y_inv, y in y_pairs[i + 1 if xs is ys else 0 :]
    )
    return [s for s in seeds if s != identity]


def lower_central_series(G: PermGroup) -> CentralSeries:
    """Iterate term[i+1] = [term[i], G] until the series stabilizes.

    With Y the normal generators of G (G = <Y>) and term[i] the normal
    closure of X_i, [term[i], G] is the normal closure of the commutators
    [x, y], x in X_i, y in Y; X_0 = Y, whose pairs (y_i, y_j) are taken
    with i < j only, and X_(i+1) is the commutators that closure closed,
    each with the inverse the engine stored when it adjoined it.  It is
    grown by adjoins for nilpotent G (a p-group's term N keeps exactly
    log_p |N| generators)."""
    ys = xs = G._normal_generators()
    terms = [G]
    while terms[-1].order() > 1:
        current = terms[-1]
        nxt, xs = G._closure(_commutators(xs, ys))
        if nxt.order() == current.order():
            # stalled above the trivial group
            return CentralSeries(tuple(terms), None)
        terms.append(nxt)
    return CentralSeries(tuple(terms), len(terms) - 1)


def nilpotency_class(G: PermGroup) -> int:
    """Least c with the (c+1)-st commutator series term trivial; 0 for the
    trivial group."""
    series = lower_central_series(G)
    if series.nilpotency_class is None:
        raise NotNilpotentError("not nilpotent")
    return series.nilpotency_class


def _central_from_point_images(G: PermGroup) -> list[_Element]:
    """The nonidentity central elements of a transitive nonabelian G, as
    engine elements, found without listing G.

    Level 0 of G's chain has base point b and, G being transitive, a u_y
    with b^u_y = y for every point y; the deeper levels generate G_b.  A
    central z is z_t: y -> t^u_y for t = b^z, and t is fixed by G_b, which
    commutes with z.  Conversely, for t fixed by G_b, z_t is well defined
    (if b^g = b^g', then g'g^-1 in G_b fixes t), commutes with G
    (z_t(b^g)^h = t^(gh)) and is injective (G_t = G_b, as G_b <= G_t and
    the two have equal order), so membership in G is the only test.  The
    order of z_t(0) keeps the center's generators independent of b.
    """
    levels = G._levels()
    b = levels[0].point
    stabilizer_gens = [s for level in levels[1:] for s in level.gens]
    fixed = [t for t in range(G.degree) if t != b and all(s[t] == t for s in stabilizer_gens)]
    u = [levels[0].transversal[y] for y in range(G.degree)]
    candidates = (_element([u_y[t] for u_y in u]) for t in sorted(fixed, key=u[0].__getitem__))
    identity = _one(G.degree)
    return [z for z in candidates if _sift(levels, z) == identity]


def center(G: PermGroup) -> PermGroup:
    """The subgroup of elements commuting with every generator.

    An abelian G is its own center.  Otherwise a transitive G is handled
    from the chain its order guard builds, one candidate per point fixed by
    the stabilizer of the first base point and no element list; an
    intransitive G falls back to a scan of all its elements.  Either way
    its order must stay within ELEMENT_LIMIT, which is checked first.  The
    central elements are their own conjugates, so their normal closure
    adjoins only them and their powers, each multiplying the order by a
    prime: at most log_2 |Z| generators.
    """
    if G.order() > ELEMENT_LIMIT:
        raise GuardExceeded(
            f"too large for center scan: order {G.order()} is over the limit {ELEMENT_LIMIT}"
        )
    if G.is_abelian():
        return G
    if G.is_transitive():
        central = _central_from_point_images(G)
    else:
        central = [
            z._element
            for z in G.elements()
            if not z.is_identity() and all(z * g == g * z for g in G.generators)
        ]
    return G._closure(central)[0]
