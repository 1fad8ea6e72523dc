"""Record golden.json: every op's exit code and stdout digest, each checked
once, when it is recorded, against an oracle that shares no code path with
the value it checks.

    python3 bench/run.py --record

The oracles:

* ``bound`` and ``table --table1``: ``f_closed`` for c <= 4 and the
  prefix-sum DP ``f_upper_dp`` for every other cell, plus an own scoring of
  the reported witness composition;
* ``search`` and ``table --table2``: the paper's Table 2 rows k <= 3 for
  p = 2, and for odd p the three facts that settle degrees p and p^2 (class
  1 gives the regular abelian group, class 2 gives k + floor(k/2)ceil(k/2),
  the whole wreath tower of class p^(k-1) is maximal above that), with every
  witness re-checked in sympy;
* ``construct``: the blueprint predictions recomputed here from the
  formulas, and the realized group's order, transitivity and class in sympy;
* ``analyze``: sympy's order, center order, class and lower central series;
* ``enumerate``: a brute-force subgroup lattice built from joins of cyclic
  subgroups over a naive multiplication table, and its conjugacy classes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re

from session import import_nilbound, materialize, output_text, run_op
from workloads import all_ops

# the paper's Table 2, rows k <= 3, classes 1..16
TABLE2 = {
    1: (1,) * 16,
    2: (2,) + (3,) * 15,
    3: (3, 5, 6) + (7,) * 13,
}
CENTER_SCAN_LIMIT = 1_000_000


def search_row(p: int, k: int, cmax: int) -> list[int]:
    if p == 2:
        return list(TABLE2[k][:cmax])
    tower = (p**k - 1) // (p - 1)
    row = []
    for c in range(1, cmax + 1):
        if c == 1:
            row.append(k)
        elif c >= p ** (k - 1):
            row.append(tower)
        elif c == 2:
            row.append(k + (k // 2) * ((k + 1) // 2))
        else:
            raise ValueError(f"no oracle for p={p}, k={k}, c={c}")
    return row


def score(parts) -> int:
    """The composition score, summed term by term."""
    total, prefix = 0, 0
    for i, a in enumerate(parts, start=1):
        total += a * sum(prefix**j for j in range(i))
        prefix += a
    return total


def f_oracle(k: int, c: int) -> int:
    from nilbound import bounds

    return bounds.f_closed(k, c) if c <= 4 else bounds.f_upper_dp(k, c)


def sympy_group(data: dict):
    from sympy.combinatorics import Permutation, PermutationGroup

    gens = [Permutation(g) for g in data["generators"]] or [Permutation(list(range(data["degree"])))]
    return PermutationGroup(gens)


def sympy_class(G) -> int | None:
    series = G.lower_central_series()
    return len(series) - 1 if series[-1].order() == 1 else None


def prediction(bp: dict) -> dict:
    """Degree, order and class bound of a blueprint, from the formulas."""
    kind, q = bp["kind"], bp["params"]
    if kind == "product":
        left, right = (prediction(f) for f in q["factors"])
        return {"degree": left["degree"] * right["degree"], "order": left["order"] * right["order"],
                "class_bound": max(left["class_bound"], right["class_bound"])}
    if kind in ("affine-unitriangular", "abelian-class2"):
        p, k, m = q["p"], q["k"], q["m"]
        cls = 2 if k > 1 and 1 <= m <= k - 1 else 1
        return {"degree": p**k, "order": p ** (k + m * (k - m)), "class_bound": cls}
    if kind == "sylow-wreath":
        p, k = q["p"], q["k"]
        return {"degree": p**k, "order": p ** ((p**k - 1) // (p - 1)), "class_bound": p ** (k - 1)}
    if kind == "wreath-polynomial":
        p, u, v, c = q["p"], q["u"], q["v"], q["c"]
        monomials = sum(1 for e in itertools.product(range(p), repeat=v) if sum(e) < c)
        return {"degree": p ** (u + v), "order": p ** (v + u * monomials), "class_bound": c}
    if kind == "dihedral-abelian":
        return {"degree": 2 ** q["k"], "order": 2 ** q["k"], "class_bound": q["c"]}
    raise ValueError(f"unknown kind {kind}")


def check_bound(op, text: str) -> str:
    k, c = int(op.argv[4]), int(op.argv[6])
    if "--json" in op.argv:
        data = json.loads(text)
        value, parts = data["f_upper"], data["witness_composition"]
    else:
        value = int(re.search(r"composition upper bound : log_p order <= (\d+)", text).group(1))
        parts = json.loads(re.search(r"witness composition\s+: (\[.*\])", text).group(1))
    want = f_oracle(k, c)
    if value != want or score(parts) != want or sum(parts) != k or len(parts) != c:
        raise AssertionError(f"{op.id}: f_upper {value}, witness {parts}, oracle {want}")
    return "f_closed" if c <= 4 else "f_upper_dp"


def check_table1(op, text: str) -> str:
    rows = [line for line in text.splitlines() if re.match(r"\s*\d+ \|", line)]
    kmax = int(op.argv[3])
    if len(rows) != kmax:
        raise AssertionError(f"{op.id}: {len(rows)} rows")
    for line in rows:
        k_text, values, mark = (part.strip() for part in line.split("|"))
        k = int(k_text)
        got = [int(v) for v in values.split()]
        if got != [f_oracle(k, c) for c in range(1, 5)] or mark != "ok":
            raise AssertionError(f"{op.id}: row {line!r}")
    return "f_closed"


def check_search(op, text: str) -> str:
    p, k = int(op.argv[2]), int(op.argv[4])
    data = json.loads(text)
    if data["exponents"] != search_row(p, k, 8):
        raise AssertionError(f"{op.id}: exponents {data['exponents']}")
    for c, (e, witness) in enumerate(zip(data["exponents"], data["witnesses"]), start=1):
        G = sympy_group(witness)
        if G.order() != p**e or not G.is_transitive() or sympy_class(G) > c:
            raise AssertionError(f"{op.id}: witness for class {c}")
    return "Table 2 / theory rows, sympy witnesses"


def check_table2(op, text: str) -> str:
    for line in text.splitlines():
        match = re.match(r"\s*(\d) \|(.*)\| (.*)$", line)
        if match is None:
            continue
        k, values, source = int(match.group(1)), match.group(2).split(), match.group(3)
        if k <= 3 and (tuple(map(int, values)) != TABLE2[k] or not source.startswith("exact")):
            raise AssertionError(f"{op.id}: row {line!r}")
        if k > 3 and not source.startswith("reference"):
            raise AssertionError(f"{op.id}: row {line!r}")
    return "Table 2 rows k <= 3"


def check_construct(op, text: str) -> str:
    bp = json.loads(op.argv[2])
    data = json.loads(text)
    want = prediction(bp)
    got = data["prediction"]
    if not data["realized"] or any(got[key] != want[key] for key in want):
        raise AssertionError(f"{op.id}: prediction {got}, oracle {want}")
    G = sympy_group(data["group"])
    cls = sympy_class(G)
    if (G.degree != want["degree"] or G.order() != want["order"] or not G.is_transitive()
            or cls is None or cls > want["class_bound"]):
        raise AssertionError(f"{op.id}: sympy order {G.order()}, class {cls}")
    return "blueprint formulas, sympy order/class"


def check_analyze(op, text: str) -> str:
    data = json.loads(text)
    G = sympy_group(json.loads(op.argv[2]))
    series = [H.order() for H in G.lower_central_series()]
    if series[-1] == 1:
        series = series[: series.index(1) + 1]
    want = {
        "order": G.order(),
        "nilpotency_class": sympy_class(G),
        "transitive": G.is_transitive(),
        "lower_central_orders": series,
        "center_order": G.center().order() if G.order() <= CENTER_SCAN_LIMIT else None,
    }
    if any(data[key] != value for key, value in want.items()):
        raise AssertionError(f"{op.id}: {data}, sympy {want}")
    return "sympy order/center/class/series"


def lattice(p: int, k: int) -> tuple[dict[int, int], int]:
    """Subgroup counts per order of the wreath tower, and the number of
    conjugacy classes of subgroups, by brute force over element tuples."""
    from nilbound.constructions import iterated_wreath_sylow

    gens = [g.images for g in iterated_wreath_sylow(p, k).generators]
    identity = tuple(range(p**k))
    elements, frontier = {identity}, [identity]
    while frontier:
        a = frontier.pop()
        for b in gens:
            c = tuple(b[x] for x in a)
            if c not in elements:
                elements.add(c)
                frontier.append(c)
    elements = sorted(elements)
    index = {e: i for i, e in enumerate(elements)}
    mult = [[index[tuple(b[x] for x in a)] for b in elements] for a in elements]
    e0 = index[identity]

    def close(seed):
        closed, todo = {e0, *seed}, [e0, *seed]
        while todo:
            x = todo.pop()
            for g in seed:
                y = mult[x][g]
                if y not in closed:
                    closed.add(y)
                    todo.append(y)
        return frozenset(closed)

    found = {frozenset({e0}): []}
    todo = [frozenset({e0})]
    while todo:
        H = todo.pop()
        covered = set(H)
        for x in range(len(elements)):
            if x in covered:
                continue
            J = close(found[H] + [x])
            covered |= J
            if J not in found:
                found[J] = found[H] + [x]
                todo.append(J)
    per_order: dict[int, int] = {}
    for H in found:
        per_order[len(H)] = per_order.get(len(H), 0) + 1
    inv = [row.index(e0) for row in mult]
    gen_ids = [index[g] for g in gens]
    seen, classes = set(), 0
    for H in found:
        if H in seen:
            continue
        classes += 1
        orbit, stack = {H}, [H]
        while stack:
            K = stack.pop()
            for g in gen_ids:
                conj = frozenset(mult[mult[inv[g]][h]][g] for h in K)
                if conj not in orbit:
                    orbit.add(conj)
                    stack.append(conj)
        seen |= orbit
    return per_order, classes


def check_enumerate(op, groups) -> str:
    p, k, dedupe = int(op.argv[0]), int(op.argv[1]), op.argv[2]
    per_order, classes = lattice(p, k)
    if dedupe == "set":
        got: dict[int, int] = {}
        for g in groups:
            got[g.order()] = got.get(g.order(), 0) + 1
        if got != per_order:
            raise AssertionError(f"{op.id}: {got}, lattice {per_order}")
    elif len(groups) != classes:
        raise AssertionError(f"{op.id}: {len(groups)} classes, lattice {classes}")
    return "brute-force subgroup lattice"


CHECKS = {
    "bound": check_bound,
    "search": check_search,
    "construct": check_construct,
    "analyze": check_analyze,
    "enumerate": check_enumerate,
}


def record(path) -> int:
    nilbound = import_nilbound()
    golden = {}
    for op in materialize(sorted(all_ops().values(), key=lambda o: o.id), nilbound):
        rec, output = run_op(op, nilbound)
        text = output_text(rec, output)
        if op.verb == "table":
            check = check_table1 if "--table1" in op.argv else check_table2
        else:
            check = CHECKS[op.verb]
        if rec["rc"] != 0:
            raise AssertionError(f"{op.id}: exit code {rec['rc']}: {rec.get('stderr')}")
        oracle = check(op, output if op.verb == "enumerate" else text)
        golden[op.id] = {"rc": rec["rc"], "sha256": hashlib.sha256(text.encode()).hexdigest(),
                         "bytes": len(text.encode()), "oracle": oracle}
        print(f"{op.id:60s} rc {rec['rc']}  {rec['dt']:8.3f} s  ok: {oracle}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"ops": golden}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(golden)} ops to {path}")
    return 0
