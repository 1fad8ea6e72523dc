"""Workload op lists.

An op is one call the closed-loop client makes: a CLI verb through
``nilbound.cli.main(argv)`` or a library call to
``nilbound.enumerate_subgroups``.  Op lists are plain data built without
importing nilbound, so the parent process can know the op ids; a session
turns the blueprints of ``analyze`` ops into group JSON when it starts.

The seed only orders the ops: it shuffles each phase and places the touch
ops (below) among them.  It does not relabel
the points of the analyzed groups: a relabelling leaves every analyze output
unchanged but moves the stabilizer-chain base, which changed single analyze
times by up to 2x and would have made the spread across seeds larger than
any useful bound.

Each workload centres on one layer.  It also makes small "touch" ops of
every other verb, so every per-verb metric is measured, and never zero, on
every workload; they are a small share of the workload's time.  The host's
speed switches between states ~1.7x apart, for seconds to minutes at a
time.  On witness and bounds, which fit only a few sessions in a run, each
other verb therefore gets two or three touch ops spread through the session,
so its metric samples the whole run, not one moment of each session.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

VERBS = ("construct", "analyze", "bound", "search", "table", "enumerate")


@dataclass(frozen=True)
class Op:
    """One client call.  ``argv`` is the CLI argument list; for ``analyze``
    the group argument is the blueprint JSON, replaced by the realized group
    when the session starts.  For ``enumerate`` argv holds (p, k, dedupe)."""

    id: str
    verb: str
    argv: tuple[str, ...]


def _bp(kind: str, **params) -> dict:
    return {"kind": kind, "params": params}


def _bp_name(bp: dict) -> str:
    params = bp["params"]
    if bp["kind"] == "product":
        inner = ",".join(_bp_name(f) for f in params["factors"])
    else:
        inner = ",".join(str(v) for v in params.values())
    return f"{bp['kind']}({inner})"


def construct(bp: dict) -> Op:
    return Op(
        f"construct:{_bp_name(bp)}",
        "construct",
        ("construct", "--blueprint", json.dumps(bp, sort_keys=True)),
    )


def analyze(bp: dict) -> Op:
    return Op(
        f"analyze:{_bp_name(bp)}",
        "analyze",
        ("analyze", "--group", json.dumps(bp, sort_keys=True)),
    )


def bound(k: int, c: int, as_json: bool, p: int = 2) -> Op:
    argv = ("bound", "--p", str(p), "--k", str(k), "--c", str(c))
    if as_json:
        argv += ("--json",)
    return Op(f"bound:{p},{k},{c}:{'json' if as_json else 'text'}", "bound", argv)


def search(p: int, k: int, dedupe: str) -> Op:
    return Op(
        f"search:{p},{k}:{dedupe}",
        "search",
        ("search", "--p", str(p), "--k", str(k), "--dedupe", dedupe, "--json"),
    )


def table1(kmax: int) -> Op:
    return Op(f"table:table1:{kmax}", "table", ("table", "--table1", "--kmax", str(kmax)))


def table2() -> Op:
    return Op("table:table2", "table", ("table", "--table2"))


def enumerate_op(p: int, k: int, dedupe: str) -> Op:
    return Op(f"enumerate:{p},{k}:{dedupe}", "enumerate", (str(p), str(k), dedupe))


MIXED_PRODUCT = _bp(
    "product",
    factors=[_bp("affine-unitriangular", p=3, k=2, m=1), _bp("sylow-wreath", p=2, k=3)],
)

# every blueprint kind, up to the degree-64 wreath/polynomial groups
WITNESS_BLUEPRINTS = (
    _bp("affine-unitriangular", p=2, k=6, m=3),
    _bp("abelian-class2", p=2, k=6, m=3, a=1),
    _bp("sylow-wreath", p=2, k=4),
    _bp("sylow-wreath", p=3, k=2),
    _bp("wreath-polynomial", p=2, u=3, v=3, c=4),
    _bp("wreath-polynomial", p=2, u=2, v=4, c=3),
    _bp("wreath-polynomial", p=3, u=1, v=2, c=3),
    _bp("dihedral-abelian", k=6, c=4),
    _bp("dihedral-abelian", k=6, c=5),
    MIXED_PRODUCT,
)
# order 2^24 is past the center scan limit, so analyze reports center_order null
REFUSED_CENTER = _bp("wreath-polynomial", p=2, u=3, v=3, c=3)

# (k, c) cells where the composition enumeration dominates
BOUND_GRID = ((30, 6), (25, 6), (20, 6), (18, 8), (15, 8), (30, 5), (60, 4), (120, 3))

# every (p, k) the exhaustive search guard (p^k <= 9) admits
SEARCH_DEGREES = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1))
ENUMERATE_TOWERS = ((2, 3), (3, 2))


def _witness(rng: random.Random) -> tuple[list[list[Op]], list[Op]]:
    analyzed = [analyze(bp) for bp in WITNESS_BLUEPRINTS] + [analyze(REFUSED_CENTER)]
    touch = [
        bound(24, 5, as_json=True, p=3),
        bound(22, 5, as_json=False),
        bound(21, 5, as_json=True, p=7),
        search(2, 3, "conjugacy"),
        search(2, 3, "set"),
        search(3, 2, "set"),
        table1(30),
        table2(),
        enumerate_op(2, 3, "conjugacy"),
        enumerate_op(2, 3, "set"),
        enumerate_op(3, 2, "set"),
    ]
    return [[construct(bp) for bp in WITNESS_BLUEPRINTS], analyzed], touch


def _bounds(rng: random.Random) -> tuple[list[list[Op]], list[Op]]:
    # alternate text and --json along the shuffled order
    cells = list(BOUND_GRID)
    rng.shuffle(cells)
    first_json = rng.random() < 0.5
    grid = [bound(k, c, as_json=(i % 2 == 0) == first_json) for i, (k, c) in enumerate(cells)]
    small = (
        _bp("affine-unitriangular", p=2, k=5, m=2),
        _bp("dihedral-abelian", k=7, c=3),
        _bp("sylow-wreath", p=2, k=3),
    )
    touch = [
        *(construct(bp) for bp in small),
        *(analyze(bp) for bp in small),
        search(2, 3, "set"),
        search(2, 3, "conjugacy"),
        search(3, 2, "conjugacy"),
        enumerate_op(2, 3, "set"),
        enumerate_op(2, 3, "conjugacy"),
        enumerate_op(3, 2, "set"),
    ]
    return [grid, [table1(40)]], touch


def _search(rng: random.Random) -> tuple[list[list[Op]], list[Op]]:
    searches = [search(p, k, d) for p, k in SEARCH_DEGREES for d in ("conjugacy", "set")]
    enums = [enumerate_op(p, k, d) for p, k in ENUMERATE_TOWERS for d in ("set", "conjugacy")]
    touch = [
        construct(_bp("affine-unitriangular", p=3, k=3, m=1)),
        analyze(_bp("sylow-wreath", p=2, k=3)),
        bound(16, 5, as_json=False, p=2),
    ]
    return [searches + enums, [table2()]], touch


WORKLOADS = {"witness": _witness, "bounds": _bounds, "search": _search}


def build_ops(workload: str, seed: int) -> list[Op]:
    """The op list of one session: phases in order, each shuffled by seed,
    with the touch ops inserted at seeded places after the first op."""
    rng = random.Random(f"{workload}:{seed}")
    phases, touch = WORKLOADS[workload](rng)
    ops: list[Op] = []
    for phase in phases:
        phase = list(phase)
        rng.shuffle(phase)
        ops.extend(phase)
    # never first: the first op of a session pays for first calls into the
    # interpreter's and nilbound's code, which is a share of a small op
    for op in touch:
        ops.insert(rng.randrange(1, len(ops) + 1), op)
    return ops


def all_ops() -> dict[str, Op]:
    """Every op any seed of any workload can make, keyed by id."""
    ops = [op for workload in WORKLOADS for op in build_ops(workload, 0)]
    # the seed picks the output format of each bound cell
    ops += [bound(k, c, as_json) for k, c in BOUND_GRID for as_json in (False, True)]
    return {op.id: op for op in ops}
