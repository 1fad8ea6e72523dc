"""Command-line interface.

Verbs: bound, construct, analyze, search, table.  Exit codes: 0 success,
1 usage or parse error, 2 budget/guard refusal, 3 internal invariant
violation.  All JSON output is deterministic (sorted keys, fixed list
orders) so identical invocations are byte-identical.  ``main(argv)`` builds
its argparse parser on the first call and reuses it on every later one in the
process: parsing keeps no state in the parser, so each call gets a fresh
namespace, and help width and output streams are read when argparse prints.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Any, Callable

from . import bounds, search
from .constructions import DEGREE_GUARD, GroupBlueprint, blueprint_from_json, realize, require_prime
from .perm import GuardExceeded, PermGroup, center, lower_central_series

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GUARD = 2
EXIT_INVARIANT = 3


class _UsageError(Exception):
    pass


def _emit_json(data: dict) -> None:
    print(json.dumps(data, sort_keys=True, indent=2))


def _read_json_arg(value: str) -> dict:
    """Parse an inline JSON object or array, a path, or '-' for stdin."""
    if value == "-":
        text = sys.stdin.read()
    elif value.lstrip().startswith(("{", "[")):
        text = value
    else:
        try:
            with open(value, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise _UsageError(f"cannot read {value}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    if not isinstance(data, dict):
        raise _UsageError("expected a JSON object")
    return data


def _parse_json_arg(value: str, parse: Callable[[dict], Any], what: str) -> Any:
    """Apply parse to the JSON object _read_json_arg reads from value; a
    KeyError, TypeError or ValueError it raises is a usage error about the
    invalid what."""
    data = _read_json_arg(value)
    try:
        return parse(data)
    except KeyError as exc:
        raise _UsageError(f"invalid {what}: missing key {exc}")
    except (TypeError, ValueError) as exc:
        raise _UsageError(f"invalid {what}: {exc}")


def cmd_bound(args: argparse.Namespace) -> int:
    require_prime(args.p)
    report = bounds.bound_report(args.p, args.k, args.c)
    if args.json:
        _emit_json(report.to_json())
        return EXIT_OK
    print(f"degree {args.p}^{args.k}, nilpotency class <= {args.c}")
    print(f"  composition upper bound : log_p order <= {report.f_upper}")
    print(f"    witness composition   : {list(report.witness)}")
    print(f"  elementary upper bound  : log_p order <= {report.elementary}")
    if report.class2_exact is not None:
        print(f"  exact value at class 2  : log_p order  = {report.class2_exact}")
    if report.binomial_lower is not None:
        print(f"  witness lower bound     : log_p order >= {report.binomial_lower}")
    return EXIT_OK


def cmd_construct(args: argparse.Namespace) -> int:
    blueprint = _parse_json_arg(args.blueprint, blueprint_from_json, "blueprint")
    output = {"blueprint": blueprint.to_json(), "prediction": blueprint.prediction_json()}
    try:
        group = realize(blueprint)
    except GuardExceeded as exc:
        # degraded response: prediction only, no realization
        output.update(group=None, realized=False, reason=str(exc))
    else:
        problems = _verify_prediction(blueprint, group)
        if problems:
            print(f"invariant violation: {'; '.join(problems)}", file=sys.stderr)
            return EXIT_INVARIANT
        output.update(group=group.to_json(), realized=True)
    _emit_json(output)
    return EXIT_OK


def _verify_prediction(blueprint: GroupBlueprint, group: PermGroup) -> list[str]:
    problems = []
    if group.degree != blueprint.degree:
        problems.append(f"degree {group.degree} != predicted {blueprint.degree}")
    order = group.order()
    if order != blueprint.order:
        problems.append(f"order {order} != predicted {blueprint.order}")
    if not group.is_transitive():
        problems.append("not transitive")
    series = lower_central_series(group)
    cls = series.nilpotency_class
    if cls is None or cls > blueprint.class_bound:
        problems.append(f"class {cls} exceeds bound {blueprint.class_bound}")
    return problems


def cmd_analyze(args: argparse.Namespace) -> int:
    group = _parse_json_arg(args.group, PermGroup.from_json, "group")
    # the degrees construct realizes; an n-cycle takes ~4x as long per doubling of n
    # (0.005 s at 256, 0.21 s at 2048, in process): the first level of its chain
    # holds n transversal elements of degree n and their inverses, one product each
    if group.degree > DEGREE_GUARD:
        raise GuardExceeded(f"analyze of degree {group.degree} is over the limit {DEGREE_GUARD}")
    series = lower_central_series(group)
    cls = series.nilpotency_class
    try:
        center_order = center(group).order()
    except GuardExceeded:
        center_order = None
    analysis = {
        "degree": group.degree,
        "order": group.order(),
        "log_p_order": None,
        "transitive": group.is_transitive(),
        "regular": group.is_regular(),
        "nilpotent": cls is not None,
        "nilpotency_class": cls,
        "center_order": center_order,
        "lower_central_orders": series.order_profile(),
    }
    try:
        analysis["log_p_order"] = bounds.prime_power(group.order())[1]
    except ValueError:
        pass
    _emit_json(analysis)
    return EXIT_OK


def cmd_search(args: argparse.Namespace) -> int:
    require_prime(args.p)
    if args.budget is not None and args.budget < 0:
        raise _UsageError(f"--budget must be non-negative, got {args.budget}")
    row = search.fnil_exact(
        args.p, args.k, args.cmax, dedupe=args.dedupe, max_count=args.budget
    )
    report = search.audit_row(row) if args.audit else None
    if args.json:
        data = row.to_json()
        if report is not None:
            data["audit"] = report.to_json()
        _emit_json(data)
    else:
        print(f"degree {args.p}^{args.k}: max log_{args.p} order per class bound")
        for c, e in enumerate(row.exponents, start=1):
            print(f"  class <= {c:2d} : {e}")
        if report is not None:
            for check in report.checks:
                status = "ok" if check.passed else "FAIL"
                print(f"audit {status:4s} {check.name}: {check.detail}")
    if report is not None and not report.ok:
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    if args.table1:
        kmax = args.kmax
        if kmax < 1:
            raise _UsageError(f"--kmax must be positive, got {kmax}")
        # the sum of k*k*c over k <= kmax, c <= 4: the admitted set of the
        # per-cell dynamic program of old, not the cost of the one forward pass
        cells = 10 * kmax * (kmax + 1) * (2 * kmax + 1) // 6
        if cells > bounds.DP_CELL_LIMIT:
            raise GuardExceeded(f"table --table1 --kmax {kmax} needs sum of k*k*c = {cells} "
                                f"DP cells, over the limit {bounds.DP_CELL_LIMIT}")
        print("composition maximum F(k,c) for c <= 4, cross-checked against closed forms")
        header = f"{'k':>3} | " + " ".join(f"{f'c={c}':>8}" for c in range(1, 5)) + " | closed-form"
        print(header)
        print("-" * len(header))
        rows, _ = bounds.composition_maxima(kmax, 4)
        for k in range(1, kmax + 1):
            values = [row[k] for row in rows]
            closed = [bounds.f_closed(k, c) for c in range(1, 5)]
            mark = "ok" if values == closed else "MISMATCH"
            print(f"{k:>3} | " + " ".join(f"{v:>8}" for v in values) + f" | {mark}")
        return EXIT_OK
    # table2: every row is computed before any is printed, so a refusal
    # leaves stdout empty
    cmax = 16
    rows = []
    for k in range(1, 6):
        if 2**k <= search.EXHAUSTIVE_DEGREE_GUARD:
            rows.append((search.fnil_exact(2, k, cmax).exponents, "exact (exhaustive search)"))
        else:
            rows.append((search.TABLE2_REFERENCE[k], "reference (not recomputed)"))
    print("max log_2 order of a transitive 2-group of degree 2^k, class <= c")
    header = "k\\c | " + " ".join(f"{c:>3}" for c in range(1, cmax + 1)) + " | source"
    print(header)
    print("-" * len(header))
    for k, (values, source) in enumerate(rows, start=1):
        print(f"{k:>3} | " + " ".join(f"{v:>3}" for v in values) + f" | {source}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The nilbound command's parser, built on the first call; every call
    returns that one object, which main shares, so a caller must not change
    it."""
    parser = argparse.ArgumentParser(
        prog="nilbound",
        description=(
            "Bounds, witness constructions, and exhaustive search for the "
            "maximum order of nilpotent transitive permutation groups."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_bound = sub.add_parser("bound", help="bound exponents for degree p^k, class <= c")
    p_bound.add_argument("--p", type=int, required=True)
    p_bound.add_argument("--k", type=int, required=True)
    p_bound.add_argument("--c", type=int, required=True)
    p_bound.add_argument("--json", action="store_true")
    p_bound.set_defaults(func=cmd_bound)

    p_construct = sub.add_parser("construct", help="realize a blueprint as a permutation group")
    p_construct.add_argument(
        "--blueprint",
        required=True,
        help="blueprint JSON: inline, a file path, or - for stdin",
    )
    p_construct.set_defaults(func=cmd_construct)

    p_analyze = sub.add_parser("analyze", help="analyze a group given as JSON")
    p_analyze.add_argument(
        "--group",
        required=True,
        help="group JSON: inline, a file path, or - for stdin",
    )
    p_analyze.set_defaults(func=cmd_analyze)

    p_search = sub.add_parser("search", help="exhaustive transitive-subgroup search")
    p_search.add_argument("--p", type=int, required=True)
    p_search.add_argument("--k", type=int, required=True)
    p_search.add_argument("--cmax", type=int, default=8)
    p_search.add_argument("--budget", type=int, default=None)
    p_search.add_argument("--dedupe", choices=("set", "conjugacy"), default="conjugacy")
    p_search.add_argument("--audit", action="store_true")
    p_search.add_argument("--json", action="store_true")
    p_search.set_defaults(func=cmd_search)

    p_table = sub.add_parser("table", help="print the bound/search tables")
    mode = p_table.add_mutually_exclusive_group(required=True)
    mode.add_argument("--table1", action="store_true")
    mode.add_argument("--table2", action="store_true")
    p_table.add_argument("--kmax", type=int, default=10)
    p_table.set_defaults(func=cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # RecursionError comes only from input nested too deeply: JSON, product blueprints
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (_UsageError, ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GuardExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except BrokenPipeError:
        # the reader closed stdout: let the interpreter's exit flush go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
