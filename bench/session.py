"""One benchmark session: a fresh interpreter that runs a workload's op list
once and prints one JSON object on its stdout.

    python3 bench/session.py --workload witness --seed 1 --mode plain

Modes: ``setup`` stops once the first op could start; ``plain`` times every
op; ``spans`` also records spans around the public functions of each layer
and writes them to ``--spans-out``; ``count`` only counts the hot calls
(``Permutation.__mul__``, ``Permutation.inverse``, ``composition_value``),
so that wrapping them does not distort the span self times; ``micro`` times
permutation multiply, inverse and membership sift through the public API.
Every time a session reports is in nominal seconds (see ``speed.py``): the
timed modes run the speed probe on a timer from the moment they start.

``nilbound`` must be importable from the ``src`` directory next to ``bench``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))

from speed import NominalClock, Sampler  # noqa: E402
from tracer import Tracer, install_spans  # noqa: E402
from workloads import Op, build_ops  # noqa: E402


def import_nilbound():
    """Import nilbound from the checkout's src directory, never from
    anywhere else on the path."""
    sys.path.insert(0, str(SRC))
    import nilbound
    import nilbound.cli

    if Path(nilbound.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"nilbound imported from {nilbound.__file__}, not {SRC}")
    return nilbound


def materialize(ops: list[Op], nilbound) -> list[Op]:
    """Replace the blueprint of every analyze op by its realized group."""
    out = []
    for op in ops:
        if op.verb == "analyze":
            blueprint = nilbound.blueprint_from_json(json.loads(op.argv[2]))
            group = json.dumps(nilbound.realize(blueprint).to_json(), sort_keys=True)
            op = Op(op.id, op.verb, op.argv[:2] + (group,))
        out.append(op)
    return out


def run_op(op: Op, nilbound) -> tuple[dict, object]:
    """Run one op; returns its timing record and its raw output: the stdout
    text of a CLI op, the list of subgroups of an enumerate op."""
    record: dict = {"id": op.id, "verb": op.verb}
    if op.verb == "enumerate":
        p, k, dedupe = int(op.argv[0]), int(op.argv[1]), op.argv[2]
        t0 = time.perf_counter()
        tower = nilbound.iterated_wreath_sylow(p, k)
        stream = nilbound.enumerate_subgroups(tower, dedupe=dedupe)
        first = next(stream)
        t_first = time.perf_counter()
        groups = [first, *stream]
        t1 = time.perf_counter()
        record.update(rc=0, dt=t1 - t0, tables_s=t_first - t0, stream_s=t1 - t_first,
                      t0=t0, t_first=t_first, t1=t1)
        return record, groups
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = nilbound.cli.main(list(op.argv))
    except Exception:  # an op that raises is a failed op, not a dead session
        rc = "exception"
        stderr.write(traceback.format_exc())
    t1 = time.perf_counter()
    record.update(rc=rc, dt=t1 - t0, t0=t0, t1=t1, stderr=stderr.getvalue()[-2000:])
    return record, stdout.getvalue()


def output_text(record: dict, output) -> str:
    """The text an op's golden digest covers.  For an enumerate op it is one
    line of group JSON per subgroup, in stream order; the record also gets
    the subgroup count and the largest number of subgroups of one order."""
    if isinstance(output, str):
        return output
    per_order: dict[int, int] = {}
    for g in output:
        per_order[g.order()] = per_order.get(g.order(), 0) + 1
    record.update(subgroups=len(output), level_max=max(per_order.values()))
    return "".join(json.dumps(g.to_json(), sort_keys=True) + "\n" for g in output)


def _malloc_trim():
    """glibc's malloc_trim, or a no-op where the C library has none."""
    try:
        return ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return lambda pad: 0


def run_ops(ops: list[Op], nilbound, tracer=None) -> dict:
    """Run the op list once, closed loop, and return the session record.

    Between ops, outside their timing, the session undoes what an op leaves
    behind, as process exit does for a CLI user who runs each verb in its
    own process; otherwise each op's time and the session's peak memory
    depend on the seeded op order.  Each op's output is digested right after
    it, with the tracer paused, and dropped.  A full garbage collection
    leaves no collector debt to the next op.  malloc_trim hands freed heap
    back to the system: without it, analyze sylow-wreath(2,4) peaked 6 MB
    higher when it ran after analyze abelian-class2(2,6,3,1) than before."""
    trim = _malloc_trim()
    records = []
    between = 0.0
    t_start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        gc.collect()
        trim(0)
        between += time.perf_counter() - t0
        if tracer is not None:
            tracer.op = op.id
            index = tracer.begin("op")
        record, output = run_op(op, nilbound)
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.end(index)
            tracer.paused = True
        data = output_text(record, output).encode()
        del output
        record.update(sha256=hashlib.sha256(data).hexdigest(), stdout_bytes=len(data))
        if tracer is not None:
            tracer.paused = False
        between += time.perf_counter() - t0
        records.append(record)
    wall_raw = time.perf_counter() - t_start
    return {"ops": records, "wall_raw_s": wall_raw, "between_raw_s": between}


def to_nominal(result: dict, clock: NominalClock) -> None:
    """Turn the wall times of a session's ops into nominal seconds (see
    speed.py).  wall_s is their sum, so the work between ops is left out
    of it."""
    for record in result["ops"]:
        record["dt"] = clock(record["t1"]) - clock(record["t0"])
        if "t_first" in record:
            record["tables_s"] = clock(record["t_first"]) - clock(record["t0"])
            record["stream_s"] = clock(record["t1"]) - clock(record["t_first"])
    result["wall_s"] = sum(record["dt"] for record in result["ops"])


# -- tracing ------------------------------------------------------------


def _gens_out(key):
    def hook(tracer, result):
        tracer.counts[key] += len(result.generators)

    return hook


def _lcs_hook(tracer, series):
    tracer.counts["perm.lcs.terms"] += len(series.terms)
    widest = max(len(t.generators) for t in series.terms)
    tracer.counts["perm.lcs.gens_max"] = max(tracer.counts["perm.lcs.gens_max"], widest)


def _elements_hook(tracer, elements):
    tracer.counts["perm.elements.count"] += len(elements)


def _realize_hook(tracer, group):
    # product blueprints realize their factors recursively; count the
    # outermost group only
    if not tracer.active("constructions.realize"):
        tracer.counts["constructions.gens_out"] += len(group.generators)


HOOKS = {
    "perm.normal_closure": _gens_out("perm.normal_closure.gens_out"),
    "perm.lower_central_series": _lcs_hook,
    "perm.elements": _elements_hook,
    "constructions.realize": _realize_hook,
}


def layer_modules() -> dict:
    from nilbound import bounds, cli, constructions, perm, search

    return {"perm": perm, "bounds": bounds, "constructions": constructions,
            "search": search, "cli": cli}


def namespaces(nilbound) -> list:
    return [nilbound, *layer_modules().values()]


def span_filter():
    """Which public callables get a span.  Permutation methods and
    composition_value run millions of times, so they are only counted, in
    the count pass.  cli is one layer: argument parsing, dispatch and JSON
    emission all count as cli.main self time."""
    from nilbound.perm import Permutation

    def keep(owner, span_name: str) -> bool:
        if owner is Permutation or span_name == "bounds.composition_value":
            return False
        return not span_name.startswith("cli.") or span_name == "cli.main"

    return keep


def install_counts(tracer, nilbound) -> None:
    from nilbound import bounds
    from nilbound.perm import Permutation

    tracer.patch(Permutation, "__mul__", tracer.counted("perm.mul", Permutation.__mul__))
    tracer.patch(Permutation, "inverse", tracer.counted("perm.inverse", Permutation.inverse))
    original = bounds.composition_value
    tracer.patch_everywhere(
        namespaces(nilbound), original, tracer.counted("bounds.composition_value", original)
    )


# -- microbenchmarks ----------------------------------------------------


def _loops(fn, calls: int, repeats: int = 7) -> tuple[int, list[tuple[float, float]]]:
    """The wall intervals of repeats loops of calls."""
    intervals = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(calls)
        intervals.append((t0, time.perf_counter()))
    return calls, intervals


def micro(nilbound, seed: int) -> dict:
    """Per-call times through the public API: the median over repeated
    loops, in nominal seconds."""
    from nilbound import Permutation

    rng = random.Random(seed)
    loops = {}
    sampler = Sampler()
    sampler.start()
    try:
        for n in (16, 64):
            perms = [Permutation(rng.sample(range(n), n)) for _ in range(64)]
            pairs = [(perms[i], perms[(i * 7 + 3) % 64]) for i in range(64)]

            def mul(calls, pairs=pairs):
                for i in range(calls):
                    a, b = pairs[i & 63]
                    a * b

            def inverse(calls, perms=perms):
                for i in range(calls):
                    perms[i & 63].inverse()

            loops[f"perm.mul_ns.deg{n}"] = (_loops(mul, 20_000), 1e9)
            loops[f"perm.inverse_ns.deg{n}"] = (_loops(inverse, 20_000), 1e9)
        tower = nilbound.iterated_wreath_sylow(2, 4)
        tower.order()  # build the chain outside the timed loop
        gens = tower.generators
        members = []
        for _ in range(64):
            g = gens[0]
            for _ in range(32):
                g = g * rng.choice(gens)
            members.append(g)

        def sift(calls):
            for i in range(calls):
                if members[i & 63] not in tower:
                    raise AssertionError("a product of generators failed to sift")

        loops["perm.sift_us.tower24"] = (_loops(sift, 2_000), 1e6)
    finally:
        sampler.stop()
    clock = NominalClock(sampler.samples)
    return {
        name: statistics.median((clock(t1) - clock(t0)) / calls for t0, t1 in intervals) * scale
        for name, ((calls, intervals), scale) in loops.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "spans", "count", "micro"), required=True)
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args(argv)

    timed = args.mode in ("setup", "plain", "spans")
    sampler = Sampler()
    if timed:
        sampler.start()
    nilbound = import_nilbound()
    ops = materialize(build_ops(args.workload, args.seed), nilbound)
    result: dict = {"t_ready": time.perf_counter(), "mode": args.mode}
    if args.mode == "setup":
        sampler.stop()
    if args.mode in ("plain", "spans", "count"):
        tracer = Tracer()
        if args.mode == "spans":
            install_spans(tracer, layer_modules(), namespaces(nilbound),
                          span_filter(), HOOKS)
        elif args.mode == "count":
            install_counts(tracer, nilbound)
        try:
            # a counting tracer is passed too, so that it is paused while
            # outputs are digested
            session = run_ops(ops, nilbound, tracer if args.mode != "plain" else None)
        finally:
            tracer.uninstall()
            if timed:
                sampler.stop()
        if timed:
            clock = NominalClock(sampler.samples)
            to_nominal(session, clock)
        result.update(session, counts=dict(tracer.counts))
        if args.mode == "spans":
            ops_raw = sum(s.end - s.start for s in tracer.spans if s.name == "op")
            result["op_share"] = ops_raw / (session["wall_raw_s"] - session["between_raw_s"])
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps([s.name, clock(s.start), clock(s.end), s.parent, s.op]) + "\n")
    elif args.mode == "micro":
        result["micro"] = micro(nilbound, args.seed)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["samples"] = sampler.samples
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
