"""The nilbound benchmark.

    python3 bench/run.py --workload witness --seed 1 --seconds 30 --trace 0

One closed-loop client: a single process and thread sends each op only after
the previous one returns.  A run spawns fresh interpreters ("sessions") one
after another, each running the workload's op list once, until --seconds
have passed, and reports medians over its sessions.  Every op's exit code and
stdout digest must match ``golden.json``.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every time is in nominal seconds: wall time scaled by the host's speed
while it ran, as a probe sampled on a timer measures it (``speed.py``).
The host switches between speed states ~1.8x apart; raw wall-clock medians
of runs of the same code spread by 20-30%, nominal ones by a few percent.
setup_s is measured from spawning a session until its first op could
start, with probes taken just before the spawn and inside the session.

--trace 0 reports the end-to-end metrics.  --trace 1 is a separate run that
reports per-layer self times and counts from a span-traced session, call
counts from a counting session, microbenchmarks, and the tracing overhead
against untraced sessions of the same run.

Two one-shot modes are not part of any gated workload:
``--record`` re-records ``golden.json`` after checking every value against
an independent oracle (needs sympy); ``--probe`` runs the known defect cases,
each in its own subprocess with a fixed timeout.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_results"
GOLDEN = BENCH / "golden.json"
sys.path.insert(0, str(BENCH))

from speed import NominalClock, take_probes  # noqa: E402
from tracer import Span, summarize  # noqa: E402
from workloads import VERBS, WORKLOADS, build_ops  # noqa: E402

# a witness session takes ~10 s; three make the smallest median worth taking
MIN_SESSIONS = 3
MIN_SETUPS = 15
SETUPS_PER_SESSION = 4
# a run must end within 180 s, so no session may start past this point
LAST_START_S = 120
SESSION_TIMEOUT_S = 50

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    **{f"{verb}_s": "s" for verb in VERBS},
    "peak_rss_mb": "MB",
}
SRC_MODULES = ("perm", "bounds", "constructions", "search", "cli")
PER_LAYER_UNITS = {
    "perm.order.self_s": "s",
    "perm.contains.calls": "count",
    "perm.contains.self_s": "s",
    "perm.normal_closure.calls": "count",
    "perm.normal_closure.self_s": "s",
    "perm.normal_closure.gens_out": "count",
    "perm.commutator_subgroup.self_s": "s",
    "perm.lower_central_series.self_s": "s",
    "perm.lcs.gens_max": "count",
    "perm.lcs.terms": "count",
    "perm.center.self_s": "s",
    "perm.elements.count": "count",
    "perm.mul.calls": "count",
    "perm.inverse.calls": "count",
    "bounds.f_upper.calls": "count",
    "bounds.f_upper.self_s": "s",
    "bounds.best_composition.self_s": "s",
    "bounds.composition_value.calls": "count",
    "bounds.f_closed.self_s": "s",
    "search.fnil_exact.calls": "count",
    "search.fnil_exact.self_s": "s",
    "search.tables_s": "s",
    "search.stream_s": "s",
    "search.subgroups.set": "count",
    "search.subgroups.conjugacy": "count",
    "search.level_max_subgroups": "count",
    "constructions.realize.self_s": "s",
    "constructions.gens_out": "count",
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.op_share": "ratio",
    "perm.mul_ns.deg16": "ns",
    "perm.mul_ns.deg64": "ns",
    "perm.inverse_ns.deg16": "ns",
    "perm.inverse_ns.deg64": "ns",
    "perm.sift_us.tower24": "us",
    **{f"{m}.src_lines": "lines" for m in SRC_MODULES},
    "src.lines": "lines",
}


class SessionFailed(Exception):
    """A session exited non-zero, timed out or printed no result."""


def spawn(mode: str, workload: str, seed: int, spans_out: Path | None = None) -> dict:
    """Run one session to completion; adds setup_s, measured from spawn."""
    argv = [sys.executable, str(BENCH / "session.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode]
    if spans_out is not None:
        argv += ["--spans-out", str(spans_out)]
    samples: list = []
    take_probes(samples, 3)
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                              timeout=SESSION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SessionFailed(f"{mode} session timed out after {SESSION_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SessionFailed(f"{mode} session exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    clock = NominalClock(samples + result.pop("samples"))
    result["setup_s"] = clock(result["t_ready"]) - clock(t_spawn)
    result["spans_out"] = spans_out
    return result


def check(session: dict, expected_ids: list[str], golden: dict) -> int:
    """Number of failed ops: wrong op sequence, exit code or stdout digest."""
    ids = [r["id"] for r in session["ops"]]
    if ids != expected_ids:
        return len(expected_ids)
    failed = 0
    for record in session["ops"]:
        want = golden.get(record["id"])
        if want is None or record["rc"] != want["rc"] or record["sha256"] != want["sha256"]:
            failed += 1
            print(f"FAILED {record['id']}: rc {record['rc']}, "
                  f"sha256 {record['sha256'][:12]}, stderr {record.get('stderr', '')[-300:]!r}")
    return failed


def run_metrics(sessions: list[dict]) -> dict[str, float]:
    """Medians over a run's sessions.  A verb metric is the sum, over that
    verb's ops, of each op's median time, so a burst of machine noise that
    slows one op in one session does not move it."""
    per_op: dict[tuple[str, str], list[float]] = {}
    for session in sessions:
        for record in session["ops"]:
            per_op.setdefault((record["verb"], record["id"]), []).append(record["dt"])
    out = {f"{verb}_s": 0.0 for verb in VERBS}
    for (verb, _), times in per_op.items():
        out[f"{verb}_s"] += statistics.median(times)
    for key in ("wall_s", "peak_rss_mb"):
        out[key] = statistics.median(s[key] for s in sessions)
    return out


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def context() -> dict:
    """What a result must be read against: code size, interpreter, machine."""
    lines = {}
    for path in sorted(SRC.glob("nilbound/*.py")):
        with open(path, encoding="utf-8") as fh:
            lines[path.stem] = sum(1 for _ in fh)
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
    }


def src_line_metrics(ctx: dict) -> dict[str, float]:
    lines = ctx["src_lines"]
    out = {f"{m}.src_lines": lines.get(m, 0) for m in SRC_MODULES}
    out["src.lines"] = sum(lines.values())
    return out


def run_sessions(mode_cycle: list[str], workload: str, seed: int, seconds: int,
                 setups: list[float] | None = None):
    """Spawn sessions cycling through mode_cycle until seconds have passed,
    at least MIN_SESSIONS of each mode (one each when cycling), never
    starting one after LAST_START_S.  With a setups list, collect set-up
    times from every session and from up to SETUPS_PER_SESSION set-up-only
    spawns after each, until MIN_SETUPS, so a burst of machine noise cannot
    hit all of them.  Returns the sessions grouped by mode and the number of
    sessions that failed."""
    start = time.perf_counter()
    by_mode: dict[str, list[dict]] = {mode: [] for mode in mode_cycle}
    durations: list[float] = []
    minimum = MIN_SESSIONS if len(mode_cycle) == 1 else 1
    lost = 0
    for i in itertools.count(1):
        mode = mode_cycle[(i - 1) % len(mode_cycle)]
        spans_out = OUT / f"spans-{workload}-{seed}-{i}.jsonl" if mode == "spans" else None
        t0 = time.perf_counter()
        try:
            session = spawn(mode, workload, seed, spans_out)
        except SessionFailed as exc:
            print(f"FAILED session: {exc}")
            session = None
            lost += 1
        durations.append(time.perf_counter() - t0)
        if session is not None:
            by_mode[mode].append(session)
        if setups is not None:
            extra = [spawn("setup", workload, seed)
                     for _ in range(min(SETUPS_PER_SESSION, MIN_SETUPS - len(setups) - 1))]
            setups.extend(s["setup_s"] for s in [session, *extra] if s is not None)
        now = time.perf_counter()
        estimate = statistics.median(durations)
        if now - start + estimate > LAST_START_S:
            break
        enough = i >= minimum * len(mode_cycle)
        if enough and i % len(mode_cycle) == 0 and now - start + estimate > seconds:
            break
    return by_mode, lost


def gated_run(workload: str, seed: int, seconds: int, golden: dict) -> tuple[dict, int, int]:
    spawn("setup", workload, seed)  # warm-up: byte-compiles src, fills the file cache
    setups: list[float] = []
    by_mode, lost = run_sessions(["plain"], workload, seed, seconds, setups)
    sessions = by_mode["plain"]
    if not sessions:
        raise SessionFailed("no session completed")
    while len(setups) < MIN_SETUPS:
        setups.append(spawn("setup", workload, seed)["setup_s"])
    expected = [op.id for op in build_ops(workload, seed)]
    failed = sum(check(s, expected, golden) for s in sessions) + lost * len(expected)
    attempted = len(expected) * (len(sessions) + lost)
    metrics = run_metrics(sessions)
    metrics["setup_s"] = statistics.median(setups)
    print(f"sessions: {len(sessions)}, lost: {lost}, setups: {len(setups)}, "
          f"failed_frac: {failed / attempted:.6f} ({failed}/{attempted})")
    for key, values in (("setup_s", setups), ("wall_s", [s["wall_s"] for s in sessions])):
        print(f"  {key}: min {min(values):.6f}, max {max(values):.6f}, n {len(values)}")
    return {k: (metrics[k], u) for k, u in END_TO_END_UNITS.items()}, attempted, failed


def layer_metrics(traced: dict) -> dict[str, float]:
    """Per-layer numbers of one span-traced session."""
    with open(traced["spans_out"], encoding="utf-8") as fh:
        spans = [Span(*json.loads(line)) for line in fh]
    stats = summarize(spans)
    counts = traced["counts"]

    def self_s(name):
        return stats.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    ops = traced["ops"]
    enums = [r for r in ops if r["verb"] == "enumerate"]
    out = {
        "perm.order.self_s": self_s("perm.order"),
        "perm.contains.calls": calls("perm.contains"),
        "perm.contains.self_s": self_s("perm.contains"),
        "perm.normal_closure.calls": calls("perm.normal_closure"),
        "perm.normal_closure.self_s": self_s("perm.normal_closure"),
        "perm.normal_closure.gens_out": counts.get("perm.normal_closure.gens_out", 0),
        "perm.commutator_subgroup.self_s": self_s("perm.commutator_subgroup"),
        "perm.lower_central_series.self_s": self_s("perm.lower_central_series"),
        "perm.lcs.gens_max": counts.get("perm.lcs.gens_max", 0),
        "perm.lcs.terms": counts.get("perm.lcs.terms", 0),
        "perm.center.self_s": self_s("perm.center"),
        "perm.elements.count": counts.get("perm.elements.count", 0),
        "bounds.f_upper.calls": calls("bounds.f_upper"),
        "bounds.f_upper.self_s": self_s("bounds.f_upper"),
        "bounds.best_composition.self_s": self_s("bounds.best_composition"),
        "bounds.f_closed.self_s": self_s("bounds.f_closed"),
        "search.fnil_exact.calls": calls("search.fnil_exact"),
        "search.fnil_exact.self_s": self_s("search.fnil_exact"),
        "search.tables_s": sum(r["tables_s"] for r in enums),
        "search.stream_s": sum(r["stream_s"] for r in enums),
        "search.subgroups.set": sum(r["subgroups"] for r in enums if r["id"].endswith(":set")),
        "search.subgroups.conjugacy": sum(
            r["subgroups"] for r in enums if r["id"].endswith(":conjugacy")),
        "search.level_max_subgroups": max((r["level_max"] for r in enums), default=0),
        "constructions.realize.self_s": self_s("constructions.realize"),
        "constructions.gens_out": counts.get("constructions.gens_out", 0),
        "cli.main.self_s": self_s("cli.main"),
        "cli.stdout_bytes": sum(r["stdout_bytes"] for r in ops if r["verb"] != "enumerate"),
        "trace.op_share": traced["op_share"],
    }
    return out


def traced_run(workload: str, seed: int, seconds: int, golden: dict, ctx: dict):
    spawn("setup", workload, seed)
    by_mode, lost = run_sessions(["plain", "spans"], workload, seed, seconds)
    if not by_mode["plain"] or not by_mode["spans"]:
        raise SessionFailed("no traced or untraced session completed")
    counting = spawn("count", workload, seed)
    micro = spawn("micro", workload, seed)["micro"]
    expected = [op.id for op in build_ops(workload, seed)]
    checked = by_mode["plain"] + by_mode["spans"] + [counting]
    failed = sum(check(s, expected, golden) for s in checked) + lost * len(expected)
    attempted = len(expected) * (len(checked) + lost)

    per_session = [layer_metrics(s) for s in by_mode["spans"]]
    metrics = medians(per_session)
    plain_wall = statistics.median(s["wall_s"] for s in by_mode["plain"])
    traced_wall = statistics.median(s["wall_s"] for s in by_mode["spans"])
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["perm.mul.calls"] = counting["counts"].get("perm.mul", 0)
    metrics["perm.inverse.calls"] = counting["counts"].get("perm.inverse", 0)
    metrics["bounds.composition_value.calls"] = counting["counts"].get("bounds.composition_value", 0)
    metrics.update(micro)
    metrics.update(src_line_metrics(ctx))
    for session in by_mode["spans"]:
        session["spans_out"].unlink()
    print(f"traced sessions: {len(by_mode['spans'])}, untraced: {len(by_mode['plain'])}, "
          f"untraced wall_s {plain_wall:.4f}, traced wall_s {traced_wall:.4f}")
    if metrics.keys() != PER_LAYER_UNITS.keys():
        raise RuntimeError(f"per-layer metrics differ: {sorted(metrics.keys() ^ PER_LAYER_UNITS.keys())}")
    return {k: (metrics[k], u) for k, u in PER_LAYER_UNITS.items()}, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="nilbound benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="re-record golden.json")
    parser.add_argument("--probe", action="store_true", help="run the defect probe")
    args = parser.parse_args(argv)

    if not (SRC / "nilbound" / "__init__.py").is_file():
        print(f"error: no nilbound sources under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        from record import record

        return record(GOLDEN)
    if args.probe:
        from probe import probe

        return probe(OUT)
    if args.workload is None:
        parser.error("--workload is required")
    if not GOLDEN.is_file():
        print(f"error: {GOLDEN} is missing; run with --record", file=sys.stderr)
        return 2
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)["ops"]

    ctx = context()
    print("context: " + json.dumps(ctx, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, attempted, failed = traced_run(args.workload, args.seed, args.seconds, golden, ctx)
        else:
            metrics, attempted, failed = gated_run(args.workload, args.seed, args.seconds, golden)
    except SessionFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:16.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump({"context": ctx, **result}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
