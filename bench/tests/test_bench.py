"""Tests for the benchmark's own code.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import session  # noqa: E402
from speed import NOMINAL_PROBE_S, NominalClock  # noqa: E402
from tracer import Span, Tracer, install_spans, self_times, summarize  # noqa: E402
from workloads import VERBS, WORKLOADS, all_ops, analyze, bound, build_ops, enumerate_op  # noqa: E402


def test_self_time_arithmetic_on_a_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # b has children d [5, 6] and e [7, 9]
    spans = [
        Span("root", 0.0, 10.0, -1, "op1"),
        Span("a", 1.0, 4.0, 0, "op1"),
        Span("c", 2.0, 3.0, 1, "op1"),
        Span("b", 5.0, 9.0, 0, "op1"),
        Span("d", 5.0, 6.0, 3, "op1"),
        Span("e", 7.0, 9.0, 3, "op1"),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 1.0, 1.0, 2.0]
    stats = summarize(spans + [Span("c", 11.0, 11.5, -1, "op2")])
    assert stats["c"] == {"calls": 2, "self_s": 1.5}
    assert stats["root"] == {"calls": 1, "self_s": 3.0}


def test_self_time_clips_overlapping_and_overhanging_children():
    spans = [
        Span("p", 0.0, 4.0, -1, None),
        Span("x", 1.0, 3.0, 0, None),
        Span("y", 2.0, 5.0, 0, None),
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_nominal_clock_scales_by_probe_speed_and_skips_probe_time():
    n = NOMINAL_PROBE_S
    # probes at 0 and 1 run at nominal speed, the probe at 2 at half of it
    clock = NominalClock([(0.0, n), (1.0, n), (2.0, 2 * n)])
    assert clock(1.0) - clock(n) == pytest.approx(1.0 - n)
    assert clock(1.0 + n) == clock(1.0)
    # between probes the speed is the mean of the two: (1 + 0.5) / 2
    assert clock(2.0) - clock(1.0 + n) == pytest.approx(0.75 * (1.0 - n))
    # past the last probe it keeps that probe's speed
    assert clock(3.0 + 2 * n) - clock(2.0 + 2 * n) == pytest.approx(0.5)
    assert clock(-1.0) == pytest.approx(-1.0)


def test_tracer_spans_nest_and_record_the_op():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.op = "op1"
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    assert tracer.active("outer")
    tracer.end(inner)
    tracer.end(outer)
    assert [(s.name, s.start, s.end, s.parent, s.op) for s in tracer.spans] == [
        ("outer", 0.0, 3.0, -1, "op1"),
        ("inner", 1.0, 2.0, 0, "op1"),
    ]
    assert not tracer.active("outer")


def test_a_paused_tracer_records_nothing():
    tracer = Tracer()
    spanned = tracer.spanned("f", lambda x: x + 1)
    counted = tracer.counted("g", lambda x: x * 2)
    tracer.paused = True
    assert (spanned(1), counted(2)) == (2, 4)
    assert tracer.spans == [] and not tracer.counts
    tracer.paused = False
    assert (spanned(1), counted(2)) == (2, 4)
    assert [s.name for s in tracer.spans] == ["f"] and tracer.counts["g"] == 1


def _snapshot(nilbound) -> dict:
    owners = list(session.namespaces(nilbound))
    for module in session.layer_modules().values():
        owners += [v for v in vars(module).values() if isinstance(v, type)]
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_every_wrapped_attribute_is_restored_after_a_traced_pass():
    nilbound = session.import_nilbound()
    before = _snapshot(nilbound)
    bp = {"kind": "sylow-wreath", "params": {"p": 2, "k": 2}}
    for k, mode in ((6, "spans"), (7, "count")):
        # f_upper is cached per (k, c), so each pass needs a fresh cell
        ops = session.materialize(
            [bound(k, 5, as_json=True), analyze(bp), enumerate_op(2, 2, "set")], nilbound
        )
        tracer = Tracer()
        if mode == "spans":
            install_spans(tracer, session.layer_modules(), session.namespaces(nilbound),
                          session.span_filter(), session.HOOKS)
        else:
            session.install_counts(tracer, nilbound)
        assert tracer._patches, "nothing was wrapped"
        try:
            result = session.run_ops(ops, nilbound, tracer)
        finally:
            tracer.uninstall()
        assert [r["rc"] for r in result["ops"]] == [0, 0, 0]
        if mode == "spans":
            names = {s.name for s in tracer.spans}
            assert {"op", "cli.main", "perm.order", "bounds.f_upper"} <= names
        else:
            assert tracer.counts["perm.mul"] > 0
            assert tracer.counts["bounds.composition_value"] > 0
    after = _snapshot(nilbound)
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_no_op_repeats_within_a_session(workload):
    for seed in range(25):
        ids = [op.id for op in build_ops(workload, seed)]
        assert len(ids) == len(set(ids)), (workload, seed)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_op_has_a_golden_record_and_touches_every_verb(workload):
    with open(BENCH / "golden.json", encoding="utf-8") as fh:
        golden = json.load(fh)["ops"]
    assert golden.keys() == all_ops().keys()
    for seed in range(25):
        ops = build_ops(workload, seed)
        assert all(op.id in golden for op in ops)
        assert {op.verb for op in ops} == set(VERBS)


def test_benchmark_json_names_the_reported_metrics():
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
