"""Tests of the benchmark itself: self-time arithmetic, the outcome
classifier, the tail-percentile rule, pinned reports, and that tracing leaves
the reports unchanged.

Run with `python -m pytest perfbench -q` from the repository root.
"""

import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

from cuspcount import cusp_pipeline  # noqa: E402
from cuspcount.errors import InconsistentSystem  # noqa: E402

import harness  # noqa: E402
import spans  # noqa: E402
from workloads import CRAFTED, EX1, EX2, WORKLOADS, load_pinned, pinned_check, screen_check, screen_families  # noqa: E402

QUICK = ("x1", "x2^3 - x1*x2 - t*x2")  # a crafted family analysed in milliseconds


# -- self time ------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def test_self_time_of_synthetic_nested_call():
    clock = FakeClock()

    class Layer:
        def outer(self):
            clock.tick(1.0)
            self.inner()
            clock.tick(2.0)
            self.inner()
            clock.tick(0.5)

        def inner(self):
            clock.tick(3.0)

    tracer = spans.Tracer(clock)
    tracer.install([(Layer, "outer", "outer", None), (Layer, "inner", "inner", None)])
    try:
        Layer().outer()
    finally:
        tracer.uninstall()
    recorded = tracer.take()
    by_name = spans.self_time_by_name(recorded)
    assert by_name == {"outer": 3.5, "inner": 6.0}
    assert [s.name for s in recorded] == ["outer", "inner", "inner"]
    assert [s.parent for s in recorded] == [None, 0, 0]
    assert Layer.outer.__name__ == "outer"  # shims removed


def test_self_time_counts_overlapping_children_once():
    recorded = [
        spans.Span("root", 0.0, None, 10.0),
        spans.Span("a", 1.0, 0, 4.0),
        spans.Span("b", 3.0, 0, 6.0),  # overlaps a on [3, 4]
        spans.Span("c", 8.0, 0, 12.0),  # runs past the root's end
    ]
    assert spans.self_times(recorded) == [10.0 - 5.0 - 2.0, 3.0, 3.0, 4.0]


def test_settle_closes_spans_left_open():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    tracer.begin("outer")
    tracer.begin("inner")
    clock.tick(2.0)
    tracer.settle()
    assert [s.end for s in tracer.take()] == [2.0, 2.0]
    assert tracer.begin("next") == 0 and tracer.spans[0].parent is None


# -- outcome classifier ---------------------------------------------------------

def _inputs(family):
    return harness.parse_inputs([family])[0][1]


def test_classifier_report():
    o = harness.analyse(QUICK, _inputs(QUICK), pinned_check, 30.0)
    assert (o.kind, o.ok, o.finished) == (harness.REPORT, True, True)
    assert o.report == load_pinned()[QUICK]


def test_classifier_named_rejection():
    family = ("x1", "x2")  # J(0) != 0: rejected by derive
    o = harness.analyse(family, _inputs(family), screen_check, 30.0)
    assert (o.kind, o.detail, o.ok) == (harness.REJECTED, "derive", True)
    # where a report is pinned, a rejection is a wrong answer
    pinned = harness.analyse(family, _inputs(family), lambda f, r: pinned_check(QUICK, r), 30.0)
    assert (pinned.kind, pinned.ok) == (harness.WRONG, False)


def test_classifier_internal_inconsistency(monkeypatch):
    def broken(*args):
        raise InconsistentSystem("b0'/2 outside [0, b0]")

    monkeypatch.setattr(cusp_pipeline, "solve_sigma", broken)
    o = harness.analyse(QUICK, _inputs(QUICK), screen_check, 30.0)
    assert (o.kind, o.ok) == (harness.ERROR, False)
    assert "InconsistentSystem" in o.detail


def test_classifier_over_cap(monkeypatch):
    def stuck(*args):
        time.sleep(10)

    monkeypatch.setattr(cusp_pipeline, "derive", stuck)
    start = time.perf_counter()
    o = harness.analyse(QUICK, _inputs(QUICK), screen_check, 0.05)
    assert time.perf_counter() - start < 5
    assert (o.kind, o.ok, o.finished) == (harness.OVER_CAP, False, False)
    assert o.elapsed >= 0.05


def test_checks_catch_wrong_reports():
    report = cusp_pipeline.run(*_inputs(QUICK))
    assert screen_check(QUICK, report) is None
    assert "parity" in screen_check(QUICK, replace(report, parity_ok=False))
    assert "sum(sigma)" in screen_check(QUICK, replace(report, b0=report.b0 + 2))
    assert "cusp_deg_pos_t" in screen_check(QUICK, replace(report, cusp_deg_pos_t=9))
    assert pinned_check(QUICK, replace(report, b0=0)) is not None


# -- statistics -------------------------------------------------------------------

@pytest.mark.parametrize("n, p", [(1, 100), (10, 100), (11, 9), (28, 64), (100, 90), (240, 95), (1000, 99)])
def test_tail_percentile_known_values(n, p):
    assert harness.tail_percentile(n) == p


def test_tail_percentile_is_highest_with_ten_beyond():
    for n in range(11, 2000):
        p = harness.tail_percentile(n)
        assert n - math.ceil(p * n / 100) >= 10
        assert n - math.ceil((p + 1) * n / 100) < 10


def test_failed_analyses_rank_above_finished_ones():
    fast_fail = harness.Outcome(QUICK, harness.OVER_CAP, 0.5)
    done = [harness.Outcome(QUICK, harness.REPORT, float(i)) for i in range(1, 12)]
    outcomes = done + [fast_fail]
    assert harness.percentile(outcomes, 100) is fast_fail
    assert harness.percentile(outcomes, 50).elapsed == 6.0


# -- workloads --------------------------------------------------------------------

def test_pinned_reports_match_acceptance_criteria_1_and_2():
    pinned = load_pinned()
    assert set(pinned) == set(CRAFTED) | {EX2}
    ex1, ex2 = pinned[EX1], pinned[EX2]
    h1, h2 = ex1["hypotheses"], ex2["hypotheses"]
    assert [h1[k] for k in ("dim_t_f1_f2", "dim_t_F1_F2", "dim_t_gradJ", "dim_I_prime",
                            "dim_d1_ideal", "dim_d2_ideal", "dim_I_dblprime")] == [5, 7, 2, 8, 1, 3, 8]
    assert [h2[k] for k in ("dim_t_f1_f2", "dim_t_F1_F2", "dim_t_gradJ", "dim_I_prime",
                            "dim_d1_ideal", "dim_d2_ideal", "dim_I_dblprime")] == [8, 24, 9, 33, 3, 12, 45]
    for r, degs, branch, pos_t, b0, b0p, cusp, sigma in (
        (ex1, (-1, 1, -1), (2, 4, 2, -2), (1, -1), 4, 2, (-1, -3), [0, 1, 0, 3]),
        (ex2, (0, 1, 0), (2, 4, 0, -2), None, 2, 2, (-1, -1), [0, 1, 0, 1]),
    ):
        assert (r["deg_f0"], r["deg_d1"], r["deg_d2"]) == degs
        b = r["branch"]
        assert (b["xi"], b["k"], b["deg_H_plus"], b["deg_H_minus"]) == branch
        if pos_t is not None:
            bp = r["branch_positive_t"]
            assert (bp["deg_H_plus"], bp["deg_H_minus"]) == pos_t
        assert (r["b0"], r["b0_prime"]) == (b0, b0p)
        assert (r["cusp_deg_pos_t"], r["cusp_deg_neg_t"]) == cusp
        assert r["sigma"] == sigma


def test_screen_generator_is_fixed_by_the_seed():
    a, b = screen_families(7), screen_families(7)
    assert a == b and len(a) == 120 and a != screen_families(8)
    assert a[12] == ("3*x1 - t*x1 - t*x2 - 2*x2^2", "-2*t*x1^2 + 3*x1^3 + x2^3")
    for family, (f1, f2) in harness.parse_inputs(a[:20]):
        assert (str(f1), str(f2)) == family


def test_fixed_workloads_only_reorder_with_the_seed():
    crafted = WORKLOADS["crafted"]
    assert crafted.families(3) == crafted.families(3)
    assert sorted(crafted.families(3)) == sorted(CRAFTED)


def _defined(section):
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}


def test_measure_reports_every_end_to_end_metric():
    quick = harness.Workload("quick", 30.0, lambda seed: (QUICK,), pinned_check)
    result = harness.measure(quick, 0, 0.0)
    assert result.correct, result.problems
    assert set(result.metrics) == _defined("end_to_end")
    assert result.metrics["ok_ratio"] == 1.0 and result.metrics["setup_s"] > 0


# -- tracing ----------------------------------------------------------------------

def test_traced_and_untraced_runs_give_identical_reports():
    workload = WORKLOADS["crafted"]
    inputs = harness.parse_inputs(workload.families(0))
    plain = harness.one_pass(workload, inputs)
    tracer = spans.Tracer()
    with tracer:
        traced = harness.one_pass(workload, inputs, tracer)
    assert [o.report for o in plain.outcomes] == [o.report for o in traced.outcomes]
    assert all(o.kind == harness.REPORT for o in plain.outcomes + traced.outcomes)
    assert cusp_pipeline.run.__name__ == "run"  # shims removed
    names = {s.name for s in traced.spans}
    assert {name for _, _, name, _ in spans.WRAPS} - names == {"exprparse.parse_poly"}
    metrics = spans.layer_metrics(traced.spans)
    assert metrics["elk_degree.signature_calls"] > 0
    assert metrics["branch_counter.xi_probes"] == metrics["standard_basis.contains_calls"]


def test_trace_run_reports_every_per_layer_metric(tmp_path):
    path = tmp_path / "spans.jsonl"
    result = harness.trace(WORKLOADS["crafted"], 0, 0.0, path)
    assert result.correct, result.problems
    assert set(result.metrics) == set(spans.PER_LAYER) == _defined("per_layer")
    lines = path.read_text().splitlines()
    assert lines and {"pass", "name", "start", "end", "parent"} == set(json.loads(lines[0]))


def test_trace_survives_an_analysis_cut_by_the_cap():
    quartic = WORKLOADS["quartic"]
    capped = harness.Workload("capped", 0.5, quartic.families, quartic.check)
    tracer = spans.Tracer()
    with tracer:
        traced = harness.one_pass(capped, harness.parse_inputs(capped.families(0)), tracer)
    assert [o.kind for o in traced.outcomes] == [harness.OVER_CAP]
    assert all(s.end >= s.start for s in traced.spans)
    assert spans.layer_metrics(traced.spans)["cusp_pipeline.run_s"] >= 0.5
