"""Timed and traced runs of a workload: the outcome classifier, the wall-clock
cap, the tail-percentile rule and the end-to-end and per-layer metrics."""

from __future__ import annotations

import json
import math
import resource
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable

import cuspcount
from cuspcount import cusp_pipeline, exprparse
from cuspcount.cli import report_to_dict
from cuspcount.errors import HypothesisError, PipelineError

from spans import REJECTION_STAGES, SELF_TIMES, Span, Tracer, layer_metrics, median_metrics, stage_key
from workloads import Family, Workload

REPORT, REJECTED, WRONG, ERROR, OVER_CAP = "report", "rejected", "wrong", "error", "over_cap"
SETUP_BEFORE, SETUP_MIN = 5, 10  # set-up samples before the passes, in all

SRC = Path(cuspcount.__file__).resolve().parent.parent

# A fresh interpreter that imports the cuspcount CLI module and parses the
# families read from stdin: what every CLI call pays before the analysis
# starts.
_SETUP_CODE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from cuspcount.cli import parse_poly
for f1, f2 in json.load(sys.stdin):
    parse_poly(f1)
    parse_poly(f2)
"""


class OverCap(BaseException):
    """Raised into an analysis that ran past its cap. A BaseException, so
    that no `except Exception` inside the program can swallow it."""


@contextmanager
def wall_cap(seconds: float):
    """Interrupt the body with OverCap after `seconds` of wall time."""

    def fire(signum, frame):
        raise OverCap

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass(frozen=True)
class Outcome:
    family: Family
    kind: str
    elapsed: float
    detail: str = ""  # rejection stage, or what went wrong
    report: dict | None = None

    @property
    def ok(self) -> bool:
        return self.kind in (REPORT, REJECTED)

    @property
    def finished(self) -> bool:
        return self.kind != OVER_CAP


def analyse(family: Family, polys, check, cap_s: float) -> Outcome:
    """One analysis, classified. `check(family, report_or_None)` returns a
    problem text or None; None is passed for a named rejection."""
    start = time.perf_counter()
    try:
        with wall_cap(cap_s):
            report = cusp_pipeline.run(*polys)
    except OverCap:
        return Outcome(family, OVER_CAP, time.perf_counter() - start, f"over the {cap_s:g} s cap")
    except PipelineError as e:
        elapsed = time.perf_counter() - start
        if not isinstance(e.cause, HypothesisError):
            return Outcome(family, ERROR, elapsed, f"{type(e.cause).__name__}: {e}")
        problem = check(family, None)
        if problem:
            return Outcome(family, WRONG, elapsed, problem)
        return Outcome(family, REJECTED, elapsed, stage_key(e.stage))
    except Exception as e:  # any other exception is a failed analysis, reported by name
        return Outcome(family, ERROR, time.perf_counter() - start, f"{type(e).__name__}: {e}")
    elapsed = time.perf_counter() - start
    problem = check(family, report)
    return Outcome(family, WRONG if problem else REPORT, elapsed, problem or "", report_to_dict(report))


@dataclass
class Pass:
    outcomes: list[Outcome]
    spans: list[Span] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        """Wall time of the analyses that finished."""
        return sum(o.elapsed for o in self.outcomes if o.finished)


def one_pass(workload: Workload, inputs, tracer: Tracer | None = None) -> Pass:
    outcomes = []
    for family, polys in inputs:
        outcomes.append(analyse(family, polys, workload.check, workload.cap_s))
        if tracer is not None and outcomes[-1].kind == OVER_CAP:
            tracer.settle()
    return Pass(outcomes, tracer.take() if tracer is not None else [])


def repeat_for(seconds: float, step: Callable[[], None]) -> None:
    """Call step() once, then again while another call, as long as the mean
    one so far, ends within `seconds` of the start."""
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        step()
        rounds += 1


# -- end-to-end statistics ------------------------------------------------------

def _rank_key(o: Outcome):
    # an analysis that did not end correctly is slower than any that did
    return (not o.ok, o.elapsed)


def percentile(outcomes: list[Outcome], p: float) -> Outcome:
    """Nearest-rank percentile of the analysis times."""
    ranked = sorted(outcomes, key=_rank_key)
    return ranked[max(1, math.ceil(p * len(ranked) / 100)) - 1]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of n samples beyond it;
    100 (the maximum, nothing beyond) when n <= 10."""
    return 100 if n <= 10 else math.floor(100 * (n - 10) / n)


def peak_rss_mib() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_seconds(families: list[Family]) -> float:
    """Wall time of a fresh interpreter importing cuspcount and parsing the
    families."""
    start = time.perf_counter()
    # no timeout: with one, waiting polls in sleeps of up to 50 ms
    subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC)],
                   input=json.dumps(families), text=True, check=True)
    return time.perf_counter() - start


def parse_inputs(families):
    return [(f, (exprparse.parse_poly(f[0]), exprparse.parse_poly(f[1]))) for f in families]


@dataclass
class Result:
    metrics: dict[str, float]
    outcomes: list[Outcome]
    notes: list[str]
    problems: list[str]

    @property
    def correct(self) -> bool:
        return not self.problems


def _problems(outcomes: list[Outcome]) -> list[str]:
    return [f"{o.kind}: {o.family[0]} | {o.family[1]}: {o.detail}"
            for o in outcomes if o.kind in (WRONG, ERROR)]


def _over_cap_notes(outcomes: list[Outcome]) -> list[str]:
    seen = dict.fromkeys(o.family for o in outcomes if o.kind == OVER_CAP)
    return [f"over cap: {f1} | {f2}" for f1, f2 in seen]


def measure(workload: Workload, seed: int, seconds: float) -> Result:
    """The untraced run: every end-to-end metric."""
    families = list(workload.families(seed))
    # The machine's speed drifts over seconds, so set-up is sampled before
    # the passes and after each one, not all at once.
    setup = [setup_seconds(families) for _ in range(SETUP_BEFORE)]
    inputs = parse_inputs(families)
    passes = []

    def step():
        passes.append(one_pass(workload, inputs))
        setup.append(setup_seconds(families))

    repeat_for(seconds, step)
    while len(setup) < SETUP_MIN:
        setup.append(setup_seconds(families))
    outcomes = [o for p in passes for o in p.outcomes]
    tail_p = tail_percentile(len(outcomes))
    p50, tail = percentile(outcomes, 50), percentile(outcomes, tail_p)
    notes = [
        f"analysis_s.tail is percentile {tail_p} of {len(outcomes)} analyses "
        f"({len(outcomes) - math.ceil(tail_p * len(outcomes) / 100)} beyond it)",
        f"passes: {len(passes)} of {len(families)} analyses each; "
        f"setup_s is the median of {len(setup)} fresh interpreters",
    ]
    for label, o in (("p50", p50), ("tail", tail)):
        if not o.ok:
            notes.append(f"analysis_s.{label} fell on an analysis that did not end "
                         f"correctly ({o.kind}); its time is a lower bound")
    metrics = {
        "setup_s": median(setup),
        "analysis_s.p50": p50.elapsed,
        "analysis_s.tail": tail.elapsed,
        "pass_s": median(p.seconds for p in passes),
        "ok_ratio": sum(o.ok for o in outcomes) / len(outcomes),
        "peak_rss_mb": peak_rss_mib(),
    }
    return Result(metrics, outcomes, notes + _over_cap_notes(outcomes), _problems(outcomes))


def _rejections(p: Pass) -> dict[str, float]:
    counts = {f"cusp_pipeline.rejected.{s}": 0 for s in REJECTION_STAGES}
    for o in p.outcomes:
        if o.kind == REJECTED:
            counts[f"cusp_pipeline.rejected.{o.detail}"] += 1
    return counts


def _report_mismatches(plain: list[Pass], traced: list[Pass]) -> list[str]:
    """Families whose finished analyses differ between untraced and traced passes."""
    return [
        f"traced and untraced analyses differ: {x.family[0]} | {x.family[1]}"
        for a, b in zip(plain, traced)
        for x, y in zip(a.outcomes, b.outcomes)
        if x.finished and y.finished and (x.kind, x.detail, x.report) != (y.kind, y.detail, y.report)
    ]


def _shares(metrics: dict[str, float]) -> list[str]:
    """Where the traced run time goes, by layer self time."""
    run_s = metrics["cusp_pipeline.run_s"]
    if not run_s:
        return []
    own = {k: metrics[k] for k in SELF_TIMES if k != "exprparse.parse_s"}
    lines = [f"share of traced run time: {k} {v / run_s:.1%}"
             for k, v in sorted(own.items(), key=lambda kv: -kv[1])]
    lines.append(f"share of traced run time: other (run() itself, unwrapped "
                 f"calls, tracing) {1 - sum(own.values()) / run_s:.1%}")
    lines.append("share of traced run time, inclusive: branch_counter.count_branches_positive_t_s "
                 f"{metrics['branch_counter.count_branches_positive_t_s'] / run_s:.1%}")
    return lines


def trace(workload: Workload, seed: int, seconds: float, spans_path: Path) -> Result:
    """The traced run: untraced and traced passes of the same inputs, taken
    in turn so that drift of the machine's speed hits both alike, as many
    pairs as fit in `seconds`. Per-layer metrics are medians over the
    traced passes; the spans of every traced pass go to spans_path."""
    tracer = Tracer()
    with tracer:
        inputs = parse_inputs(workload.families(seed))
    parse_spans = tracer.take()
    plain, traced = [], []

    def step():
        plain.append(one_pass(workload, inputs))
        with tracer:
            traced.append(one_pass(workload, inputs, tracer))

    repeat_for(seconds, step)
    metrics = median_metrics([layer_metrics(p.spans) | _rejections(p) for p in traced])
    metrics["exprparse.parse_s"] = layer_metrics(parse_spans)["exprparse.parse_s"]
    untraced_s = median(p.seconds for p in plain)
    traced_s = median(p.seconds for p in traced)
    metrics["trace.pass_s_untraced"] = untraced_s
    metrics["trace.pass_s_traced"] = traced_s
    metrics["trace.overhead_ratio"] = traced_s / untraced_s if untraced_s else 0.0

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for i, p in enumerate([Pass([], parse_spans)] + traced):
            for s in p.spans:
                fh.write(json.dumps({"pass": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent}) + "\n")

    outcomes = [o for p in plain + traced for o in p.outcomes]
    notes = [f"traced passes: {len(traced)}, untraced passes: {len(plain)}, "
             f"spans written to {spans_path}"] + _shares(metrics)
    problems = _problems(outcomes) + _report_mismatches(plain, traced)
    return Result(metrics, outcomes, notes + _over_cap_notes(outcomes), problems)
