"""Outside-in tracing: timing shims swapped in for the public functions of
each cuspcount layer, spans kept in memory, and the per-layer metrics derived
from them.

A span records name, start, end and parent. A layer's self time is its span's
duration minus the part of it covered by child spans. Counts come from the
wrapped call's arguments and return value and are stored on its span.
"""

from __future__ import annotations

import sys
import time
import weakref
from dataclasses import dataclass, field
from math import inf
from statistics import median
from typing import Any, Callable

from cuspcount import branch_counter, cusp_pipeline, elk_degree, exprparse
from cuspcount.elk_degree import LocalAlgebra
from cuspcount.standard_basis import LocalIdeal

HOOK = "trace.hook"  # time spent reading sizes off arguments and results


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.end - s.start - covered)
    return out


class Tracer:
    """Records spans for every call through the shims it installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._seen: dict[int, weakref.ref] = {}

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._open.pop()

    def take(self) -> list[Span]:
        """The spans recorded so far; recording starts afresh."""
        spans, self.spans, self._seen = self.spans, [], {}
        return spans

    def settle(self) -> None:
        """Close the spans an interrupted analysis left open."""
        now = self.clock()
        for s in self.spans:
            if not s.end:
                s.end = now
        self._open.clear()

    def first_query(self, obj: object) -> bool:
        """True the first time obj is seen since the last take()."""
        ref = self._seen.get(id(obj))
        if ref is not None and ref() is obj:
            return False
        self._seen[id(obj)] = weakref.ref(obj)
        return True

    def shim(self, fn: Callable, name: str, hook: Callable | None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if hook is not None:
                h = tracer.begin(HOOK)
                try:
                    hook(tracer, tracer.spans[idx].attrs, args, result)
                finally:
                    tracer.end(h)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, wraps=None) -> None:
        """Swap every wrapped function for its shim, in every cuspcount
        module that binds it and on the classes that own methods."""
        modules = [m for name, m in sys.modules.items()
                   if name == "cuspcount" or name.startswith("cuspcount.")]
        for owner, attr, name, hook in wraps or WRAPS:
            fn = owner.__dict__[attr]
            shim = self.shim(fn, name, hook)
            targets = [owner] if isinstance(owner, type) else [
                m for m in modules if getattr(m, attr, None) is fn
            ]
            for target in targets:
                setattr(target, attr, shim)
                self._undo.append((target, attr, fn))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, fn = self._undo.pop()
            setattr(target, attr, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# -- hooks: sizes read off arguments and results ------------------------------

def _signature_sizes(tracer, attrs, args, result):
    matrix = args[0]
    attrs["entries"] = len(matrix) ** 2
    attrs["nonzeros"] = sum(1 for row in matrix for x in row if x)


def _algebra_dim(tracer, attrs, args, result):
    attrs["dim"] = result.dim


def _quotient_dim_sizes(tracer, attrs, args, result):
    ideal = args[0]
    attrs["first"] = tracer.first_query(ideal)
    attrs["infinite"] = result == inf
    attrs["staircase"] = 0 if result == inf else int(result)
    attrs["basis_len"] = len(ideal.lead_monomials)
    attrs["trunc"] = ideal.truncation_degree or 0


def _contains_result(tracer, attrs, args, result):
    attrs["first"] = tracer.first_query(args[0])
    attrs["true"] = bool(result)


# (owner, attribute, span name, hook); the owner's binding is the original
WRAPS = [
    (exprparse, "parse_poly", "exprparse.parse_poly", None),
    (cusp_pipeline, "run", "cusp_pipeline.run", None),
    (cusp_pipeline, "derive", "cusp_pipeline.derive", None),
    (cusp_pipeline, "verify_hypotheses", "cusp_pipeline.verify_hypotheses", None),
    (LocalIdeal, "quotient_dim", "standard_basis.quotient_dim", _quotient_dim_sizes),
    (LocalIdeal, "contains", "standard_basis.contains", _contains_result),
    (elk_degree, "local_degree", "elk_degree.local_degree", None),
    (elk_degree, "build_algebra", "elk_degree.build_algebra", _algebra_dim),
    (LocalAlgebra, "coords", "elk_degree.coords", None),
    (LocalAlgebra, "functional_table", "elk_degree.functional_table", None),
    (elk_degree, "signature", "elk_degree.signature", _signature_sizes),
    (branch_counter, "choose_combination", "branch_counter.choose_combination", None),
    (branch_counter, "curve_criterion_ideal", "branch_counter.curve_criterion_ideal", None),
    (branch_counter, "compute_xi", "branch_counter.compute_xi", None),
    (branch_counter, "count_branches", "branch_counter.count_branches", None),
    (branch_counter, "count_branches_positive_t", "branch_counter.count_branches_positive_t", None),
    (branch_counter, "build_H", "branch_counter.build_H", None),
]

# Pipeline stages whose HypothesisError is a named rejection; the four
# "degree <germ>" stages of run() are one entry.
REJECTION_STAGES = (
    "derive", "verify_hypotheses", "degree", "choose_combination",
    "count_branches", "count_branches_positive_t",
)


def stage_key(stage: str) -> str:
    return "degree" if stage.startswith("degree ") else stage


# name -> the end-to-end metric it should move, and on which workloads; the
# unit and direction of each are in BENCHMARK.json
PER_LAYER: dict[str, str] = {
    "elk_degree.signature_s": "analysis_s.p50, pass_s on quartic, then crafted",
    "elk_degree.signature_calls": "analysis_s.p50, pass_s on quartic, then crafted",
    "elk_degree.signature_entries": "pass_s, peak_rss_mb on quartic",
    "elk_degree.signature_nonzeros": "pass_s, peak_rss_mb on quartic",
    "elk_degree.algebra_dim_max": "peak_rss_mb on quartic",
    "elk_degree.algebra_dim_sum": "peak_rss_mb on quartic",
    "elk_degree.build_algebra_s": "pass_s on crafted, and quartic once the signature is fast",
    "elk_degree.coords_s": "pass_s on crafted, and quartic once the signature is fast",
    "elk_degree.functional_table_s": "pass_s on crafted, and quartic once the signature is fast",
    "elk_degree.local_degree_s": "pass_s on crafted, and quartic once the signature is fast",
    "standard_basis.quotient_dim_s": "analysis_s.p50 on screen, then crafted",
    "standard_basis.quotient_dim_calls": "analysis_s.p50 on screen, then crafted",
    "standard_basis.completions": "analysis_s.p50 on screen, then crafted",
    "standard_basis.infinite": "analysis_s.p50 on screen, then crafted",
    "standard_basis.basis_len_max": "pass_s on crafted, quartic",
    "standard_basis.trunc_max": "pass_s on crafted, quartic",
    "standard_basis.staircase_dim_max": "pass_s on crafted, quartic",
    "standard_basis.contains_s": "ok_ratio, analysis_s.tail on screen",
    "standard_basis.contains_calls": "ok_ratio, analysis_s.tail on screen",
    "standard_basis.contains_true": "ok_ratio, analysis_s.tail on screen",
    "branch_counter.compute_xi_s": "ok_ratio, analysis_s.tail on screen",
    "branch_counter.xi_probes": "ok_ratio, analysis_s.tail on screen",
    "branch_counter.xi_hit_ratio": "ok_ratio, analysis_s.tail on screen",
    "branch_counter.choose_combination_s": "pass_s on screen",
    "branch_counter.criterion_checks": "pass_s on screen",
    "branch_counter.build_H_s": "pass_s on quartic",
    "branch_counter.count_branches_positive_t_s": "pass_s on quartic",
    "cusp_pipeline.derive_s": "analysis_s.p50 on screen",
    "cusp_pipeline.verify_hypotheses_s": "analysis_s.p50 on screen",
    **{
        f"cusp_pipeline.rejected.{stage}": "analysis_s.p50 on screen"
        for stage in REJECTION_STAGES
    },
    "cusp_pipeline.run_s": "pass_s on all; the base of every share",
    "exprparse.parse_s": "setup_s on all",
    "trace.pass_s_untraced": "pass_s; the base of the overhead",
    "trace.pass_s_traced": "pass_s; traced",
    "trace.overhead_ratio": "none: tracing cost, traced over untraced pass_s",
}

SELF_TIMES = {
    "elk_degree.signature_s": "elk_degree.signature",
    "elk_degree.build_algebra_s": "elk_degree.build_algebra",
    "elk_degree.coords_s": "elk_degree.coords",
    "elk_degree.functional_table_s": "elk_degree.functional_table",
    "elk_degree.local_degree_s": "elk_degree.local_degree",
    "standard_basis.quotient_dim_s": "standard_basis.quotient_dim",
    "standard_basis.contains_s": "standard_basis.contains",
    "branch_counter.compute_xi_s": "branch_counter.compute_xi",
    "branch_counter.choose_combination_s": "branch_counter.choose_combination",
    "branch_counter.build_H_s": "branch_counter.build_H",
    "cusp_pipeline.derive_s": "cusp_pipeline.derive",
    "cusp_pipeline.verify_hypotheses_s": "cusp_pipeline.verify_hypotheses",
    "exprparse.parse_s": "exprparse.parse_poly",
}


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        out[s.name] = out.get(s.name, 0.0) + own
    return out


def _under(spans: list[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass (self times and counts) from its spans.
    A span cut short by the cap has no sizes: it counts as a call only."""
    own = self_time_by_name(spans)
    m = {key: own.get(name, 0.0) for key, name in SELF_TIMES.items()}

    def named(name):
        return [s for s in spans if s.name == name]

    sig = named("elk_degree.signature")
    m["elk_degree.signature_calls"] = len(sig)
    m["elk_degree.signature_entries"] = sum(s.attrs.get("entries", 0) for s in sig)
    m["elk_degree.signature_nonzeros"] = sum(s.attrs.get("nonzeros", 0) for s in sig)
    dims = [s.attrs["dim"] for s in named("elk_degree.build_algebra") if "dim" in s.attrs]
    m["elk_degree.algebra_dim_max"] = max(dims, default=0)
    m["elk_degree.algebra_dim_sum"] = sum(dims)

    qd = named("standard_basis.quotient_dim")
    ct = named("standard_basis.contains")
    m["standard_basis.quotient_dim_calls"] = len(qd)
    m["standard_basis.completions"] = sum(s.attrs.get("first", False) for s in qd + ct)
    m["standard_basis.infinite"] = sum(s.attrs.get("infinite", False) for s in qd)
    m["standard_basis.basis_len_max"] = max((s.attrs.get("basis_len", 0) for s in qd), default=0)
    m["standard_basis.trunc_max"] = max((s.attrs.get("trunc", 0) for s in qd), default=0)
    m["standard_basis.staircase_dim_max"] = max((s.attrs.get("staircase", 0) for s in qd), default=0)
    m["standard_basis.contains_calls"] = len(ct)
    m["standard_basis.contains_true"] = sum(s.attrs.get("true", False) for s in ct)

    probes = [
        s for i, s in enumerate(spans)
        if s.name == "standard_basis.contains" and _under(spans, i, "branch_counter.compute_xi")
    ]
    m["branch_counter.xi_probes"] = len(probes)
    m["branch_counter.xi_hit_ratio"] = (
        sum(s.attrs.get("true", False) for s in probes) / len(probes) if probes else 0.0
    )
    m["branch_counter.criterion_checks"] = len(named("branch_counter.curve_criterion_ideal"))
    m["branch_counter.count_branches_positive_t_s"] = sum(
        s.end - s.start for s in named("branch_counter.count_branches_positive_t")
    )
    m["cusp_pipeline.run_s"] = sum(s.end - s.start for s in named("cusp_pipeline.run"))
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: median(p[k] for p in per_pass) for k in per_pass[0]}

