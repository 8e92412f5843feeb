"""The benchmark's workloads: which families each one analyses, how long one
analysis may run, and how each report is checked.

Every family is given as text, the way a user hands it to the CLI, and is
parsed once before timing starts.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Callable

from cuspcount.cli import report_to_dict
from cuspcount.cusp_pipeline import BifurcationReport
from cuspcount.polyring import VARS_TX, Poly

Family = tuple[str, str]
# check(family, report, or None for a named rejection) -> problem text or None
Check = Callable[[Family, "BifurcationReport | None"], "str | None"]

EX1: Family = ("x1^3 + x2^2 + t*x1", "x1*x2")
EX2: Family = ("x1^4 + x2^4 + x1^2*x2^2 + t*x1", "x1*x2 + t*x2")

# EX1 and the families that pass every hypothesis in tests/support.py
CRAFTED: tuple[Family, ...] = (
    EX1,
    ("x1^3 + x2^2 - t*x1", "x1*x2"),
    ("x1^3 - x2^2 + t*x1", "x1*x2"),
    ("x1^2 - x2^2 + t*x1", "x1*x2"),
    ("x1", "x2^3 - x1*x2 - t*x2"),
    ("x1", "x2^3 - x1^2*x2 + t^2*x2"),
    ("x1^3 + x2^2 + t*x1", "2*x1*x2"),
)

# Generator of the screen workload: the rule of random_origin_poly in
# tests/support.py, copied so that edits to the tests cannot move it.
SCREEN_FAMILIES = 120
SCREEN_MAX_DEG = 3
SCREEN_TERMS = 4
SCREEN_COEFF = 3

PINNED_PATH = Path(__file__).with_name("pinned_reports.json")


def _random_poly(rng: random.Random) -> Poly:
    terms: dict = {}
    for _ in range(SCREEN_TERMS):
        while True:
            mono = tuple(rng.randint(0, SCREEN_MAX_DEG) for _ in VARS_TX)
            if sum(mono) <= SCREEN_MAX_DEG:
                break
        c = rng.randint(-SCREEN_COEFF, SCREEN_COEFF)
        if c == 0:
            continue
        terms[mono] = terms.get(mono, Fraction(0)) + Fraction(c)
    return Poly(VARS_TX, {m: c for m, c in terms.items() if c})


def _random_origin_poly(rng: random.Random) -> Poly:
    while True:
        p = _random_poly(rng)
        p = p - Poly.constant(p.constant_term(), VARS_TX)
        if not p.is_zero():
            return p


def screen_families(seed: int) -> tuple[Family, ...]:
    """SCREEN_FAMILIES random families (f1, f2) vanishing at the origin, as text."""
    rng = random.Random(seed)
    return tuple(
        (str(_random_origin_poly(rng)), str(_random_origin_poly(rng)))
        for _ in range(SCREEN_FAMILIES)
    )


@cache
def load_pinned() -> dict[Family, dict]:
    with open(PINNED_PATH, encoding="utf-8") as fh:
        return {(e["f1"], e["f2"]): e["report"] for e in json.load(fh)}


def pinned_check(family: Family, report: BifurcationReport | None) -> str | None:
    """The report must equal the pinned report_to_dict output field for field."""
    if report is None:
        return "rejected, but a report is pinned for this family"
    got, want = report_to_dict(report), load_pinned()[family]
    if got == want:
        return None
    diff = sorted(k for k in want.keys() | got.keys() if got.get(k) != want.get(k))
    return f"report differs from the pinned one in {diff}"


def screen_check(family: Family, report: BifurcationReport | None) -> str | None:
    """Identities every report satisfies, whatever the family; any named
    rejection is a correct outcome."""
    if report is None:
        return None
    s = report.sigma
    if sum(s) != report.b0:
        return f"sum(sigma) = {sum(s)} != b0 = {report.b0}"
    if s[0] - s[1] != report.cusp_deg_pos_t:
        return f"sigma+ difference {s[0] - s[1]} != cusp_deg_pos_t {report.cusp_deg_pos_t}"
    if s[2] - s[3] != report.cusp_deg_neg_t:
        return f"sigma- difference {s[2] - s[3]} != cusp_deg_neg_t {report.cusp_deg_neg_t}"
    if not report.parity_ok:
        return "parity check against dim Q failed"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    cap_s: float  # wall-clock cap of one analysis
    families: Callable[[int], tuple[Family, ...]]  # seed -> families of one pass
    check: Check


def _shuffled(families: tuple[Family, ...]) -> Callable[[int], tuple[Family, ...]]:
    def make(seed: int) -> tuple[Family, ...]:
        order = list(families)
        random.Random(seed).shuffle(order)
        return tuple(order)

    return make


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # EX2: its dim-238 H+- algebras make residue-matrix signature and
        # large-algebra memory dominate.
        Workload("quartic", 80.0, _shuffled((EX2,)), pinned_check),
        # Many small ideals and algebras: per-call overhead, truncated
        # completion, coords and small signatures share the time.
        Workload("crafted", 30.0, _shuffled(CRAFTED), pinned_check),
        # Mostly rejections and completions of positive-dimensional ideals,
        # plus unbounded xi membership completions that reach the cap.
        Workload("screen", 2.0, screen_families, screen_check),
    )
}
