"""Command-line front end.

    cuspcount analyze --f1 "x1^3 + x2^2 + t*x1" --f2 "x1*x2" [--json]
    cuspcount analyze --input family.txt

Exit codes: 0 on success, 2 when the input family fails one of the method's
hypotheses (the failing condition is named on stderr), 1 on usage or parse
errors, 3 on an internal error such as computed quantities that contradict
each other (the pipeline stage is named on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .branch_counter import DEFAULT_MATRIX_ATTEMPTS, DEFAULT_XI_CAP
from .cusp_pipeline import BifurcationReport, run
from .errors import CuspCountError, HypothesisError, ParseError, PipelineError
from .exprparse import EXPONENT_CAP, parse_poly

GRAMMAR_HELP = f"""\
expression grammar (whitespace-insensitive):
  expr   :=  term (("+" | "-") term)*
  term   :=  unary ("*" unary)*
  unary  :=  "-" unary | atom ["^" exponent]
  atom   :=  integer ["/" integer] | t | x1 | x2 | "(" expr ")"
multiplication is always explicit ("t*x1", never "t x1"); "/" only occurs
inside rational literals such as 3/4; exponents are integers in
[0, {EXPONENT_CAP}].
"""

JSON_SCHEMA_VERSION = 1


def report_to_dict(report: BifurcationReport) -> dict:
    """JSON-ready dictionary mirroring BifurcationReport field for field."""
    return {
        "schema": JSON_SCHEMA_VERSION,
        "input": {"f1": report.f1, "f2": report.f2, "seed": report.seed},
        "hypotheses": asdict(report.hypotheses),
        "deg_f0": report.deg_f0,
        "deg_d0": report.deg_d0,
        "deg_d1": report.deg_d1,
        "deg_d2": report.deg_d2,
        "cusp_deg_pos_t": report.cusp_deg_pos_t,
        "cusp_deg_neg_t": report.cusp_deg_neg_t,
        "combination": {
            "identity_choice": report.identity_combination,
            "matrix": [list(row) for row in report.combination_matrix],
        },
        "branch": asdict(report.branch),
        "branch_positive_t": asdict(report.branch_positive_t),
        "b0": report.b0,
        "b0_prime": report.b0_prime,
        "sigma": list(report.sigma),
        "chi_M_pos_t": report.chi_M_pos_t,
        "chi_M_neg_t": report.chi_M_neg_t,
        "L0_count": report.L0_count,
        "fold_boundary_crit_count": report.fold_boundary_crit_count,
        "parity_ok": report.parity_ok,
    }


def render_json(report: BifurcationReport) -> str:
    return json.dumps(report_to_dict(report), indent=2)


def render_text(report: BifurcationReport) -> str:
    h = report.hypotheses
    b, bp = report.branch, report.branch_positive_t
    sp, sm, snp, snm = report.sigma
    lines = [
        "input family",
        f"  f1 = {report.f1}",
        f"  f2 = {report.f2}",
        "hypothesis dimensions (all finite)",
        f"  dim O/<t,f1,f2>            = {h.dim_t_f1_f2}",
        f"  dim O/<t,F1,F2>            = {h.dim_t_F1_F2}",
        f"  dim O/<t,dJ/dx1,dJ/dx2>    = {h.dim_t_gradJ}",
        f"  dim O/I'                   = {h.dim_I_prime}",
        f"  dim O/<d1>                 = {h.dim_d1_ideal}",
        f"  dim O/<d2>                 = {h.dim_d2_ideal}",
        f"  dim O/I''                  = {h.dim_I_dblprime}",
        f"  dim Q = dim O/<t,J,F1,F2>  = {h.dim_Q}",
        "local degrees",
        f"  deg(f0) = {report.deg_f0:+d}   deg(d0) = {report.deg_d0:+d}   "
        f"deg(d1) = {report.deg_d1:+d}   deg(d2) = {report.deg_d2:+d}",
        "cusp degree of f_t",
        f"  t > 0: {report.cusp_deg_pos_t:+d}    t < 0: {report.cusp_deg_neg_t:+d}",
        "half-branches of the cusp curve V(J, F1, F2)",
        f"  xi = {b.xi}, k = {b.k}: deg(H+) = {b.deg_H_plus:+d}, "
        f"deg(H-) = {b.deg_H_minus:+d}  ->  b0 = {b.b0}",
        f"  substituted (t -> t^2): xi' = {bp.xi}, k' = {bp.k}: "
        f"deg(H+') = {bp.deg_H_plus:+d}, deg(H-') = {bp.deg_H_minus:+d}  ->  "
        f"b0' = {bp.b0}",
        f"  combination: {'identity permutation (F1, F2, J)' if report.identity_combination else 'random matrix (seed %d)' % report.seed}",
        "cusp points bifurcating from the origin",
        f"  t > 0: {sp} with degree +1, {sm} with degree -1",
        f"  t < 0: {snp} with degree +1, {snm} with degree -1",
        "extras",
        f"  chi(M_t^-): t > 0: {report.chi_M_pos_t}, t < 0: {report.chi_M_neg_t}",
        f"  #(J_0 = 0 on a small circle) = {report.L0_count}",
        f"  fold boundary critical points = {report.fold_boundary_crit_count}",
        f"  parity check vs dim Q: {'ok' if report.parity_ok else 'FAILED'}",
    ]
    return "\n".join(lines)


def _read_input_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"line {lineno}: expected key=value", 0)
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuspcount",
        description=(
            "count the cusp points of a one-parameter family of "
            "plane-to-plane polynomial maps bifurcating from the origin, "
            "split by local degree and by the sign of the parameter"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=GRAMMAR_HELP,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    analyze = sub.add_parser(
        "analyze", help="analyze one family",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=GRAMMAR_HELP,
    )
    analyze.add_argument("--f1", help="first component, in t, x1, x2")
    analyze.add_argument("--f2", help="second component, in t, x1, x2")
    analyze.add_argument(
        "--input", help="read f1, f2 and optionally seed from a key=value file"
    )
    analyze.add_argument("--seed", type=int, default=0,
                         help="seed for the fallback combination search")
    analyze.add_argument("--json", action="store_true",
                         help="emit the report as JSON")
    analyze.add_argument("--xi-cap", type=int, default=DEFAULT_XI_CAP,
                         help="bound for the membership exponent search")
    analyze.add_argument("--attempts", type=int, default=DEFAULT_MATRIX_ATTEMPTS,
                         help="bound for random combination attempts")
    analyze.add_argument("-v", "--verbose", action="store_true",
                         help="echo progress to stderr")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; the contract here is exit 1
        return 0 if e.code == 0 else 1

    f1_text, f2_text, seed = args.f1, args.f2, args.seed
    try:
        if args.input:
            values = _read_input_file(args.input)
            f1_text = values.get("f1", f1_text)
            f2_text = values.get("f2", f2_text)
            if "seed" in values:
                seed = int(values["seed"])
        if not f1_text or not f2_text:
            print("error: --f1 and --f2 (or --input) are required", file=sys.stderr)
            return 1
        f1 = parse_poly(f1_text)
        f2 = parse_poly(f2_text)
    except (ParseError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    if args.verbose:
        print(f"analyzing f = ({f1}, {f2})", file=sys.stderr)
    try:
        report = run(
            f1, f2, seed=seed, xi_cap=args.xi_cap, matrix_attempts=args.attempts
        )
    except PipelineError as e:
        if isinstance(e.cause, HypothesisError):
            print(f"analysis failed: {e}", file=sys.stderr)
            return 2
        print(f"internal error in stage {e.stage!r}: {e.cause}", file=sys.stderr)
        return 3
    except CuspCountError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3

    print(render_json(report) if args.json else render_text(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
