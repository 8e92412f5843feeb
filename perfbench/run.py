"""cuspcount benchmark.

    python3 perfbench/run.py --workload crafted --seed 1 --seconds 50 --trace 0

Runs cusp_pipeline.run() on one workload for as many passes as fit in
--seconds, checks every report, and prints each metric by name with its unit.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 gives the end-to-end metrics;
--trace 1 gives the per-layer metrics of a separate traced run and writes its
spans to .perfbench/spans-<workload>.jsonl. --workload all runs every
workload in a child process of its own and merges the results, each metric
prefixed with its workload. Metric units and directions are read from
BENCHMARK.json. Exits 1 when an output check fails and 2 when cuspcount
cannot be imported from src/ beside this directory.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_cuspcount() -> bool:
    sys.path.insert(0, str(SRC))
    try:
        import cuspcount
    except ImportError as e:
        print(f"error: cannot import cuspcount from {SRC}: {e}", file=sys.stderr)
        return False
    if Path(cuspcount.__file__).resolve().parent.parent != SRC:
        print(f"error: cuspcount was imported from {cuspcount.__file__}, not {SRC}",
              file=sys.stderr)
        return False
    return True


def _run_each(names: list[str], args) -> int:
    """Each workload in a fresh process, so that no metric (peak_rss_mb
    above all) carries over from one workload to the next."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        if child.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited with code {child.returncode}", file=sys.stderr)
            return child.returncode or 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    if not _import_cuspcount():
        return 2
    import harness
    from spans import PER_LAYER
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="measure whole passes until this much time has gone by")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_each(list(WORKLOADS), args)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    defined = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}
    name, workload = args.workload, WORKLOADS[args.workload]
    if args.trace:
        result = harness.trace(workload, args.seed, args.seconds,
                               ROOT / ".perfbench" / f"spans-{name}.jsonl")
    else:
        result = harness.measure(workload, args.seed, args.seconds)
    for metric, value in result.metrics.items():
        target = f"  -> {PER_LAYER[metric]}" if args.trace else ""
        print(f"{name} {metric} = {value:.6g} {defined[metric]['unit']} "
              f"({defined[metric]['better']} is better){target}")
    for line in result.notes:
        print(f"{name} note: {line}")
    for line in result.problems:
        print(f"{name} FAILED CHECK: {line}")

    print(json.dumps({
        "correct": result.correct,
        "attempted": len(result.outcomes),
        "failed": sum(not o.ok for o in result.outcomes),
        "metrics": {m: {"value": v, "unit": defined[m]["unit"]} for m, v in result.metrics.items()},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
