"""Benchmark of the FLEX legalizer and its served ECO path.

Run from the root of a checkout::

    python3 flexbench/run.py --workload flex_dense --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is a separate run that alternates untraced and traced
rounds and reports per-layer self time and work counts instead, plus the
tracing overhead.  ``--smoke`` shrinks every input to toy size so that a
run takes seconds (used by the benchmark's own tests).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it
describe the inputs (with their hashes) and the measured split.  A run
whose outputs fail a check exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("flex_dense", "flex_sparse", "eco_served")


def _import_program():
    """Put the checkout's ``src`` on the path; fail clearly when it is absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"flexbench: no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy-size inputs")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    _import_program()
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    workdir = ROOT / ".flexbench_work"
    workdir.mkdir(exist_ok=True)

    def log(line: str) -> None:
        print(f"# {line}", flush=True)

    try:
        if args.workload == "eco_served":
            outcome = workloads.run_eco(args.seed, args.seconds, bool(args.trace), sizes, log)
        else:
            outcome = workloads.run_flex(args.workload, args.seed, args.seconds,
                                         bool(args.trace), sizes, workdir, log)
    except workloads.CheckFailed as exc:
        print(f"flexbench: check failed: {exc}", file=sys.stderr)
        return 1

    log(outcome.note)
    section = "per_layer" if args.trace else "end_to_end"
    values = outcome.layers if args.trace else outcome.metrics
    metrics = {}
    for entry in spec[section]:
        name = entry["name"]
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
        log(f"{name:<24} {values[name]:>14.6g} {entry['unit']}")
    if args.trace:
        _log_split(outcome.layers, list(workloads.SELF_TIME_LAYERS) + ["other.s"], log)
    print(json.dumps({
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


def _log_split(layers: dict, names: list, log) -> None:
    """Self-time shares of the traced round, largest first."""
    total = sum(layers[name] for name in names)
    log("self-time split of one traced round:")
    for name in sorted(names, key=lambda n: -layers[n]):
        if layers[name] > 0:
            log(f"  {name:<20} {layers[name]:10.4f} s  {100.0 * layers[name] / total:5.1f} %")


if __name__ == "__main__":
    sys.exit(main())
