"""Benchmark of the GRIT reproduction: one named workload per run.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload paper-4k --seed 0 --seconds 40 \
        --trace 0

With ``--trace 0`` the workload's (app, policy) simulations run back to
back, one at a time, in passes until ``--seconds`` would be exceeded,
and the last line printed is a JSON object with the end-to-end metrics.
With ``--trace 1`` one untraced pass is followed by traced passes, and
the JSON object carries the per-layer metrics; the spans are written to
``perfbench/out/<workload>.trace.json`` (Chrome trace-event format).

Seed 0 keeps every generator's built-in seed and checks the counters
against ``reference.json``; any other seed derives fresh per-app seeds
and checks that repeats of a simulation agree exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Environment variables that silently override ``SystemConfig``.
OVERRIDES = (
    "GRIT_CONTENTION",
    "GRIT_TOPOLOGY",
    "GRIT_FAST_PATH",
    "GRIT_SANITIZE",
    "GRIT_TRACE",
    "REPRO_BENCH_SCALE",
)


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workload_names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="rewrite reference.json from seed-0 runs and exit",
    )
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    set_vars = [name for name in OVERRIDES if name in os.environ]
    if set_vars:
        print(
            f"refusing to run: {', '.join(set_vars)} set; these override "
            f"SystemConfig behind the benchmark's back",
            file=sys.stderr,
        )
        return 2
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import suite

    args = parse_args(argv, sorted(suite.WORKLOADS))
    if args.write_reference:
        suite.write_reference()
        return 0
    workload = suite.WORKLOADS[args.workload]
    suite.warm_up(workload)
    if args.trace:
        passes, metrics = suite.measure_traced(
            workload, args.seed, args.seconds,
            os.path.join(HERE, "out", f"{workload.name}.trace.json"),
        )
        declared = _declared("per_layer")
    else:
        passes, metrics = suite.measure(workload, args.seed, args.seconds)
        declared = _declared("end_to_end")
    if set(metrics) != set(declared):
        raise SystemExit(
            f"computed metrics {sorted(metrics)} differ from "
            f"BENCHMARK.json {sorted(declared)}"
        )
    failures = [f for done in passes for f in done.failures]
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(done.attempted for done in passes),
        "failed": sum(done.failed for done in passes),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in declared.items()
        },
    }))
    return 0


def _declared(section):
    with open(
        os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
        encoding="utf-8",
    ) as handle:
        return {
            entry["name"]: entry["unit"]
            for entry in json.load(handle)[section]
        }


if __name__ == "__main__":
    sys.exit(main())
