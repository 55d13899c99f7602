"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — show registered workloads, policies, and figures.
* ``run`` — simulate one (workload, policy) pair and print the summary.
* ``figure`` — regenerate paper figures (text / JSON / CSV, optional
  disk cache).
* ``sweep`` — tabulate a workload x policy matrix through the
  resilient sweep orchestrator (parallel workers, per-task timeout,
  retry with backoff, shared disk cache, crash injection for drills).
* ``report`` — write the full markdown reproduction report (+ SVG
  charts).
* ``characterize`` — print a workload's sharing/RW characterization.
* ``dump-trace`` — export a generated trace as ``.npz``.
* ``trace`` — simulate with observability on and export a Chrome
  trace-event JSON (opens in Perfetto) plus optional metrics.
* ``inspect`` — reconstruct page lifecycles from the structured event
  log (``--vpn N`` for one page, otherwise the busiest pages).
* ``profile`` — wall-time phase profile of the simulator itself.
* ``bench`` — run the figure benchmarks, write ``BENCH_<name>.json``
  baselines, and gate fresh measurements against committed baselines
  (``--compare``).
* ``lint`` — run the simlint static-analysis pass over the simulator.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro.analysis import sharing_summary
from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.harness.experiment import ExperimentRunner
from repro.harness.figures import FIGURES, run_figure
from repro.harness.report import format_figure, format_table
from repro.policies import available_policies, make_policy
from repro.sim import simulate
from repro.workloads import available_workloads, make_workload


def _positive_scale(text: str) -> float:
    """``--scale`` type: a finite number above zero."""
    value = float(text)  # argparse reports a ValueError as invalid
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GRIT reproduction: trace-driven multi-GPU page placement",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads, policies, and figures")

    run = sub.add_parser("run", help="simulate one workload under one policy")
    run.add_argument("workload", choices=available_workloads())
    run.add_argument("policy", choices=available_policies())
    run.add_argument("--gpus", type=int, default=4)
    run.add_argument("--scale", type=_positive_scale, default=0.3)
    run.add_argument("--page-size", type=int, default=4096)
    run.add_argument(
        "--contention",
        choices=["none", "queued"],
        default="none",
        help="timing-kernel mode: 'queued' models link and DRAM "
        "channel occupancy (GRIT_CONTENTION overrides)",
    )
    run.add_argument(
        "--topology",
        default="all-to-all",
        metavar="SPEC",
        help="interconnect fabric shape: all-to-all (default), "
        "nvswitch[:group_size], ring, or multi-node[:nodes] "
        "(GRIT_TOPOLOGY overrides)",
    )
    run.add_argument(
        "--fault-batch",
        type=int,
        default=1,
        metavar="N",
        help="local faults the UVM driver services per batch; 1 (the "
        "default) services every fault inline at the faulting access",
    )
    run.add_argument(
        "--no-fast-path",
        action="store_true",
        help="disable the fast path's batched rounds; steady accesses "
        "are still priced inline (results are bit-identical either "
        "way; GRIT_FAST_PATH overrides)",
    )
    _add_observe_arguments(run)

    trace_cmd = sub.add_parser(
        "trace",
        help="simulate with observability and export a Perfetto trace",
    )
    trace_cmd.add_argument("workload", choices=available_workloads())
    trace_cmd.add_argument("policy", choices=available_policies())
    trace_cmd.add_argument("output", help="Chrome trace-event JSON path")
    trace_cmd.add_argument("--gpus", type=int, default=4)
    trace_cmd.add_argument("--scale", type=_positive_scale, default=0.3)
    trace_cmd.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="also export the sampled metric series to PATH",
    )
    trace_cmd.add_argument(
        "--metrics-format",
        choices=["jsonl", "csv", "prom"],
        default="jsonl",
    )
    trace_cmd.add_argument(
        "--sample-interval",
        type=int,
        default=None,
        metavar="CYCLES",
        help="simulated cycles between metric samples",
    )

    inspect_cmd = sub.add_parser(
        "inspect",
        help="reconstruct page lifecycles from the simulated event log",
    )
    inspect_cmd.add_argument("workload", choices=available_workloads())
    inspect_cmd.add_argument("policy", choices=available_policies())
    inspect_cmd.add_argument("--gpus", type=int, default=4)
    inspect_cmd.add_argument("--scale", type=_positive_scale, default=0.3)
    inspect_cmd.add_argument(
        "--vpn",
        type=int,
        default=None,
        help="page to inspect (default: rank the busiest pages)",
    )
    inspect_cmd.add_argument(
        "--limit",
        type=int,
        default=10,
        help="pages shown in the busiest-pages ranking",
    )

    profile_cmd = sub.add_parser(
        "profile",
        help="wall-time phase profile of the simulator itself",
    )
    profile_cmd.add_argument("workload", choices=available_workloads())
    profile_cmd.add_argument("policy", choices=available_policies())
    profile_cmd.add_argument("--gpus", type=int, default=4)
    profile_cmd.add_argument("--scale", type=_positive_scale, default=0.3)
    profile_cmd.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the phase timings as metrics JSON-lines "
        "('-' for stdout)",
    )

    bench = sub.add_parser(
        "bench",
        help="run the perf benchmarks and gate against baselines",
    )
    bench.add_argument(
        "--cases",
        default=None,
        help="comma-separated case names (default: the full suite)",
    )
    bench.add_argument(
        "--scale",
        type=_positive_scale,
        default=None,
        help="trace scale (default: $REPRO_BENCH_SCALE or 0.05)",
    )
    bench.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="repetitions per case for the min-of-N estimate",
    )
    bench.add_argument(
        "--output",
        metavar="DIR",
        default=None,
        help="write one BENCH_<name>.json baseline per case into DIR",
    )
    bench.add_argument(
        "--compare",
        metavar="DIR",
        default=None,
        help="gate this run against the baselines in DIR; exits "
        "nonzero on regressions",
    )
    bench.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="relative wall-time slowdown tolerated by --compare "
        "(default 0.25)",
    )
    bench.add_argument(
        "--counters-only",
        action="store_true",
        help="compare deterministic simulator counters only (for "
        "baselines written on different hardware)",
    )
    bench.add_argument(
        "--inject-slowdown",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="gate drill: add SECONDS to every wall sample and verify "
        "--compare fails",
    )

    fig = sub.add_parser("figure", help="regenerate a paper figure")
    fig.add_argument("name", choices=[*sorted(FIGURES), "all"])
    fig.add_argument("--scale", type=_positive_scale, default=0.3)
    fig.add_argument(
        "--format",
        choices=["text", "json", "csv"],
        default="text",
        help="output format (text table, JSON, or CSV)",
    )
    fig.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="persist simulation results under DIR and reuse them",
    )
    fig.add_argument(
        "--artifacts",
        metavar="DIR",
        default=None,
        help="export a trace + metrics file per simulated run into DIR",
    )

    char = sub.add_parser("characterize", help="trace characterization")
    char.add_argument("workload", choices=available_workloads())
    char.add_argument("--gpus", type=int, default=4)
    char.add_argument("--scale", type=_positive_scale, default=0.3)

    report = sub.add_parser(
        "report", help="regenerate every figure into a markdown report"
    )
    report.add_argument("--output", default="REPORT.md")
    report.add_argument("--scale", type=_positive_scale, default=0.25)
    report.add_argument(
        "--charts",
        metavar="DIR",
        default=None,
        help="also write an SVG bar chart per figure into DIR",
    )
    report.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="persist simulation results under DIR and reuse them",
    )
    report.add_argument(
        "--artifacts",
        metavar="DIR",
        default=None,
        help="export a trace + metrics file per simulated run into DIR",
    )
    report.add_argument(
        "--workers",
        type=int,
        default=1,
        help="pre-warm the figure runs over this many sweep workers",
    )

    dump = sub.add_parser(
        "dump-trace", help="generate a workload trace and save it as .npz"
    )
    dump.add_argument("workload", choices=available_workloads())
    dump.add_argument("output")
    dump.add_argument("--gpus", type=int, default=4)
    dump.add_argument("--scale", type=_positive_scale, default=0.3)

    sweep = sub.add_parser(
        "sweep", help="run a workload x policy matrix and tabulate it"
    )
    sweep.add_argument(
        "--workloads",
        default="all",
        help="comma-separated workload names, or 'all' for Table II",
    )
    sweep.add_argument(
        "--policies",
        default="on_touch,access_counter,duplication,grit",
        help="comma-separated policy names",
    )
    sweep.add_argument("--gpus", type=int, default=4)
    sweep.add_argument("--scale", type=_positive_scale, default=0.3)
    sweep.add_argument(
        "--baseline",
        default="on_touch",
        help="policy the table is normalized to",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-parallel simulation workers",
    )
    sweep.add_argument(
        "--metric",
        choices=["speedup", "cycles", "faults"],
        default="speedup",
    )
    sweep.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task wall-clock budget (parallel workers only)",
    )
    sweep.add_argument(
        "--retries",
        type=int,
        default=2,
        help="re-attempts per task after a crash/timeout/error",
    )
    sweep.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="shared on-disk result cache for the sweep workers",
    )
    sweep.add_argument(
        "--summary-json",
        metavar="PATH",
        default=None,
        help="write the sweep summary (retries, failures, per-key "
        "result digests) as JSON to PATH",
    )
    sweep.add_argument(
        "--inject-crash",
        metavar="WORKLOAD:POLICY",
        default=None,
        help="chaos drill: crash the first attempt of one task and "
        "verify the orchestrator retries it",
    )
    sweep.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="merge every task's spans into one sweep-wide Chrome "
        "trace (one process row per task) at PATH",
    )
    sweep.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="merge every task's counters into one registry export "
        "at PATH",
    )
    sweep.add_argument(
        "--metrics-format",
        choices=["jsonl", "csv", "prom"],
        default="jsonl",
    )
    sweep.add_argument(
        "--telemetry-dir",
        metavar="DIR",
        default=None,
        help="spill oversized per-task telemetry to files in DIR "
        "instead of the result pipe",
    )

    lint = sub.add_parser(
        "lint", help="run the simlint static-analysis rules"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files to lint (default: the whole repro package)",
    )
    lint.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="findings as a text report, a JSON document, or SARIF "
        "2.1.0 for code scanning",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )

    return parser


def _add_observe_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="export a Chrome trace-event JSON of the run to PATH",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="export the sampled metric series to PATH",
    )
    parser.add_argument(
        "--metrics-format",
        choices=["jsonl", "csv", "prom"],
        default="jsonl",
    )
    parser.add_argument(
        "--sample-interval",
        type=int,
        default=None,
        metavar="CYCLES",
        help="simulated cycles between metric samples",
    )


def _cmd_list() -> int:
    print("workloads:", ", ".join(available_workloads()))
    print("policies: ", ", ".join(available_policies()))
    print("figures:  ", ", ".join(sorted(FIGURES)))
    return 0


def _observed_simulate(
    config: SystemConfig,
    workload: str,
    policy: str,
    scale: float,
    sample_interval: int | None,
):
    """Run one observed simulation; returns (result, observation)."""
    from repro.obs import RunObservation
    from repro.obs.run import DEFAULT_SAMPLE_INTERVAL
    from repro.sim.engine import Engine

    trace = make_workload(
        workload, num_gpus=config.num_gpus, scale=scale
    )
    observation = RunObservation(
        sample_interval=sample_interval or DEFAULT_SAMPLE_INTERVAL
    )
    engine = Engine(
        config, trace, make_policy(policy), observation=observation
    )
    return engine.run(), observation


def _write_observation_outputs(
    observation,
    result,
    trace_path: str | None,
    metrics_path: str | None,
    metrics_format: str,
) -> None:
    if trace_path:
        observation.write_trace(
            trace_path,
            metadata={
                "workload": result.workload,
                "policy": result.policy,
            },
        )
        print(f"wrote {trace_path}")
    if metrics_path:
        observation.write_metrics(metrics_path, metrics_format)
        print(f"wrote {metrics_path}")


def _warn_dropped_events(result) -> None:
    dropped = result.details.get("dropped_events", 0)
    if dropped:
        print(
            f"warning: event log saturated, {dropped} events dropped "
            f"(raise EventLog capacity for a complete record)",
            file=sys.stderr,
        )


def _cmd_run(args: argparse.Namespace) -> int:
    config = SystemConfig(
        num_gpus=args.gpus,
        page_size=args.page_size,
        fault_batch_size=args.fault_batch,
        contention=args.contention,
        topology=args.topology,
        fast_path=not args.no_fast_path,
    )
    if args.trace or args.metrics:
        result, observation = _observed_simulate(
            config,
            args.workload,
            args.policy,
            args.scale,
            args.sample_interval,
        )
    else:
        trace = make_workload(
            args.workload, num_gpus=args.gpus, scale=args.scale
        )
        result = simulate(config, trace, make_policy(args.policy))
        observation = None
    rows = {
        key: [value] for key, value in result.summary().items()
    }
    print(format_table(["value"], rows, row_header="metric"))
    if observation is not None:
        _write_observation_outputs(
            observation,
            result,
            args.trace,
            args.metrics,
            args.metrics_format,
        )
    _warn_dropped_events(result)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.trace_schema import validate_trace_file

    config = SystemConfig(num_gpus=args.gpus)
    result, observation = _observed_simulate(
        config,
        args.workload,
        args.policy,
        args.scale,
        args.sample_interval,
    )
    _write_observation_outputs(
        observation, result, args.output, args.metrics, args.metrics_format
    )
    errors = validate_trace_file(args.output)
    if errors:
        for error in errors:
            print(f"error: {error}", file=sys.stderr)
        return 1
    tallies = observation.tracer.span_counts()
    total = sum(tallies.values())
    print(f"{total} spans over {result.total_cycles:,} simulated cycles:")
    for name in sorted(tallies):
        print(f"  {name:<24s} {tallies[name]:>8d}")
    if observation.tracer.dropped:
        print(f"  (dropped past capacity: {observation.tracer.dropped})")
    _warn_dropped_events(result)
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.obs import busiest_pages, render_lifecycle
    from repro.sim.engine import Engine
    from repro.stats.events import EventLog

    config = SystemConfig(num_gpus=args.gpus)
    trace = make_workload(
        args.workload, num_gpus=args.gpus, scale=args.scale
    )
    event_log = EventLog()
    engine = Engine(
        config, trace, make_policy(args.policy), event_log=event_log
    )
    result = engine.run()
    if args.vpn is not None:
        print(render_lifecycle(event_log, args.vpn))
    else:
        ranked = busiest_pages(event_log, limit=args.limit)
        print(
            f"busiest pages of {args.workload}/{args.policy} "
            f"({len(event_log)} events logged):"
        )
        for vpn, count in ranked:
            print(f"  vpn {vpn:<10d} {count:>6d} events")
        print("re-run with --vpn N for a page's full lifecycle")
    _warn_dropped_events(result)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.profile import profile_run

    profiled = profile_run(
        args.workload,
        args.policy,
        num_gpus=args.gpus,
        scale=args.scale,
    )
    result = profiled.result
    print(
        f"{result.workload}/{result.policy}: "
        f"{result.counters.accesses:,} accesses, "
        f"{result.total_cycles:,} simulated cycles"
    )
    print(profiled.profiler.render())
    if args.json == "-":
        print(profiled.profiler.to_jsonl(), end="")
    elif args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(profiled.profiler.to_jsonl())
        print(f"wrote {args.json}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.obs import bench
    from repro.obs.catalog import build_bench_registry

    try:
        cases = bench.select_cases(
            [
                name.strip()
                for name in args.cases.split(",")
                if name.strip()
            ]
            if args.cases
            else None
        )
        scale = (
            args.scale if args.scale is not None else bench.default_scale()
        )
        registry = build_bench_registry()
        results = bench.run_suite(
            cases,
            scale,
            repeats=args.repeats or bench.DEFAULT_REPEATS,
            registry=registry,
            inject_slowdown=args.inject_slowdown,
        )
    except bench.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        wall = min(result.wall_seconds)
        print(
            f"{result.case.name:<16s} min {wall:7.3f}s of "
            f"{result.repeats}  "
            f"{result.counters['total_cycles']:,} cycles"
        )
    if args.output:
        for result in results:
            path = bench.write_baseline(args.output, result)
            print(f"wrote {path}")
    if not args.compare:
        return 0
    try:
        regressions, notes = bench.compare_suite(
            results,
            args.compare,
            threshold=(
                args.threshold
                if args.threshold is not None
                else bench.DEFAULT_THRESHOLD
            ),
            counters_only=args.counters_only,
            registry=registry,
        )
    except bench.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    for finding in regressions:
        print(
            f"regression [{finding.kind}] {finding.case}: "
            f"{finding.message}",
            file=sys.stderr,
        )
    if regressions:
        print(
            f"{len(regressions)} regression(s) against "
            f"{args.compare}",
            file=sys.stderr,
        )
        return 1
    print(f"bench gate passed against {args.compare}")
    return 0


def _build_runner(
    scale: float,
    cache_dir: str | None,
    artifacts_dir: str | None = None,
) -> ExperimentRunner:
    if cache_dir:
        from repro.harness.cache import DiskCachedRunner

        return DiskCachedRunner(
            cache_dir, scale=scale, artifacts_dir=artifacts_dir
        )
    return ExperimentRunner(scale=scale, artifacts_dir=artifacts_dir)


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.harness.serialize import figure_to_csv, figure_to_json

    runner = _build_runner(args.scale, args.cache, args.artifacts)
    names = sorted(FIGURES) if args.name == "all" else [args.name]
    for name in names:
        figure = run_figure(name, runner)
        if args.format == "json":
            print(figure_to_json(figure))
        elif args.format == "csv":
            print(figure_to_csv(figure), end="")
        else:
            print(format_figure(figure))
            print()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.harness.reproduce import generate_report

    runner = _build_runner(args.scale, args.cache, args.artifacts)
    text = generate_report(
        scale=args.scale,
        runner=runner,
        charts_dir=args.charts,
        workers=args.workers,
    )
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {args.output}")
    return 0


def _cmd_dump_trace(args: argparse.Namespace) -> int:
    from repro.workloads.trace_io import save_trace

    trace = make_workload(args.workload, num_gpus=args.gpus, scale=args.scale)
    save_trace(trace, args.output)
    print(
        f"wrote {args.output}: {trace.total_accesses:,} accesses, "
        f"{trace.footprint_pages:,} pages, {trace.num_gpus} GPUs"
    )
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    trace = make_workload(args.workload, num_gpus=args.gpus, scale=args.scale)
    summary = sharing_summary(trace)
    rows = {
        "total_pages": [summary.total_pages],
        "total_accesses": [summary.total_accesses],
        "private_page_fraction": [summary.private_page_fraction],
        "shared_page_fraction": [summary.shared_page_fraction],
        "private_access_fraction": [summary.private_access_fraction],
        "shared_access_fraction": [summary.shared_access_fraction],
        "read_page_fraction": [summary.read_page_fraction],
        "read_write_page_fraction": [summary.read_write_page_fraction],
        "read_access_fraction": [summary.read_access_fraction],
        "read_write_access_fraction": [summary.read_write_access_fraction],
    }
    print(format_table(["value"], rows, row_header="metric"))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json

    from repro.harness.experiment import PAPER_APPS
    from repro.harness.orchestrator import run_sweep

    workloads = (
        list(PAPER_APPS)
        if args.workloads == "all"
        else [
            name.strip()
            for name in args.workloads.split(",")
            if name.strip()
        ]
    )
    policies = [
        name.strip() for name in args.policies.split(",") if name.strip()
    ]
    if args.baseline not in policies:
        policies = [args.baseline, *policies]
    runner = _build_runner(args.scale, args.cache)
    keys = [
        runner.key(workload, policy, num_gpus=args.gpus)
        for workload in workloads
        for policy in policies
    ]
    observe = bool(args.trace or args.metrics)
    summary = run_sweep(
        keys,
        base_config=runner.base_config,
        workers=args.workers,
        timeout=args.timeout,
        retries=args.retries,
        cache_dir=args.cache,
        injections=_sweep_injections(args, keys),
        progress=lambda line: print(f"  {line}", file=sys.stderr),
        observe=observe,
        telemetry_dir=args.telemetry_dir,
    )
    runner.remember(summary.results)
    if observe:
        status = _write_sweep_telemetry(args, summary)
        if status != 0:
            return status
    if args.summary_json:
        with open(args.summary_json, "w", encoding="utf-8") as handle:
            json.dump(summary.to_dict(), handle, indent=2)
        print(f"wrote {args.summary_json}", file=sys.stderr)
    if summary.failed_keys():
        print(summary.render(), file=sys.stderr)
        for key in summary.failed_keys():
            print(
                f"error: {key.workload}/{key.policy} failed after "
                f"retries",
                file=sys.stderr,
            )
        return 1
    rows = {}
    for workload in workloads:
        base = runner.run(
            runner.key(workload, args.baseline, num_gpus=args.gpus)
        )
        cells = []
        for policy in policies:
            result = runner.run(
                runner.key(workload, policy, num_gpus=args.gpus)
            )
            if args.metric == "speedup":
                cells.append(result.speedup_over(base))
            elif args.metric == "cycles":
                cells.append(result.total_cycles)
            else:
                cells.append(result.counters.total_faults)
        rows[workload] = cells
    print(
        format_table(
            policies, rows, row_header=f"{args.metric} @{args.gpus}g"
        )
    )
    print(summary.render(), file=sys.stderr)
    return 0


def _write_sweep_telemetry(args: argparse.Namespace, summary) -> int:
    """Write the merged sweep trace and/or metrics export.

    Runs before the failed-keys check so a partially-failed sweep
    still leaves its successful tasks' telemetry on disk.
    """
    import json

    from repro.obs.aggregate import merge_chrome_trace, merge_registry
    from repro.obs.trace_schema import validate_trace_file

    telemetries = list(summary.telemetry.values())
    if not telemetries:
        print(
            "warning: sweep produced no telemetry (all tasks failed?)",
            file=sys.stderr,
        )
        return 0
    if args.trace:
        document = merge_chrome_trace(
            telemetries,
            metadata={"scale": args.scale, "gpus": args.gpus},
        )
        with open(args.trace, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        errors = validate_trace_file(args.trace)
        if errors:
            for error in errors:
                print(f"error: {error}", file=sys.stderr)
            return 1
        print(
            f"wrote {args.trace} "
            f"({len(document['traceEvents'])} events, "
            f"{len(telemetries)} task processes)"
        )
    if args.metrics:
        registry = merge_registry(telemetries)
        if args.metrics_format == "csv":
            payload = registry.to_csv()
        elif args.metrics_format == "prom":
            payload = registry.to_prometheus()
        else:
            payload = registry.to_jsonl()
        with open(args.metrics, "w", encoding="utf-8") as handle:
            handle.write(payload)
        print(f"wrote {args.metrics}")
    return 0


def _sweep_injections(args: argparse.Namespace, keys):
    """Build the --inject-crash failure map (None when unused)."""
    if not args.inject_crash:
        return None
    import tempfile

    from repro.harness.orchestrator import FaultInjection

    try:
        workload, policy = args.inject_crash.split(":", 1)
    except ValueError:
        raise SystemExit(
            "--inject-crash expects WORKLOAD:POLICY"
        ) from None
    targets = [
        key
        for key in keys
        if key.workload == workload and key.policy == policy
    ]
    if not targets:
        raise SystemExit(
            f"--inject-crash target {args.inject_crash!r} is not in "
            f"the sweep"
        )
    marker_dir = tempfile.mkdtemp(prefix="grit-inject-")
    return {
        targets[0]: FaultInjection(
            marker_path=os.path.join(marker_dir, "fired"), mode="crash"
        )
    }


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.lint import LintEngine, make_rules
    from repro.lint.findings import exit_code
    from repro.lint.report import render_json, render_sarif, render_text

    if args.list_rules:
        for rule in make_rules():
            print(f"{rule.rule_id}  [{rule.severity.name.lower():7s}] "
                  f"{rule.description}")
        return 0
    package_root = Path(__file__).resolve().parent
    repo_root = package_root.parent.parent
    paths = [Path(p) for p in args.paths] or None
    findings = LintEngine(package_root, repo_root=repo_root).run(
        paths=paths
    )
    if args.format == "json":
        print(render_json(findings))
    elif args.format == "sarif":
        prefix = package_root.relative_to(repo_root).as_posix() + "/"
        print(render_sarif(findings, uri_prefix=prefix))
    else:
        print(render_text(findings))
    return exit_code(findings)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; a bad configuration exits 2 with one line."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "figure":
            return _cmd_figure(args)
        if args.command == "characterize":
            return _cmd_characterize(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "dump-trace":
            return _cmd_dump_trace(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "inspect":
            return _cmd_inspect(args)
        if args.command == "profile":
            return _cmd_profile(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "lint":
            return _cmd_lint(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
