"""Workloads of the benchmark and the code that runs and checks them.

Every simulation goes through ``ExperimentRunner.run``, the harness
path the figures use, with a fresh runner (so no result is reused) and
no disk cache.  This module swaps two names in the harness module while
one simulation runs: ``make_workload``, to pass the benchmark's seed to
the generator and time trace generation, and ``Engine``, to time
machine construction and read the TLB and walker counts afterwards.
The simulator itself receives only the generated trace.

Host times are calibrated against the host's speed of the moment.  A
fixed pure-Python loop, which runs no simulator code, is timed between
simulations; each simulation's wall times are scaled by the reference
loop time over the mean of the loop times taken just before and just
after it.  On a shared host whose speed drifts by up to 2x, this keeps
a run's host times comparable with another run's, while a change that
speeds up the simulator still shows in full.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import os
import resource
import statistics
import sys
import time
import zlib
from typing import Dict, Iterator, List, Optional, Tuple

from repro.config import SystemConfig
from repro.harness import experiment
from repro.interconnect.routing import TopologySpec
from repro.obs.bench import COUNTER_KEYS
from repro.sim.result import SimulationResult

import spans

#: Arithmetic mean of GRIT's speedup over on-touch across the eight
#: Table II applications, Figure 17 of the paper (+60%).
FIG17_MEAN_SPEEDUP = 1.60

POLICIES = ("on_touch", "grit")

#: Counters compared against ``reference.json`` (seed 0) or across
#: repeats of one simulation (any other seed).
CHECKED_COUNTERS: Tuple[str, ...] = COUNTER_KEYS + (
    "fault_batches",
    "coalesced_faults",
)

#: Host seconds of ``calibration_loop`` on the reference machine, a
#: 2-vCPU Intel Xeon VM at 2.1 GHz running CPython 3.11, in its fast
#: phases.  Calibrated times are wall times on a host that runs the
#: loop this fast.
REFERENCE_LOOP_S = 0.010

REFERENCE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "reference.json"
)


@dataclasses.dataclass(frozen=True)
class Workload:
    """One named set of (app, policy) simulations on one configuration."""

    name: str
    apps: Tuple[str, ...]
    scale: float
    num_gpus: int = 4
    page_size: int = 4096
    contention: str = "none"
    topology: str = "all-to-all"
    fault_batch_size: int = 1

    def config(self) -> SystemConfig:
        return SystemConfig(
            num_gpus=self.num_gpus,
            page_size=self.page_size,
            contention=self.contention,
            topology=self.topology,
            fault_batch_size=self.fault_batch_size,
        )

    @property
    def expected_topology(self) -> str:
        """What ``details["topology"]`` must read for this workload."""
        return TopologySpec.parse(self.topology, self.num_gpus).describe()

    @property
    def settings(self) -> dict:
        """Everything the committed reference counters depend on."""
        data = dataclasses.asdict(self)
        del data["name"]
        data["apps"] = list(self.apps)
        return data


#: Why each workload was chosen, and which layer it should stress, is
#: recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "paper-4k",
            apps=("bfs", "bs", "c2d", "fir", "gemm", "mm", "sc", "st"),
            scale=0.5,
        ),
        Workload(
            "steady-64k",
            apps=("c2d", "fir", "sc"),
            scale=16.0,
            page_size=65536,
        ),
        Workload(
            "scaleout-queued",
            apps=("fir", "st", "bfs", "gemm"),
            scale=0.5,
            num_gpus=8,
            contention="queued",
            topology="nvswitch",
            fault_batch_size=16,
        ),
    )
}


def app_seed(seed: int, app: str) -> Optional[int]:
    """Generator seed of one app: built-in for seed 0, else derived."""
    if seed == 0:
        return None
    return zlib.crc32(f"{seed}:{app}".encode())


@dataclasses.dataclass
class Sim:
    """One (app, policy) simulation and its host-side timings."""

    app: str
    policy: str
    #: Host seconds of ``ExperimentRunner.run``: set-up plus replay.
    run_s: float
    #: Host seconds of trace generation plus engine construction.
    setup_s: float
    result: SimulationResult
    #: Raw TLB and walker counts summed over GPUs.
    memsys: Dict[str, int]
    #: ``REFERENCE_LOOP_S`` over the calibration loop's time around
    #: this simulation: below 1 when the host ran slow.
    speed: float = 1.0

    @property
    def calibrated_run_s(self) -> float:
        return self.run_s * self.speed

    @property
    def calibrated_setup_s(self) -> float:
        return self.setup_s * self.speed

    @property
    def counters(self) -> Dict[str, int]:
        counts = self.result.counters.as_dict()
        counts["total_cycles"] = self.result.total_cycles
        return {key: int(counts[key]) for key in CHECKED_COUNTERS}


class _Probe:
    """Seeds and times the set-up of one simulation."""

    def __init__(self, seed: Optional[int]) -> None:
        self.seed = seed
        self.setup_s = 0.0
        self.engine = None

    @contextlib.contextmanager
    def installed(self) -> Iterator["_Probe"]:
        make_workload = vars(experiment)["make_workload"]
        engine_cls = vars(experiment)["Engine"]

        def seeded_workload(name, num_gpus, scale):
            start = time.perf_counter()
            trace = make_workload(
                name, num_gpus=num_gpus, scale=scale, seed=self.seed
            )
            self.setup_s += time.perf_counter() - start
            return trace

        def build_engine(*args, **kwargs):
            start = time.perf_counter()
            self.engine = engine_cls(*args, **kwargs)
            self.setup_s += time.perf_counter() - start
            return self.engine

        experiment.make_workload = seeded_workload
        experiment.Engine = build_engine
        try:
            yield self
        finally:
            experiment.make_workload = make_workload
            experiment.Engine = engine_cls

    def memsys(self) -> Dict[str, int]:
        gpus = self.engine.machine.gpus
        return {
            "l1_hits": sum(gpu.tlbs.l1.hits for gpu in gpus),
            "l1_misses": sum(gpu.tlbs.l1.misses for gpu in gpus),
            "l2_hits": sum(gpu.tlbs.l2.hits for gpu in gpus),
            "l2_misses": sum(gpu.tlbs.l2.misses for gpu in gpus),
            "walks": sum(gpu.walker.walks for gpu in gpus),
            "walk_cache_hits": sum(
                gpu.walker.walk_cache.hits for gpu in gpus
            ),
            "walk_cache_misses": sum(
                gpu.walker.walk_cache.misses for gpu in gpus
            ),
        }


def calibration_loop() -> float:
    """Host seconds of a fixed dict-heavy loop that uses no simulator
    code; it tracks the host's speed of the moment."""
    start = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(60000):
        table[i & 4095] = table.get((i * 7) & 4095, 0) + i
    return time.perf_counter() - start


def simulate(workload: Workload, app: str, policy: str, seed: int) -> Sim:
    """Run one (app, policy) simulation through the harness."""
    runner = experiment.ExperimentRunner(
        workload.config(), scale=workload.scale
    )
    key = runner.key(
        app, policy, num_gpus=workload.num_gpus,
        page_size=workload.page_size,
    )
    probe = _Probe(app_seed(seed, app))
    with probe.installed():
        start = time.perf_counter()
        result = runner.run(key)
        run_s = time.perf_counter() - start
    return Sim(app, policy, run_s, probe.setup_s, result, probe.memsys())


def problems(workload: Workload, sim: Sim, expected: dict) -> List[str]:
    """Why one simulation's output is wrong (empty when it is right)."""
    found = []
    details = sim.result.details
    if details["contention"] != workload.contention:
        found.append(
            f"contention {details['contention']!r}, "
            f"expected {workload.contention!r}"
        )
    if details["topology"] != workload.expected_topology:
        found.append(
            f"topology {details['topology']!r}, "
            f"expected {workload.expected_topology!r}"
        )
    if workload.contention == "queued" and sim.result.counters.fastpath_runs:
        found.append(
            f"{sim.result.counters.fastpath_runs} fast-path runs under "
            f"queued contention"
        )
    if sim.counters != expected:
        drift = {
            key: (expected[key], value)
            for key, value in sim.counters.items()
            if expected.get(key) != value
        }
        found.append(f"counters differ (expected, got): {drift}")
    return [f"{workload.name} {sim.app}/{sim.policy}: {p}" for p in found]


@dataclasses.dataclass
class Pass:
    """One run of every (app, policy) simulation of a workload."""

    wall_s: float
    sims: List[Sim]
    attempted: int
    #: Simulations that raised or whose output is wrong.
    failed: int
    failures: List[str]


class Checker:
    """Expected counters per (app, policy): the committed reference at
    seed 0, otherwise the first observation of the run."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.expected: Dict[str, dict] = {}
        if seed == 0:
            self.expected = load_reference(workload)

    def check(self, sim: Sim) -> List[str]:
        label = f"{sim.app}/{sim.policy}"
        expected = self.expected.setdefault(label, sim.counters)
        return problems(self.workload, sim, expected)


def run_pass(workload: Workload, seed: int, checker: Checker) -> Pass:
    """Simulate every (app, policy) pair once, in a closed loop, with
    the calibration loop timed before the first simulation and after
    each one."""
    sims: List[Sim] = []
    failures: List[str] = []
    attempted = failed = 0
    start = time.perf_counter()
    loop_s = calibration_loop()
    for app in workload.apps:
        for policy in POLICIES:
            attempted += 1
            gc.collect()
            before = loop_s
            try:
                sim = simulate(workload, app, policy, seed)
            except Exception as exc:  # a failed simulation is a result
                failed += 1
                failures.append(
                    f"{workload.name} {app}/{policy}: raised {exc!r}"
                )
                continue
            finally:
                loop_s = calibration_loop()
            sim.speed = REFERENCE_LOOP_S / ((before + loop_s) / 2)
            sims.append(sim)
            wrong = checker.check(sim)
            failed += bool(wrong)
            failures.extend(wrong)
    return Pass(
        time.perf_counter() - start, sims, attempted, failed, failures
    )


def warm_up(workload: Workload) -> None:
    """Run each app once at a tiny scale so lazy set-up is done."""
    small = dataclasses.replace(workload, scale=0.05)
    for app in workload.apps:
        for policy in POLICIES:
            simulate(small, app, policy, seed=0)


def timed_passes(
    workload: Workload, seed: int, checker: Checker, seconds: float
) -> List[Pass]:
    """Passes until the next one would end after ``seconds``."""
    passes: List[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, seed, checker))
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1].wall_s > seconds:
            return passes


def measure(
    workload: Workload, seed: int, seconds: float
) -> Tuple[List[Pass], Dict[str, float]]:
    """Untraced passes for ``seconds``; the end-to-end metrics."""
    passes = timed_passes(workload, seed, Checker(workload, seed), seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    speeds = [sim.speed for done in passes for sim in done.sims]
    print(
        f"{workload.name}: {len(passes)} passes, {len(speeds)} "
        f"simulations (the samples of run_s_p50; the other timings are "
        f"per-pair medians over the passes); host speed against the "
        f"reference, median {statistics.median(speeds):.3f}, range "
        f"{min(speeds):.3f}-{max(speeds):.3f}",
        file=sys.stderr,
    )
    return passes, end_to_end(passes, rss_mb)


def measure_traced(
    workload: Workload, seed: int, seconds: float, trace_path: str
) -> Tuple[List[Pass], Dict[str, float]]:
    """One untraced pass, then traced passes; the per-layer metrics.

    Simulated metrics come from the untraced pass, and every traced
    pass must reproduce them exactly.  The spans of the first traced
    pass are written to ``trace_path``.
    """
    checker = Checker(workload, seed)
    start = time.perf_counter()
    untraced = run_pass(workload, seed, checker)
    expected = simulated(untraced.sims)
    passes = [untraced]
    recorders = []
    while True:
        recorder = spans.SpanRecorder()
        with spans.traced_layers(recorder):
            traced = run_pass(workload, seed, checker)
        if simulated(traced.sims) != expected:
            traced.failed += 1
            traced.failures.append(
                f"{workload.name}: traced counters differ from untraced"
            )
        passes.append(traced)
        recorders.append((recorder, traced.wall_s))
        elapsed = time.perf_counter() - start
        if elapsed + traced.wall_s > seconds:
            break
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    recorders[0][0].write_chrome_trace(trace_path)
    metrics = dict(expected)
    metrics.update(
        spans.layer_metrics(
            recorders,
            accesses=expected["sim.accesses"],
            faults=sum(
                sim.result.counters.total_faults for sim in untraced.sims
            ),
            untraced_wall=untraced.wall_s,
        )
    )
    return passes, metrics


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def speedups(sims: List[Sim]) -> Dict[str, float]:
    """App -> on_touch total_cycles / grit total_cycles."""
    cycles = {(sim.app, sim.policy): sim.result.total_cycles for sim in sims}
    return {
        app: cycles[(app, "on_touch")] / cycles[(app, "grit")]
        for app, policy in cycles
        if policy == "grit" and (app, "on_touch") in cycles
    }


def end_to_end(passes: List[Pass], peak_rss_mb: float) -> Dict[str, float]:
    """The end-to-end metrics of BENCHMARK.json over the timed passes.

    Each (app, policy) pair's calibrated host time is its median over
    the passes; ``run_s_p50`` takes every simulation as one sample.
    """
    by_pair: Dict[Tuple[str, str], List[Sim]] = {}
    for done in passes:
        for sim in done.sims:
            by_pair.setdefault((sim.app, sim.policy), []).append(sim)
    run_s = {
        pair: statistics.median(sim.calibrated_run_s for sim in sims)
        for pair, sims in by_pair.items()
    }
    ratios = list(speedups(passes[0].sims).values())
    return {
        "accesses_per_s": sum(
            sims[0].result.counters.accesses for sims in by_pair.values()
        ) / sum(run_s.values()),
        "run_s_p50": statistics.median(
            sim.calibrated_run_s for done in passes for sim in done.sims
        ),
        "slowest_run_s": max(run_s.values()),
        "setup_s": sum(
            statistics.median(sim.calibrated_setup_s for sim in sims)
            for sims in by_pair.values()
        ),
        "peak_rss_mb": peak_rss_mb,
        "grit_speedup": statistics.geometric_mean(ratios),
        "paper_err": abs(statistics.fmean(ratios) - FIG17_MEAN_SPEEDUP)
        / FIG17_MEAN_SPEEDUP,
    }


def simulated(sims: List[Sim]) -> Dict[str, float]:
    """Simulated-side per-layer metrics, summed over one pass."""

    def total(field: str) -> int:
        return sum(int(getattr(sim.result.counters, field)) for sim in sims)

    def detail(field: str) -> int:
        return sum(int(sim.result.details[field]) for sim in sims)

    def memsys(field: str) -> int:
        return sum(sim.memsys[field] for sim in sims)

    def rate(hits: int, misses: int) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    accesses = total("accesses")
    metrics: Dict[str, float] = {"sim.accesses": accesses}
    metrics["sim.fault_rate"] = (
        sum(sim.result.counters.total_faults for sim in sims) / accesses
    )
    for field in (
        "migrations", "duplications", "write_collapses", "evictions",
        "remote_accesses", "scheme_changes", "fault_batches",
        "coalesced_faults",
    ):
        metrics[f"sim.{field}"] = total(field)
    metrics["sim.fastpath_access_share"] = (
        total("fastpath_accesses") / accesses
    )
    metrics["tlb.l1_hit_rate"] = rate(
        memsys("l1_hits"), memsys("l1_misses")
    )
    metrics["tlb.l2_hit_rate"] = rate(
        memsys("l2_hits"), memsys("l2_misses")
    )
    metrics["walker.walks"] = memsys("walks")
    metrics["walker.cache_hit_rate"] = rate(
        memsys("walk_cache_hits"), memsys("walk_cache_misses")
    )
    metrics["interconnect.link_wait_cycles"] = detail("link_wait_cycles")
    metrics["interconnect.switch_wait_cycles"] = detail(
        "switch_wait_cycles"
    )
    metrics["memsys.dram_wait_cycles"] = detail("dram_wait_cycles")
    metrics["interconnect.nvlink_bytes"] = detail("nvlink_bytes")
    metrics["interconnect.pcie_bytes"] = detail("pcie_bytes")
    for sim in sims:
        for label, cycles in sim.result.breakdown.as_dict().items():
            name = f"cycles.{label.lower()}"
            metrics[name] = metrics.get(name, 0) + cycles
    return metrics


# ----------------------------------------------------------------------
# reference counters
# ----------------------------------------------------------------------


def load_reference(workload: Workload) -> Dict[str, dict]:
    """Committed seed-0 counters of one workload, per ``app/policy``."""
    with open(REFERENCE_PATH, "r", encoding="utf-8") as handle:
        entry = json.load(handle)[workload.name]
    if entry["settings"] != workload.settings:
        raise ValueError(
            f"reference counters of {workload.name} were taken with "
            f"other settings; rerun with --write-reference"
        )
    return entry["counters"]


def write_reference() -> None:
    """Simulate every workload once at seed 0 and commit its counters."""
    document = {}
    for workload in WORKLOADS.values():
        counters = {}
        for app in workload.apps:
            for policy in POLICIES:
                sim = simulate(workload, app, policy, seed=0)
                counters[f"{app}/{policy}"] = sim.counters
        document[workload.name] = {
            "settings": workload.settings,
            "counters": counters,
        }
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
