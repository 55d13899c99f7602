"""The benchmark's runner: counters, checks, tracing and the env guard."""

import dataclasses
import json
import os
from types import SimpleNamespace

import pytest

import run
import spans
import suite
from repro.obs.trace_schema import validate_trace_file

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

TINY = suite.Workload("tiny", apps=("fir",), scale=0.05)


def test_harness_path_reproduces_repro_bench_counters():
    # repro bench's fir-grit-contended case: 4 GPUs, queued, scale 0.05.
    path = os.path.join(
        ROOT, "benchmarks", "baselines", "BENCH_fir-grit-contended.json"
    )
    with open(path, encoding="utf-8") as handle:
        baseline = json.load(handle)
    workload = suite.Workload(
        "contended", apps=("fir",), scale=baseline["scale"],
        num_gpus=baseline["num_gpus"], contention=baseline["contention"],
    )
    sim = suite.simulate(workload, "fir", "grit", seed=0)
    assert sim.counters == {**sim.counters, **baseline["counters"]}


def test_traced_and_untraced_counters_identical():
    # The untraced pass sets the counters the traced pass must repeat.
    checker = suite.Checker(TINY, seed=7)
    untraced = suite.run_pass(TINY, 7, checker)
    recorder = spans.SpanRecorder()
    with spans.traced_layers(recorder):
        traced = suite.run_pass(TINY, 7, checker)
    assert untraced.failed == traced.failed == 0
    assert suite.simulated(traced.sims) == suite.simulated(untraced.sims)
    # Every scalar access went through the traced translation stage.
    scalar = sum(
        sim.result.counters.accesses - sim.result.counters.fastpath_accesses
        for sim in traced.sims
    )
    assert recorder.calls["TranslationStage.next_access"] == scalar
    assert recorder.calls["ExperimentRunner.run"] == len(suite.POLICIES)
    assert recorder.calls["make_workload"] == len(suite.POLICIES)


def test_seed_zero_keeps_builtin_seeds_and_others_derive_new_ones():
    assert suite.app_seed(0, "fir") is None
    assert suite.app_seed(3, "fir") == suite.app_seed(3, "fir")
    assert suite.app_seed(3, "fir") != suite.app_seed(4, "fir")
    # bfs draws its graph from the seed, so its counters move with it.
    bfs = suite.Workload("tiny-bfs", apps=("bfs",), scale=0.05)
    default = suite.simulate(bfs, "bfs", "grit", seed=0)
    other = suite.simulate(bfs, "bfs", "grit", seed=3)
    assert default.counters != other.counters


def test_checker_flags_config_and_counter_mismatches():
    checker = suite.Checker(TINY, seed=5)
    sim = suite.simulate(TINY, "fir", "grit", seed=5)
    assert checker.check(sim) == []
    sim.result.details["topology"] = "ring"
    sim.result.details["contention"] = "queued"
    sim.result.total_cycles += 1
    found = checker.check(sim)
    assert len(found) == 3
    queued = dataclasses.replace(TINY, contention="queued")
    sim = suite.simulate(queued, "fir", "grit", seed=5)
    sim.result.counters.fastpath_runs = 1
    found = suite.problems(queued, sim, sim.counters)
    assert len(found) == 1 and "fast-path" in found[0]


def test_host_times_are_calibrated_by_host_speed():
    def sim(policy, run_s, speed, cycles):
        result = SimpleNamespace(
            counters=SimpleNamespace(accesses=1000), total_cycles=cycles
        )
        return suite.Sim("fir", policy, run_s, run_s / 10, result, {}, speed)

    # The first pass ran at half the reference speed, so its wall times
    # are twice the second pass's and calibrate to the same values.
    slow = suite.Pass(
        3.0, [sim("on_touch", 2.0, 0.5, 300), sim("grit", 1.0, 0.5, 100)],
        2, 0, [],
    )
    fast = suite.Pass(
        1.5, [sim("on_touch", 1.0, 1.0, 300), sim("grit", 0.5, 1.0, 100)],
        2, 0, [],
    )
    metrics = suite.end_to_end([slow, fast], peak_rss_mb=1.0)
    assert metrics["slowest_run_s"] == 1.0
    assert metrics["run_s_p50"] == 0.75
    assert metrics["accesses_per_s"] == 2000 / 1.5
    assert metrics["setup_s"] == pytest.approx(0.15)
    assert metrics["grit_speedup"] == pytest.approx(3.0)


def test_reference_matches_workload_settings():
    for workload in suite.WORKLOADS.values():
        counters = suite.load_reference(workload)
        assert set(counters) == {
            f"{app}/{policy}"
            for app in workload.apps
            for policy in suite.POLICIES
        }


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in _declared()["workloads"]] == list(
        suite.WORKLOADS
    )


def test_measurements_produce_exactly_the_declared_metrics(tmp_path):
    declared = _declared()
    passes, metrics = suite.measure(TINY, seed=7, seconds=0.01)
    assert [done.failed for done in passes] == [0]
    assert set(metrics) == {m["name"] for m in declared["end_to_end"]}
    trace_path = str(tmp_path / "tiny.trace.json")
    passes, metrics = suite.measure_traced(
        TINY, seed=7, seconds=0.01, trace_path=trace_path
    )
    assert [done.failed for done in passes] == [0, 0]
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}
    assert validate_trace_file(trace_path) == []


@pytest.mark.parametrize("name", run.OVERRIDES)
def test_refuses_config_overrides(monkeypatch, capsys, name):
    monkeypatch.setenv(name, "1")
    assert run.main(["--workload", "paper-4k"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert name in captured.err
