"""ExperimentRunner: caching, key building, speedups."""

import pytest

from repro.harness.experiment import (
    PAPER_APPS,
    ExperimentRunner,
    RunKey,
    geometric_mean,
)

SCALE = 0.1


@pytest.fixture(scope="module")
def runner() -> ExperimentRunner:
    return ExperimentRunner(scale=SCALE)


class TestRunner:
    def test_paper_apps_are_the_table_ii_eight(self):
        assert PAPER_APPS == (
            "bfs", "bs", "c2d", "fir", "gemm", "mm", "sc", "st",
        )

    def test_run_is_cached(self, runner):
        key = runner.key("fir", "on_touch")
        first = runner.run(key)
        second = runner.run(key)
        assert first is second

    def test_key_carries_runner_scale(self, runner):
        assert runner.key("fir", "grit").scale == SCALE

    def test_key_overrides(self, runner):
        key = runner.key("fir", "grit", num_gpus=8, fault_threshold=2)
        assert key.num_gpus == 8
        assert key.fault_threshold == 2

    def test_speedup_of_policy_against_itself_is_one(self, runner):
        assert runner.speedup("fir", "on_touch", "on_touch") == 1.0

    def test_speedups_cover_requested_workloads(self, runner):
        speedups = runner.speedups(
            "grit", "on_touch", workloads=("fir", "st")
        )
        assert set(speedups) == {"fir", "st"}
        assert all(value > 0 for value in speedups.values())

    def test_grit_variant_keys_build_variant_policies(self, runner):
        result = runner.run(
            runner.key("fir", "grit", use_pa_cache=False)
        )
        assert result.policy == "grit"

    def test_prefetch_key_runs_with_prefetcher(self, runner):
        result = runner.run(runner.key("fir", "on_touch", prefetch=True))
        assert result.counters.prefetches >= 0

    def test_distinct_keys_are_distinct_cache_entries(self, runner):
        a = runner.run(runner.key("fir", "grit"))
        b = runner.run(runner.key("fir", "grit", fault_threshold=2))
        assert a is not b

    def test_contention_env_override_is_a_miss(self, monkeypatch):
        # A result simulated before GRIT_CONTENTION flips must not be
        # served after it: the memo key fingerprints the effective
        # contention mode, like the disk cache does.
        monkeypatch.delenv("GRIT_CONTENTION", raising=False)
        runner = ExperimentRunner(scale=0.05)
        key = runner.key("fir", "grit")
        flat = runner.run(key)
        monkeypatch.setenv("GRIT_CONTENTION", "queued")
        queued = runner.run(key)
        assert queued.details["contention"] == "queued"
        fresh = ExperimentRunner(scale=0.05).run(key)
        assert queued.total_cycles == fresh.total_cycles
        assert queued.total_cycles != flat.total_cycles
        monkeypatch.delenv("GRIT_CONTENTION")
        assert runner.run(key) is flat

    def test_remembered_results_are_served(self):
        donor = ExperimentRunner(scale=0.05)
        key = donor.key("fir", "on_touch")
        result = donor.run(key)
        runner = ExperimentRunner(scale=0.05)
        runner.remember({key: result})
        assert runner.run(key) is result


class TestGeometricMean:
    def test_matches_manual_computation(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])


class TestRunKey:
    def test_hashable_and_comparable(self):
        a = RunKey(workload="fir", policy="grit")
        b = RunKey(workload="fir", policy="grit")
        assert a == b
        assert hash(a) == hash(b)
