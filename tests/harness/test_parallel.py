"""Process-parallel sweeps agree with sequential execution."""

from repro.config import SystemConfig
from repro.harness.experiment import ExperimentRunner
from repro.harness.orchestrator import (
    headline_keys,
    run_keys_parallel,
    warm_runner_parallel,
)

SCALE = 0.05


def sample_keys(runner):
    return [
        runner.key("fir", "on_touch"),
        runner.key("fir", "grit"),
        runner.key("st", "on_touch"),
    ]


class TestRunKeysParallel:
    def test_inline_fallback(self):
        runner = ExperimentRunner(scale=SCALE)
        keys = sample_keys(runner)
        results = run_keys_parallel(keys, workers=1)
        assert set(results) == set(keys)
        for key, result in results.items():
            assert result.workload == key.workload
            assert result.policy == key.policy

    def test_parallel_matches_sequential(self):
        runner = ExperimentRunner(scale=SCALE)
        keys = sample_keys(runner)
        sequential = run_keys_parallel(keys, workers=1)
        parallel = run_keys_parallel(keys, workers=2)
        for key in keys:
            assert (
                parallel[key].total_cycles == sequential[key].total_cycles
            )
            assert (
                parallel[key].counters.as_dict()
                == sequential[key].counters.as_dict()
            )

    def test_duplicate_keys_deduplicated(self):
        runner = ExperimentRunner(scale=SCALE)
        key = runner.key("fir", "on_touch")
        results = run_keys_parallel([key, key, key], workers=1)
        assert len(results) == 1

    def test_base_config_reaches_workers(self):
        """Regression: workers used to rebuild a *default*
        ExperimentRunner, silently simulating the wrong config."""
        config = SystemConfig(issue_gap=8, dram_footprint_fraction=0.5)
        runner = ExperimentRunner(base_config=config, scale=SCALE)
        keys = sample_keys(runner)
        parallel = run_keys_parallel(
            keys, workers=2, base_config=config
        )
        for key in keys:
            expected = runner.run(key)
            assert parallel[key].total_cycles == expected.total_cycles
            assert (
                parallel[key].counters.as_dict()
                == expected.counters.as_dict()
            )

    def test_base_config_changes_results(self):
        """Sanity: the config in the regression test is load-bearing."""
        config = SystemConfig(issue_gap=8, dram_footprint_fraction=0.5)
        runner = ExperimentRunner(scale=SCALE)
        key = runner.key("fir", "on_touch")
        tweaked = run_keys_parallel([key], workers=1, base_config=config)
        assert tweaked[key].total_cycles != runner.run(key).total_cycles


class TestWarmRunner:
    def test_warmed_cache_serves_without_resimulation(self):
        runner = ExperimentRunner(scale=SCALE)
        keys = sample_keys(runner)
        warm_runner_parallel(runner, keys, workers=1)
        cached = runner._cache[runner.memo_key(keys[0])]
        assert runner.run(keys[0]) is cached

    def test_warming_respects_runner_config(self):
        """Regression: warming a non-default runner used to fill its
        cache with default-config results."""
        config = SystemConfig(issue_gap=8, dram_footprint_fraction=0.5)
        warmed = ExperimentRunner(base_config=config, scale=SCALE)
        keys = sample_keys(warmed)
        warm_runner_parallel(warmed, keys, workers=2)
        fresh = ExperimentRunner(base_config=config, scale=SCALE)
        for key in keys:
            assert (
                warmed.run(key).total_cycles
                == fresh.run(key).total_cycles
            )

    def test_headline_keys_cover_figure_17(self):
        runner = ExperimentRunner(scale=SCALE)
        keys = headline_keys(runner)
        assert len(keys) == 8 * 5
        policies = {key.policy for key in keys}
        assert policies == {
            "on_touch",
            "access_counter",
            "duplication",
            "grit",
            "ideal",
        }
