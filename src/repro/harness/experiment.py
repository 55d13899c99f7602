"""Experiment runner with per-process result caching.

Every figure slices the same underlying (workload, policy, config) runs,
so the runner memoizes :class:`SimulationResult` objects by a hashable
:class:`RunKey` plus a fingerprint of the configuration the key
simulates, as the run would see it (environment overrides included).
Benchmarks and the CLI share one runner per process to avoid
re-simulating identical configurations.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.config import SystemConfig
from repro.interconnect.routing import topology_spec
from repro.policies import make_policy
from repro.policies.base import PlacementPolicy
from repro.prefetch import TreePrefetcher
from repro.sim import Engine, SimulationResult
from repro.sim.timing import contention_mode
from repro.workloads import make_workload

#: The eight Table II applications in the paper's figure order.
PAPER_APPS: Tuple[str, ...] = (
    "bfs",
    "bs",
    "c2d",
    "fir",
    "gemm",
    "mm",
    "sc",
    "st",
)

#: Default trace scale for figure regeneration: small enough that the
#: full evaluation sweep runs in minutes, large enough that every
#: mechanism (counters, groups, evictions) is exercised.
DEFAULT_SCALE = 0.3


@dataclasses.dataclass(frozen=True)
class RunKey:
    """Cache key for one simulation."""

    workload: str
    policy: str
    num_gpus: int = 4
    scale: float = DEFAULT_SCALE
    page_size: int = 4096
    fault_threshold: int = 4
    use_pa_cache: bool = True
    use_neighbor_prediction: bool = True
    max_group_pages: int = 512
    prefetch: bool = False
    #: GPU DRAM as a fraction of the footprint (Table I uses 0.70).
    dram_fraction: float = 0.70
    #: DRAM victim-selection policy ("lru" / "fifo" / "random").
    eviction_policy: str = "lru"
    #: Hardware access-counter threshold (Table I uses 256).
    counter_threshold: int = 256


def config_fingerprint(config: SystemConfig) -> str:
    """Stable hash of every configuration value, as the run sees it.

    Contention mode and topology are hashed as resolved, environment
    overrides included, so a result cached in one mode is never served
    in another.
    """
    data = config.to_dict()
    data["contention"] = contention_mode(config)
    data["topology"] = topology_spec(config).describe()
    payload = json.dumps(data, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class ExperimentRunner:
    """Runs and caches simulations for figure regeneration.

    With ``artifacts_dir`` set, every simulated run also exports its
    observability artifacts — a Chrome trace-event JSON and a metrics
    JSON-lines file per (workload, policy) — under that directory.
    """

    def __init__(
        self,
        base_config: SystemConfig | None = None,
        scale: float = DEFAULT_SCALE,
        artifacts_dir: str | None = None,
        observe: bool = False,
    ) -> None:
        self.base_config = base_config or SystemConfig()
        self.scale = scale
        self.artifacts_dir = artifacts_dir
        #: Attach a :class:`~repro.obs.RunObservation` to every fresh
        #: simulation even without an artifacts directory; the sweep
        #: workers use this to ship telemetry back to the orchestrator.
        self.observe = observe
        #: The observation of the most recent *fresh* simulation
        #: (None after a cache hit — cached results carry no spans).
        self.last_observation = None
        #: ``(key, config_fingerprint)`` -> result.
        self._cache: Dict[Tuple[RunKey, str], SimulationResult] = {}

    def config_for(self, key: RunKey) -> SystemConfig:
        """The system configuration ``key`` simulates."""
        from repro.constants import EvictionPolicy

        return self.base_config.replace(
            num_gpus=key.num_gpus,
            page_size=key.page_size,
            dram_footprint_fraction=key.dram_fraction,
            eviction_policy=EvictionPolicy(key.eviction_policy),
            access_counter_threshold=key.counter_threshold,
            grit=dataclasses.replace(
                self.base_config.grit,
                fault_threshold=key.fault_threshold,
                use_pa_cache=key.use_pa_cache,
                use_neighbor_prediction=key.use_neighbor_prediction,
                max_group_pages=key.max_group_pages,
            ),
        )

    def memo_key(self, key: RunKey) -> Tuple[RunKey, str]:
        """``key`` plus the fingerprint of the config it simulates now."""
        return key, config_fingerprint(self.config_for(key))

    def remember(self, results: Mapping[RunKey, SimulationResult]) -> None:
        """Adopt results simulated elsewhere (sweep workers) for reuse."""
        for key, result in results.items():
            self._cache[self.memo_key(key)] = result

    def run(self, key: RunKey) -> SimulationResult:
        """Fetch (simulating on first use) the result for ``key``."""
        config = self.config_for(key)
        memo = (key, config_fingerprint(config))
        cached = self._cache.get(memo)
        if cached is not None:
            self.last_observation = None
            return cached
        trace = make_workload(
            key.workload, num_gpus=key.num_gpus, scale=key.scale
        )
        policy = self._build_policy(key)
        prefetcher = TreePrefetcher() if key.prefetch else None
        observation = None
        if self.artifacts_dir is not None or self.observe:
            from repro.obs import RunObservation

            observation = RunObservation()
        engine = Engine(
            config,
            trace,
            policy,
            prefetcher=prefetcher,
            observation=observation,
        )
        result = engine.run()
        if observation is not None and self.artifacts_dir is not None:
            self._export_artifacts(key, result, observation)
        self.last_observation = observation
        self._cache[memo] = result
        return result

    def _export_artifacts(self, key: RunKey, result, observation) -> None:
        import hashlib
        import os

        assert self.artifacts_dir is not None
        os.makedirs(self.artifacts_dir, exist_ok=True)
        # Variant keys (threshold sweeps, ...) share workload/policy
        # names; a stable digest keeps their artifacts distinct.
        digest = hashlib.sha1(repr(key).encode()).hexdigest()[:8]
        stem = f"{key.workload}-{key.policy}-{key.num_gpus}g-{digest}"
        observation.write_trace(
            os.path.join(self.artifacts_dir, f"{stem}.trace.json"),
            metadata={"workload": key.workload, "policy": key.policy},
        )
        observation.write_metrics(
            os.path.join(self.artifacts_dir, f"{stem}.metrics.jsonl")
        )

    def _build_policy(self, key: RunKey) -> PlacementPolicy:
        is_variant = not (
            key.use_pa_cache
            and key.use_neighbor_prediction
            and key.fault_threshold == 4
            and key.max_group_pages == 512
        )
        if key.policy == "grit" and is_variant:
            from repro.config import GritConfig
            from repro.policies.grit_policy import GritPolicy

            return GritPolicy(
                grit_config=GritConfig(
                    fault_threshold=key.fault_threshold,
                    use_pa_cache=key.use_pa_cache,
                    use_neighbor_prediction=key.use_neighbor_prediction,
                    max_group_pages=key.max_group_pages,
                )
            )
        return make_policy(key.policy)

    def dropped_event_total(self) -> int:
        """Events dropped by saturated event logs across cached runs.

        Non-zero only when runs were observed (an event log was
        attached) and overflowed; the report surfaces it so truncated
        observability data is never mistaken for a complete record.
        """
        return sum(
            int(result.details.get("dropped_events", 0) or 0)
            for result in self._cache.values()
        )

    def key(self, workload: str, policy: str, **overrides: object) -> RunKey:
        """Build a key with this runner's default scale."""
        params: dict[str, object] = {"scale": self.scale}
        params.update(overrides)
        return RunKey(  # type: ignore[arg-type]
            workload=workload, policy=policy, **params
        )

    def speedup(
        self, workload: str, policy: str, baseline: str, **overrides: object
    ) -> float:
        """Speedup of ``policy`` over ``baseline`` on one workload."""
        result = self.run(self.key(workload, policy, **overrides))
        base = self.run(self.key(workload, baseline, **overrides))
        return result.speedup_over(base)

    def speedups(
        self,
        policy: str,
        baseline: str,
        workloads: Iterable[str] = PAPER_APPS,
        **overrides: object,
    ) -> Dict[str, float]:
        """Per-workload speedups of ``policy`` over ``baseline``."""
        return {
            workload: self.speedup(workload, policy, baseline, **overrides)
            for workload in workloads
        }


def geometric_mean(values: Iterable[float]) -> float:
    """Geomean helper (paper averages are reported as single numbers)."""
    data: List[float] = list(values)
    if not data:
        raise ValueError("no values to average")
    return statistics.geometric_mean(data)
