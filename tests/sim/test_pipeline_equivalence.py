"""Staged-pipeline equivalence and batched-servicing behavior.

The pipeline refactor must be invisible at ``fault_batch_size == 1``:
``tests/data/pipeline_golden.json`` holds results captured from the
pre-pipeline simulator (32 workload x policy runs), and the refactored
engine must reproduce every captured field bit-for-bit.  Batched runs
have no golden — batching deliberately changes timing — so they are
checked for determinism and for the batching model's invariants.
"""

import hashlib
import json
import pathlib

import pytest

from repro.config import SystemConfig
from repro.policies import make_policy
from repro.sim.engine import Engine, simulate
from repro.sim.pipeline import TranslationStage
from repro.workloads.registry import make_workload

GOLDEN_PATH = (
    pathlib.Path(__file__).parent.parent / "data" / "pipeline_golden.json"
)
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: (workload, policy) pairs captured in the golden file.
GOLDEN_KEYS = sorted(GOLDEN)

#: Scale-out twin: the same 32 runs captured at 8 GPUs on the
#: ``nvswitch`` topology, locking routed multi-hop timing the same way
#: the 4-GPU all-to-all path is locked.
GOLDEN_8GPU_PATH = (
    pathlib.Path(__file__).parent.parent
    / "data"
    / "pipeline_golden_8gpu.json"
)
GOLDEN_8GPU = json.loads(GOLDEN_8GPU_PATH.read_text())
GOLDEN_8GPU_KEYS = sorted(GOLDEN_8GPU)


def _run(
    workload: str, policy: str, num_gpus: int = 4, **config_changes
) -> dict:
    """One golden-config run, flattened the way the goldens were."""
    config = SystemConfig(num_gpus=num_gpus, **config_changes)
    trace = make_workload(workload, num_gpus=num_gpus, scale=0.05)
    result = simulate(config, trace, make_policy(policy))
    return {
        "total_cycles": result.total_cycles,
        "per_gpu_cycles": result.per_gpu_cycles,
        "counters": result.counters.as_dict(),
        "breakdown": result.breakdown.as_dict(),
        "details": result.details,
    }


def _assert_matches_golden(got: dict, want: dict, key: str) -> None:
    """Compare a run against a capture, on the capture's own keys."""
    for section, expected in want.items():
        actual = got[section]
        if isinstance(expected, dict):
            # Goldens predate some counters (the batching counters on
            # the 4-GPU capture, the fastpath diagnostics on the 8-GPU
            # one); comparing on the golden's own keys keeps captures
            # valid as new always-zero-or-diagnostic fields appear.
            for field, value in expected.items():
                assert actual[field] == value, (
                    f"{key}: {section}.{field}"
                )
        else:
            assert actual == expected, f"{key}: {section}"


class TestInlineEquivalence:
    """batch_size 1 reproduces the pre-pipeline simulator exactly."""

    @pytest.mark.parametrize("key", GOLDEN_KEYS)
    def test_bit_identical_to_pre_pipeline_golden(self, key):
        workload, policy = key.split("/")
        got = _run(workload, policy)
        _assert_matches_golden(got, GOLDEN[key], key)

    def test_inline_runs_form_no_batches(self):
        got = _run("bfs", "grit")
        assert got["counters"]["fault_batches"] == 0
        assert got["counters"]["coalesced_faults"] == 0


class TestScaleOutGolden:
    """8-GPU nvswitch runs reproduce their committed capture."""

    @pytest.mark.parametrize("key", GOLDEN_8GPU_KEYS)
    def test_bit_identical_to_8gpu_golden(self, key):
        workload, policy = key.split("/")
        got = _run(workload, policy, num_gpus=8, topology="nvswitch")
        _assert_matches_golden(got, GOLDEN_8GPU[key], key)

    def test_golden_covers_full_matrix(self):
        # Same 8 workloads x 4 policies as the 4-GPU capture.
        assert GOLDEN_8GPU_KEYS == GOLDEN_KEYS

    def test_golden_records_routed_topology(self):
        for key in GOLDEN_8GPU_KEYS:
            capture = GOLDEN_8GPU[key]
            assert capture["details"]["topology"] == "nvswitch:4", key
            assert len(capture["per_gpu_cycles"]) == 8, key


#: Per-GPU translation statistics ``(l1_hits, l1_misses, l2_hits,
#: l2_misses, walks)`` captured before the engine shared one L1 probe
#: per access between its steady test and the translation stage.  The
#: goldens only hold aggregate hit rates, so these pin the per-level
#: counts: a probe that was counted twice (or not at all) shows here.
TRANSLATION_CASES = {
    "bfs/grit/inline": (
        "bfs", "grit", {},
        [
            (611, 397, 0, 397, 397),
            (636, 372, 2, 370, 370),
            (626, 382, 2, 380, 380),
            (644, 364, 7, 357, 357),
        ],
    ),
    "sc/grit/batch16": (
        "sc", "grit", {"fault_batch_size": 16},
        [
            (101, 571, 0, 571, 571),
            (109, 641, 0, 641, 641),
            (112, 638, 0, 638, 638),
            (114, 588, 0, 588, 588),
        ],
    ),
    "st/gps/inline": (
        "st", "gps", {},
        [
            (2278, 418, 0, 418, 418),
            (2926, 634, 0, 634, 634),
            (2926, 634, 0, 634, 634),
            (2440, 472, 0, 472, 472),
        ],
    ),
    "fir/grit/8gpu-nvswitch-queued": (
        "fir", "grit",
        {
            "num_gpus": 8,
            "topology": "nvswitch",
            "contention": "queued",
            "fault_batch_size": 16,
        },
        [
            (189, 603, 0, 603, 603),
            (189, 627, 0, 627, 627),
            (187, 629, 0, 629, 629),
            (188, 628, 0, 628, 628),
            (187, 629, 0, 629, 629),
            (186, 630, 0, 630, 630),
            (188, 628, 0, 628, 628),
            (191, 601, 0, 601, 601),
        ],
    ),
}


class TestTranslationStatistics:
    """Per-GPU TLB and walker counts stay on their capture."""

    @pytest.mark.parametrize("key", sorted(TRANSLATION_CASES))
    def test_per_gpu_translation_counts(self, key):
        workload, policy, changes, want = TRANSLATION_CASES[key]
        config = SystemConfig(**{"num_gpus": 4, **changes})
        trace = make_workload(
            workload, num_gpus=config.num_gpus, scale=0.05
        )
        engine = Engine(config, trace, make_policy(policy))
        engine.run()
        got = [
            (
                gpu.tlbs.l1.hits,
                gpu.tlbs.l1.misses,
                gpu.tlbs.l2.hits,
                gpu.tlbs.l2.misses,
                gpu.walker.walks,
            )
            for gpu in engine.machine.gpus
        ]
        assert got == want
        # Every access is probed in the L1 exactly once: hit or miss.
        for (l1_hits, l1_misses, *_), (vpns, _) in zip(
            got, trace.streams
        ):
            assert l1_hits + l1_misses == len(vpns)


#: ``(gpu_id, base_vpn)`` sequence of every access the engine consumed
#: through ``TranslationStage.next_access`` (every access a fast round
#: did not batch), as ``(length, sha256)``.  Captured before the engine
#: dispatched a GPU's accesses in runs; the goldens see the dispatch
#: order only through totals, so a reordering that happens to keep
#: them shows only here.
DISPATCH_ORDER_CASES = {
    "bfs/grit/8gpu-nvswitch-queued-batch16": (
        "bfs", "grit",
        {
            "num_gpus": 8,
            "topology": "nvswitch",
            "contention": "queued",
            "fault_batch_size": 16,
        },
        8064,
        "6325f418b7fff0529d3305e07b659a115a33c1438f0b8c860d7d1d47638b425f",
    ),
    "st/grit/no-fast-path": (
        "st", "grit", {"fast_path": False},
        12728,
        "26de265da8345a901412fdd4553dd76bd38a32ea9ec9a410ab62c75a2a209dfa",
    ),
    "fir/on_touch/fast-path": (
        "fir", "on_touch", {"fast_path": True},
        480,
        "ccc3827fbfcda9bcc6e8e6a0518e6c1541e03394a99a65cd36bf35f40f4a2dde",
    ),
}


class TestDispatchOrder:
    """The engine consumes accesses in the captured order."""

    @pytest.mark.parametrize("key", sorted(DISPATCH_ORDER_CASES))
    def test_next_access_sequence(self, key, monkeypatch):
        workload, policy, changes, length, digest = (
            DISPATCH_ORDER_CASES[key]
        )
        # The cases pin their own configuration.
        for name in ("GRIT_CONTENTION", "GRIT_TOPOLOGY", "GRIT_FAST_PATH"):
            monkeypatch.delenv(name, raising=False)
        consumed = []
        next_access = TranslationStage.next_access

        def recording(stage, gpu_id):
            access = next_access(stage, gpu_id)
            consumed.append(f"{gpu_id}:{access[0]}")
            return access

        monkeypatch.setattr(TranslationStage, "next_access", recording)
        config = SystemConfig(**{"num_gpus": 4, **changes})
        trace = make_workload(
            workload, num_gpus=config.num_gpus, scale=0.05
        )
        simulate(config, trace, make_policy(policy))
        got = hashlib.sha256(",".join(consumed).encode()).hexdigest()
        assert (len(consumed), got) == (length, digest)


class TestBatchedServicing:
    def test_batched_runs_are_deterministic(self):
        first = _run("sc", "grit", fault_batch_size=16)
        second = _run("sc", "grit", fault_batch_size=16)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    @pytest.mark.parametrize(
        "policy", ["on_touch", "access_counter", "duplication", "grit"]
    )
    def test_batching_preserves_access_counts(self, policy):
        inline = _run("bfs", policy)
        batched = _run("bfs", policy, fault_batch_size=16)
        # Every access is still replayed exactly once.
        for field in ("accesses", "reads", "writes"):
            assert (
                batched["counters"][field] == inline["counters"][field]
            )
        assert batched["counters"]["fault_batches"] >= 1

    def test_batching_amortizes_host_service(self):
        inline = _run("bfs", "on_touch")
        batched = _run("bfs", "on_touch", fault_batch_size=32)
        # One host round trip per batch instead of per fault.
        assert batched["total_cycles"] < inline["total_cycles"]
        assert (
            batched["counters"]["fault_batches"]
            < inline["counters"]["local_page_faults"]
        )

    def test_coalescing_drops_duplicate_faults(self):
        batched = _run("sc", "grit", fault_batch_size=64)
        counters = batched["counters"]
        # Parallel streams re-fault hot pages within a batch window, so
        # a 64-deep buffer must observe duplicates — and a coalesced
        # deposit never reaches the serviced-fault counter.
        assert counters["fault_batches"] > 0
        assert counters["coalesced_faults"] > 0

    def test_sanitizer_covers_batched_path(self):
        # The machine-state sanitizer sweeps after every batch drain;
        # a consistent run must complete without tripping it.
        got = _run(
            "fir", "duplication", fault_batch_size=8, sanitize=True
        )
        assert got["counters"]["fault_batches"] >= 1
