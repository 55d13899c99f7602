"""The fault path's observable effects, pinned event by event.

The goldens hold end-of-run totals.  These cases pin what happens on
the way: the ``(kind, vpn, gpu, detail, cycles)`` stream of every
logged fault, migration, duplication, collapse and eviction, and
every link's ``bytes_transferred`` and ``messages``, each as
``(count, sha256)``.  They were captured before the fault path was
flattened (direct driver dispatch, memoized flat charges, inline
shootdowns), so a change that reorders or re-prices one step, or
accounts one hop more or less, shows here even when totals agree.
"""

import hashlib

import pytest

from repro.config import SystemConfig
from repro.policies import make_policy
from repro.sim.engine import Engine
from repro.stats.events import EventLog
from repro.workloads.registry import make_workload

#: key -> (workload, policy, config changes, events, events sha256,
#: links sha256).
FAULT_PATH_CASES = {
    "bs/on_touch": (
        "bs", "on_touch", {},
        8127,
        "68ba0f62273d0e48a24f2e18b762719d9a9835a89a90f531e6317e9418ebe59f",
        "d357f6ca6f30acce741f0b365368cf759b0d0ec9de4374ab18004ab59efb837d",
    ),
    "bfs/grit": (
        "bfs", "grit", {},
        2182,
        "4e6368bc1bbb6560121b6ec007f18e2560718944bf06bdeb87886e71c179338a",
        "b3cf4b9fa07c2b4cb33baed1f2154d1d77efe03d33f10b5698c9a2f906ce83b1",
    ),
    "st/duplication": (
        "st", "duplication", {},
        5537,
        "8f93aab483841579c90279941c2e4f16fc40692a433210ac17fb9e52ee5bf0d8",
        "518a88ef5ce9e5d73bc9bd038d4fa8606227afc6e0719aa83b36f22daabe7e2f",
    ),
    "gemm/access_counter": (
        "gemm", "access_counter", {},
        132,
        "516e8367b3055089fe64c83cc033c7e6731cf7dfefe1a28292d24248b15d19ab",
        "aba54d4b24930498bee2ecb514cfe16d341fda66d852a18f6145818e9b856f74",
    ),
    "mm/gps": (
        "mm", "gps", {},
        364,
        "c2790434cdc47798cc564e0ac69e9152559128bfcb15911076a99f3f46531d85",
        "a21ada41c7fe67c8756aed171d0b60bde38eaaf9362d90d1dad3ac468016f8c3",
    ),
    "sc/ideal": (
        "sc", "ideal", {},
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "7d79c0b695aceb89b90bce7d58c664d41a606931c83a3b9a88033728fa9d6b58",
    ),
    "fir/grit/8gpu-nvswitch-queued-batch16": (
        "fir", "grit",
        {
            "num_gpus": 8,
            "topology": "nvswitch",
            "contention": "queued",
            "fault_batch_size": 16,
        },
        2003,
        "97013bf84bd07b51d4846b3e31363f443b5fe60ecbc0eb3e90f68dc1a4c20959",
        "5fe453e187e991230eb78c3fd9dd68e4bd61f3cd5cb820cfafc2350f3a5c4022",
    ),
}


def _sha256(rows) -> str:
    return hashlib.sha256(";".join(rows).encode()).hexdigest()


class TestFaultPathPin:
    @pytest.mark.parametrize("key", sorted(FAULT_PATH_CASES))
    def test_event_stream_and_link_traffic(self, key, monkeypatch):
        workload, policy, changes, length, events, links = (
            FAULT_PATH_CASES[key]
        )
        # The cases pin their own configuration.
        for name in ("GRIT_CONTENTION", "GRIT_TOPOLOGY", "GRIT_FAST_PATH"):
            monkeypatch.delenv(name, raising=False)
        config = SystemConfig(**{"num_gpus": 4, **changes})
        trace = make_workload(
            workload, num_gpus=config.num_gpus, scale=0.05
        )
        log = EventLog()
        engine = Engine(config, trace, make_policy(policy), event_log=log)
        engine.run()
        assert log.dropped == 0
        got_events = _sha256(
            f"{e.kind.value},{e.vpn},{e.gpu},{e.detail},{e.cycles}"
            for e in log
        )
        got_links = _sha256(
            f"{link.name},{link.bytes_transferred},{link.messages}"
            for link in engine.machine.topology.links()
        )
        assert (len(log), got_events, got_links) == (length, events, links)
