"""The assembled GRIT mechanism (Figure 16).

On every local page fault / page protection fault the UVM driver feeds
GRIT (step 2 in Figure 16).  GRIT updates the PA-Cache/PA-Table in
parallel with the page-table walk, and when the page's fault count
reaches the threshold (step 3) it re-decides the page's scheme from the
PA entry's read/write bit (step 4) and triggers Neighboring-Aware
Prediction to pre-set scheme bits for adjacent pages (step 5).

The mechanism is engine-agnostic: it mutates scheme/group bits in the
centralized page table and reports what changed; the UVM driver applies
the data-consistency consequences (collapsing replicas of pages that
leave duplication) and charges latencies.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

from repro.config import GritConfig, LatencyModel
from repro.constants import FaultKind, Scheme
from repro.core.decision import decide_scheme
from repro.core.initiator import FaultAwareInitiator
from repro.core.neighbor import NeighboringAwarePredictor
from repro.memsys.page_table import CentralPageTable


@dataclasses.dataclass(frozen=True)
class SchemeChange:
    """Everything that happened in response to one observed fault."""

    #: Extra cycles the fault spends on the PA path.
    extra_latency: int
    #: True when the fault threshold fired and a decision was made.
    decision_made: bool
    #: The decided scheme (None when no decision was made).
    new_scheme: Scheme | None
    #: True when the decided scheme differs from the page's previous one.
    scheme_changed: bool
    #: Pages (and their prior schemes) rewritten by neighbor propagation.
    propagated: Tuple[Tuple[int, Scheme], ...]
    promotions: int
    degradations: int


class GritMechanism:
    """Fault-Aware Initiator + decision + Neighboring-Aware Prediction."""

    def __init__(
        self,
        config: GritConfig,
        latency: LatencyModel,
        page_table: CentralPageTable,
    ) -> None:
        self.config = config
        self.page_table = page_table
        self.initiator = FaultAwareInitiator(config, latency)
        self.predictor = (
            NeighboringAwarePredictor(
                page_table, max_group_pages=config.max_group_pages
            )
            if config.use_neighbor_prediction
            else None
        )
        self.scheme_changes = 0

    def observe_fault(
        self, vpn: int, kind: FaultKind, is_write: bool | None = None
    ) -> SchemeChange:
        """Feed one fault through GRIT; returns the resulting actions."""
        outcome = self.initiator.observe_fault(vpn, kind, is_write)
        if not outcome.threshold_reached:
            return SchemeChange(
                extra_latency=outcome.extra_latency,
                decision_made=False,
                new_scheme=None,
                scheme_changed=False,
                propagated=(),
                promotions=0,
                degradations=0,
            )
        page = self.page_table.get(vpn)
        old_scheme = page.scheme
        new_scheme = decide_scheme(outcome.rw_bit)
        scheme_changed = new_scheme != old_scheme
        if scheme_changed:
            page.scheme = new_scheme
            self.scheme_changes += 1
        propagated: Tuple[Tuple[int, Scheme], ...] = ()
        promotions = 0
        degradations = 0
        if self.predictor is not None:
            neighbor = self.predictor.on_scheme_change(
                vpn, new_scheme, old_scheme
            )
            propagated = neighbor.propagated
            promotions = neighbor.promotions
            degradations = neighbor.degradations
        return SchemeChange(
            extra_latency=outcome.extra_latency,
            decision_made=True,
            new_scheme=new_scheme,
            scheme_changed=scheme_changed,
            propagated=propagated,
            promotions=promotions,
            degradations=degradations,
        )
