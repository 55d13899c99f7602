"""Batched fault servicing: the driver-side stage of the pipeline.

The :class:`FaultService` sits between the engine's translation stage
and the driver's resolution mechanics.  It owns one bounded
:class:`~repro.uvm.faults.FaultBuffer` per GPU and decides *when*
faults are serviced:

* ``batch_size == 1`` (the default) reproduces the classic inline
  path bit-for-bit.  The service then holds nothing: the engine hands
  every fault straight to the driver's ``handle_local_fault`` entry
  point (through the driver instance, so the sanitizer sweeps and
  tracer spans still wrap it), and :attr:`FaultService.inline` is how
  it knows.
* ``batch_size > 1`` models the real driver: faults park in the
  faulting GPU's replayable buffer while other warps keep issuing;
  once ``batch_size`` deposits accumulate (or the stream ends) the
  buffer drains through ``service_fault_batch``, which charges one
  host-service round trip for the whole batch and coalesces duplicate
  (gpu, vpn) entries before resolving them.

The engine replays the parked accesses (TLB fill, protection check,
data access) after a drain; see ``repro.sim.engine``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from repro.constants import FaultKind
from repro.uvm.faults import FaultBuffer, FaultEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.uvm.driver import UvmDriver


class FaultService:
    """Drains per-GPU fault buffers in batches through the driver."""

    def __init__(self, driver: "UvmDriver", batch_size: int) -> None:
        self.driver = driver
        self.batch_size = batch_size
        num_gpus = driver.machine.config.num_gpus
        self.buffers: List[FaultBuffer] = [
            FaultBuffer(capacity=batch_size) for _ in range(num_gpus)
        ]

    @property
    def inline(self) -> bool:
        """True when every fault forms its own batch (classic path)."""
        return self.batch_size == 1

    def pending(self, gpu: int) -> int:
        """Faults currently parked in ``gpu``'s buffer."""
        return len(self.buffers[gpu])

    def should_drain(self, gpu: int) -> bool:
        """True when ``gpu``'s buffer has filled to one batch."""
        return self.buffers[gpu].full

    def submit(self, gpu: int, vpn: int, is_write: bool, now: int) -> None:
        """Park one local fault in ``gpu``'s buffer for a later drain.

        Only batched servicing parks faults; inline faults
        (``batch_size == 1``) go from the engine to the driver.
        """
        self.buffers[gpu].deposit(
            FaultEvent(FaultKind.LOCAL_PAGE_FAULT, gpu, vpn, is_write, now)
        )

    def drain(self, gpu: int, now: int = 0) -> Tuple[int, List[FaultEvent]]:
        """Service everything parked in ``gpu``'s buffer as one batch.

        Returns ``(cycles, records)``: the stall cycles the batch
        charges the draining GPU, and the deposited records (in
        arrival order, duplicates included) the engine must replay.
        ``now`` is the draining GPU's clock at the drain.
        """
        records = self.buffers[gpu].drain()
        if not records:
            return 0, []
        cycles = self.driver.service_fault_batch(gpu, records, now)
        return cycles, records
