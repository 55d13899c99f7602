"""Fault records and the per-GPU replayable fault buffer.

Real GPUs do not deliver faults to the host one at a time: the GMMU
deposits every unserviced fault into a *replayable fault buffer* and
the UVM driver drains the buffer in batches, coalescing duplicate
entries before resolving them.  :class:`FaultEvent` is one deposited
fault; :class:`FaultBuffer` is the bounded per-GPU buffer the staged
fault-service pipeline drains (see ``repro.uvm.fault_service``).
"""

from __future__ import annotations

from typing import List, NamedTuple

from repro.constants import FaultKind
from repro.errors import SimulationError


class FaultEvent(NamedTuple):
    """One UVM fault, as delivered to the host driver (immutable)."""

    kind: FaultKind
    gpu: int
    vpn: int
    is_write: bool
    cycle: int

    def merged_with(self, other: "FaultEvent") -> "FaultEvent":
        """Coalesce a duplicate fault on the same (gpu, vpn).

        The serviced fault is a write if *any* deposit was a write, so
        one resolution installs a mapping every replayed access can
        use; the earliest deposit's cycle is kept.
        """
        if (other.gpu, other.vpn) != (self.gpu, self.vpn):
            raise SimulationError(
                f"cannot coalesce fault on (gpu {other.gpu}, vpn "
                f"{other.vpn}) into (gpu {self.gpu}, vpn {self.vpn})"
            )
        if other.is_write and not self.is_write:
            return self._replace(is_write=True)
        return self


class FaultBuffer:
    """Bounded replayable-fault-buffer model for one GPU.

    Deposits accumulate in arrival order; the driver's fault service
    drains the whole buffer at once.  The bound models the hardware
    buffer's finite size — the engine must drain before depositing
    past capacity, exactly like the real GMMU back-pressures the SMs.
    """

    __slots__ = ("capacity", "_pending")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise SimulationError("fault buffer needs capacity >= 1")
        self.capacity = capacity
        self._pending: List[FaultEvent] = []

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def full(self) -> bool:
        """True when the next deposit would overflow the buffer."""
        return len(self._pending) >= self.capacity

    def deposit(self, event: FaultEvent) -> None:
        """Append one fault; raises if the buffer is already full."""
        pending = self._pending
        if len(pending) >= self.capacity:
            raise SimulationError(
                f"fault buffer overflow on GPU {event.gpu}: "
                f"{self.capacity} faults already pending"
            )
        pending.append(event)

    def drain(self) -> List[FaultEvent]:
        """Remove and return every pending fault, in arrival order."""
        drained = self._pending
        self._pending = []
        return drained
