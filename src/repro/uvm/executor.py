"""Mechanic dispatch: how the driver resolves a fault, by registry.

The UVM driver used to pick fault-resolution mechanics through an
if/elif ladder; this module replaces it with an explicit dispatch
registry.  Each built-in :class:`~repro.policies.base.Mechanic` member
registers its executor at import time with the :func:`executes`
decorator, and every :class:`MechanicExecutor` instance starts from
that default table.  Policies may override or extend the table through
:meth:`~repro.policies.base.PlacementPolicy.register_mechanics` — the
hook the driver calls before the first fault is serviced — which is
what lets an experiment swap one mechanic's implementation without
touching the driver.

The simlint rule GRIT-C006 statically checks that every ``Mechanic``
enum member has a registered executor, so a new member cannot silently
turn into a runtime :class:`~repro.errors.PolicyError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, FrozenSet

from repro.constants import HOST_NODE, LatencyCategory
from repro.errors import PolicyError
from repro.memsys.page import PageInfo
from repro.policies.base import Mechanic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.uvm.driver import UvmDriver

#: An executor resolves one local fault with one mechanic; it receives
#: the driver (for the mechanics engines and machine state) plus the
#: simulated cycle the fault reaches resolution, and returns the stall
#: cycles the faulting access pays.
ExecutorFn = Callable[["UvmDriver", int, PageInfo, bool, int], int]

#: Default executor table every :class:`MechanicExecutor` starts from.
DEFAULT_EXECUTORS: Dict[Mechanic, ExecutorFn] = {}


def executes(mechanic: Mechanic) -> Callable[[ExecutorFn], ExecutorFn]:
    """Register ``fn`` as the default executor for ``mechanic``."""

    def decorator(fn: ExecutorFn) -> ExecutorFn:
        DEFAULT_EXECUTORS[mechanic] = fn
        return fn

    return decorator


class HandlerTable(dict):
    """Mechanic -> executor; indexing an unregistered one raises."""

    def __missing__(self, mechanic: Mechanic) -> ExecutorFn:
        raise PolicyError(f"no executor registered for {mechanic!r}")


class MechanicExecutor:
    """Per-driver dispatch table from mechanic to executor."""

    def __init__(self, driver: "UvmDriver") -> None:
        self.driver = driver
        #: The live table.  The driver's fault entry points index it
        #: directly (one lookup per fault), so :meth:`register` edits
        #: it in place.
        self.handlers = HandlerTable(DEFAULT_EXECUTORS)

    def register(self, mechanic: Mechanic, handler: ExecutorFn) -> None:
        """Install (or override) the executor for one mechanic."""
        self.handlers[mechanic] = handler

    def registered(self) -> FrozenSet[Mechanic]:
        """Mechanics that currently have an executor."""
        return frozenset(self.handlers)

    def execute(
        self,
        mechanic: Mechanic,
        gpu: int,
        page: PageInfo,
        is_write: bool,
        now: int = 0,
    ) -> int:
        """Resolve one fault on ``page`` for ``gpu``; returns cycles."""
        return self.handlers[mechanic](self.driver, gpu, page, is_write, now)


# ----------------------------------------------------------------------
# default executors (one per Mechanic member; see GRIT-C006)
# ----------------------------------------------------------------------


@executes(Mechanic.ON_TOUCH)
def execute_on_touch(
    driver: "UvmDriver", gpu: int, page: PageInfo, is_write: bool, now: int
) -> int:
    """Migrate the faulting page to the requester (Section II-B1)."""
    cycles = driver.migration.migrate(
        page, gpu, flush_scale=driver.policy.flush_scale, now=now
    )
    if is_write:
        page.dirty = True
        page.ever_written = True
        driver.machine.gpus[gpu].dram.mark_dirty(page.vpn)
    return cycles


@executes(Mechanic.ACCESS_COUNTER)
def execute_access_counter(
    driver: "UvmDriver", gpu: int, page: PageInfo, is_write: bool, now: int
) -> int:
    """Map the page where it lives; counters earn the migration.

    Counter-based migration never migrates eagerly: even a first touch
    maps the page where it lives (host memory) and lets the access
    counters earn the migration (Section II-B2).
    """
    return _remote_map(
        driver, gpu, page, is_write, now, place_on_first_touch=False
    )


@executes(Mechanic.PEER_REMOTE)
def execute_peer_remote(
    driver: "UvmDriver", gpu: int, page: PageInfo, is_write: bool, now: int
) -> int:
    """First-touch pins the page at its first toucher; others map it."""
    return _remote_map(
        driver, gpu, page, is_write, now, place_on_first_touch=True
    )


def _remote_map(
    driver: "UvmDriver",
    gpu: int,
    page: PageInfo,
    is_write: bool,
    now: int,
    place_on_first_touch: bool,
) -> int:
    """AC / first-touch: establish a (possibly remote) mapping."""
    machine = driver.machine
    flush_scale = driver.policy.flush_scale
    if page.owner == HOST_NODE and place_on_first_touch:
        return driver.migration.place_from_host(
            page, gpu, LatencyCategory.PAGE_MIGRATION, flush_scale,
            is_write=is_write, now=now,
        )
    if page.replicas:
        # Stale replicas from a previous duplication lifetime would
        # break coherence under remote write mappings; drop them.
        driver.charge_collapse(page)
    machine.gpus[gpu].page_table.map(page.vpn, page.owner, writable=True)
    if is_write:
        page.ever_written = True
        if page.owner != HOST_NODE:
            page.dirty = True
            machine.gpus[page.owner].dram.mark_dirty(page.vpn)
    return 0


@executes(Mechanic.DUPLICATION)
def execute_duplication(
    driver: "UvmDriver", gpu: int, page: PageInfo, is_write: bool, now: int
) -> int:
    """Replicate reads, collapse writes (Section II-B3)."""
    flush_scale = driver.policy.flush_scale
    if page.owner == HOST_NODE:
        # Copy-on-write: read placements map read-only so a later
        # write raises a protection fault (Section II-B3).
        return driver.migration.place_from_host(
            page, gpu, LatencyCategory.PAGE_DUPLICATION, flush_scale,
            writable=is_write, is_write=is_write, now=now,
        )
    if is_write:
        # Faulting write by a GPU with no copy: collapse-with-move.
        return driver.duplication.collapse_to_writer(
            page, gpu, flush_scale=flush_scale, now=now
        )
    return driver.duplication.duplicate(
        page, gpu, flush_scale=flush_scale, now=now
    )


@executes(Mechanic.GPS)
def execute_gps(
    driver: "UvmDriver", gpu: int, page: PageInfo, is_write: bool, now: int
) -> int:
    """Subscribe the requester with a writable replica (GPS)."""
    flush_scale = driver.policy.flush_scale
    if page.owner == HOST_NODE:
        return driver.migration.place_from_host(
            page, gpu, LatencyCategory.PAGE_DUPLICATION, flush_scale,
            is_write=is_write, now=now,
        )
    # Subscribe: a writable replica.  The write broadcast itself is
    # charged uniformly by the engine for every GPS write.
    return driver.duplication.duplicate(
        page, gpu, writable_replica=True, flush_scale=flush_scale, now=now
    )


@executes(Mechanic.IDEAL)
def execute_ideal(
    driver: "UvmDriver", gpu: int, page: PageInfo, is_write: bool, now: int
) -> int:
    """The paper's Ideal: only the first cold touch pays anything."""
    machine = driver.machine
    cycles = 0
    if page.owner == HOST_NODE:
        # The one cost Ideal pays: the first cold touch of a page.
        cycles = driver.host_service(gpu, now)
        transfer = machine.kernel.transfer(
            HOST_NODE, gpu, machine.config.page_size, now + cycles
        )
        machine.breakdown.charge(LatencyCategory.PAGE_MIGRATION, transfer)
        cycles += transfer
        page.owner = gpu
    else:
        page.replicas.add(gpu)
    if is_write:
        page.dirty = True
        page.ever_written = True
    machine.gpus[gpu].page_table.map(page.vpn, gpu, writable=True)
    return cycles
