"""The vectorized steady-state fast path of the access engine.

The overwhelmingly common access in every workload's steady phase is
*boring*: it hits the L1 TLB, the page is resident locally, no fault
fires.  The engine handles these in two tiers, both bit-for-bit equal
to the scalar pipeline.

**One probe, inline steady hit.**  :meth:`~repro.sim.engine.Engine.run`
peeks the scheduled GPU's next access in its L1 TLB once and reuses
that entry everywhere.  An access is **steady** for GPU ``g`` when

* its folded page hits ``g``'s L1 TLB,
* the cached translation is local (``pte.location == g``) — remote
  and host locations take the far-access path with driver hooks, and
* a write finds the PTE writable (otherwise a protection fault) and
  the policy has no GPS store semantics (GPS writes broadcast).

The engine prices a steady access inline, in every contention mode:
L1 promote and hit count, one ``local_access`` charge, the DRAM touch
or dirty mark, and the clock advance.  Every other access goes through
the scalar pipeline, which finishes the TLB lookup from the same probe
(:meth:`~repro.memsys.tlb.TLBHierarchy.translate`), so a hit or miss
is counted once.

**Batched rounds.**  In flat contention mode a steady access may
instead start a :meth:`FastPath.round`, which prices every GPU's run
of steady accesses in bulk.  One steady access then costs exactly
``l1_lookup + local_access`` cycles and advances the GPU's clock by
that plus the issue gap; its only side effects are per-GPU L1/DRAM
LRU promotion, the global access counters, and a timeline cell bump —
all either per-GPU-local or commutative.  Steady accesses of
*different* GPUs therefore commute, which is what lets a round batch
every GPU's verified steady prefix in one step instead of degenerating
to one-access runs under the engine's lockstep lowest-clock
scheduling.  A round never batches past a fault parked in the GPU's
replayable buffer (batch mode), and ``contention="queued"`` never
builds a FastPath: there each access is priced against live
link/DRAM occupancy, which is order-sensitive.

A round works in three moves:

1. **Verify**: per active GPU, probe the next access alone (one L1
   ``peek``), then split a zero-copy window off its stream cursor
   (:meth:`~repro.sim.pipeline.StreamCursor.peek_batch`) into
   same-page segments and judge them in order with one memoized
   (read_ok, write_ok) verdict per folded page, stopping at the first
   unsteady access.  The window grows adaptively (64 entries up to
   :data:`~repro.sim.pipeline.CURSOR_CHUNK`) so fault-heavy phases
   pay for short windows and steady phases verify in big gulps.  The
   verified-but-unconsumed remainder is cached per GPU: fast rounds
   never mutate translation or residency state, so a cache entry
   survives until the engine runs anything scalar — then
   :meth:`invalidate` drops the acting GPU's entry (its cursor moved)
   and epoch-stamps the rest, which cheaply *revalidate* at their
   next use by re-probing just the pages in their memo.  An inline
   steady hit only drops the acting GPU's entry (:meth:`forget`).
2. **Bound**: the joint horizon ``H`` is the lexicographic minimum of
   ``(t, gpu)`` over every GPU's first unverified-or-unsteady access
   time, further capped by the next policy-interval and observation
   boundaries.  Every access strictly before ``H`` in the engine's
   ``(clock, gpu_id)`` scheduling order would have been replayed
   before anything interesting happens, so it is safe to batch.
3. **Commit**: per GPU, price its sub-``H`` prefix in one step — bulk
   counter sums, one ``hits`` bump, L1/DRAM LRU promotion per unique
   page in last-access order (one update when verification found the
   run on a single page), grouped timeline records, and a single
   clock advance through the timing kernel's bulk charge API.

**Yield gate.**  A round costs a verification scan per GPU, which is
wasted when the runs are short: at 4 KiB pages most steady runs end
at the next page's fault.  A round that commits no more accesses than
the number of GPUs it planned is *unpaid*; after one, the engine
prices a budget of steady accesses inline before it tries another
round.  The budget doubles after each unpaid round, up to
:data:`~repro.sim.pipeline.CURSOR_CHUNK`, and a paid round resets it.
The gate reads only the rounds' own yield, so long runs (large pages,
streaming phases) keep batching and fault-heavy phases stop paying
for scans that find nothing.  It changes which tier prices an access,
never the result.

Results are bit-for-bit identical with batching on or off;
``tests/sim/test_fastpath.py`` and the golden/bench gates in CI hold
that line.  Enable/disable batching (the inline steady hit always
runs) with ``SystemConfig(fast_path=...)``, the ``--no-fast-path``
CLI flag, or the ``GRIT_FAST_PATH`` environment variable (the same
global-override pattern as ``GRIT_CONTENTION``).
"""

from __future__ import annotations

import heapq
import os
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.sim.pipeline import CURSOR_CHUNK

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.config import SystemConfig
    from repro.sim.engine import Engine
    from repro.sim.gpu import GpuNode

__all__ = ["FAST_PATH_ENV_VAR", "FastPath", "fast_path_enabled"]

#: Environment variable globally overriding ``config.fast_path``
#: (``1`` forces the fast path on, ``0`` forces it off).
FAST_PATH_ENV_VAR = "GRIT_FAST_PATH"

#: Smallest verification window; fault-heavy phases settle here so a
#: run cut short by the next fault wastes little verification work.
_MIN_WINDOW = 64

#: Multi-page runs at or below this length commit through a plain
#: Python pass over their accesses; above it the numpy bulk commit's
#: fixed overhead amortizes and wins.
_SCALAR_COMMIT = 64

#: Sentinel horizon for a GPU whose verified run reaches the end of
#: its stream: nothing after it can constrain the other GPUs.
_NO_HORIZON = float("inf")


def fast_path_enabled(config: "SystemConfig") -> bool:
    """Resolve the effective fast-path setting for one run.

    The environment variable wins over the config field, mirroring
    ``GRIT_CONTENTION``/``GRIT_SANITIZE``/``GRIT_TRACE``.
    """
    raw = os.environ.get(FAST_PATH_ENV_VAR, "")
    if raw:
        if raw == "1":
            return True
        if raw == "0":
            return False
        raise ConfigError(
            f"{FAST_PATH_ENV_VAR}={raw!r} must be '0' or '1'"
        )
    return config.fast_path


class FastPath:
    """Per-run steady-state batcher bound to one engine's state."""

    def __init__(self, engine: "Engine") -> None:
        machine = engine.machine
        if machine.kernel.queued:
            raise ConfigError(
                "the steady-state fast path requires flat contention "
                "mode; queued-mode accesses are order-sensitive"
            )
        self.gpus = machine.gpus
        self.counters = machine.counters
        self.kernel = machine.kernel
        self.timeline = engine.timeline
        self.cursors = engine.stage.cursors
        self.service = engine.fault_service
        self.inline = engine.fault_service.inline
        self.fold_shift = engine.stage.fold_shift
        self.gps_writes = engine.policy.gps_semantics
        l1_latency = engine.config.l1_tlb.lookup_latency
        issue_gap = engine.config.issue_gap
        #: Clock advance of one steady access: L1 hit + local data
        #: access + the inter-instruction issue gap.
        self.advance = (
            l1_latency
            + self.kernel.local_access_bulk(0, 1, 0)
            + issue_gap
        )
        #: Non-data share of the advance (charged outside the kernel).
        self.overhead = l1_latency + issue_gap
        #: gpu_id -> [stamp, n_ok, reaches_end, unsteady, memo]: the
        #: GPU's cached verification (see _plan for the slot meanings).
        self._state: Dict[int, list] = {}
        #: Bumped whenever scalar activity may have mutated TLB /
        #: page-table / residency state; states carrying an older
        #: stamp must revalidate their memo before being trusted.
        self._epoch = 0
        #: gpu_id -> next verification window size (adaptive).
        self._window: Dict[int, int] = {}

    def invalidate(self, gpu_id: int) -> None:
        """Note scalar activity initiated by ``gpu_id``.

        The engine calls this before each scalar access (and its
        boundary hooks) — the only things that can mutate TLB,
        page-table, or residency state, or consume trace accesses.
        The acting GPU's cached verification is dropped outright (its
        cursor is about to move); every other GPU's survives with a
        stale stamp and is *revalidated* at its next plan by
        re-probing just the unique pages its run touches — far
        cheaper than re-scanning the run access by access.
        """
        self._epoch += 1
        self._state.pop(gpu_id, None)

    def forget(self, gpu_id: int) -> None:
        """Note an inline steady hit of ``gpu_id``.

        The hit moved only ``gpu_id``'s cursor and LRU order, so its
        own cached verification is dropped and every other GPU's
        stays current.
        """
        self._state.pop(gpu_id, None)

    # -- detection -----------------------------------------------------

    def _verify(self, gpu_id: int) -> list:
        """Measure one GPU's steady prefix off the cursor.

        Builds and caches the state record
        ``[stamp, n_ok, reaches_end, unsteady, memo, page]``:

        * ``n_ok`` — verified steady accesses not yet consumed;
        * ``reaches_end`` — the verified run extends to the end of
          the stream (nothing after it can constrain other GPUs);
        * ``unsteady`` — the *next* access is known not steady (the
          verdict holds until scalar activity invalidates it);
        * ``memo`` — folded page -> (read_ok, write_ok) for every
          page the scan probed, the basis for cheap revalidation;
        * ``page`` — the folded page of the whole verified run when it
          lies on one page (the typical sweep shape), else None.

        The window is split into same-page segments in one numpy pass
        and judged a segment at a time, so the Python work is
        proportional to the pages the run touches; the adaptive
        window only bounds how much of a long steady stretch is
        verified per gulp — it grows while windows come back fully
        steady and shrinks back toward the measured run length when
        they do not.
        """
        memo: Dict[int, Tuple[bool, bool]] = {}
        state = [self._epoch, 0, False, False, memo, None]
        self._state[gpu_id] = state
        if not self.inline and self.service.pending(gpu_id):
            # Parked faults drain (and replay) before the stream may
            # proceed past the batch boundary; never batch over them.
            state[3] = True
            return state
        cursor = self.cursors[gpu_id]
        shift = self.fold_shift
        peek = self.gpus[gpu_id].tlbs.l1.peek
        gps = self.gps_writes
        # Probe the first access alone before any window machinery:
        # unsteady phases pay one peek per scalar access, not a batch.
        vpn, is_write = cursor.peek()
        page = vpn >> shift
        entry = peek(page)
        if entry is None or entry.location != gpu_id:
            flags = (False, False)
        else:
            flags = (True, not gps and entry.writable)
        memo[page] = flags
        if not flags[1 if is_write else 0]:
            state[3] = True
            return state
        window = self._window.get(gpu_id, _MIN_WINDOW)
        vpns, writes = cursor.peek_batch(window)
        # Judge the window one same-page segment at a time: a segment
        # is steady whole when its page is write-ok, up to its first
        # write when the page is read-ok only, and not at all
        # otherwise.  The pages probed (and memoized) are exactly
        # those an access-by-access scan would probe.
        folded = vpns >> shift
        cuts = ((folded[1:] != folded[:-1]).nonzero()[0] + 1).tolist()
        starts = [0] + cuts
        ends = cuts + [len(folded)]
        pages = folded[starts].tolist() if cuts else [int(folded[0])]
        n_ok = 0
        for start, end, page in zip(starts, ends, pages):
            flags = memo.get(page)
            if flags is None:
                entry = peek(page)
                if entry is None or entry.location != gpu_id:
                    flags = (False, False)
                else:
                    flags = (True, not gps and entry.writable)
                memo[page] = flags
            if flags[1]:
                n_ok = end
                continue
            if flags[0]:
                written = np.flatnonzero(writes[start:end])
                if not len(written):
                    n_ok = end
                    continue
                n_ok = start + int(written[0])
            break
        if n_ok <= ends[0]:
            state[5] = pages[0]
        if n_ok == len(vpns):
            # Fully steady window: verify in bigger gulps next time.
            self._window[gpu_id] = min(window * 4, CURSOR_CHUNK)
            state[2] = cursor.position + n_ok >= cursor.length
        else:
            self._window[gpu_id] = max(
                _MIN_WINDOW, min(n_ok * 2, CURSOR_CHUNK)
            )
        state[1] = n_ok
        state[3] = n_ok == 0
        return state

    def _revalidate(self, gpu_id: int, state: list) -> bool:
        """Re-probe a stale state's pages; True when still accurate.

        Scalar activity elsewhere can only have changed this GPU's
        view through its L1 entries (its own cursor and fault buffer
        are untouched — the engine drops the acting GPU's state
        outright).  If every page in the memo still probes to the
        same (read_ok, write_ok) verdict, the cached scan would
        reproduce itself exactly, so the state is still good.
        """
        if not self.inline and self.service.pending(gpu_id):
            return False
        peek = self.gpus[gpu_id].tlbs.l1.peek
        gps = self.gps_writes
        for page, flags in state[4].items():
            entry = peek(page)
            if entry is None or entry.location != gpu_id:
                fresh = (False, False)
            else:
                fresh = (True, not gps and entry.writable)
            if fresh != flags:
                return False
        state[0] = self._epoch
        return True

    def _plan(self, gpu_id: int) -> Tuple[int, float]:
        """Steady prefix + horizon for one GPU, via the cache.

        Returns ``(n_ok, horizon)`` where the horizon is the
        simulated time of the GPU's first unverified-or-unsteady
        access — its current clock when the very next access is
        unsteady, infinity when the verified run reaches the end of
        the stream.
        """
        clock = self.gpus[gpu_id].clock
        state = self._state.get(gpu_id)
        if state is not None and state[0] != self._epoch:
            if not self._revalidate(gpu_id, state):
                state = None
        if state is None or (state[1] == 0 and not state[3]):
            # Unknown, stale, or fully consumed by earlier rounds:
            # (re-)verify from the current cursor position — sound,
            # fast rounds mutated nothing since the last scalar step.
            state = self._verify(gpu_id)
        if state[3]:
            return 0, clock
        if state[2]:
            return state[1], _NO_HORIZON
        return state[1], clock + state[1] * self.advance

    # -- the joint round -----------------------------------------------

    def round(
        self,
        heap: List[Tuple[int, int]],
        next_interval: int | None,
        obs_next: int | None,
    ) -> int:
        """Batch every GPU's steady prefix up to the joint horizon.

        ``heap`` is the engine's ``(clock, gpu_id)`` scheduling heap
        with a fresh top entry; on success it is rebuilt in place with
        the post-run clocks (exhausted GPUs dropped) and the number of
        accesses committed is returned.  Returns 0 — heap untouched,
        nothing consumed — when the scheduled GPU's next access cannot
        be batched (it is not steady, or faults are parked).
        """
        top_gpu = heap[0][1]
        top_ok, top_until = self._plan(top_gpu)
        if top_ok == 0:
            # The scheduled access cannot be batched: the engine
            # prices it itself.  (When it can, the round always
            # commits at least that access — every other
            # GPU/boundary bound is strictly later in (clock, gpu_id)
            # order.)
            return 0
        plans: List[Tuple[int, int]] = [(top_gpu, top_ok)]
        horizon: Tuple[float, int] = (top_until, top_gpu)
        for _, gpu_id in heap:
            if gpu_id == top_gpu:
                continue
            n_ok, until = self._plan(gpu_id)
            plans.append((gpu_id, n_ok))
            if (until, gpu_id) < horizon:
                horizon = (until, gpu_id)
        if next_interval is not None and (next_interval, -1) < horizon:
            horizon = (next_interval, -1)
        if obs_next is not None and (obs_next, -1) < horizon:
            horizon = (obs_next, -1)
        h_clock, h_id = horizon
        advance = self.advance
        gpus = self.gpus
        total = 0
        for gpu_id, n_ok in plans:
            if n_ok == 0:
                continue
            clock = gpus[gpu_id].clock
            # Batch exactly the accesses scheduled strictly before the
            # horizon in (clock, gpu_id) order: access i of this GPU
            # runs at clock + i*advance and ties break by gpu id.
            limit = h_clock if gpu_id < h_id else h_clock - 1
            if limit < clock:
                continue
            if limit >= clock + (n_ok - 1) * advance:
                # Whole verified prefix fits under the horizon (also
                # the infinite-horizon case: every stream ends steady).
                count = n_ok
            else:
                count = int(limit - clock) // advance + 1
            if count <= 0:
                continue
            state = self._state[gpu_id]
            self._commit(gpu_id, gpus[gpu_id], clock, count, state[5])
            state[1] -= count
            total += count
        if total == 0:
            return 0
        cursors = self.cursors
        heap[:] = [
            (gpus[gpu_id].clock, gpu_id)
            for _, gpu_id in heap
            if not cursors[gpu_id].exhausted
        ]
        heapq.heapify(heap)
        return total

    # -- committing one run --------------------------------------------

    def _commit(
        self,
        gpu_id: int,
        node: "GpuNode",
        clock: int,
        count: int,
        page: int | None,
    ) -> None:
        """Apply one verified run's effects in bulk, bit-for-bit.

        Replicates exactly what ``count`` scalar iterations would have
        done: counters, L1 hit stats + MRU order, DRAM LRU/dirty
        state, timeline cells, cursor position, and the clock.
        ``page`` is the run's folded page when it lies on one page
        (see :meth:`_verify`), else None.
        """
        cursor = self.cursors[gpu_id]
        vpns, writes = cursor.peek_batch(count)
        counters = self.counters
        counters.fastpath_runs += 1
        counters.fastpath_accesses += count
        counters.accesses += count
        l1 = node.tlbs.l1
        l1.hits += count
        dram = node.dram
        # Final L1 MRU order and DRAM LRU/dirty state only depend on
        # each unique page's *last* access in the run, so each page is
        # updated once, in ascending last-access order.
        if page is not None:
            # One folded page: the typical sweep run shape.
            nwrites = int(np.count_nonzero(writes))
            l1.promote(page)
            if nwrites:
                dram.mark_dirty(page)
            else:
                dram.touch(page)
        elif count <= _SCALAR_COMMIT:
            # Short run: plain Python beats numpy's fixed per-call
            # overhead.  Dict pop+reinsert keeps pages in last-access
            # order and merges the per-page written flag on the way.
            shift = self.fold_shift
            wl = writes.tolist()
            nwrites = wl.count(True)
            order: Dict[int, bool] = {}
            for vpn, is_write in zip(vpns.tolist(), wl):
                folded_page = vpn >> shift
                order[folded_page] = (
                    order.pop(folded_page, False) or is_write
                )
            for folded_page, wrote in order.items():
                l1.promote(folded_page)
                if wrote:
                    dram.mark_dirty(folded_page)
                else:
                    dram.touch(folded_page)
        else:
            writes = writes.astype(bool, copy=False)
            nwrites = int(np.count_nonzero(writes))
            folded = vpns >> self.fold_shift
            uniq, first_in_reversed = np.unique(
                folded[::-1], return_index=True
            )
            order_idx = np.argsort(first_in_reversed)[::-1]
            if nwrites == 0:
                for j in order_idx.tolist():
                    folded_page = int(uniq[j])
                    l1.promote(folded_page)
                    dram.touch(folded_page)
            else:
                _, inverse = np.unique(folded, return_inverse=True)
                wrote_any = (
                    np.bincount(
                        inverse,
                        weights=writes.astype(np.float64),
                        minlength=len(uniq),
                    )
                    > 0
                )
                for j in order_idx.tolist():
                    folded_page = int(uniq[j])
                    l1.promote(folded_page)
                    if wrote_any[j]:
                        dram.mark_dirty(folded_page)
                    else:
                        dram.touch(folded_page)
        counters.writes += nwrites
        counters.reads += count - nwrites
        if self.timeline is not None:
            self._record_timeline(gpu_id, clock, count, vpns, writes)
        data_cycles = self.kernel.local_access_bulk(gpu_id, count, clock)
        node.clock = clock + count * self.overhead + data_cycles
        cursor.advance(count)

    def _record_timeline(
        self,
        gpu_id: int,
        clock: int,
        count: int,
        vpns: np.ndarray,
        writes: np.ndarray,
    ) -> None:
        """Grouped timeline records for one run.

        Access ``i`` lands at ``clock + i*advance``; the times are
        monotone, so intervals form contiguous segments and each
        segment groups its ``(vpn, is_write)`` pairs with one
        ``np.unique`` instead of a dict probe per access.
        """
        timeline = self.timeline
        times = clock + self.advance * np.arange(count, dtype=np.int64)
        intervals = times // timeline.interval_length
        seg_intervals, seg_starts = np.unique(
            intervals, return_index=True
        )
        bounds = seg_starts.tolist() + [count]
        base_vpns = vpns.astype(np.int64, copy=False)
        for k, interval in enumerate(seg_intervals.tolist()):
            start, end = bounds[k], bounds[k + 1]
            # Pack (vpn, is_write) into one key; trace vpns are far
            # below 2**62 so the shift cannot overflow.
            keys = (base_vpns[start:end] << 1) | writes[start:end]
            uniq_keys, key_counts = np.unique(keys, return_counts=True)
            for key, tally in zip(
                uniq_keys.tolist(), key_counts.tolist()
            ):
                timeline.record_bulk(
                    interval, gpu_id, key >> 1, bool(key & 1), tally
                )
