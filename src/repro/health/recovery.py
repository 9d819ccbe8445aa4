"""Quiesce + hot-reset of a wedged vFPGA (the paper's decoupled PR).

Coyote v2 decouples a region from the shell interconnect before partial
reconfiguration so misbehaving user logic can never corrupt the shared
shell.  :class:`RecoveryManager` reuses exactly that machinery as a
*recovery* primitive:

1. **Decouple** — the region rejects new invokes; every pending
   completion of its tenants fails with a typed
   :class:`~repro.health.errors.RecoveredError`; any scheduler serving
   the region pauses and hands over its in-flight request.
2. **Quiesce** — the region's mover request units are stopped, then a
   bounded drain window lets packets already inside the shared
   translate/DMA pipeline retire (they hold credits and guaranteed FIFO
   space, so the window is bounded by pipeline depth, not tenant
   behaviour).
3. **Reset** — user logic is unloaded, stream FIFOs and send/completion
   queues are wiped, credit pools refill to capacity, and the tenant's
   TLB entries are invalidated (one MMU per vFPGA, so a full TLB flush
   is exactly one tenant's entries).
4. **Reprogram or quarantine** — a per-region circuit breaker counts
   recovery attempts; under the threshold the region is reprogrammed
   through the normal PR path (scheduler kernel, or the shell's
   last-good app) and re-coupled, otherwise the tenant is quarantined
   and the region left dark while the rest of the card keeps serving.
5. **Replay or reject** — the scheduler resumes; its aborted request is
   replayed iff its kernel was registered ``idempotent``, else it fails
   with ``RecoveredError``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Deque, Dict, Generator

from .errors import RecoveredError

__all__ = ["HealthConfig", "RegionState", "RecoveryManager"]


@dataclass(frozen=True)
class HealthConfig:
    """Tunables shared by the watchdog monitor and the recovery pipeline."""

    #: Heartbeat sampling period of the health monitor.
    poll_interval_ns: float = 25_000.0
    #: Region watchdog: busy with no counter movement this long => HUNG.
    deadline_ns: float = 200_000.0
    #: Per-cThread watchdog: one pending completion older than this =>
    #: HUNG even if the region's aggregate counters still move (another
    #: tenant's streams may flow while one lane is wedged).
    cthread_deadline_ns: float = 5_000_000.0
    #: Quiesce drain window before the region datapath is wiped.
    drain_ns: float = 50_000.0
    #: Circuit breaker: quarantine on the K-th recovery attempt ...
    breaker_threshold: int = 3
    #: ... within this window (PR itself costs milliseconds, so the
    #: window spans several back-to-back recoveries).
    breaker_window_ns: float = 500_000_000.0
    #: Monitor recovers HUNG regions automatically; ``False`` restricts
    #: it to verdicts/reporting (manual ``driver.recover()`` still works).
    auto_recover: bool = True


class RegionState(Enum):
    HEALTHY = "healthy"
    DEGRADED = "degraded"  # recovered at least once; still serving
    RECOVERING = "recovering"
    QUARANTINED = "quarantined"


@dataclass
class _RegionRecovery:
    """One region's place in the recovery state machine."""

    __slots__ = ("state", "breaker", "in_progress", "recoveries")

    state: RegionState
    #: The circuit breaker's window: times of the recovery attempts
    #: still inside ``breaker_window_ns``.
    breaker: Deque[float]
    #: A recovery of the region is running (re-entrant calls are no-ops).
    in_progress: bool
    #: Recoveries that ended with the region back in service.
    recoveries: int


class RecoveryManager:
    """Owns the per-region recovery state machine of one card."""

    def __init__(self, driver, config: HealthConfig = HealthConfig()):
        self.driver = driver
        self.env = driver.env
        self.config = config
        self._regions: Dict[int, _RegionRecovery] = {
            vfpga.vfpga_id: _RegionRecovery(RegionState.HEALTHY, deque(), False, 0)
            for vfpga in driver.shell.vfpgas
        }
        self.quarantines = 0
        self.descriptors_dropped = 0
        self.completions_failed = 0
        self.tlb_entries_flushed = 0

    # ------------------------------------------------------------- queries

    def state_of(self, vfpga_id: int) -> RegionState:
        return self._regions[vfpga_id].state

    def recovery_count(self, vfpga_id: int) -> int:
        return self._regions[vfpga_id].recoveries

    def total_recoveries(self) -> int:
        return sum(region.recoveries for region in self._regions.values())

    def region_dict(self, vfpga_id: int) -> Dict:
        vfpga = self.driver.shell.vfpgas[vfpga_id]
        return {
            "id": vfpga_id,
            "state": self.state_of(vfpga_id).value,
            "recoveries": self.recovery_count(vfpga_id),
            "decoupled": vfpga.decoupled,
            "quarantined": vfpga.quarantined,
        }

    # ------------------------------------------------------------ pipeline

    def recover(self, vfpga_id: int, reason: str = "manual") -> Generator:
        """Run the quiesce -> reset -> reprogram/quarantine pipeline.

        A generator — run it as a process.  Re-entrant calls while a
        recovery is already in flight (or after quarantine) are no-ops.
        """
        region = self._regions[vfpga_id]
        if region.in_progress or region.state is RegionState.QUARANTINED:
            return
        region.in_progress = True
        try:
            yield from self._recover(region, vfpga_id, reason)
        finally:
            region.in_progress = False
            monitor = self.driver.health
            if monitor is not None:
                monitor.on_region_recovered(vfpga_id)

    def _recover(self, region: _RegionRecovery, vfpga_id: int, reason: str) -> Generator:
        driver = self.driver
        vfpga = driver.shell.vfpgas[vfpga_id]
        scheduler = driver.schedulers.get(vfpga_id)
        region.state = RegionState.RECOVERING
        vfpga.decoupled = True

        # Circuit breaker: decide up front whether this attempt trips it,
        # so a tenant being evicted never costs another ICAP program.
        window = region.breaker
        window.append(self.env.now)
        while window and self.env.now - window[0] > self.config.breaker_window_ns:
            window.popleft()
        quarantine = len(window) >= self.config.breaker_threshold

        # 1. Decouple: fail software's pending completions; 2. quiesce:
        # pause the region's scheduler (it hands over its in-flight
        # request), stop its request units, let the shared pipeline drain.
        exc = RecoveredError(vfpga_id, reason)
        self.completions_failed += driver.fail_pending(vfpga_id, exc)
        yield from driver.quiesce_region(vfpga_id, exc, self.config.drain_ns)

        # 3. Reset: wipe user logic, stream FIFOs, queues and credits;
        # invalidate the tenant's TLB entries.
        vfpga.unload_app()
        self.descriptors_dropped += vfpga.reset_datapath()
        mmu = driver.shell.dynamic.mmus.get(vfpga_id)
        if mmu is not None:
            self.tlb_entries_flushed += mmu.flush()
        self.descriptors_dropped += driver.restart_region(vfpga_id)

        # 4. Reprogram or quarantine.
        if not quarantine:
            try:
                yield from self._restore(vfpga_id, scheduler)
            except Exception:
                # The region cannot be restored (e.g. persistent ICAP CRC
                # failures): take it out of service instead of crashing.
                quarantine = True
        vfpga.decoupled = False
        if quarantine:
            vfpga.quarantined = True
            self.quarantines += 1
            region.state = RegionState.QUARANTINED
        else:
            region.recoveries += 1
            region.state = RegionState.DEGRADED

        # 5. Replay or reject queued work per the idempotency policy.
        if scheduler is not None:
            scheduler.resume_after_recovery(quarantined=quarantine)

    def _restore(self, vfpga_id: int, scheduler) -> Generator:
        """Reprogram the region: the scheduler's resident kernel, else the
        region's last-good app."""
        if scheduler is not None and scheduler.loaded is not None:
            yield self.env.process(
                scheduler.load(scheduler.loaded, scheduler.cached_bitstreams)
            )
            return
        driver = self.driver
        last = driver.shell.vfpgas[vfpga_id].last_good
        if last is None:
            return  # region was empty; leave it empty
        bitstream, app = last
        if bitstream is None:
            # Loaded at initial configuration: no PR charge, plain reload.
            driver.shell.load_app(vfpga_id, app)
        else:
            yield self.env.process(
                driver.reconfigure_app(bitstream, vfpga_id, app, cached=True)
            )
