"""The hybrid MMU: on-chip TLBs, host-side page-table walks, page faults.

Paper §6.1: "TLBs are implemented in on-chip SRAM, enabling fast look-ups,
while the rest of the MMU is implemented in the host-side driver; that is,
when a TLB miss is detected, the system falls back to the driver to obtain
the physical address."  A fault (page absent from the requested memory)
triggers a GPU-style migration.

This module provides the hardware half (:class:`Mmu`, one per vFPGA) and
the shared page table the driver half operates on.  Latencies:

* Translation: every :meth:`Mmu.translate` / :meth:`Mmu.translate_any`
  books one station of the shared translation pipeline for
  ``MmuConfig.xlat_service_ns`` (100 ns), hit or miss.
* TLB miss, page resident: driver walk over MSI-X + ioctl, ~1.2 us, on
  top of the station booking.
* Page fault: driver allocates/migrates the page; milliseconds-scale
  depending on page size and PCIe bandwidth (charged by the migration
  engine the driver injects).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, Optional, Tuple

from ..sim.engine import Environment, Interrupt, Process
from ..sim.rate import FifoServer
from .tlb import MemLocation, Tlb, TlbConfig, TlbEntry

__all__ = ["PageTable", "PageTableEntry", "Mmu", "MmuConfig", "SegmentationFault"]

#: TLB-miss service time when the page is resident (driver walk, paper §6.1).
TLB_MISS_WALK_NS = 1_200.0


class SegmentationFault(Exception):
    """Access to a virtual address with no mapping in the page table."""


@dataclass
class PageTableEntry:
    """Driver-owned mapping of one virtual page of a process."""

    vpn: int
    host_paddr: Optional[int] = None
    card_paddr: Optional[int] = None
    gpu_paddr: Optional[int] = None
    location: MemLocation = MemLocation.HOST
    writable: bool = True
    dirty: bool = False

    def paddr_in(self, location: MemLocation) -> Optional[int]:
        return {
            MemLocation.HOST: self.host_paddr,
            MemLocation.CARD: self.card_paddr,
            MemLocation.GPU: self.gpu_paddr,
        }[location]


class PageTable:
    """Per-process page table, keyed by virtual page number."""

    def __init__(self, pid: int, page_size: int):
        self.pid = pid
        self.page_size = page_size
        self.entries: Dict[int, PageTableEntry] = {}

    @property
    def page_shift(self) -> int:
        return self.page_size.bit_length() - 1

    def vpn_of(self, vaddr: int) -> int:
        return vaddr >> self.page_shift

    def map(self, entry: PageTableEntry) -> None:
        self.entries[entry.vpn] = entry

    def unmap(self, vpn: int) -> Optional[PageTableEntry]:
        return self.entries.pop(vpn, None)

    def walk(self, vaddr: int) -> PageTableEntry:
        entry = self.entries.get(self.vpn_of(vaddr))
        if entry is None:
            raise SegmentationFault(
                f"pid {self.pid}: no mapping for vaddr {vaddr:#x}"
            )
        return entry


@dataclass(frozen=True)
class MmuConfig:
    """Hardware MMU parameters.

    ``xlat_stations`` and ``xlat_service_ns`` model the shared datapath
    translation pipeline whose saturation causes the bandwidth taper in
    Figure 7(a): every packet books one station once, so aggregate
    translated bandwidth is bounded by ``stations * packet / service_ns``.
    A card packet is one HBM stripe (``HbmConfig.stripe_bytes``, 4 KiB):
    4 x 4096 B / 100 ns = 163.8 GB/s.  A host packet is 2 KiB
    (``MoverConfig.packet_bytes``, the host link's interleaving
    granularity): 81.9 GB/s, far above the PCIe link it feeds.
    """

    tlb: TlbConfig = TlbConfig()
    xlat_stations: int = 4
    xlat_service_ns: float = 100.0


class Mmu:
    """Per-vFPGA memory management unit (hardware side).

    The driver injects ``walk_fn(pid, vaddr, location, writable)`` which
    performs the host-side walk and any required migration, returning the
    physical address in the requested memory, and ``walk_any_fn(pid,
    vaddr, writable)``, which returns ``(location, paddr)`` wherever the
    page lives.  Both are generators (they run in simulated time).

    A walk that migrates is a process of its own, one per page and
    target memory in flight: a translation that faults the page while
    it migrates, after its own driver walk latency, joins it.  Walks that
    do not migrate go through the miss table (``{vpn: walk}``,
    one process per page in flight): a host request unit starts one with
    :meth:`probe` when its descriptor arrives, and a translation that
    misses joins it instead of walking again.  A walk installs its
    translation only if it is still its page's registered walk, so a
    :meth:`shootdown` or :meth:`flush` that drops it also drops what it
    would have cached.  A translation that misses waits in its caller,
    whether it joined a walk or walks itself: the host path's translation
    stage, one per direction for every tenant, stays parked until then.
    """

    def __init__(
        self,
        env: Environment,
        config: MmuConfig = MmuConfig(),
        name: str = "mmu",
    ):
        self.env = env
        self.config = config
        self.name = name
        self.tlb = Tlb(config.tlb)
        self._xlat = FifoServer(env, servers=config.xlat_stations)
        self._walks: Dict[int, Process] = {}
        #: Migrating walks in flight, by ``(vpn, location)``: a second
        #: fault on the page joins the migration rather than repeating it.
        self._migrating: Dict[Tuple[int, MemLocation], Process] = {}
        self.walk_fn: Optional[Callable] = None
        self.walk_any_fn: Optional[Callable] = None
        self.page_faults = 0
        self.walks = 0

    def bind_driver(self, walk_fn: Callable, walk_any_fn: Optional[Callable] = None) -> None:
        self.walk_fn = walk_fn
        self.walk_any_fn = walk_any_fn

    def _paddr(self, entry: TlbEntry, vaddr: int) -> int:
        return (entry.ppn << self.tlb.page_shift) | self.tlb.offset_of(vaddr)

    def _rejoin(self, vaddr: int) -> Generator:
        """After a TLB miss: join the page's walk in flight (if any)
        and look again.  A generator only on the miss path, so a hit
        costs no frame."""
        walk = self._walks.get(self.tlb.vpn_of(vaddr))
        if walk is None:
            return None
        yield walk
        return self.tlb.lookup(vaddr)

    def translate(
        self,
        pid: int,
        vaddr: int,
        location: MemLocation,
        writable: bool = False,
    ) -> Generator:
        """Translate one packet's address into ``location``; returns the
        physical address.

        Charges the shared translation-pipeline occupancy (taper source)
        plus, on a miss that no walk in flight resolves, the driver walk,
        which migrates the page if it lives elsewhere.
        """
        yield self.env.timeout_at(self._xlat.book(self.config.xlat_service_ns))
        entry = self.tlb.lookup(vaddr)
        if entry is None:
            entry = yield from self._rejoin(vaddr)
        if entry is not None and entry.location is location:
            return self._paddr(entry, vaddr)
        if self.walk_fn is None:
            raise SegmentationFault(f"{self.name}: no driver bound")
        self.walks += 1
        yield self.env.timeout(TLB_MISS_WALK_NS)
        key = (self.tlb.vpn_of(vaddr), location)
        walk = self._migrating.get(key)
        if walk is None:
            # A process, not ``yield from``: it shields a page migration from
            # ``quiesce_region``'s interrupt of the card unit translating here.
            walk = self._migrating[key] = self.env.process(
                self.walk_fn(pid, vaddr, location, writable)
            )
            walk.callbacks.append(lambda _done: self._migrating.pop(key))
        try:
            paddr = yield walk
        except Interrupt:
            # The unit stops, the walk runs on: it caches where the page
            # went, or the TLB would keep the frame the page left.
            walk.callbacks.append(
                lambda done: done.ok and self._fill(vaddr, done.value, location, writable)
            )
            raise
        # The walk gave its first caller's address; a joiner's differs in
        # the page offset only.
        paddr += self.tlb.offset_of(vaddr) - self.tlb.offset_of(paddr)
        self._fill(vaddr, paddr, location, writable)
        return paddr

    def _fill(self, vaddr: int, paddr: int, location: MemLocation, writable: bool) -> None:
        vpn, ppn = self.tlb.vpn_of(vaddr), paddr >> self.tlb.page_shift
        self.tlb.insert(TlbEntry(vpn=vpn, ppn=ppn, location=location, writable=writable))

    def translate_any(self, pid: int, vaddr: int, writable: bool = False) -> Generator:
        """Translate to wherever the page currently lives.

        Returns ``(location, paddr)`` without triggering a migration —
        this is the path that lets the datapath issue direct PCIe
        peer-to-peer transfers to GPU-resident pages.
        """
        yield self.env.timeout_at(self._xlat.book(self.config.xlat_service_ns))
        entry = self.tlb.lookup(vaddr)
        if entry is None:
            entry = yield from self._rejoin(vaddr)
        if entry is None:
            if self.walk_any_fn is None:
                raise SegmentationFault(f"{self.name}: no driver bound")
            entry = yield self._walk_page(pid, vaddr, writable)
            if entry is None:
                raise SegmentationFault(f"pid {pid}: no mapping for vaddr {vaddr:#x}")
        return entry.location, self._paddr(entry, vaddr)

    def probe(self, pid: int, vaddr: int, writable: bool = False) -> None:
        """Walk ahead: if ``vaddr``'s page is not cached, start its walk now.

        A host request unit calls this when it takes a descriptor, so the
        walk overlaps the request's credit wait, arbitration and (for a
        write) the kernel's output; the translation joins it later.  The
        probe books no station, counts no hit or miss and leaves LRU
        order alone, so a workload whose every lookup hits runs exactly
        as it would without it.
        """
        if self.walk_any_fn is not None and self.tlb.probe(vaddr) is None:
            self._walk_page(pid, vaddr, writable)

    def _walk_page(self, pid: int, vaddr: int, writable: bool) -> Process:
        """Start or join the page's walk (no migration).

        The walk returns the :class:`TlbEntry` the driver's page table
        gave, or ``None`` for an unmapped page: a probe ahead of a bad
        address is not an error, the translation that needs it raises.
        """
        vpn = self.tlb.vpn_of(vaddr)
        walk = self._walks.get(vpn)
        if walk is not None:
            return walk

        def walk_page() -> Generator:
            self.walks += 1
            yield self.env.timeout(TLB_MISS_WALK_NS)
            try:
                location, paddr = yield from self.walk_any_fn(pid, vaddr, writable)
            except SegmentationFault:
                location = None
            current = self._walks.get(vpn) is walk
            if current:
                del self._walks[vpn]
            if location is None:
                return None
            entry = TlbEntry(
                vpn=vpn,
                ppn=paddr >> self.tlb.page_shift,
                location=location,
                writable=writable,
            )
            if current:
                self.tlb.insert(entry)
            return entry

        walk = self._walks[vpn] = self.env.process(walk_page(), name="walk")
        return walk

    def prefill(self, vaddr: int, paddr: int, location: MemLocation, writable: bool = True) -> None:
        """Install a translation without a walk (driver-initiated, e.g. getMem)."""
        self._fill(vaddr, paddr, location, writable)

    def pin(self, vaddr: int) -> bool:
        """Pin ``vaddr``'s cached translation against capacity eviction.

        Memory-region registration (:meth:`repro.driver.Driver.register_mr`)
        prefills and then pins every page of the region, so ring-posted
        work hits the TLB without host walks for the MR's lifetime.
        """
        return self.tlb.pin(vaddr)

    def unpin(self, vaddr: int) -> bool:
        return self.tlb.unpin(vaddr)

    def shootdown(self, vaddr: int) -> bool:
        """TLB invalidation (driver-triggered on unmap/migration); a walk
        in flight for the page is dropped and will not install."""
        self._walks.pop(self.tlb.vpn_of(vaddr), None)
        return self.tlb.invalidate(vaddr)

    def flush(self) -> int:
        """Invalidate every cached translation of this vFPGA's tenants.

        Each vFPGA has its own MMU, so a full flush drops exactly the
        recovering region's entries — other tenants' TLBs are untouched.
        Returns the number of entries invalidated.  Walks in flight are
        dropped with them.
        """
        self._walks.clear()
        return self.tlb.invalidate_all()
