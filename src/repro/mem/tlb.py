"""Set-associative TLB with parameterisable page size, size and ways.

Paper §6.1: "We build upon Coyote's shared virtual memory model, enhancing
it to support arbitrary page sizes, TLB sizes and associativities."  The TLB
lives in on-chip SRAM (fast hit path); misses fall back to the host-side
driver (see :mod:`repro.mem.mmu`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict, Optional

__all__ = ["MemLocation", "TlbEntry", "Tlb", "TlbConfig", "PAGE_4K", "PAGE_2M", "PAGE_1G"]

PAGE_4K = 4 * 1024
PAGE_2M = 2 * 1024 * 1024
PAGE_1G = 1024 * 1024 * 1024


class MemLocation(Enum):
    """Which physical memory a page currently resides in.

    ``GPU`` is the shared-virtual-memory extension of paper §6.1: an
    external contribution extended the MMU to GPU memory, enabling direct
    FPGA<->GPU data movement (PCIe peer-to-peer) with no host involvement.
    """

    HOST = "host"
    CARD = "card"
    GPU = "gpu"


@dataclass(frozen=True)
class TlbEntry:
    """A cached translation: virtual page -> (physical page, location).

    ``pinned`` entries back registered memory regions (see
    :mod:`repro.driver.ringbuf`): capacity eviction passes over them, so
    ring-posted work never takes a TLB-miss walk on MR pages.  Explicit
    invalidation (shootdown on unmap/migration) still removes them —
    pinning protects against *eviction*, not against the driver changing
    the mapping.
    """

    vpn: int
    ppn: int
    location: MemLocation
    writable: bool = True
    pinned: bool = False


@dataclass(frozen=True)
class TlbConfig:
    """TLB geometry.  Defaults mirror the paper's 2 MB-page configuration."""

    page_size: int = PAGE_2M
    num_entries: int = 512
    associativity: int = 4

    def __post_init__(self) -> None:
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ValueError("page_size must be a positive power of two")
        if self.num_entries <= 0:
            raise ValueError("num_entries must be positive")
        if self.associativity <= 0:
            raise ValueError("associativity must be positive")
        if self.num_entries % self.associativity:
            raise ValueError("num_entries must be divisible by associativity")

    @property
    def num_sets(self) -> int:
        return self.num_entries // self.associativity

    @property
    def page_shift(self) -> int:
        return self.page_size.bit_length() - 1


class Tlb:
    """LRU set-associative translation cache.

    Pure data structure: timing (hit latency, miss penalty) is charged by
    the MMU, keeping this reusable in untimed contexts (driver unit tests).
    """

    def __init__(self, config: TlbConfig = TlbConfig()):
        self.config = config
        #: ``config.page_shift`` and the in-page offset mask, as plain
        #: ints: every translation reads them.
        self.page_shift = config.page_shift
        self.offset_mask = config.page_size - 1
        # One ordered dict per set: vpn -> TlbEntry, LRU first.
        self._sets = [OrderedDict() for _ in range(config.num_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.pinned_evictions = 0

    def _set_for(self, vpn: int) -> "OrderedDict[int, TlbEntry]":
        return self._sets[vpn % self.config.num_sets]

    def vpn_of(self, vaddr: int) -> int:
        return vaddr >> self.page_shift

    def offset_of(self, vaddr: int) -> int:
        return vaddr & self.offset_mask

    def lookup(self, vaddr: int) -> Optional[TlbEntry]:
        vpn = self.vpn_of(vaddr)
        entries = self._set_for(vpn)
        entry = entries.get(vpn)
        if entry is None:
            self.misses += 1
            return None
        entries.move_to_end(vpn)  # refresh LRU position
        self.hits += 1
        return entry

    def probe(self, vaddr: int) -> Optional[TlbEntry]:
        """The entry caching ``vaddr``, if resident, seen without an
        access: no hit or miss is counted and LRU order is untouched."""
        vpn = self.vpn_of(vaddr)
        return self._set_for(vpn).get(vpn)

    def insert(self, entry: TlbEntry) -> Optional[TlbEntry]:
        """Insert a translation; returns the evicted entry, if any.

        The victim is the LRU *unpinned* entry of the set; only when the
        whole set is pinned does the LRU pinned entry go (counted in
        ``pinned_evictions`` — an over-registered set, worth surfacing).
        Re-inserting a pinned vpn (e.g. a walk refreshing the
        translation) keeps the pin.
        """
        entries = self._set_for(entry.vpn)
        existing = entries.get(entry.vpn)
        if existing is not None and existing.pinned and not entry.pinned:
            entry = replace(entry, pinned=True)
        evicted = None
        if existing is None and len(entries) >= self.config.associativity:
            victim_vpn = next(
                (vpn for vpn, e in entries.items() if not e.pinned), None
            )
            if victim_vpn is None:
                victim_vpn = next(iter(entries))  # all pinned: LRU pinned goes
                self.pinned_evictions += 1
            evicted = entries.pop(victim_vpn)
            self.evictions += 1
        entries[entry.vpn] = entry
        entries.move_to_end(entry.vpn)
        return evicted

    def pin(self, vaddr: int) -> bool:
        """Pin the entry caching ``vaddr``; False if none is resident."""
        vpn = self.vpn_of(vaddr)
        entries = self._set_for(vpn)
        entry = entries.get(vpn)
        if entry is None:
            return False
        if not entry.pinned:
            entries[vpn] = replace(entry, pinned=True)
        return True

    def unpin(self, vaddr: int) -> bool:
        vpn = self.vpn_of(vaddr)
        entries = self._set_for(vpn)
        entry = entries.get(vpn)
        if entry is None:
            return False
        if entry.pinned:
            entries[vpn] = replace(entry, pinned=False)
        return True

    def invalidate(self, vaddr: int) -> bool:
        vpn = self.vpn_of(vaddr)
        return self._set_for(vpn).pop(vpn, None) is not None

    def invalidate_all(self) -> int:
        """Full flush (tenant recovery / context wipe); returns entries dropped."""
        dropped = self.occupancy
        for entries in self._sets:
            entries.clear()
        return dropped

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    @property
    def pinned_occupancy(self) -> int:
        return sum(1 for s in self._sets for e in s.values() if e.pinned)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
