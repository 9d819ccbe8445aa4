"""Virtual- and physical-memory allocators used by the driver.

``getMem({Alloc::HPF, 4096})`` in the paper's Code 1 lands here: the driver
hands out process-virtual buffers backed by host page frames (regular 4 KB
pages, 2 MB transparent huge pages, or explicit 2 MB / 1 GB huge pages) and
registers the mappings with the MMU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Set

from .tlb import PAGE_1G, PAGE_2M, PAGE_4K

__all__ = ["AllocType", "Allocation", "VirtualAllocator", "FrameAllocator", "OutOfMemoryError"]


class OutOfMemoryError(Exception):
    """No free frames left in the requested physical memory."""


class AllocType(Enum):
    """Page backing requested for an allocation (paper's ``CoyoteAlloc``)."""

    REG = PAGE_4K  # regular pages
    THP = PAGE_2M  # transparent huge pages
    HPF = PAGE_2M  # explicit huge pages
    HPF1G = PAGE_1G  # 1 GB huge pages (paper §6.1 highlights these)

    @property
    def page_size(self) -> int:
        return self.value


@dataclass(frozen=True)
class Allocation:
    """A virtual buffer: base address, length and its backing page size."""

    vaddr: int
    length: int
    alloc_type: AllocType

    @property
    def page_size(self) -> int:
        return self.alloc_type.page_size

    @property
    def num_pages(self) -> int:
        return -(-self.length // self.page_size)

    @property
    def end(self) -> int:
        return self.vaddr + self.length


class VirtualAllocator:
    """Bump allocator over a process virtual address space.

    Buffers are aligned to their page size, so a buffer never shares a page
    with another buffer — matching the driver's behaviour where ``getMem``
    maps whole pages.
    """

    #: Start user mappings well above zero so address 0 stays invalid.
    BASE = 0x10_0000_0000

    def __init__(self, base: int = BASE):
        self._next = base
        self.allocations: List[Allocation] = []

    def allocate(self, length: int, alloc_type: AllocType = AllocType.HPF) -> Allocation:
        if length <= 0:
            raise ValueError("allocation length must be positive")
        page = alloc_type.page_size
        vaddr = -(-self._next // page) * page
        alloc = Allocation(vaddr=vaddr, length=length, alloc_type=alloc_type)
        self._next = vaddr + alloc.num_pages * page
        self.allocations.append(alloc)
        return alloc

    def allocate_at(self, vaddr: int, length: int, alloc_type: AllocType = AllocType.HPF) -> Allocation:
        """Reserve a buffer at a *fixed* virtual address (checkpoint
        restore: the destination must reproduce the source's layout so
        registered MRs and undrained ring slots stay valid verbatim).

        The address must be page-aligned and must not overlap any live
        allocation; the bump pointer advances past it so later
        :meth:`allocate` calls never collide with restored buffers.
        """
        if length <= 0:
            raise ValueError("allocation length must be positive")
        page = alloc_type.page_size
        if vaddr % page:
            raise ValueError(f"restore address {vaddr:#x} not {page}-byte aligned")
        alloc = Allocation(vaddr=vaddr, length=length, alloc_type=alloc_type)
        end = vaddr + alloc.num_pages * page
        for live in self.allocations:
            live_end = live.vaddr + live.num_pages * live.page_size
            if vaddr < live_end and live.vaddr < end:
                raise ValueError(
                    f"restore range [{vaddr:#x}, {end:#x}) overlaps live "
                    f"allocation at {live.vaddr:#x}"
                )
        self._next = max(self._next, end)
        self.allocations.append(alloc)
        return alloc

    def free(self, alloc: Allocation) -> None:
        try:
            self.allocations.remove(alloc)
        except ValueError:
            raise KeyError(f"allocation at {alloc.vaddr:#x} not found")

    def find(self, vaddr: int) -> Allocation:
        for alloc in self.allocations:
            if alloc.vaddr <= vaddr < alloc.end:
                return alloc
        raise KeyError(f"no allocation covers {vaddr:#x}")


class FrameAllocator:
    """Allocator of physical page frames for one memory.

    Frames never handed out are a counter, not a list: ``allocate`` reuses
    the most recently freed frame, else takes frame ``_next`` — the order
    a stack of all frames, lowest on top, would give.
    """

    def __init__(self, total_bytes: int, frame_size: int, name: str = "frames"):
        if frame_size <= 0 or total_bytes < frame_size:
            raise ValueError("invalid frame allocator geometry")
        self.name = name
        self.frame_size = frame_size
        self.num_frames = total_bytes // frame_size
        self._next = 0  # every frame at or above this was never allocated
        self._free: List[int] = []  # freed frames, reused last-in first-out
        self._used: Set[int] = set()

    def allocate(self) -> int:
        """Return the physical base address of a free frame."""
        if self._free:
            frame = self._free.pop()
        elif self._next < self.num_frames:
            frame = self._next
            self._next += 1
        else:
            raise OutOfMemoryError(f"{self.name}: out of {self.frame_size}-byte frames")
        self._used.add(frame)
        return frame * self.frame_size

    def free(self, paddr: int) -> None:
        frame, rem = divmod(paddr, self.frame_size)
        if rem:
            raise ValueError(f"{paddr:#x} is not frame-aligned")
        if frame not in self._used:
            raise ValueError(f"frame at {paddr:#x} is not allocated")
        self._used.discard(frame)
        self._free.append(frame)

    @property
    def frames_free(self) -> int:
        return self.num_frames - len(self._used)

    @property
    def frames_used(self) -> int:
        return len(self._used)
