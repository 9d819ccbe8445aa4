"""Ring-buffer command path: cmdReqQ/cmdRespQ descriptor rings (paper §6).

Coyote v2's shell is driven the way modern NICs are: software writes
work descriptors into fixed-slot rings living in host memory, then rings
a doorbell CSR; the shell DMA-fetches every new slot in one burst and
writes completions back in batches (blue-rdma's ``Ringbuf`` /
``WorkQueueRingbuf`` layering is the reference implementation).

There is one submit path.  A drained doorbell and a ``CThread.invoke``
both end in the driver's issue routine, which draws work-request ids
from one counter and registers every request in the process's
:class:`RingState` in-flight table; an invoke is a batch of one that
skips the ring slots and the doorbell write.  The completion demux,
the health watchdogs, checkpointing and teardown read that one table.

The model here keeps the ring mechanics honest but foreshortens one
thing: slots are recycled when the doorbell drains them, not when their
completions retire (a real ring frees slots at the consumer index).
Draining at the doorbell keeps head/tail arithmetic observable while
letting the completion side live in :class:`CompletionBatch` — the
batched cmdRespQ writeback that fires **one** event per issued batch
instead of one interrupt per work request.

Ring descriptors never carry raw virtual addresses.  Software first
registers memory regions (:class:`MrTable`, the MTT analogue): a
registration walks and *pins* the region's pages in the vFPGA's TLB, and
every :class:`RingOp` names an ``(mr_key, offset)`` pair that the driver
validates — unknown keys, out-of-bounds slices and writes through
read-only regions all fail with typed errors before any hardware sees
the request.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple

from ..core.interfaces import StreamType
from ..sim.engine import Environment, Event
from .errors import (
    MrError,
    MrKeyError,
    MrBoundsError,
    MrAccessError,
    MrOverlapError,
    RingError,
    RingFullError,
)

__all__ = [
    "DEFAULT_RING_SLOTS",
    "RingOpcode",
    "RingOp",
    "MemoryRegion",
    "MrTable",
    "CommandRing",
    "CompletionBatch",
    "RingState",
]

#: Default cmdReqQ depth; matches a 4 KB ring page of 64-byte descriptors.
DEFAULT_RING_SLOTS = 64


class RingOpcode(Enum):
    """What a ring slot asks the shell to do (subset of ``CoyoteOper``)."""

    READ = "read"  # memory -> vFPGA stream
    WRITE = "write"  # vFPGA stream -> memory
    TRANSFER = "transfer"  # read + write through the kernel


@dataclass
class RingOp:
    """One cmdReqQ slot: an operation phrased against registered MRs.

    ``mr_key``/``offset``/``length`` name the source slice for ``READ``
    and ``TRANSFER`` and the destination slice for ``WRITE``; a
    ``TRANSFER`` additionally names its destination with the ``dst_*``
    fields (``dst_length`` defaults to ``length``, ``dst_mr_key`` to
    ``mr_key``).  ``mr_key`` is ``None`` only for the raw-vaddr ops
    ``invoke`` issues, which never sit in a ring slot.
    """

    opcode: RingOpcode
    mr_key: Optional[int]
    offset: int = 0
    length: int = 0
    stream: StreamType = StreamType.HOST
    dest: int = 0
    dst_mr_key: Optional[int] = None
    dst_offset: int = 0
    dst_length: Optional[int] = None
    dst_stream: StreamType = StreamType.HOST
    dst_dest: int = 0

    @property
    def dst(self) -> Tuple[Optional[int], int]:
        """A ``TRANSFER``'s destination ``(mr_key, length)``, defaults
        applied."""
        return (
            self.mr_key if self.dst_mr_key is None else self.dst_mr_key,
            self.length if self.dst_length is None else self.dst_length,
        )


@dataclass
class MemoryRegion:
    """One MTT entry: a registered, pinned slice of a process's VA space."""

    key: int
    pid: int
    vaddr: int
    length: int
    writable: bool = True
    #: Pages pinned in the vFPGA TLB on behalf of this region (filled in
    #: by the driver once registration completed).
    num_pages: int = 0

    @property
    def end(self) -> int:
        return self.vaddr + self.length


class MrTable:
    """Per-process memory-region table (the driver's MTT shadow).

    Pure bookkeeping — the driver charges registration latency and does
    the page-table walks/TLB pinning; this class owns key allocation,
    overlap rejection and the key -> vaddr resolution ring slots rely on.
    """

    def __init__(self, pid: int):
        self.pid = pid
        self._regions: Dict[int, MemoryRegion] = {}
        self._next_key = 1

    def __len__(self) -> int:
        return len(self._regions)

    def __iter__(self):
        return iter(self._regions.values())

    def _check_range(self, vaddr: int, length: int) -> None:
        if length <= 0:
            raise MrError(f"MR length must be positive, got {length}")
        if vaddr < 0:
            raise MrError(f"MR vaddr must be non-negative, got {vaddr:#x}")
        for mr in self._regions.values():
            if vaddr < mr.end and mr.vaddr < vaddr + length:
                raise MrOverlapError(
                    f"[{vaddr:#x}, {vaddr + length:#x}) overlaps MR key "
                    f"{mr.key} [{mr.vaddr:#x}, {mr.end:#x})"
                )

    def register(self, vaddr: int, length: int, writable: bool = True) -> MemoryRegion:
        self._check_range(vaddr, length)
        mr = MemoryRegion(
            key=self._next_key,
            pid=self.pid,
            vaddr=vaddr,
            length=length,
            writable=writable,
        )
        self._next_key += 1
        self._regions[mr.key] = mr
        return mr

    def restore(
        self, key: int, vaddr: int, length: int, writable: bool = True
    ) -> MemoryRegion:
        """Re-create a region with its *original* key (checkpoint restore).

        Ring descriptors captured in a checkpoint name MR keys, so the
        destination MTT must reproduce the source's key assignment
        exactly; the allocator cursor jumps past restored keys so fresh
        registrations never collide with them.
        """
        if key in self._regions:
            raise MrKeyError(f"pid {self.pid}: MR key {key} already in use")
        if key <= 0:
            raise MrKeyError(f"pid {self.pid}: invalid MR key {key}")
        self._check_range(vaddr, length)
        mr = MemoryRegion(
            key=key, pid=self.pid, vaddr=vaddr, length=length, writable=writable
        )
        self._regions[key] = mr
        self._next_key = max(self._next_key, key + 1)
        return mr

    def lookup(self, key: int) -> MemoryRegion:
        mr = self._regions.get(key)
        if mr is None:
            raise MrKeyError(f"pid {self.pid}: no MR with key {key}")
        return mr

    def resolve(self, key: int, offset: int, length: int, write: bool) -> int:
        """Validate an ``(mr_key, offset, length)`` slice; return its vaddr."""
        mr = self.lookup(key)
        if offset < 0 or offset + length > mr.length:
            raise MrBoundsError(
                f"MR key {key}: slice [{offset}, {offset + length}) outside "
                f"region of {mr.length} bytes"
            )
        if write and not mr.writable:
            raise MrAccessError(f"MR key {key} is registered read-only")
        return mr.vaddr + offset

    def deregister(self, key: int) -> MemoryRegion:
        mr = self._regions.pop(key, None)
        if mr is None:
            raise MrKeyError(f"pid {self.pid}: no MR with key {key}")
        return mr


class CommandRing:
    """A fixed-slot cmdReqQ with head/tail CSR semantics.

    ``tail`` is the software producer index, ``head`` the hardware
    consumer index; both increase monotonically, so ``tail - head`` is
    the occupancy.  :meth:`post` fills the next slot (raising
    :class:`RingFullError` when no slot is free) and :meth:`drain` is
    the doorbell's consumer side: it hands back every posted slot and
    advances ``head`` to ``tail`` in one step.
    """

    def __init__(self, slots: int = DEFAULT_RING_SLOTS):
        if slots <= 0:
            raise RingError(f"ring needs at least one slot, got {slots}")
        self.slots = slots
        self.head = 0
        self.tail = 0
        self._slots: deque = deque()
        self.high_water = 0

    @property
    def occupancy(self) -> int:
        return self.tail - self.head

    @property
    def free(self) -> int:
        return self.slots - self.occupancy

    def post(self, entry) -> int:
        """Fill the next free slot; returns the slot's absolute index."""
        if self.occupancy >= self.slots:
            raise RingFullError(
                f"ring full: {self.slots} slots posted since the last doorbell"
            )
        index = self.tail
        self._slots.append(entry)
        self.tail += 1
        self.high_water = max(self.high_water, self.occupancy)
        return index

    def drain(self) -> List:
        """Doorbell consumer side: take every new slot, advance head."""
        batch = list(self._slots)
        self._slots.clear()
        self.head = self.tail
        return batch

    def rebase(self, head: int) -> None:
        """Rewind the monotonic indices to a checkpointed ``head`` so a
        restored ring reproduces the source's CSR values exactly; only
        legal on an empty, drained ring (re-posting the checkpointed
        slots then advances ``tail`` to its recorded value)."""
        if self._slots or self.head != self.tail:
            raise RingError("cannot rebase a ring with slots posted")
        if head < 0:
            raise RingError(f"ring head must be non-negative, got {head}")
        self.head = head
        self.tail = head


class CompletionBatch:
    """The cmdRespQ writeback for one issued batch of work requests.

    Each work request registers a *gate* key; the batch's event fires
    exactly once — when the last gate completes — with the list of
    :class:`~repro.core.interfaces.CompletionEntry` values in
    gate-registration order.  That single event is the "one interrupt or
    poll per drain" of the ring ABI; ``invoke`` waits on a batch of one.
    """

    def __init__(self, event: Event, issued_ns: float):
        self.event = event
        #: When the batch was issued; every gate of a batch shares it
        #: (the per-cThread watchdog ages gates by this stamp).
        self.issued_ns = issued_ns
        #: Gate keys ``(write, wr_id)`` in registration order.
        self.keys: List[Tuple[bool, int]] = []
        self._entries: Dict[Tuple[bool, int], object] = {}

    def collect(self, key: Tuple[bool, int], entry) -> bool:
        """Record one gate completion; True once the batch is complete."""
        self._entries[key] = entry
        return len(self._entries) >= len(self.keys)

    def results(self) -> List:
        return [self._entries[key] for key in self.keys]


class RingState:
    """One process's submit state: the in-flight table, plus the command
    ring once ``Driver.setup_rings`` mapped it.

    The table is the *only* record of work the hardware owes this
    process.  A *gate* key is a work request software waits on; an
    *absorb* key is a completion to consume silently (a ``TRANSFER``'s
    read half, or the late completion of a batch its waiter gave up on).
    Both submit paths — a drained doorbell and an ``invoke`` — register
    here, so the completion demux, the watchdogs, checkpointing and
    teardown read one structure.
    """

    def __init__(self, env: Environment):
        self.env = env
        #: The cmdReqQ; ``None`` until ``Driver.setup_rings`` arms it.
        self.cmd: Optional[CommandRing] = None
        self._gates: Dict[Tuple[bool, int], CompletionBatch] = {}
        self._absorbed: Set[Tuple[bool, int]] = set()

    def open_batch(self) -> CompletionBatch:
        return CompletionBatch(Event(self.env), self.env.now)

    def gate(self, batch: CompletionBatch, key: Tuple[bool, int]) -> None:
        batch.keys.append(key)
        self._gates[key] = batch

    def absorb(self, key: Tuple[bool, int]) -> None:
        self._absorbed.add(key)

    def abandon(self, batch: CompletionBatch) -> None:
        """The waiter gave up on ``batch`` (invoke timeout): its late
        completions are absorbed instead of delivered."""
        for key in batch.keys:
            if self._gates.pop(key, None) is not None:
                self._absorbed.add(key)

    @property
    def outstanding(self) -> int:
        """Work requests software is still waiting on."""
        return len(self._gates)

    def __len__(self) -> int:
        """Every completion the table still expects, absorbs included."""
        return len(self._gates) + len(self._absorbed)

    def keys(self) -> List[Tuple[bool, int]]:
        """The awaited ``(write, wr_id)`` keys, sorted."""
        return sorted(self._gates)

    def oldest_issue_ns(self) -> Optional[float]:
        """Issue time of the longest-waiting gate (``None`` when idle)."""
        return min(
            (batch.issued_ns for batch in self._gates.values()), default=None
        )

    def on_completion(self, write: bool, entry) -> None:
        """Route one hardware completion to its batch; a completion
        nobody registered for is dropped."""
        key = (write, entry.wr_id)
        if key in self._absorbed:
            self._absorbed.discard(key)
            return
        batch = self._gates.pop(key, None)
        if batch is not None and batch.collect(key, entry):
            batch.event.succeed(batch.results())

    def fail_all(self, exc: Exception) -> int:
        """Fail every in-flight batch (region recovery / teardown).

        Events are pre-defused because a polling-mode cThread may have no
        waiter attached yet.  Returns the number of *work requests* that
        will never complete.
        """
        failed = len(self._gates)
        for batch in self._gates.values():
            if not batch.event.triggered:
                batch.event.defuse().fail(exc)
        self._gates.clear()
        self._absorbed.clear()
        return failed
