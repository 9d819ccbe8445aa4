"""The Coyote v2 device driver model (paper §5.2).

"Coyote v2's device driver is a Linux kernel component bridging user
applications in software and in hardware.  It manages the FPGA and its
peripherals, handling memory mappings, dynamic allocations, page faults,
and partial reconfiguration."

This is the host half of the hybrid MMU: it owns the per-process page
tables, services TLB-miss walks and page faults (allocating frames and
migrating pages between host DRAM and card HBM over the migration
channel), demultiplexes completions and interrupts to cThreads, and
implements the reconfiguration ioctls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional

from ..core.bitstream import Bitstream, BitstreamKind
from ..core.interfaces import CompletionEntry, Descriptor
from ..core.reconfig import IcapController, IcapCrcError, ReconfigError
from ..core.shell import Shell
from ..core.vfpga import UserApp
from ..faults.plan import RING_DOORBELL_DROP
from ..faults.retry import RetryPolicy
from ..health.errors import DecoupledError, NodeDownError, QuarantinedError
from ..mem.allocator import Allocation, AllocType, FrameAllocator, VirtualAllocator
from ..mem.mmu import MemLocation, PageTable, PageTableEntry, SegmentationFault
from ..mem.tlb import PAGE_1G, PAGE_2M, PAGE_4K
from ..pcie.xdma import MsiVector
from ..sim.engine import AnyOf, Environment, Event
from ..sim.resources import Store
from .errors import (
    DriverError,
    MrError,
    ProcessClosedError,
    QpOwnerError,
    RingError,
    RingFullError,
    ZeroLengthDescriptorError,
)
from .ringbuf import (
    DEFAULT_RING_SLOTS,
    CommandRing,
    CompletionBatch,
    MemoryRegion,
    MrTable,
    RingOp,
    RingOpcode,
    RingState,
)

__all__ = ["Driver", "ProcessContext", "DriverError"]

#: Cost of the getMem ioctl + mmap per page (host-side bookkeeping).
ALLOC_LATENCY_PER_PAGE_NS = 800.0
#: Cost of registering one page of a memory region (MTT entry + pin).
MR_REGISTER_LATENCY_PER_PAGE_NS = 600.0
#: Fixed page-fault service overhead (interrupt + driver entry), on top of
#: the migration transfer time.
PAGE_FAULT_OVERHEAD_NS = 12_000.0
#: How long the driver waits for RECONFIG_DONE before falling back to
#: polling the ICAP status register (lost-interrupt recovery).
RECONFIG_IRQ_TIMEOUT_NS = 50_000.0
#: Host physical address regions per page size, so frames never collide.
_HOST_REGION_4K = (0x0000_0000, 8 << 30)
_HOST_REGION_2M = (8 << 30, 24 << 30)
_HOST_REGION_1G = (32 << 30, 32 << 30)


@dataclass
class ProcessContext:
    """Driver state for one registered host process (cThread)."""

    pid: int
    vfpga_id: int
    page_table: PageTable
    valloc: VirtualAllocator
    interrupts: Store  # eventfd analogue
    #: The in-flight table every submit registers in (invoke and ring
    #: alike), plus the command ring once ``Driver.setup_rings`` armed it.
    rings: RingState
    allocations: List[Allocation] = field(default_factory=list)
    #: Registered memory regions (the MTT shadow for ring descriptors).
    mrs: Optional[MrTable] = None


class Driver:
    """One driver instance per card (per :class:`Shell`)."""

    def __init__(
        self,
        env: Environment,
        shell: Shell,
        retry_policy: RetryPolicy = RetryPolicy(),
    ):
        self.env = env
        self.shell = shell
        self.retry_policy = retry_policy
        self.processes: Dict[int, ProcessContext] = {}
        #: qpn -> the pid that created it (``bind_qp``), until that pid
        #: closes: a verb is posted only by its QP's owner.
        self._qp_owners: Dict[int, int] = {}
        # Host frame allocators per page size.
        self._host_frames = {
            PAGE_4K: FrameAllocator(_HOST_REGION_4K[1], PAGE_4K, "host-4k"),
            PAGE_2M: FrameAllocator(_HOST_REGION_2M[1], PAGE_2M, "host-2m"),
            PAGE_1G: FrameAllocator(_HOST_REGION_1G[1], PAGE_1G, "host-1g"),
        }
        self._host_base = {
            PAGE_4K: _HOST_REGION_4K[0],
            PAGE_2M: _HOST_REGION_2M[0],
            PAGE_1G: _HOST_REGION_1G[0],
        }
        self._card_frames: Optional[FrameAllocator] = None
        self.gpu = None  # attached via attach_gpu()
        # Registered once: the static layer's XDMA persists across shell
        # swaps, so re-registering in _bind_shell would duplicate handlers.
        self._reconfig_done_waiters: List[Event] = []
        shell.static.xdma.on_interrupt(
            MsiVector.RECONFIG_DONE, self._on_reconfig_done
        )
        shell.static.on_user_interrupt(self._on_user_interrupt)
        self._bind_shell()
        self.page_faults = 0
        self.tlb_walks = 0
        self.migrated_bytes = 0
        self.reconfig_retries = 0
        self.irq_timeouts = 0
        self.invoke_timeouts = 0
        # Ring-ABI counters (read by repro.telemetry.collect as ring.*).
        self.ring_doorbells = 0
        self.ring_doorbells_lost = 0
        self.ring_descriptors = 0
        self.ring_batches = 0
        self.ring_full_stalls = 0
        self.mrs_registered = 0
        self.mrs_deregistered = 0
        self._wr_ids = itertools.count(1)
        #: The AppScheduler driving each region, by vFPGA id; they
        #: register themselves, at most one per region.
        self.schedulers: Dict[int, object] = {}
        #: Per-region completions demuxed to software — a forward-progress
        #: signal the health watchdogs sample.
        self.completions_delivered: Dict[int, int] = {}
        #: Attached :class:`repro.health.HealthMonitor` (or ``None``).
        self.health = None
        #: Lazily created :class:`repro.health.RecoveryManager`.
        self.recovery = None
        #: Regions with a PR in flight (watchdogs must not judge them).
        self._reconfiguring: Dict[int, int] = {}
        #: Cluster scope (set by :class:`repro.cluster.FpgaCluster`): this
        #: card's node index, whether the node is currently down (crashed
        #: or declared dead — all new work is rejected with
        #: :class:`repro.health.NodeDownError`), and the attached
        #: :class:`repro.health.ClusterMonitor`, if any.
        self.node_index: Optional[int] = None
        self.node_down = False
        self.cluster_health = None

    def attach_scheduler(self, scheduler) -> None:
        """Register the :class:`repro.api.AppScheduler` of one region."""
        if scheduler.vfpga_id in self.schedulers:
            raise DriverError(f"vFPGA {scheduler.vfpga_id} already has a scheduler")
        self.schedulers[scheduler.vfpga_id] = scheduler

    def attach_health(self, monitor) -> None:
        """Register the card's :class:`repro.health.HealthMonitor`."""
        self.health = monitor

    def attach_gpu(self, gpu) -> None:
        """Register a GPU as a shared-virtual-memory target (§6.1)."""
        if gpu.config.page_size != self.shell.config.services.mmu.tlb.page_size:
            raise DriverError(
                "GPU page size must match the shell MMU page size for SVM"
            )
        self.gpu = gpu
        self.shell.dynamic.host_mover.gpu = gpu

    # ---------------------------------------------------------------- wiring

    def _bind_shell(self) -> None:
        """Bind what a shell swap re-instantiates to the (new) shell: MMU
        walk callbacks, the card allocator, the GPU hook and the
        completion demux of each region's fresh queues."""
        page = self.shell.config.services.mmu.tlb.page_size
        walk, walk_any = self._make_walk_fn(), self._make_walk_any_fn()
        for mmu in self.shell.dynamic.mmus.values():
            mmu.bind_driver(walk, walk_any)
        if self.shell.dynamic.hbm is not None:
            hbm = self.shell.dynamic.hbm
            usable = hbm.config.total_bytes - (64 << 20)  # minus sniffer region
            frame = max(page, PAGE_2M) if page <= PAGE_2M else page
            self._card_frames = FrameAllocator(usable, frame, "card")
        if self.gpu is not None:
            self.shell.dynamic.host_mover.gpu = self.gpu
        for vfpga in self.shell.vfpgas:
            self.env.process(
                self._cq_demux(vfpga.cq_rd, write=False),
                name=f"drv-cq-rd-{vfpga.vfpga_id}",
            )
            self.env.process(
                self._cq_demux(vfpga.cq_wr, write=True),
                name=f"drv-cq-wr-{vfpga.vfpga_id}",
            )

    def _cq_demux(self, queue: Store, write: bool) -> Generator:
        while True:
            entry: CompletionEntry = yield queue.get()
            self.completions_delivered[entry.vfpga_id] = (
                self.completions_delivered.get(entry.vfpga_id, 0) + 1
            )
            ctx = self.processes.get(entry.pid)
            if ctx is not None:  # else: completion for an exited process
                ctx.rings.on_completion(write, entry)

    def _on_reconfig_done(self, value: int) -> None:
        waiters, self._reconfig_done_waiters = self._reconfig_done_waiters, []
        for event in waiters:
            # A waiter can already be triggered when the MSI-X message
            # arrives late: its reconfigure timed out, fell back to the
            # status poll, and a later attempt re-raised the interrupt
            # while the stale event still sat in the swapped-in list.
            # succeed() on a triggered event would crash the handler.
            if not event.triggered:
                event.succeed(value)

    def _on_user_interrupt(self, value: int) -> None:
        vfpga_id = value >> 32
        payload = value & 0xFFFFFFFF
        for ctx in self.processes.values():
            if ctx.vfpga_id == vfpga_id:
                ctx.interrupts.put((self.env.now, payload))

    # -------------------------------------------------------------- process

    def open(self, pid: int, vfpga_id: int) -> ProcessContext:
        """Register a cThread with the driver (the char-device ``open``)."""
        if pid in self.processes:
            raise DriverError(f"pid {pid} already registered")
        if not 0 <= vfpga_id < len(self.shell.vfpgas):
            raise DriverError(f"no vFPGA {vfpga_id}")
        page = self.shell.config.services.mmu.tlb.page_size
        ctx = ProcessContext(
            pid=pid,
            vfpga_id=vfpga_id,
            page_table=PageTable(pid, page),
            valloc=VirtualAllocator(),
            interrupts=Store(self.env),
            rings=RingState(self.env),
            mrs=MrTable(pid),
        )
        self.processes[pid] = ctx
        return ctx

    def close(self, pid: int, reason: str = "closed") -> None:
        """Tear down a process context.

        Closing mid-flight must not strand waiters: every in-flight
        batch (an invoke's or a doorbell's) fails with a typed
        :class:`ProcessClosedError` before the pages go away, so a
        cThread closed mid-batch flushes instead of parking forever.
        Registered MRs are dropped (unpinning their TLB entries), the
        QPs it created lose their owner, and all allocations are freed.
        """
        ctx = self.processes.pop(pid, None)
        if ctx is None:
            raise DriverError(f"pid {pid} not registered")
        ctx.rings.fail_all(ProcessClosedError(pid, reason))
        for qpn in [q for q, owner in self._qp_owners.items() if owner == pid]:
            del self._qp_owners[qpn]
        if ctx.mrs is not None:
            for mr in sorted(ctx.mrs, key=lambda m: m.key):
                self._unpin(ctx, self._pages(ctx, mr.vaddr, mr.end))
                self.mrs_deregistered += 1
        for alloc in ctx.allocations:
            self._free_pages(ctx, alloc)

    def _ctx(self, pid: int) -> ProcessContext:
        ctx = self.processes.get(pid)
        if ctx is None:
            raise DriverError(f"pid {pid} not registered with the driver")
        return ctx

    # --------------------------------------------------------------- memory

    def get_mem(self, pid: int, length: int, alloc_type: AllocType = AllocType.HPF) -> Generator:
        """``getMem``: allocate, map, and pre-fill the TLB (paper Code 1)."""
        ctx = self._ctx(pid)
        table_page = ctx.page_table.page_size
        if alloc_type.page_size != table_page:
            raise DriverError(
                f"allocation page size {alloc_type.page_size} does not match "
                f"the shell MMU page size {table_page}; rebuild or "
                f"reconfigure the shell with a matching MMU"
            )
        alloc = ctx.valloc.allocate(length, alloc_type)
        return (yield from self._map_pages(ctx, alloc, MemLocation.HOST))

    def _map_pages(
        self, ctx: ProcessContext, alloc: Allocation, location: MemLocation
    ) -> Generator:
        """Back every page of a fresh allocation with a frame in
        ``location`` (host DRAM, or the attached GPU), map it, pre-fill
        the TLB and charge the ioctl's per-page latency."""
        mmu = self.shell.dynamic.mmus[ctx.vfpga_id]
        size = alloc.page_size
        for page_no in range(alloc.num_pages):
            vaddr = alloc.vaddr + page_no * size
            entry = PageTableEntry(vpn=ctx.page_table.vpn_of(vaddr), location=location)
            if location is MemLocation.GPU:
                paddr = entry.gpu_paddr = self.gpu.allocate_page()
            else:
                paddr = entry.host_paddr = (
                    self._host_base[size] + self._host_frames[size].allocate()
                )
            ctx.page_table.map(entry)
            mmu.prefill(vaddr, paddr, location)
        ctx.allocations.append(alloc)
        yield self.env.timeout(ALLOC_LATENCY_PER_PAGE_NS * alloc.num_pages)
        return alloc

    def free_mem(self, pid: int, alloc: Allocation) -> None:
        ctx = self._ctx(pid)
        ctx.valloc.free(alloc)
        ctx.allocations.remove(alloc)
        self._free_pages(ctx, alloc)

    def _free_pages(self, ctx: ProcessContext, alloc: Allocation) -> None:
        mmu = self.shell.dynamic.mmus.get(ctx.vfpga_id)
        for page_no in range(alloc.num_pages):
            vaddr = alloc.vaddr + page_no * alloc.page_size
            entry = ctx.page_table.unmap(ctx.page_table.vpn_of(vaddr))
            if entry is None:
                continue
            if entry.host_paddr is not None:
                base = self._host_base[alloc.page_size]
                self._host_frames[alloc.page_size].free(entry.host_paddr - base)
            if entry.card_paddr is not None and self._card_frames is not None:
                self._card_frames.free(entry.card_paddr)
            if mmu is not None:
                mmu.shootdown(vaddr)  # TLB invalidation

    # ------------------------------------------------- functional host access

    @staticmethod
    def _page_spans(ctx: ProcessContext, vaddr: int, length: int):
        """Cut ``[vaddr, vaddr + length)`` at page boundaries: one
        ``(address, offset into the range, bytes)`` per page touched."""
        page = ctx.page_table.page_size
        offset = 0
        while offset < length:
            cur = vaddr + offset
            take = min(length - offset, page - (cur & (page - 1)))
            yield cur, offset, take
            offset += take

    def _host_paddr(self, ctx: ProcessContext, vaddr: int) -> int:
        entry = ctx.page_table.walk(vaddr)
        if entry.host_paddr is None:
            raise SegmentationFault(f"page of {vaddr:#x} has no host frame")
        offset = vaddr & (ctx.page_table.page_size - 1)
        return entry.host_paddr + offset

    def write_buffer(self, pid: int, vaddr: int, data: bytes) -> None:
        """Host-software store into a mapped buffer (untimed, CPU-side)."""
        ctx = self._ctx(pid)
        host_mem = self.shell.static.xdma.host_mem
        for cur, offset, take in self._page_spans(ctx, vaddr, len(data)):
            host_mem.write(self._host_paddr(ctx, cur), data[offset : offset + take])

    def read_buffer(self, pid: int, vaddr: int, length: int) -> bytes:
        ctx = self._ctx(pid)
        host_mem = self.shell.static.xdma.host_mem
        return b"".join(
            host_mem.read(self._host_paddr(ctx, cur), take)
            for cur, _offset, take in self._page_spans(ctx, vaddr, length)
        )

    # ----------------------------------------------------- MMU walk service

    def _make_walk_fn(self) -> Callable:
        def walk(pid: int, vaddr: int, location: MemLocation, writable: bool) -> Generator:
            return (yield self.env.process(self._walk(pid, vaddr, location, writable)))

        return walk

    def _make_walk_any_fn(self) -> Callable:
        def walk_any(pid: int, vaddr: int, writable: bool) -> Generator:
            yield self.env.timeout(0)
            ctx = self._ctx(pid)
            self.tlb_walks += 1
            entry = ctx.page_table.walk(vaddr)
            offset = vaddr & (ctx.page_table.page_size - 1)
            return entry.location, entry.paddr_in(entry.location) + offset

        return walk_any

    def _walk(self, pid: int, vaddr: int, location: MemLocation, writable: bool) -> Generator:
        """Host-side page-table walk; migrates on location mismatch."""
        ctx = self._ctx(pid)
        self.tlb_walks += 1
        entry = ctx.page_table.walk(vaddr)  # raises SegmentationFault if unmapped
        if entry.paddr_in(location) is None or entry.location is not location:
            yield self.env.process(self._fault_migrate(ctx, entry, location))
        offset = vaddr & (ctx.page_table.page_size - 1)
        return entry.paddr_in(location) + offset

    def _fault_migrate(self, ctx: ProcessContext, entry: PageTableEntry, to: MemLocation) -> Generator:
        """GPU-style page migration over the XDMA migration channel."""
        self.page_faults += 1
        page = ctx.page_table.page_size
        yield self.env.timeout(PAGE_FAULT_OVERHEAD_NS)
        hbm = self.shell.dynamic.hbm
        xdma = self.shell.static.xdma
        if to is MemLocation.CARD:
            if hbm is None or self._card_frames is None:
                raise DriverError("page fault to card, but shell has no memory service")
            if entry.card_paddr is None:
                entry.card_paddr = self._card_frames.allocate()
            yield self.env.process(xdma.migrate(page, to_card=True))
            hbm.write_now(entry.card_paddr, xdma.host_mem.read(entry.host_paddr, page))
        elif to is MemLocation.GPU:
            if self.gpu is None:
                raise DriverError("page fault to GPU, but no GPU attached")
            if entry.gpu_paddr is None:
                entry.gpu_paddr = self.gpu.allocate_page()
            yield self.env.process(self.gpu.write(
                entry.gpu_paddr, xdma.host_mem.read(entry.host_paddr, page)
            ))
        else:
            if entry.host_paddr is None:
                raise DriverError("page has no host frame to migrate back to")
            if entry.location is MemLocation.GPU and self.gpu is not None:
                data = yield self.env.process(self.gpu.read(entry.gpu_paddr, page))
                xdma.host_mem.write(entry.host_paddr, data)
            else:
                yield self.env.process(xdma.migrate(page, to_card=False))
                if hbm is not None and entry.card_paddr is not None:
                    xdma.host_mem.write(
                        entry.host_paddr, hbm.read_now(entry.card_paddr, page)
                    )
        entry.location = to
        self.migrated_bytes += page

    def offload(self, pid: int, vaddr: int, length: int) -> Generator:
        """Explicit host -> card migration (``LOCAL_OFFLOAD``)."""
        yield self.env.process(self._migrate_range(pid, vaddr, length, MemLocation.CARD))

    def sync(self, pid: int, vaddr: int, length: int) -> Generator:
        """Explicit card -> host migration (``LOCAL_SYNC``)."""
        yield self.env.process(self._migrate_range(pid, vaddr, length, MemLocation.HOST))

    def _migrate_range(self, pid: int, vaddr: int, length: int, to: MemLocation) -> Generator:
        ctx = self._ctx(pid)
        page = ctx.page_table.page_size
        mmu = self.shell.dynamic.mmus[ctx.vfpga_id]
        start = vaddr - (vaddr % page)
        while start < vaddr + length:
            entry = ctx.page_table.walk(start)
            if entry.location is not to:
                yield self.env.process(self._fault_migrate(ctx, entry, to))
                held = mmu.tlb.probe(start)
                mmu.shootdown(start)
                mmu.prefill(start, entry.paddr_in(to), to)
                if held is not None and held.pinned:
                    mmu.pin(start)  # an MR page stays pinned (DESIGN.md "MR lifecycle")
            start += page

    # ---------------------------------------------------------- GPU memory

    def gpu_alloc(self, pid: int, length: int) -> Generator:
        """Allocate a GPU-resident virtual buffer in the process's SVM
        space: vFPGA streams touching it go peer-to-peer, host never
        involved (the §6.1 extension)."""
        if self.gpu is None:
            raise DriverError("no GPU attached to the driver")
        ctx = self._ctx(pid)
        page = ctx.page_table.page_size
        alloc_type = {v.page_size: v for v in AllocType}[page]
        alloc = ctx.valloc.allocate(length, alloc_type)
        return (yield from self._map_pages(ctx, alloc, MemLocation.GPU))

    def gpu_write_buffer(self, pid: int, vaddr: int, data: bytes) -> None:
        """Host-side (cudaMemcpy-style) store into a GPU-resident buffer."""
        ctx = self._ctx(pid)
        for cur, offset, take in self._page_spans(ctx, vaddr, len(data)):
            self.gpu.upload(self._gpu_paddr(ctx, cur), data[offset : offset + take])

    def gpu_read_buffer(self, pid: int, vaddr: int, length: int) -> bytes:
        ctx = self._ctx(pid)
        return b"".join(
            self.gpu.download(self._gpu_paddr(ctx, cur), take)
            for cur, _offset, take in self._page_spans(ctx, vaddr, length)
        )

    def _gpu_paddr(self, ctx: ProcessContext, vaddr: int) -> int:
        entry = ctx.page_table.walk(vaddr)
        if entry.gpu_paddr is None:
            raise DriverError(f"page of {vaddr:#x} has no GPU frame")
        return entry.gpu_paddr + (vaddr & (ctx.page_table.page_size - 1))

    # ----------------------------------------------------- RDMA memory hooks

    def bind_qp(self, pid: int, qpn: int) -> None:
        """Make ``pid`` the QP's owner and route the QP's local memory
        through its MMU context."""
        ctx = self._ctx(pid)
        stack = self.shell.dynamic.rdma
        if stack is None:
            raise DriverError("shell has no RDMA service")
        self._qp_owners[qpn] = pid
        mmu = self.shell.dynamic.mmus[ctx.vfpga_id]
        xdma = self.shell.static.xdma

        def read_local(vaddr: int, length: int) -> Generator:
            paddr = yield from mmu.translate(pid, vaddr, MemLocation.HOST)
            data = yield self.env.process(xdma.read_host(paddr, length, overhead=False))
            return data

        def write_local(vaddr: int, data: Optional[bytes], length: int) -> Generator:
            paddr = yield from mmu.translate(pid, vaddr, MemLocation.HOST, writable=True)
            payload = data if data is not None else bytes(length)
            yield self.env.process(xdma.write_host(paddr, payload, overhead=False))

        stack.bind_qp_memory(qpn, read_local, write_local)

    def check_qp(self, pid: int, qpn: int) -> None:
        """Refuse a verb ``pid`` posts on a QP it does not own."""
        owner = self._qp_owners.get(qpn)
        if owner != pid:
            raise QpOwnerError(pid, qpn, owner)

    # -------------------------------------------------------- reconfiguration

    def reconfigure_shell(
        self,
        bitstream: Bitstream,
        services,
        apps: Optional[List[Optional[UserApp]]] = None,
    ) -> Generator:
        """Full shell swap: card pages home + disk read + copy_to_kernel +
        ICAP + rebind."""
        yield from self._evacuate_card()
        yield self.env.timeout(IcapController.host_overhead_ns(bitstream))
        yield self.env.process(self.shell.reconfigure_shell(bitstream, services, apps))
        self._bind_shell()

    def _evacuate_card(self) -> Generator:
        """No page-table entry outlives the HBM that holds its frame.

        A shell swap re-instantiates the memory service and ``_bind_shell``
        starts a fresh card allocator, so beforehand every card-resident
        page of every open context migrates home (timed like a
        ``LOCAL_SYNC``) and every card frame is returned.
        """
        for ctx in list(self.processes.values()):
            table = ctx.page_table
            on_card = [e for e in table.entries.values() if e.card_paddr is not None]
            for entry in on_card:
                yield from self._migrate_range(
                    ctx.pid, entry.vpn << table.page_shift, 1, MemLocation.HOST
                )
                self._card_frames.free(entry.card_paddr)
                entry.card_paddr = None

    def reconfigure_app(
        self, bitstream: Bitstream, vfpga_id: int, app: UserApp, cached: bool = False
    ) -> Generator:
        """App-only PR.  ``cached`` skips the disk read (paper §9.3: keep
        frequently used bitstreams in memory), paying only the
        copy-to-kernel-space cost — the daemon mode of §9.6 (57 ms).

        A transient ICAP CRC failure (the shell rolls the region back) is
        retried with capped exponential backoff, re-staging the bitstream
        into kernel memory each time; only a failure persisting past
        ``retry_policy.max_retries`` surfaces to the caller.
        """
        self._reconfiguring[vfpga_id] = self._reconfiguring.get(vfpga_id, 0) + 1
        icap = self.shell.static.icap
        try:
            if icap.is_cached(bitstream):
                # Resident in the ICAP's region cache: no host staging at
                # all — the fast path repeated A↔B churn rides on.
                pass
            elif cached:
                mb = bitstream.size_bytes / 1e6
                yield self.env.timeout(mb / 300.0 * 1e9)  # copy_to_kernel only
            else:
                yield self.env.timeout(IcapController.host_overhead_ns(bitstream))
            attempt = 0
            while True:
                try:
                    yield self.env.process(
                        self._reconfigure_app_once(bitstream, vfpga_id, app)
                    )
                    return
                except IcapCrcError:
                    if attempt >= self.retry_policy.max_retries:
                        raise
                    attempt += 1
                    self.reconfig_retries += 1
                    yield from self.retry_policy.sleep(self.env, attempt)
                    # A CRC failure invalidated any cached copy, so the
                    # retry always re-stages into kernel memory.
                    mb = bitstream.size_bytes / 1e6
                    yield self.env.timeout(mb / 300.0 * 1e9)  # re-stage in kernel
        finally:
            # Drop the key with the last reconfiguration, so a region's
            # entry lives only while one is in flight.
            if self._reconfiguring[vfpga_id] == 1:
                del self._reconfiguring[vfpga_id]
            else:
                self._reconfiguring[vfpga_id] -= 1

    def reconfiguring(self, vfpga_id: int) -> bool:
        """Is a partial reconfiguration of this region in flight?  (PR
        stalls the region legitimately; watchdogs skip it.)"""
        return self._reconfiguring.get(vfpga_id, 0) > 0

    def _reconfigure_app_once(
        self, bitstream: Bitstream, vfpga_id: int, app: UserApp
    ) -> Generator:
        """One PR attempt, confirmed by the RECONFIG_DONE interrupt.

        The interrupt normally arrives while the shell call is still in
        flight (zero added latency).  If the MSI-X message was lost, the
        driver times out and falls back to one MMIO poll of the ICAP
        status register — reconfiguration never hangs on a lost interrupt.
        """
        waiter = Event(self.env)
        self._reconfig_done_waiters.append(waiter)
        try:
            yield self.env.process(
                self.shell.reconfigure_app(bitstream, vfpga_id, app)
            )
        except BaseException:
            if waiter in self._reconfig_done_waiters:
                self._reconfig_done_waiters.remove(waiter)
            raise
        if not waiter.triggered:
            yield AnyOf(
                self.env, [waiter, self.env.timeout(RECONFIG_IRQ_TIMEOUT_NS)]
            )
            if not waiter.triggered:
                self.irq_timeouts += 1
                if waiter in self._reconfig_done_waiters:
                    self._reconfig_done_waiters.remove(waiter)
                # Poll the ICAP status register over MMIO instead.
                yield self.env.timeout(
                    self.shell.static.xdma.config.link.mmio_latency_ns
                )

    # --------------------------------------------------------------- ioctls

    def post_descriptor(self, desc: Descriptor, write: bool) -> None:
        """Admit one descriptor and hand it to the shell: a doorbell for
        a single descriptor, with no ring slot behind it.

        Enforces process/vFPGA isolation: a pid may only drive the vFPGA
        it opened, so one tenant cannot queue work (or read completions)
        on another tenant's region.  ``invoke`` issues each of its
        descriptors through here; a ring doorbell is admitted once for
        the whole drain instead.
        """
        ctx = self._ctx(desc.pid)
        if desc.length <= 0:
            # The packetizer emits no packets (and so no last=True, and
            # so no completion) for an empty descriptor; reject it here
            # instead of letting the caller hang on a completion that
            # can never arrive.
            raise ZeroLengthDescriptorError(
                f"pid {desc.pid}: descriptor wr_id={desc.wr_id} has "
                f"length {desc.length}; nothing to transfer"
            )
        self._check_submit(ctx, desc.vfpga_id)
        self.ring_doorbells += 1
        self.ring_descriptors += 1
        self.shell.post_descriptor(desc, write)

    def _check_submit(self, ctx: ProcessContext, vfpga_id: int) -> None:
        """The isolation/health gate every doorbell passes."""
        if ctx.vfpga_id != vfpga_id:
            raise DriverError(
                f"pid {ctx.pid} is bound to vFPGA {ctx.vfpga_id}, "
                f"not {vfpga_id}"
            )
        if self.node_down:
            raise NodeDownError(self.node_index if self.node_index is not None else -1)
        vfpga = self.shell.vfpgas[vfpga_id]
        if vfpga.quarantined:
            raise QuarantinedError(vfpga_id)
        if vfpga.decoupled:
            raise DecoupledError(vfpga_id)
        if self.health is not None:
            self.health.notify_activity()

    # ------------------------------------------------------ rings + MRs

    def setup_rings(self, pid: int, slots: int = DEFAULT_RING_SLOTS) -> RingState:
        """Arm the batched command/completion rings for a process.

        Maps the cmdReqQ/cmdRespQ pages; afterwards :meth:`ring_post` /
        :meth:`ring_doorbell` are live.  Re-arming while slots are posted
        or batches are in flight is refused — the rings are the ABI, not
        a resize-anytime buffer.
        """
        rings = self._ctx(pid).rings
        if (rings.cmd is not None and rings.cmd.occupancy) or rings.outstanding:
            raise RingError(
                f"pid {pid}: cannot re-arm rings with work in flight"
            )
        rings.cmd = CommandRing(slots)
        return rings

    def register_mr(
        self, pid: int, vaddr: int, length: int, writable: bool = True
    ) -> Generator:
        """Register a memory region: MTT entry + per-page TLB pinning.

        Walks every page of ``[vaddr, vaddr+length)`` in the process's
        page table (raising :class:`~repro.mem.mmu.SegmentationFault` on
        unmapped pages — registration never succeeds partially) and pins
        the translations in the vFPGA's TLB, then charges the ioctl
        latency.  Returns the :class:`~repro.driver.ringbuf.MemoryRegion`
        whose ``key`` ring descriptors use in place of raw vaddrs.
        """
        ctx = self._ctx(pid)
        mr = ctx.mrs.register(vaddr, length, writable)
        yield from self._pin_mr_pages(ctx, mr)
        return mr

    def _pin_mr_pages(self, ctx: ProcessContext, mr: MemoryRegion) -> Generator:
        """Walk + TLB-prefill + pin every page of a fresh MTT entry,
        rolling the entry back on an unmapped page; charges the per-page
        registration ioctl latency."""
        mmu = self.shell.dynamic.mmus[ctx.vfpga_id]
        pinned = []
        try:
            for vaddr in self._pages(ctx, mr.vaddr, mr.end):
                entry = ctx.page_table.walk(vaddr)
                mmu.prefill(
                    vaddr, entry.paddr_in(entry.location), entry.location
                )
                mmu.pin(vaddr)
                pinned.append(vaddr)
        except SegmentationFault:
            self._unpin(ctx, pinned)
            ctx.mrs.deregister(mr.key)
            raise
        mr.num_pages = len(pinned)
        self.mrs_registered += 1
        yield self.env.timeout(MR_REGISTER_LATENCY_PER_PAGE_NS * len(pinned))

    @staticmethod
    def _pages(ctx: ProcessContext, vaddr: int, end: int) -> range:
        """Base vaddr of every page ``[vaddr, end)`` touches."""
        page = ctx.page_table.page_size
        return range(vaddr - (vaddr % page), end, page)

    def _unpin(self, ctx: ProcessContext, pages) -> None:
        """Unpin ``pages`` in the process's vFPGA TLB (a shell swap may
        have dropped the MMU; then there is nothing left to unpin)."""
        mmu = self.shell.dynamic.mmus.get(ctx.vfpga_id)
        if mmu is not None:
            for vaddr in pages:
                mmu.unpin(vaddr)

    def deregister_mr(self, pid: int, key: int) -> MemoryRegion:
        """Drop an MR: unpin its pages and retire the MTT entry (untimed)."""
        ctx = self._ctx(pid)
        mr = ctx.mrs.deregister(key)
        self._unpin(ctx, self._pages(ctx, mr.vaddr, mr.end))
        self.mrs_deregistered += 1
        return mr

    # ------------------------------------------------- checkpoint restore

    def restore_mem(
        self, pid: int, vaddr: int, length: int, alloc_type: AllocType
    ) -> Generator:
        """Re-create a checkpointed allocation at its original vaddr.

        Same mapping/TLB-prefill/latency behaviour as :meth:`get_mem`,
        but at a fixed address so MR keys and undrained ring descriptors
        captured on the source resolve unchanged on the destination.
        Pages come up host-resident; a restored tenant's card pages
        re-migrate on demand through the normal fault path.
        """
        ctx = self._ctx(pid)
        if alloc_type.page_size != ctx.page_table.page_size:
            raise DriverError(
                f"restored allocation page size {alloc_type.page_size} does "
                f"not match the shell MMU page size {ctx.page_table.page_size}"
            )
        alloc = ctx.valloc.allocate_at(vaddr, length, alloc_type)
        return (yield from self._map_pages(ctx, alloc, MemLocation.HOST))

    def restore_mr(
        self, pid: int, key: int, vaddr: int, length: int, writable: bool = True
    ) -> Generator:
        """Re-register a checkpointed MR under its *original* key; pages
        are walked, prefetched and pinned exactly as :meth:`register_mr`
        does for a fresh registration."""
        ctx = self._ctx(pid)
        mr = ctx.mrs.restore(key, vaddr, length, writable)
        yield from self._pin_mr_pages(ctx, mr)
        return mr

    def _ring(self, ctx: ProcessContext) -> CommandRing:
        if ctx.rings.cmd is None:
            raise RingError(
                f"pid {ctx.pid}: rings not armed; call setup_rings() first"
            )
        return ctx.rings.cmd

    def ring_post(self, pid: int, op: RingOp) -> int:
        """Fill the next cmdReqQ slot (a host-memory store — untimed).

        The MR slices are validated *now*, software-side, against the
        MTT shadow: unknown keys, out-of-bounds slices, writes through
        read-only regions and empty transfers fail here with typed
        errors, before the slot exists.  Returns the slot index.  A full
        ring raises :class:`RingFullError` (counted in
        ``ring.full_stalls``); the doorbell frees the slots.
        """
        ctx = self._ctx(pid)
        ring = self._ring(ctx)
        transfer = op.opcode is RingOpcode.TRANSFER
        dst_key, dst_length = op.dst
        if op.length <= 0 or (transfer and dst_length <= 0):
            raise ZeroLengthDescriptorError(
                f"pid {pid}: ring {op.opcode.value} op has nothing to "
                f"transfer (length={op.length}, dst_length={dst_length})"
            )
        vaddr = ctx.mrs.resolve(
            op.mr_key, op.offset, op.length, write=op.opcode is RingOpcode.WRITE
        )
        dst_vaddr = None
        if transfer:
            dst_vaddr = ctx.mrs.resolve(
                dst_key, op.dst_offset, dst_length, write=True
            )
        try:
            return ring.post((op, vaddr, dst_vaddr))
        except RingFullError:
            self.ring_full_stalls += 1
            raise

    def ring_doorbell(self, pid: int):
        """Consume the doorbell MMIO write: batch-drain the cmdReqQ.

        Every slot posted since the last doorbell is fetched and issued
        to the shell *in this one call* — the caller pays a single CSR
        write, not one per descriptor.  Returns the batch's completion
        :class:`~repro.sim.engine.Event` (value: the completion entries
        in post order — the batched cmdRespQ writeback), or ``None``
        when the ``ring.doorbell_drop`` fault swallowed the MMIO write;
        the slots then stay pending until software rings again.
        """
        ctx = self._ctx(pid)
        ring = self._ring(ctx)
        self._check_submit(ctx, ctx.vfpga_id)
        self.ring_doorbells += 1
        injector = self.shell.static.xdma.faults
        if injector is not None and injector.fires(RING_DOORBELL_DROP, pid):
            self.ring_doorbells_lost += 1
            return None
        slots = ring.drain()
        if not slots:
            return ctx.rings.open_batch().event.succeed([])
        self.ring_descriptors += len(slots)
        self.ring_batches += 1
        return self._issue(ctx, slots, admitted=True).event

    def _issue(
        self, ctx: ProcessContext, ops, admitted: bool = False
    ) -> CompletionBatch:
        """The one submit routine: turn resolved ops into descriptors.

        ``ops`` are ``(RingOp, vaddr, dst_vaddr)`` triples whose slices
        are already resolved to virtual addresses — drained ring slots,
        or the single raw-vaddr op of an ``invoke``.  Each op draws one
        ``wr_id``; a ``TRANSFER`` is a read and a write descriptor under
        that one id, gated on the write and absorbing the read
        completion.  ``admitted`` says the caller's doorbell already
        passed :meth:`_check_submit` for the whole batch; otherwise every
        descriptor is admitted on its own through
        :meth:`post_descriptor`.  A descriptor the shell cannot serve
        (:class:`~repro.core.interfaces.DescriptorError`) rejects the
        whole batch before anything is posted, and gates are registered
        only once the descriptors are with the shell, so a rejected
        submit leaves nothing behind in the table.
        """
        post = self.shell.post_descriptor if admitted else self.post_descriptor

        def descriptor(wr_id, vaddr, length, stream, dest, mr_key):
            return Descriptor(
                vfpga_id=ctx.vfpga_id,
                pid=ctx.pid,
                vaddr=vaddr,
                length=length,
                stream=stream,
                dest=dest,
                wr_id=wr_id,
                mr_key=mr_key,
            )

        # Build and check every descriptor before any is posted: one the
        # shell cannot serve refuses the whole batch in the caller's
        # frame, and a TRANSFER never runs as a read half alone.
        descs, absorbed, gates = [], [], []
        for op, vaddr, dst_vaddr in ops:
            wr_id = next(self._wr_ids)
            write = op.opcode is RingOpcode.WRITE
            descs.append((
                descriptor(wr_id, vaddr, op.length, op.stream, op.dest, op.mr_key),
                write,
            ))
            if op.opcode is RingOpcode.TRANSFER:
                dst_key, dst_length = op.dst
                descs.append((
                    descriptor(
                        wr_id, dst_vaddr, dst_length, op.dst_stream,
                        op.dst_dest, dst_key,
                    ),
                    True,
                ))
                absorbed.append((False, wr_id))
                write = True
            gates.append((write, wr_id))
        for desc, write in descs:
            self.shell.check_descriptor(desc, write)
            if desc.mr_key is None:
                # A raw vaddr must be mapped now: the shared translation
                # stage that would fault on it later serves every tenant.
                # MR-keyed slices were walked at registration.
                for page in self._pages(ctx, desc.vaddr, desc.vaddr + desc.length):
                    ctx.page_table.walk(page)

        for desc, write in descs:
            post(desc, write)
        batch = ctx.rings.open_batch()
        for key in absorbed:
            ctx.rings.absorb(key)
        for key in gates:
            ctx.rings.gate(batch, key)
        return batch

    # ------------------------------------------------------ health / recovery

    def fail_pending(self, vfpga_id: int, exc: Exception) -> int:
        """Fail every in-flight batch bound to a region.

        Part of the decouple step of recovery: software waiting on work
        the reset wiped gets a typed error instead of hanging forever.
        Returns the number of work requests failed.
        """
        return sum(
            ctx.rings.fail_all(exc)
            for ctx in self.processes.values()
            if ctx.vfpga_id == vfpga_id
        )

    def quiesce_region(self, vfpga_id: int, exc: Exception, drain_ns: float) -> Generator:
        """Stop a region for a reset or a move: pause its scheduler (its
        in-flight request aborts with ``exc``), stop its mover units, then
        wait ``drain_ns`` for packets already in the shared pipeline to
        retire."""
        scheduler = self.schedulers.get(vfpga_id)
        if scheduler is not None:
            scheduler.quiesce(exc)
        for mover in self.shell.dynamic.movers.values():
            mover.quiesce_region(vfpga_id)
        yield self.env.timeout(drain_ns)

    def restart_region(self, vfpga_id: int) -> int:
        """Respawn a quiesced region's mover units with empty queues;
        returns how many queued descriptors they dropped."""
        return sum(
            mover.restart_region(vfpga_id)
            for mover in self.shell.dynamic.movers.values()
        )

    def recover(self, vfpga_id: int, reason: str = "manual") -> Generator:
        """Quiesce, hot-reset, and reprogram one region (the recovery
        pipeline of :mod:`repro.health.recovery`); usable directly or via
        an attached :class:`repro.health.HealthMonitor`."""
        if self.recovery is None:
            from ..health.recovery import RecoveryManager

            self.recovery = RecoveryManager(self)
        yield self.env.process(self.recovery.recover(vfpga_id, reason=reason))
