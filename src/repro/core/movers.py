"""Dynamic-layer data movers: the shared datapaths behind the vFPGAs.

Implements the architecture of paper §6.3/§7.2:

* **Host path** (PCIe, bandwidth-constrained): per-vFPGA request units
  packetize descriptors and acquire credits, a round-robin interleaver
  grants one packet at a time, a translation stage per direction
  translates it (MMU) into a 4-deep staging store, and a DMA engine per
  direction moves it.  Fairness across tenants emerges here (Figure 8).
  A DMA engine is a FIFO server on its link direction driven by its own
  completion timer, not a process: the timer lands one packet and books
  the link for the next staged one.
* **Card path** (HBM, bandwidth-rich): dedicated per-stream workers, no
  interleaving, still credited and MMU-translated.  Parallel workers are
  what make per-vFPGA throughput scale with channels (Figure 7a).

Read credits are released when the vFPGA consumes the deposited flit
(destination-queue crediting); write credits when the packet's write
completes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Generator, List, Optional, Tuple

from ..axi.types import Flit
from ..mem.hbm import HbmController
from ..mem.mmu import MemLocation, Mmu
from ..pcie.xdma import Xdma
from ..sim.engine import Environment, Event
from ..sim.resources import Store
from .arbiter import RoundRobinArbiter
from .interfaces import CompletionEntry, Descriptor, StreamType
from .packetizer import Packet, Packetizer
from .vfpga import VFpga

__all__ = ["HostDataMover", "CardDataMover", "MoverConfig"]

# Per-packet code reads these module globals, and calls positionally: on
# CPython 3.11 an Enum member looked up on its class is a metaclass call,
# and a call with keywords takes the slow path.
_HOST, _CARD, _GPU = MemLocation.HOST, MemLocation.CARD, MemLocation.GPU


@dataclass(frozen=True)
class MoverConfig:
    #: The host link's interleaving granularity: a host packet is
    #: 2 KiB, the size that won the host sweep of
    #: ``repro.experiments.ablations.run_ablation_packet_size`` (best
    #: single-tenant throughput, finest round-robin grain that costs no
    #: bandwidth).  A card packet is one HBM stripe
    #: (``HbmConfig.stripe_bytes``, 4 KiB) — one translation and one
    #: channel booking — and is derived by :class:`CardDataMover`, not
    #: set here.
    packet_bytes: int = 2048
    writeback: bool = True  # completion writeback vs host polling
    carry_data: bool = True  # move real payload bytes (False: timing only)


class _FlitAssembler:
    """Reassembles a flit stream into arbitrary-sized byte chunks.

    Tracks payload bytes and byte counts separately so timing-only flits
    (``data is None``) interoperate: a chunk's data is returned only when
    every contributing byte was real, otherwise ``None``.  Payloads are
    staged as they came, so a flit that is exactly the next chunk is
    handed through uncopied.
    """

    def __init__(self) -> None:
        self.available = 0
        self._data: Deque[bytes] = deque()
        self._all_real = True

    def push(self, flit: Flit) -> None:
        self.available += flit.length
        if flit.data is not None:
            self._data.append(flit.data)
        else:
            self._all_real = False

    def take(self, length: int):
        if length > self.available:
            raise ValueError("taking more bytes than assembled")
        self.available -= length
        parts = self._data
        if self._all_real and parts and len(parts[0]) == length:
            return parts.popleft()
        staged = b"".join(parts)
        parts.clear()
        if len(staged) > length:
            parts.append(staged[length:])
        if self._all_real and len(staged) >= length:
            return staged[:length]
        # Mixed or timing-only stream: the chunk's real bytes are dropped.
        if self.available == 0 and not parts:
            self._all_real = True  # stream boundary: reset for next run
        return None


class _Region:
    """One registered vFPGA as a mover holds it.

    ``procs`` are the region's relay and unit processes and ``lanes`` its
    ``(dispatch queue, per-stream queues)`` for reads and for writes,
    indexed by ``write``: both tenant-side, rebuilt empty by every
    :meth:`_DataMover._spawn_region`.  ``ports`` is the host path's
    ``(read, write)`` arbiter ports, added on first use: the fabric is
    shared, so they outlive a region restart.  ``credits`` is the
    region's ``(read, write)`` crediters of the mover's stream kind and
    ``writebacks`` the names of its ``(read, write)`` completion
    writeback counters, both made once here rather than per packet.
    """

    __slots__ = ("vfpga", "mmu", "procs", "lanes", "ports", "credits", "writebacks")

    def __init__(self, vfpga: VFpga, mmu: Mmu, kind: StreamType):
        self.vfpga = vfpga
        self.mmu = mmu
        self.credits = (vfpga.rd_credits[kind], vfpga.wr_credits[kind])
        prefix = f"v{vfpga.vfpga_id}-{kind.value}"
        self.writebacks = (f"{prefix}-rd", f"{prefix}-wr")
        self.procs: List = []
        self.lanes: List[Tuple] = []
        self.ports: Optional[Tuple] = None


class _DataMover:
    """What the host and card datapaths share, per stream kind.

    Per region (vFPGA) and direction there is one dispatch queue — where
    the shell's checked door puts each descriptor — a relay that
    fans them out by ``dest``, and one unit per parallel stream.  The
    subclasses supply the units (:meth:`_rd_unit` / :meth:`_wr_unit`);
    registration, the relay, completion bookkeeping and the health
    pipeline's quiesce/restart live here.
    """

    #: The stream kind served; names the region's processes.
    stream: StreamType
    #: Infix of a unit's process name (``v0-host-rd-req3`` / ``v0-card-rd3``).
    unit_tag = ""

    def __init__(
        self, env: Environment, xdma: Xdma, config: MoverConfig, packet_bytes: int
    ):
        self.env = env
        self.xdma = xdma  # the card path uses it for writeback only
        self.config = config
        self.packetizer = Packetizer(packet_bytes)
        self._regions: Dict[int, _Region] = {}
        self.bytes_read = 0
        self.bytes_written = 0

    def register(self, vfpga: VFpga, mmu: Mmu) -> None:
        if vfpga.vfpga_id in self._regions:
            raise ValueError(f"vFPGA {vfpga.vfpga_id} already registered")
        region = self._regions[vfpga.vfpga_id] = _Region(vfpga, mmu, self.stream)
        self._spawn_region(region)

    def _spawn_region(self, region: _Region) -> None:
        """(Re)create the region's dispatch relays, queues and units.

        Called at registration and again by :meth:`restart_region` after
        a hot-reset; what the fabric shares (the host path's arbiter
        ports) persists, everything tenant-side is rebuilt empty.  One
        unit per parallel stream in each direction, so one thread's slow
        message never blocks another's (cThread independence) and card
        throughput scales with HBM channels.
        """
        vfpga = region.vfpga
        prefix = f"v{vfpga.vfpga_id}-{self.stream.value}"
        lanes, procs = [], []
        for write, direction in enumerate(("rd", "wr")):
            dispatch = Store(self.env)
            queues = [Store(self.env) for _ in vfpga.streams(self.stream, bool(write))]
            lanes.append((dispatch, queues))
            procs.append(self.env.process(
                self._by_dest(dispatch, queues), name=f"{prefix}-{direction}-disp"
            ))
        for direction, unit, (_dispatch, queues) in zip(
            ("rd", "wr"), (self._rd_unit, self._wr_unit), lanes
        ):
            for dest, queue in enumerate(queues):
                procs.append(self.env.process(
                    unit(region, dest, queue),
                    name=f"{prefix}-{direction}{self.unit_tag}{dest}",
                ))
        region.procs = procs
        region.lanes = lanes

    def num_streams(self, vfpga_id: int, write: bool) -> int:
        """How many parallel streams serve one direction of a region."""
        return len(self._regions[vfpga_id].lanes[write][1])

    def dispatch_queue(self, vfpga_id: int, write: bool) -> Store:
        """Where ``Shell.post_descriptor`` puts a region's descriptors."""
        return self._regions[vfpga_id].lanes[write][0]

    @staticmethod
    def _by_dest(source: Store, queues: List[Store]) -> Generator:
        # ``dest`` was range-checked at Shell.post_descriptor.
        while True:
            desc = yield source.get()
            yield queues[desc.dest].put(desc)

    def _complete(self, region: _Region, packet: Packet, write: bool) -> None:
        """Completion bookkeeping: CQ entry + posted writeback.  Nothing
        here waits, so the calling unit goes straight to its next packet."""
        desc = packet.descriptor
        vfpga = region.vfpga
        entry = CompletionEntry(
            vfpga_id=desc.vfpga_id,
            pid=desc.pid,
            wr_id=desc.wr_id,
            length=desc.length,
            stream=desc.stream,
            dest=desc.dest,
            timestamp_ns=self.env.now,
        )
        (vfpga.cq_wr if write else vfpga.cq_rd).put(entry)
        if self.config.writeback:
            self.xdma.writeback(region.writebacks[write])

    # ------------------------------------- health recovery: quiesce/restart

    def quiesce_region(self, vfpga_id: int) -> None:
        """Stop the region's request units so no new packets enter the
        shared pipeline; packets already admitted drain normally."""
        for proc in self._regions[vfpga_id].procs:
            if proc.is_alive:
                # Nothing awaits mover workers; defuse so the interrupt
                # is a clean stop, not an unhandled simulation failure.
                proc.defuse()
                proc.interrupt("region reset")

    def restart_region(self, vfpga_id: int) -> int:
        """Respawn the region's units with empty queues (post hot-reset).

        Returns the number of queued descriptors discarded with the old
        queues.
        """
        region = self._regions[vfpga_id]
        dropped = sum(
            len(dispatch) + sum(len(queue) for queue in queues)
            for dispatch, queues in region.lanes
        )
        self._spawn_region(region)
        return dropped


class _Deposit:
    """Where a host read packet's flit lands once its stream's bus has
    carried it, and where a last packet completes.  One in flight is a
    bare timer, which the profilers book by its callback owner's
    ``name`` (DESIGN.md "Names the benchmark depends on")."""

    __slots__ = ("mover",)
    name = "_deposit"

    def __init__(self, mover: HostDataMover):
        self.mover = mover

    def land(self, event: Event) -> None:
        stream, region, packet, flit = event.value
        stream.deposit(flit)
        if packet.last:
            self.mover._complete(region, packet, write=False)


class _DmaEngine:
    """One direction of the host path's DMA: a FIFO server on its PCIe
    link direction (or the GPU's P2P port), fed by the 4-deep staging
    store its translation stage fills, and driven by its own completion
    timer rather than a process.

    Taking a staged packet books the link at once and arms one timer at
    the transfer's finish.  The timer's callback lands the packet
    (:meth:`_land`), then takes the next staged packet with ``try_get``
    and books it: a backlogged engine costs one event per packet.  An
    idle engine waits on a ``get`` of the store.  In-flight accounting
    on the link counts up at the booking and down in the callback.

    ``name`` is what the profilers book the timers by (DESIGN.md "Names
    the benchmark depends on").
    """

    __slots__ = ("mover", "name", "staged")

    def __init__(self, mover: HostDataMover, name: str, staged: Store):
        self.mover = mover
        self.name = name
        self.staged = staged
        staged.get().callbacks.append(self._take)

    def _take(self, event: Event) -> None:
        self._start(event.value)

    def _landed(self, event: Event) -> None:
        self._land(event.value)
        item = self.staged.try_get()
        if item is None:
            self.staged.get().callbacks.append(self._take)
        else:
            self._start(item)

    def _start(self, item: Tuple) -> None:
        raise NotImplementedError

    def _land(self, item: Tuple) -> None:
        raise NotImplementedError


class _ReadDma(_DmaEngine):
    """H2C: a staged ``(packet, region, location, paddr)`` is read from
    host memory (or a GPU peer-to-peer), and its flit booked onto the
    destination stream's bus; the deposit timer lands it."""

    __slots__ = ()

    def _start(self, item: Tuple) -> None:
        packet, _region, location, paddr = item
        mover = self.mover
        if location is _GPU:
            finish = mover.gpu.book(packet.length)
        else:
            finish = mover.xdma.link.book("h2c", packet.length, False)
        mover.env.timeout_at(finish, item).callbacks.append(self._landed)

    def _land(self, item: Tuple) -> None:
        packet, region, location, paddr = item
        mover = self.mover
        length = packet.length
        if location is _GPU:
            data = mover.gpu.land_read(paddr, length)
        else:
            xdma = mover.xdma
            xdma.link.land("h2c", length)
            data = xdma.host_mem.read(paddr, length)
        mover.bytes_read += length
        dest = packet.descriptor.dest
        flit = Flit(length, data if mover.config.carry_data else None, dest, 0, packet.last)
        # Credits guarantee FIFO space, so the deposit happens on the
        # (parallel) crossbar without holding up the DMA engine: one
        # timer, due when the stream's bus has carried the flit, whose
        # booking keeps the stream's flits in order.
        stream = region.vfpga.host_in[dest]
        mover.env.timeout_at(
            stream.book(flit), (stream, region, packet, flit)
        ).callbacks.append(mover._deposit.land)


class _WriteDma(_DmaEngine):
    """C2H: a staged ``((packet, data), region, location, paddr)`` is
    written to host memory (or a GPU peer-to-peer); landing releases the
    packet's write credit and completes a last packet."""

    __slots__ = ()

    def _start(self, item: Tuple) -> None:
        (packet, data), _region, location, paddr = item
        mover = self.mover
        if location is _GPU:
            finish = mover.gpu.book(len(data))
        else:
            finish = mover.xdma.link.book("c2h", len(data), False)
        mover.env.timeout_at(finish, item).callbacks.append(self._landed)

    def _land(self, item: Tuple) -> None:
        (packet, data), region, location, paddr = item
        mover = self.mover
        if location is _GPU:
            mover.gpu.land_write(paddr, data)
        else:
            xdma = mover.xdma
            xdma.link.land("c2h", len(data))
            xdma.host_mem.write(paddr, data)
        mover.bytes_written += packet.length
        region.credits[1].release()
        if packet.last:
            mover._complete(region, packet, write=True)


class HostDataMover(_DataMover):
    """Fair, credited host-memory datapath over the XDMA streaming channel."""

    stream = StreamType.HOST
    unit_tag = "-req"

    def __init__(
        self,
        env: Environment,
        xdma: Xdma,
        config: MoverConfig = MoverConfig(),
    ):
        super().__init__(env, xdma, config, config.packet_bytes)
        self._deposit = _Deposit(self)
        self.rd_arbiter = RoundRobinArbiter(env, "host-rd-arb")
        self.wr_arbiter = RoundRobinArbiter(env, "host-wr-arb")
        #: Optional GPU for peer-to-peer transfers to GPU-resident pages
        #: (set by Driver.attach_gpu).
        self.gpu = None
        # Translate/DMA pipeline stages: a translation process per
        # direction feeds its DMA engine's 4-deep staging store.
        self._rd_staged: Store = Store(env, capacity=4)
        self._wr_staged: Store = Store(env, capacity=4)
        env.process(self._translate(False), name="host-rd-xlat")
        env.process(self._translate(True), name="host-wr-xlat")
        self._rd_dma = _ReadDma(self, "host-rd-dma", self._rd_staged)
        self._wr_dma = _WriteDma(self, "host-wr-dma", self._wr_staged)

    def _ports(self, region: _Region) -> Tuple:
        """The region's (read, write) arbiter ports, added on first use."""
        if region.ports is None:
            region.ports = (self.rd_arbiter.add_port(), self.wr_arbiter.add_port())
        return region.ports

    # ---------------------------------------------------- per-vFPGA units

    def _rd_unit(self, region: _Region, dest: int, queue: Store) -> Generator:
        """Probe the MMU for each descriptor's first page (see
        :meth:`_wr_unit`), packetize + credit it, then interleave."""
        mmu = region.mmu
        credits = region.credits[0]
        port = self._ports(region)[0]
        page_size = mmu.tlb.config.page_size
        while True:
            desc = yield queue.get()
            mmu.probe(desc.pid, desc.vaddr)
            for packet in self.packetizer.split(desc, page_size):
                # repro: allow[RES001] split-phase: VFpga.recv releases this credit when the deposited flit is consumed
                yield from credits.acquire()
                yield port.slot()
                port.put(packet)

    def _wr_unit(self, region: _Region, dest: int, queue: Store) -> Generator:
        """Pull data from the vFPGA *before* propagating write packets.

        A descriptor's arrival probes the MMU for its first packet's page,
        so a TLB miss starts its walk while the unit still waits for
        credits and the kernel's output; the write's translation joins
        that walk instead of starting its own after the data.

        The kernel's output flits need not align with packet boundaries
        (e.g. the NN kernel emits one small flit per input chunk), so the
        unit reassembles the byte stream into packet-sized writes.  A
        timing-only packet (or any, without ``carry_data``) writes zeros.
        """
        mmu = region.mmu
        credits = region.credits[1]
        source = region.vfpga.host_out[dest]
        port = self._ports(region)[1]
        page_size = mmu.tlb.config.page_size
        carry_data = self.config.carry_data
        staged = _FlitAssembler()
        while True:
            desc = yield queue.get()
            mmu.probe(desc.pid, desc.vaddr, writable=True)
            for packet in self.packetizer.split(desc, page_size):
                # repro: allow[RES001] split-phase: _WriteDma._land releases this credit when the packet's host write lands
                yield from credits.acquire()
                while staged.available < packet.length:
                    staged.push((yield source.recv()))
                data = staged.take(packet.length)
                if data is None or not carry_data:
                    data = bytes(packet.length)
                yield port.slot()
                port.put((packet, data))

    # ------------------------------------------------------ shared movers

    def _translate(self, writable: bool) -> Generator:
        """One direction's translation stage: per granted packet, the
        location and address of its first byte, into the DMA engine's
        staging store with the packet's region.

        Location-aware: GPU-resident pages are served peer-to-peer;
        card-resident pages (and GPU pages with no GPU attached) migrate
        to host first (a GPU-style fault), host pages go straight to the
        DMA.  The translations run inline in this stage (no process per
        packet); they hold nothing a reset's interrupt could leak (the
        station slot is booked, not granted).
        """
        arbiter = self.wr_arbiter if writable else self.rd_arbiter
        staged = self._wr_staged if writable else self._rd_staged
        regions = self._regions
        while True:
            yield arbiter.token()
            item = arbiter.get()
            packet = item[0] if writable else item
            desc = packet.descriptor
            region = regions[desc.vfpga_id]
            mmu = region.mmu
            location, paddr = yield from mmu.translate_any(desc.pid, packet.vaddr, writable)
            if location is _CARD or (location is _GPU and self.gpu is None):
                paddr = yield from mmu.translate(desc.pid, packet.vaddr, _HOST, writable)
                location = _HOST
            yield staged.put((item, region, location, paddr))


class CardDataMover(_DataMover):
    """Dedicated (uninterleaved) per-stream HBM datapaths (paper §6.3)."""

    stream = StreamType.CARD

    def __init__(
        self,
        env: Environment,
        xdma: Xdma,
        hbm: HbmController,
        config: MoverConfig = MoverConfig(),
    ):
        # A card packet is one HBM stripe: one translation and, for a
        # stripe-aligned buffer, one channel booking.
        super().__init__(env, xdma, config, hbm.config.stripe_bytes)
        self.hbm = hbm

    def _rd_unit(self, region: _Region, dest: int, queue: Store) -> Generator:
        """Per packet: a credit, a translation, an HBM read, then the
        flit handed over on this stream: the kernel waits for it, so the
        FIFO put makes no event of its own and the unit goes on behind
        the kernel's wake (``AxiStream.hand_over``).  Not waiting at all
        (an eventless ``AxiStream.deposit``, as the host read's timer
        does) would run the unit's next steps ahead of the kernel's and
        move Figure 7(a)'s 12-channel cell."""
        vfpga, mmu = region.vfpga, region.mmu
        credits = region.credits[0]
        stream = vfpga.card_in[dest]
        page_size = mmu.tlb.config.page_size
        carry_data = self.config.carry_data
        while True:
            desc = yield queue.get()
            for packet in self.packetizer.split(desc, page_size):
                # repro: allow[RES001] split-phase: VFpga.recv releases this credit when the deposited flit is consumed
                yield from credits.acquire()
                paddr = yield from mmu.translate(desc.pid, packet.vaddr, _CARD)
                data = yield from self.hbm.read(paddr, packet.length)
                self.bytes_read += packet.length
                flit = Flit(packet.length, data if carry_data else None, dest, 0, packet.last)
                yield from stream.hand_over(flit)
                if packet.last:
                    self._complete(region, packet, write=False)

    def _wr_unit(self, region: _Region, dest: int, queue: Store) -> Generator:
        vfpga, mmu = region.vfpga, region.mmu
        source = vfpga.card_out[dest]
        page_size = mmu.tlb.config.page_size
        staged = _FlitAssembler()
        guard = region.credits[1].guard()
        while True:
            desc = yield queue.get()
            for packet in self.packetizer.split(desc, page_size):
                yield from guard.acquire()
                try:
                    while staged.available < packet.length:
                        staged.push((yield source.recv()))
                    payload = staged.take(packet.length)
                    paddr = yield from mmu.translate(desc.pid, packet.vaddr, _CARD, True)
                    data = payload if payload is not None else bytes(packet.length)
                    yield from self.hbm.write(paddr, data)
                    self.bytes_written += packet.length
                finally:
                    # Give the credit back even when a fault or a region
                    # quiesce interrupts the move mid-packet — the leak
                    # class app.wedge_credit chaos probes dynamically.
                    guard.release()
                if packet.last:
                    self._complete(region, packet, write=True)
