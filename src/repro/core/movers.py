"""Dynamic-layer data movers: the shared datapaths behind the vFPGAs.

Implements the architecture of paper §6.3/§7.2:

* **Host path** (PCIe, bandwidth-constrained): per-vFPGA request units
  packetize descriptors and acquire credits, a round-robin interleaver
  grants one packet at a time, and a pipelined mover translates (MMU) and
  DMAs each packet.  Fairness across tenants emerges here (Figure 8).
* **Card path** (HBM, bandwidth-rich): dedicated per-stream workers, no
  interleaving, still credited and MMU-translated.  Parallel workers are
  what make per-vFPGA throughput scale with channels (Figure 7a).

Read credits are released when the vFPGA consumes the deposited flit
(destination-queue crediting); write credits when the packet's write
completes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

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
    every contributing byte was real, otherwise ``None``.
    """

    def __init__(self) -> None:
        self.available = 0
        self._data = bytearray()
        self._all_real = True

    def push(self, flit: Flit) -> None:
        self.available += flit.length
        if flit.data is not None:
            self._data += flit.data
        else:
            self._all_real = False

    def take(self, length: int):
        if length > self.available:
            raise ValueError("taking more bytes than assembled")
        self.available -= length
        if self._all_real and len(self._data) >= length:
            out = bytes(self._data[:length])
            del self._data[:length]
            return out
        # Mixed or timing-only stream: drop any partial payload bytes.
        drop = min(len(self._data), length)
        del self._data[:drop]
        if self.available == 0 and not self._data:
            self._all_real = True  # stream boundary: reset for next run
        return None


class _Region:
    """One registered vFPGA as a mover holds it.

    ``procs`` are the region's relay and unit processes and ``lanes`` its
    ``(dispatch queue, per-stream queues)`` for reads and for writes,
    indexed by ``write``: both tenant-side, rebuilt empty by every
    :meth:`_DataMover._spawn_region`.  ``ports`` is the host path's
    ``(read, write)`` arbiter ports, added on first use: the fabric is
    shared, so they outlive a region restart.
    """

    __slots__ = ("vfpga", "mmu", "procs", "lanes", "ports")

    def __init__(self, vfpga: VFpga, mmu: Mmu):
        self.vfpga = vfpga
        self.mmu = mmu
        self.procs: List = []
        self.lanes: List[Tuple] = []
        self.ports: Optional[Tuple] = None


class _DataMover:
    """What the host and card datapaths share, per stream kind.

    Per region (vFPGA) and direction there is one dispatch queue — where
    the shell's send-queue dispatch hands descriptors — a relay that
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
        region = self._regions[vfpga.vfpga_id] = _Region(vfpga, mmu)
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
        """Where the shell hands a region's checked descriptors."""
        return self._regions[vfpga_id].lanes[write][0]

    @staticmethod
    def _by_dest(source: Store, queues: List[Store]) -> Generator:
        # ``dest`` was range-checked at Shell.post_descriptor.
        while True:
            desc = yield source.get()
            yield queues[desc.dest].put(desc)

    def _complete(self, vfpga: VFpga, packet: Packet, write: bool) -> None:
        """Completion bookkeeping: CQ entry + posted writeback.  Nothing
        here waits, so the calling unit goes straight to its next packet."""
        desc = packet.descriptor
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
            direction = "wr" if write else "rd"
            self.xdma.writeback(f"v{desc.vfpga_id}-{desc.stream.value}-{direction}")

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
        stream, vfpga, packet, flit = event.value
        stream.deposit(flit)
        if packet.last:
            self.mover._complete(vfpga, packet, write=False)


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
        # Translate/DMA pipeline stages.
        self._rd_staged: Store = Store(env, capacity=4)
        self._wr_staged: Store = Store(env, capacity=4)
        env.process(self._rd_translate(), name="host-rd-xlat")
        env.process(self._rd_dma(), name="host-rd-dma")
        env.process(self._wr_translate(), name="host-wr-xlat")
        env.process(self._wr_dma(), name="host-wr-dma")

    def _ports(self, region: _Region) -> Tuple:
        """The region's (read, write) arbiter ports, added on first use."""
        if region.ports is None:
            region.ports = (self.rd_arbiter.add_port(), self.wr_arbiter.add_port())
        return region.ports

    # ---------------------------------------------------- per-vFPGA units

    def _rd_unit(self, region: _Region, dest: int, queue: Store) -> Generator:
        """Probe the MMU for each descriptor's first page (see
        :meth:`_wr_unit`), packetize + credit it, then interleave."""
        vfpga = region.vfpga
        port = self._ports(region)[0]
        while True:
            desc = yield queue.get()
            region.mmu.probe(desc.pid, desc.vaddr)
            for packet in self.packetizer.split(desc, region.mmu.tlb.config.page_size):
                # repro: allow[RES001] split-phase: VFpga.recv releases this credit when the deposited flit is consumed
                yield from vfpga.rd_credits[StreamType.HOST].acquire()
                yield from port.put(packet)

    def _wr_unit(self, region: _Region, dest: int, queue: Store) -> Generator:
        """Pull data from the vFPGA *before* propagating write packets.

        A descriptor's arrival probes the MMU for its first packet's page,
        so a TLB miss starts its walk while the unit still waits for
        credits and the kernel's output; the write's translation joins
        that walk instead of starting its own after the data.

        The kernel's output flits need not align with packet boundaries
        (e.g. the NN kernel emits one small flit per input chunk), so the
        unit reassembles the byte stream into packet-sized writes.
        """
        vfpga = region.vfpga
        port = self._ports(region)[1]
        staged = _FlitAssembler()
        while True:
            desc = yield queue.get()
            region.mmu.probe(desc.pid, desc.vaddr, writable=True)
            for packet in self.packetizer.split(desc, region.mmu.tlb.config.page_size):
                # repro: allow[RES001] split-phase: _wr_dma releases this credit when the packet's host write lands
                yield from vfpga.wr_credits[StreamType.HOST].acquire()
                while staged.available < packet.length:
                    flit = yield from vfpga.host_out[dest].recv()
                    staged.push(flit)
                data = staged.take(packet.length)
                yield from port.put((packet, Flit(length=packet.length, data=data, tid=dest)))

    # ------------------------------------------------------ shared movers

    def _locate(self, packet: Packet, writable: bool) -> Generator:
        """Location-aware translation: GPU-resident pages are served
        peer-to-peer; card-resident pages migrate to host first
        (GPU-style fault), host pages go straight to the DMA.

        Inlined (no throwaway Process per packet): the translate
        generator runs inside the pipeline stage; it holds nothing a
        reset's interrupt could leak (the station slot is booked, not
        granted).
        """
        mmu = self._regions[packet.vfpga_id].mmu
        pid = packet.descriptor.pid
        location, paddr = yield from mmu.translate_any(pid, packet.vaddr, writable)
        if location is MemLocation.CARD or (
            location is MemLocation.GPU and self.gpu is None
        ):
            paddr = yield from mmu.translate(
                pid, packet.vaddr, MemLocation.HOST, writable
            )
            location = MemLocation.HOST
        return location, paddr

    def _rd_translate(self) -> Generator:
        while True:
            packet = yield from self.rd_arbiter.get()
            location, paddr = yield from self._locate(packet, writable=False)
            yield self._rd_staged.put((packet, location, paddr))

    def _rd_dma(self) -> Generator:
        while True:
            packet, location, paddr = yield self._rd_staged.get()
            vfpga = self._regions[packet.vfpga_id].vfpga
            if location is MemLocation.GPU:
                data = yield from self.gpu.read(paddr, packet.length)
            else:
                data = yield from self.xdma.read_host(
                    paddr, packet.length, overhead=False
                )
            self.bytes_read += packet.length
            flit = Flit(
                length=packet.length,
                data=data if self.config.carry_data else None,
                tid=packet.dest,
                last=packet.last,
            )
            # Credits guarantee FIFO space, so the deposit happens on the
            # (parallel) crossbar without holding up the DMA engine: one
            # timer, due when the stream's bus has carried the flit, whose
            # booking keeps the stream's flits in order.
            stream = vfpga.host_in[packet.dest]
            self.env.timeout_at(
                stream.book(flit), (stream, vfpga, packet, flit)
            ).callbacks.append(self._deposit.land)

    def _wr_translate(self) -> Generator:
        while True:
            packet, flit = yield from self.wr_arbiter.get()
            location, paddr = yield from self._locate(packet, writable=True)
            yield self._wr_staged.put((packet, flit, location, paddr))

    def _wr_dma(self) -> Generator:
        while True:
            packet, flit, location, paddr = yield self._wr_staged.get()
            vfpga = self._regions[packet.vfpga_id].vfpga
            data = flit.data if flit.data is not None else bytes(flit.length)
            if not self.config.carry_data:
                data = bytes(min(flit.length, packet.length))
            if location is MemLocation.GPU:
                yield from self.gpu.write(paddr, data)
            else:
                yield from self.xdma.write_host(paddr, data, overhead=False)
            self.bytes_written += packet.length
            vfpga.wr_credits[StreamType.HOST].release()
            if packet.last:
                self._complete(vfpga, packet, write=True)


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
        vfpga, mmu = region.vfpga, region.mmu
        while True:
            desc = yield queue.get()
            for packet in self.packetizer.split(desc, mmu.tlb.config.page_size):
                # repro: allow[RES001] split-phase: VFpga.recv releases this credit when the deposited flit is consumed
                yield from vfpga.rd_credits[StreamType.CARD].acquire()
                # Inlined per-packet ops: no throwaway Process events on
                # the HBM hot path; booked slots leave nothing to release.
                paddr = yield from mmu.translate(
                    desc.pid, packet.vaddr, MemLocation.CARD
                )
                data = yield from self.hbm.read(paddr, packet.length)
                self.bytes_read += packet.length
                flit = Flit(
                    length=packet.length,
                    data=data if self.config.carry_data else None,
                    tid=packet.dest,
                    last=packet.last,
                )
                yield from vfpga.card_in[packet.dest].send(flit)
                if packet.last:
                    self._complete(vfpga, packet, write=False)

    def _wr_unit(self, region: _Region, dest: int, queue: Store) -> Generator:
        vfpga, mmu = region.vfpga, region.mmu
        staged = _FlitAssembler()
        guard = vfpga.wr_credits[StreamType.CARD].guard()
        while True:
            desc = yield queue.get()
            for packet in self.packetizer.split(desc, mmu.tlb.config.page_size):
                yield from guard.acquire()
                try:
                    while staged.available < packet.length:
                        flit = yield from vfpga.card_out[dest].recv()
                        staged.push(flit)
                    payload = staged.take(packet.length)
                    paddr = yield from mmu.translate(
                        desc.pid, packet.vaddr, MemLocation.CARD, writable=True
                    )
                    data = payload if payload is not None else bytes(packet.length)
                    yield from self.hbm.write(paddr, data)
                    self.bytes_written += packet.length
                finally:
                    # Give the credit back even when a fault or a region
                    # quiesce interrupts the move mid-packet — the leak
                    # class app.wedge_credit chaos probes dynamically.
                    guard.release()
                if packet.last:
                    self._complete(vfpga, packet, write=True)
