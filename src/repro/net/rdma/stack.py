"""The facade: QPs and their lifecycle, the verbs, the payload generator
(blue-rdma's ``PayloadGen``) and the transmit path."""

from __future__ import annotations

import itertools
from collections import deque
from typing import Callable, Dict, Generator, List, Optional, Tuple

from ...health.errors import PfcStormError
from ...sim.engine import Environment
from ...sim.resources import Store
from ..cmac import FRAME_OVERHEAD_BYTES, Cmac
from ..headers import (
    ECN_ECT0, ECN_NOT_ECT, AethHeader, AtomicAckEthHeader, AtomicEthHeader, BthHeader,
    MacAddress, RethHeader, RoceOpcode,
)
from ..packet import RocePacket
from ..qp import DcqcnState, QpEndpoint, QpState, QueuePair
from .context import (
    _SEND_OPS, _WRITE_OPS, Completion, QpStateError, RdmaConfig, RdmaError, ReadLocal,
    WriteLocal, WrFlushError, _QpContext, _ReadOp,
)
from .reliability import Reliability
from .responder import Responder


#: Header sets one connection keeps: its full segments, ACKs and
#: requests come first; a message's odd tail beyond these is built anew.
_FRAME_HEADER_SETS = 64


class RdmaStack:
    """One node's RoCE v2 engine bound to a CMAC port."""

    def __init__(
        self, env: Environment, cmac: Cmac, mac: MacAddress, ip: int,
        config: RdmaConfig = RdmaConfig(), name: str = "rdma", rx_queue=None,
    ):
        self.env = env
        self.cmac = cmac
        self.mac = mac
        self.ip = ip
        self.config = config
        self.name = name
        self.qps: Dict[int, QueuePair] = {}
        #: Everything else per QP, one record each (same keys as ``qps``).
        self._contexts: Dict[int, _QpContext] = {}
        self.cq: Store = Store(env)
        #: ``wr_id``s for verbs a cThread posts: the QPs' namespace, so two
        #: identical stacks hand out identical ids.
        self.wr_ids = itertools.count(1)
        # Injected local memory access, ``(read_local, write_local)``:
        # generator functions over virtual addresses, running in simulated
        # time.  A QP that belongs to a cThread has its own pair through
        # its vFPGA's MMU (``bind_qp_memory``).
        self._memory: Optional[Tuple[ReadLocal, WriteLocal]] = None
        self._reliability = Reliability(self)
        self._responder = Responder(self, rx_queue if rx_queue is not None else cmac.rx_queue)
        #: True after :meth:`halt` — the whole stack is down (node crash).
        self.halted = False
        self.stats = {
            "tx_packets": 0, "rx_packets": 0, "retransmissions": 0, "naks_sent": 0,
            "naks_received": 0, "acks_sent": 0, "qp_errors": 0, "wr_flushes": 0,
            "ecn_ce_received": 0, "cnps_sent": 0, "cnps_received": 0, "pfc_storm_drops": 0,
        }
        env.process(self._responder.loop(), name=f"{name}-rx")
        env.process(self._reliability.timer(), name=f"{name}-timer")

    # ------------------------------------------------------------ plumbing

    @property
    def qp_rates(self) -> Dict[int, DcqcnState]:
        """Per-QP DCQCN reaction-point state (empty while DCQCN is off)."""
        return {qpn: ctx.rate for qpn, ctx in self._contexts.items() if ctx.rate is not None}

    @property
    def qp_stats(self) -> Dict[int, Dict[str, int]]:
        """Per-QP telemetry: completed verbs and payload bytes, the
        simulation's per-QP statistics registers."""
        return {qpn: {"ops": ctx.ops, "bytes": ctx.bytes} for qpn, ctx in self._contexts.items()}

    def bind_memory(self, read_local: ReadLocal, write_local: WriteLocal) -> None:
        self._memory = (read_local, write_local)

    def bind_qp_memory(self, qpn: int, read_local: ReadLocal, write_local: WriteLocal) -> None:
        """Route this QP's local accesses through a specific MMU context."""
        self._context(qpn).memory = (read_local, write_local)

    def set_rx_offload(self, qpn: int, offload: Optional[Callable[[bytes], bytes]]) -> None:
        """Optional on-datapath processing of this QP's inbound payloads
        (paper: data routed through the vFPGAs, enabling custom
        processing like SmartNICs/DPUs)."""
        self._context(qpn).rx_offload = offload

    def _mem(self, ctx: _QpContext) -> Tuple[ReadLocal, WriteLocal]:
        """The QP's ``(read_local, write_local)``, else the stack's."""
        hooks = ctx.memory or self._memory
        if hooks is None:
            raise RdmaError("stack has no local memory binding")
        return hooks

    def _context(self, qpn: int) -> _QpContext:
        ctx = self._contexts.get(qpn)
        if ctx is None:
            raise RdmaError(f"no such QP {qpn}")
        return ctx

    def create_qp(self, qpn: int, psn: int = 0, buffer_vaddr: int = 0, buffer_len: int = 0) -> QueuePair:
        if qpn in self.qps:
            raise RdmaError(f"QP {qpn} already exists")
        endpoint = QpEndpoint(
            mac=self.mac, ip=self.ip, qpn=qpn, psn=psn,
            buffer_vaddr=buffer_vaddr, buffer_len=buffer_len,
        )
        qp = QueuePair(local=endpoint)
        self.qps[qpn] = qp
        self._contexts[qpn] = _QpContext(qp, self.env, self.config.dcqcn)
        return qp

    # --------------------------------------------------- QP error machinery

    def qp_error(self, qpn: int, reason: str = "error") -> int:
        """Move a QP to ERROR and flush every outstanding WR with a typed
        :class:`WrFlushError` (IB semantics: the SQ/RQ drain as flushed
        completions; nothing is left parked).  Window credits held by
        unacked packets are refunded so other QPs keep their bandwidth.
        Returns the number of flushed work requests.  Idempotent."""
        ctx = self._context(qpn)
        already = ctx.qp.state is QpState.ERROR
        ctx.qp.to_error(reason)
        if not already:
            self.stats["qp_errors"] += 1
        if ctx.landings:
            # What is still landing ends unanswered, ahead of what comes next.
            ctx.flushed = ctx.landings[-1]
            ctx.landings = deque()
        self._reliability.flush(ctx)
        self._responder.drop(ctx)
        getters = ctx.recv_queue._getters
        flushing = [(msg.event, msg.wr_id, msg.opcode) for msg in ctx.pending]
        flushing += [(op.event, op.wr_id, "READ") for op in ctx.reads]
        flushing += [(*ctx.atomics[psn], "ATOMIC") for psn in sorted(ctx.atomics)]
        # Posted receives with no data yet: flush the parked getters.
        flushing += [
            (getter, 0, "RECV") for getter in getters
            if not (getter._abandoned or getter.triggered)
        ]
        ctx.pending = []
        ctx.reads.clear()
        ctx.atomics.clear()
        getters.clear()
        for event, wr_id, opcode in flushing:
            # Pre-defuse: a flush may hit an event nobody awaits yet (e.g. a
            # sender still parked on a window credit); an undefused failure
            # would otherwise crash the simulation loop.
            if not event.triggered:
                event.defuse().fail(WrFlushError(qpn, wr_id, opcode, reason))
        self.stats["wr_flushes"] += len(flushing)
        return len(flushing)

    def reset_qp(self, qpn: int) -> QueuePair:
        """Flush and return the QP to RESET so recovery can re-connect
        (the verbs ``ERR → RESET → INIT → RTR → RTS`` recycle path)."""
        ctx = self._context(qpn)
        if not ctx.qp.in_error:
            ctx.qp.to_error("reset")
        self.qp_error(qpn, reason="reset")
        ctx.qp.reset()
        ctx.renew(self.env, self.config.dcqcn)
        return ctx.qp

    def destroy_qp(self, qpn: int) -> None:
        """Flush and forget a QP entirely (collective-mesh teardown)."""
        self.qp_error(qpn, reason="destroyed")
        del self.qps[qpn]
        del self._contexts[qpn]

    def halt(self, reason: str = "node down") -> int:
        """Take the whole stack down (node crash): every QP to ERROR with
        its WRs flushed.  Clearing the retransmit buffers also parks the
        retransmit timer, so a crashed node cannot keep the simulation
        alive retrying into a dead port.  Returns total flushed WRs."""
        self.halted = True
        flushed = 0
        for qpn in sorted(self.qps):
            flushed += self.qp_error(qpn, reason=reason)
        return flushed

    def _armed(self, qpn: int) -> _QpContext:
        """The context of a QP whose send queue can carry a new verb."""
        ctx = self._context(qpn)
        qp = ctx.qp
        if qp.in_error:
            raise QpStateError(qpn, qp.state, qp.error_reason)
        if not qp.connected:
            raise QpStateError(qpn, qp.state, "not connected")
        return ctx

    def _complete(self, ctx: _QpContext, wr_id: int, opcode: str, length: int) -> Completion:
        ctx.ops += 1
        ctx.bytes += length
        completion = Completion(wr_id=wr_id, opcode=opcode, length=length)
        self.cq.put(completion)
        return completion

    def _segments(self, length: int) -> List[int]:
        mtu = self.config.mtu
        if length == 0:
            return [0]
        return [min(mtu, length - off) for off in range(0, length, mtu)]

    def _build(
        self, ctx: _QpContext, opcode: int, psn: int,
        ack_request: bool = False, data: bool = False,
        reth: Optional[RethHeader] = None, aeth: Optional[AethHeader] = None,
        atomic_eth: Optional[AtomicEthHeader] = None,
        atomic_ack: Optional[AtomicAckEthHeader] = None,
        payload: Optional[bytes] = None, payload_length: int = 0,
    ) -> RocePacket:
        """Every frame of a QP is addressed here: this stack to the QP's
        peer on the QP's flow port, ECT(0) on data packets to announce
        DCQCN when it is on.  Those headers depend on nothing else but
        the frame's length, so the connection builds each set once and
        its frames share it (``_QpContext.frames``, up to
        ``_FRAME_HEADER_SETS`` lengths): nothing writes a header after
        ``RocePacket.build``, and the switch's CE mark copies."""
        remote = ctx.qp.remote
        bth = BthHeader(opcode, remote.qpn, psn, ack_request)
        ecn = ECN_ECT0 if data and self.config.dcqcn.enabled else ECN_NOT_ECT
        packet = RocePacket(
            None, None, None, bth, reth, aeth, atomic_eth, atomic_ack, payload, payload_length
        )
        key = (ecn, packet.transport_length)
        headers = ctx.frames.get(key)
        if headers is None:
            first = RocePacket.build(
                src_mac=self.mac, dst_mac=remote.mac, src_ip=self.ip, dst_ip=remote.ip,
                bth=bth, reth=reth, aeth=aeth, atomic_eth=atomic_eth, atomic_ack=atomic_ack,
                payload=payload, payload_length=payload_length, src_port=ctx.flow_port, ecn=ecn,
            )
            headers = (first.eth, first.ip, first.udp)
            if len(ctx.frames) < _FRAME_HEADER_SETS:
                ctx.frames[key] = headers
        packet.eth, packet.ip, packet.udp = headers
        return packet

    def _send_packet(self, packet: RocePacket, ctx: Optional[_QpContext] = None) -> Generator:
        """Transmit one frame; with ``ctx``, paced by that QP's DCQCN rate."""
        state = ctx.rate if ctx is not None else None
        if state is not None:
            gap = state.pacing_gap(self.env.now, packet.wire_length + FRAME_OVERHEAD_BYTES)
            if gap > 0.0:
                yield self.env.sleep(gap)
        # Pooled sleep: per-packet processing is the hottest delay in the
        # NIC and never composed, so it can reuse a recycled relay event.
        yield self.env.sleep(self.config.per_packet_processing_ns)
        try:
            yield from self.cmac.tx(packet)
        except PfcStormError:
            # The switch's storm watchdog broke our pause: the frame is
            # treated as lost (the retransmit machinery re-drives tracked
            # PSNs once the fabric recovers) instead of parking forever.
            self.stats["pfc_storm_drops"] += 1
            return
        self.stats["tx_packets"] += 1

    def _payload_gen(
        self, read_fn: ReadLocal, vaddr: int, segments: List[int], side: str, live: Callable[[], bool]
    ) -> List[Store]:
        """Start the payload generator (blue-rdma's ``PayloadGen``): local
        reads of ``segments`` running ahead of the wire, as the hardware's
        DMA engine runs ahead of the MAC.  Two fetch lanes, even segments
        in one and odd in the other, so segment *k+1* is translated while
        segment *k*'s DMA is in flight; segment *i* arrives in
        ``lanes[i & 1]``.  Depth 2 per lane keeps at most 16 KB staged.
        A lane stops once ``live()`` is false: a WRITE's QP went to ERROR,
        or the READ being answered is no longer owed.  A read that fails
        after that (its pages went with the flush) is dropped: the lane
        puts ``None`` so a waiting consumer wakes and sees the stop."""
        mtu = self.config.mtu
        lanes = []

        def fetch(first: int, lane: Store):
            for index in range(first, len(segments), 2):
                try:
                    data = yield from read_fn(vaddr + index * mtu, segments[index])
                except Exception:
                    if live():
                        raise
                    data = None
                # Put first, look second: the consumer may be waiting.
                yield lane.put(data)
                if not live():
                    return

        for first in range(min(2, len(segments))):
            lane = Store(self.env, capacity=2)
            lanes.append(lane)
            # Spawned on purpose: the two lanes fetch concurrently, ahead of the wire.
            self.env.process(fetch(first, lane), name=f"{self.name}-{side}-fetch")
        return lanes

    # ----------------------------------------------------------- requester

    def rdma_write(
        self, qpn: int, local_vaddr: int, remote_vaddr: int, length: int, wr_id: int = 0
    ) -> Generator:
        """One-sided RDMA WRITE; returns once the peer acked the last packet."""
        ctx = self._armed(qpn)
        read_fn, segments = self._mem(ctx)[0], self._segments(length)
        lanes = self._payload_gen(read_fn, local_vaddr, segments, "wr", lambda: not ctx.qp.in_error)
        return (yield from self._reliability.send_queue(
            ctx, _WRITE_OPS, "WRITE", segments, wr_id, lanes, remote_vaddr
        ))

    def rdma_read(
        self, qpn: int, local_vaddr: int, remote_vaddr: int, length: int, wr_id: int = 0
    ) -> Generator:
        """One-sided RDMA READ; returns once the full response arrived."""
        ctx = self._armed(qpn)
        write_fn = self._mem(ctx)[1]
        # A READ request consumes one PSN per response packet, and one
        # window credit for the request (released when responses ack it).
        yield from self._reliability.request(
            ctx, RoceOpcode.RDMA_READ_REQUEST, wr_id, "READ", len(self._segments(length)),
            lambda psn, done: ctx.reads.append(_ReadOp(done, write_fn, local_vaddr, length, psn, wr_id)),
            reth=RethHeader(vaddr=remote_vaddr, rkey=ctx.qp.remote.rkey, dma_length=length),
        )
        return self._complete(ctx, wr_id, "READ", length)

    def fetch_add(self, qpn: int, remote_vaddr: int, addend: int, wr_id: int = 0) -> Generator:
        """Atomic 64-bit FETCH_ADD at the peer; returns the original value."""
        return (yield from self._atomic(qpn, RoceOpcode.FETCH_ADD, remote_vaddr, addend, 0, wr_id))

    def compare_swap(
        self, qpn: int, remote_vaddr: int, compare: int, swap: int, wr_id: int = 0
    ) -> Generator:
        """Atomic 64-bit CMP_SWAP at the peer; returns the original value
        (the swap happened iff original == compare)."""
        return (yield from self._atomic(qpn, RoceOpcode.COMPARE_SWAP, remote_vaddr, swap, compare, wr_id))

    def _atomic(
        self, qpn: int, opcode: int, remote_vaddr: int, swap_add: int, compare: int, wr_id: int
    ) -> Generator:
        ctx = self._armed(qpn)
        original = yield from self._reliability.request(
            ctx, opcode, wr_id, "ATOMIC", 1,
            lambda psn, done: ctx.atomics.__setitem__(psn, (done, wr_id)),
            atomic_eth=AtomicEthHeader(
                vaddr=remote_vaddr, rkey=ctx.qp.remote.rkey,
                swap_add=swap_add & 0xFFFFFFFFFFFFFFFF,
                compare=compare & 0xFFFFFFFFFFFFFFFF,
            ),
        )
        self._complete(ctx, wr_id, RoceOpcode.name(opcode), 8)
        return original

    def send(self, qpn: int, payload: bytes, wr_id: int = 0) -> Generator:
        """Two-sided SEND of a single message."""
        ctx = self._armed(qpn)
        return (yield from self._reliability.send_queue(
            ctx, _SEND_OPS, "SEND", self._segments(len(payload)), wr_id, payload
        ))

    def recv(self, qpn: int) -> Generator:
        """Blocking receive of one SEND message."""
        ctx = self._context(qpn)
        if ctx.qp.state is QpState.ERROR:
            # SQ_ERROR still delivers inbound work; full ERROR does not.
            raise QpStateError(qpn, ctx.qp.state, ctx.qp.error_reason)
        message = yield ctx.recv_queue.get()
        return message
