"""BALBOA: the RoCE v2 reliable-connection RDMA stack (paper §6.2).

Implements the requester and responder halves of IB RC verbs over the
simulated 100G CMAC: one-sided RDMA WRITE and READ plus two-sided SEND,
with go-back-N retransmission, NAK generation on PSN sequence errors and
cumulative ACKs.  Local buffer addresses are *virtual*: the stack calls
into the shell-injected translate/read/write callbacks, which route
through Coyote's MMU and the static layer — exactly the paper's layering
("the network stack ... operates on virtual memory addresses that are
translated using Coyote v2's internal MMU and TLB, before writing the data
to host memory through the static layer").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Generator, List, Optional, Tuple

from ..sim.engine import Environment, Event
from ..sim.resources import Container, Store
from .cmac import FRAME_OVERHEAD_BYTES, Cmac
from .headers import (
    ECN_CE,
    ECN_ECT0,
    ECN_NOT_ECT,
    AethHeader,
    AtomicAckEthHeader,
    AtomicEthHeader,
    BthHeader,
    MacAddress,
    RethHeader,
    RoceOpcode,
)
from .packet import RocePacket
from .qp import PSN_MOD, DcqcnConfig, DcqcnState, QpEndpoint, QpState, QueuePair

__all__ = [
    "RdmaConfig",
    "DcqcnConfig",
    "RdmaStack",
    "Completion",
    "RdmaError",
    "QpStateError",
    "WrFlushError",
]

#: Lazily resolved ``repro.health.PfcStormError`` — the health package
#: imports this module at init, so the reverse import must be deferred.
_PFC_STORM_ERROR = None


def _pfc_storm_error():
    global _PFC_STORM_ERROR
    if _PFC_STORM_ERROR is None:
        from ..health.errors import PfcStormError

        _PFC_STORM_ERROR = PfcStormError
    return _PFC_STORM_ERROR


class RdmaError(Exception):
    """Unrecoverable QP error (e.g. verbs on an unconnected QP)."""


class QpStateError(RdmaError):
    """A verb was armed on a QP whose state cannot carry it (ERROR,
    SQ_ERROR, or simply never connected).  Raised at arm time instead of
    silently queueing work that can never complete."""

    def __init__(self, qpn: int, state: QpState, reason: str = ""):
        detail = f" ({reason})" if reason else ""
        super().__init__(f"QP {qpn} in state {state.value!r}{detail}")
        self.qpn = qpn
        self.state = state
        self.reason = reason


class WrFlushError(RdmaError):
    """An outstanding work request was flushed because its QP moved to
    ERROR (IB completion status ``IBV_WC_WR_FLUSH_ERR``).  Carries enough
    context for the caller to know *which* connection died and why."""

    def __init__(self, qpn: int, wr_id: int = 0, opcode: str = "", reason: str = ""):
        detail = f": {reason}" if reason else ""
        super().__init__(f"QP {qpn} flushed {opcode or 'WR'} wr_id={wr_id}{detail}")
        self.qpn = qpn
        self.wr_id = wr_id
        self.opcode = opcode
        self.reason = reason


def psn_leq(a: int, b: int) -> bool:
    """True if PSN ``a`` <= ``b`` under 24-bit wraparound."""
    return (b - a) % PSN_MOD < PSN_MOD // 2


@dataclass(frozen=True)
class RdmaConfig:
    """Stack parameters; MTU 4096 is the RoCE maximum and Coyote's default."""

    mtu: int = 4096
    max_outstanding: int = 64  # requester window, in packets
    retransmit_timeout_ns: float = 100_000.0
    per_packet_processing_ns: float = 30.0  # stack pipeline occupancy
    max_retries: int = 8
    dcqcn: DcqcnConfig = DcqcnConfig()


@dataclass
class Completion:
    """A work completion delivered to the CQ."""

    wr_id: int
    opcode: str
    length: int
    status: str = "success"


@dataclass
class _PendingMessage:
    last_psn: int
    event: Event
    wr_id: int
    opcode: str
    length: int


@dataclass
class _ReadOp:
    """Requester-side progress of one outstanding READ."""

    event: Event
    write_fn: Callable[[int, Optional[bytes], int], Generator]
    local_vaddr: int
    length: int
    psn: int  # of its first response
    received: int = 0  # responses taken, each the next PSN of its range


#: Segment opcodes of the three multi-packet families, indexed by
#: ``first + 2 * last``: middle, first, last, only.
_WRITE_OPS = (
    RoceOpcode.RDMA_WRITE_MIDDLE,
    RoceOpcode.RDMA_WRITE_FIRST,
    RoceOpcode.RDMA_WRITE_LAST,
    RoceOpcode.RDMA_WRITE_ONLY,
)
_SEND_OPS = (
    RoceOpcode.SEND_MIDDLE,
    RoceOpcode.SEND_FIRST,
    RoceOpcode.SEND_LAST,
    RoceOpcode.SEND_ONLY,
)
_READ_RESPONSE_OPS = (
    RoceOpcode.RDMA_READ_RESPONSE_MIDDLE,
    RoceOpcode.RDMA_READ_RESPONSE_FIRST,
    RoceOpcode.RDMA_READ_RESPONSE_LAST,
    RoceOpcode.RDMA_READ_RESPONSE_ONLY,
)


class _QpContext:
    """Everything the stack knows about one queue pair (blue-rdma's
    ``QPContext``).  ``RdmaStack.create_qp`` makes it, :meth:`renew`
    returns every per-connection slot to its just-created value and
    ``destroy_qp`` drops it: no slot is born, reset or dropped anywhere
    else, so the three cannot drift apart."""

    __slots__ = (
        "qp",
        "qpn",
        # UDP source port carrying the flow's ECMP entropy: the RoCE v2
        # convention of a per-QP value in the dynamic range, so a QP's
        # packets always hash onto one fabric path (order-preserving).
        "flow_port",
        # The QP's owner, not its connection: these outlive a reset.
        "ops",  # telemetry: completed verbs ...
        "bytes",  # ... and their payload bytes
        "memory",  # (read_local, write_local) through the owner's MMU
        "rx_offload",  # on-datapath payload transform (SmartNIC-style)
        # Requester.
        "unacked",  # psn -> packet, the go-back-N retransmit buffer
        "pending",  # WRITE/SEND messages awaiting their last ACK
        # Forward-progress clock: ACK arrival for this QP (or a finished
        # go-back-N round).  Per-QP, not stack-global — a dead peer must
        # exhaust its retry budget even while other QPs on the same
        # stack are making steady progress.
        "last_progress",
        # Timer-driven go-back-N rounds without forward progress.
        # Exceeding ``config.max_retries`` moves the QP to ERROR — the
        # requester-side signal that the peer (or the path to it) is dead.
        "retries",
        "reads",  # outstanding READs, oldest first (responses come in PSN order)
        "atomics",  # psn -> event of the waiting atomic verb
        # Responder.
        "recv_queue",  # reassembled SEND messages
        "send_parts",  # segments of the SEND being reassembled
        "write_cursor",  # next vaddr of the inbound WRITE in progress
        "nak_sent",  # one NAK per sequence gap
        "cnp_last_sent",  # notification-point filter (None: never)
        # Both ends: payloads still landing in local memory, oldest first
        # (``_land``).  A flush swaps in a fresh deque, and a landing that
        # finds its own gone was flushed.
        "landings",
        # The last landing of a flushed connection while it may still be
        # running: the QP's next frame waits for it, so old bytes never
        # land over the new connection's.  Outlives ``renew``.
        "flushed",
        # DCQCN reaction point (None while DCQCN is off).
        "rate",
    )

    def __init__(self, qp: QueuePair, env: Environment, dcqcn: DcqcnConfig):
        self.qp = qp
        self.qpn = qp.local.qpn
        self.flow_port = 0xC000 | (self.qpn & 0x3FFF)
        self.ops = 0
        self.bytes = 0
        self.memory: Optional[Tuple[Callable, Callable]] = None
        self.rx_offload: Optional[Callable[[bytes], bytes]] = None
        self.flushed: Optional[Event] = None
        self.renew(env, dcqcn)

    def renew(self, env: Environment, dcqcn: DcqcnConfig) -> None:
        """A connection's worth of state, as a fresh QP has it.  The
        caller has flushed whatever the old values still owed anyone."""
        self.unacked: Dict[int, RocePacket] = {}
        self.pending: List[_PendingMessage] = []
        self.last_progress = env.now
        self.retries = 0
        self.reads: Deque[_ReadOp] = deque()
        self.atomics: Dict[int, Event] = {}
        self.recv_queue = Store(env)
        self.send_parts: List[bytes] = []
        self.write_cursor = 0
        self.nak_sent = False
        self.cnp_last_sent: Optional[float] = None
        self.landings: Deque[Event] = deque()
        # A re-connecting QP starts its congestion history over.
        self.rate: Optional[DcqcnState] = DcqcnState(dcqcn) if dcqcn.enabled else None


class RdmaStack:
    """One node's RoCE v2 engine bound to a CMAC port."""

    def __init__(
        self,
        env: Environment,
        cmac: Cmac,
        mac: MacAddress,
        ip: int,
        config: RdmaConfig = RdmaConfig(),
        name: str = "rdma",
        rx_queue=None,
    ):
        self.env = env
        self.cmac = cmac
        #: Packet source: the raw CMAC queue, or a demuxed per-protocol
        #: queue when the shell runs several networking services at once.
        self._rx_queue = rx_queue if rx_queue is not None else cmac.rx_queue
        self.mac = mac
        self.ip = ip
        self.config = config
        self.name = name
        self.qps: Dict[int, QueuePair] = {}
        #: Everything else per QP, one record each (same keys as ``qps``).
        self._contexts: Dict[int, _QpContext] = {}
        self.cq: Store = Store(env)
        # Injected local memory access, ``(read_local, write_local)``:
        # generator functions over virtual addresses, running in simulated
        # time.  A QP that belongs to a cThread has its own pair through
        # its vFPGA's MMU (``bind_qp_memory``).
        self._memory: Optional[Tuple[Callable, Callable]] = None
        # Requester window, shared by every QP of the stack.
        self._window = Container(env, capacity=config.max_outstanding, init=config.max_outstanding)
        self._timer_parked: Optional[Event] = None
        # Responder: ``(ctx, packet, msn)`` per READ request accepted and
        # not yet answered, oldest first, with the replies that must not
        # overtake them queued in between.  ``_respond`` runs only while
        # this has entries; ``qp_error`` takes a dead connection's out.
        self._read_requests: Deque[Tuple[_QpContext, RocePacket, int]] = deque()
        self._responding = False
        #: True after :meth:`halt` — the whole stack is down (node crash).
        self.halted = False
        self.stats = {
            "tx_packets": 0,
            "rx_packets": 0,
            "retransmissions": 0,
            "naks_sent": 0,
            "naks_received": 0,
            "acks_sent": 0,
            "qp_errors": 0,
            "wr_flushes": 0,
            "ecn_ce_received": 0,
            "cnps_sent": 0,
            "cnps_received": 0,
            "pfc_storm_drops": 0,
        }
        env.process(self._rx_loop(), name=f"{name}-rx")
        env.process(self._retransmit_timer(), name=f"{name}-timer")

    # ------------------------------------------------------------ plumbing

    @property
    def qp_rates(self) -> Dict[int, DcqcnState]:
        """Per-QP DCQCN reaction-point state (empty while DCQCN is off)."""
        return {
            qpn: ctx.rate for qpn, ctx in self._contexts.items() if ctx.rate is not None
        }

    @property
    def qp_stats(self) -> Dict[int, Dict[str, int]]:
        """Per-QP telemetry: completed verbs and payload bytes, the
        simulation's per-QP statistics registers."""
        return {
            qpn: {"ops": ctx.ops, "bytes": ctx.bytes}
            for qpn, ctx in self._contexts.items()
        }

    def bind_memory(
        self,
        read_local: Callable[[int, int], Generator],
        write_local: Callable[[int, Optional[bytes], int], Generator],
    ) -> None:
        self._memory = (read_local, write_local)

    def bind_qp_memory(
        self,
        qpn: int,
        read_local: Callable[[int, int], Generator],
        write_local: Callable[[int, Optional[bytes], int], Generator],
    ) -> None:
        """Route this QP's local accesses through a specific MMU context."""
        self._context(qpn).memory = (read_local, write_local)

    def set_rx_offload(self, qpn: int, offload: Optional[Callable[[bytes], bytes]]) -> None:
        """Optional on-datapath processing of this QP's inbound payloads
        (paper: data routed through the vFPGAs, enabling custom
        processing like SmartNICs/DPUs)."""
        self._context(qpn).rx_offload = offload

    def _mem(self, ctx: _QpContext) -> Tuple[Callable, Callable]:
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
        if ctx.unacked:
            self._window.put(len(ctx.unacked))
            ctx.unacked.clear()
        if self._read_requests:
            # What the peer was still owed goes with the connection; the
            # responder finds its request gone and moves on to the next.
            self._read_requests = deque(o for o in self._read_requests if o[0] is not ctx)
        getters = ctx.recv_queue._getters
        flushing = [(msg.event, msg.wr_id, msg.opcode) for msg in ctx.pending]
        flushing += [(op.event, 0, "READ") for op in ctx.reads]
        flushing += [(ctx.atomics[psn], 0, "ATOMIC") for psn in sorted(ctx.atomics)]
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
            self._fail_event(event, WrFlushError(qpn, wr_id, opcode, reason))
        self.stats["wr_flushes"] += len(flushing)
        return len(flushing)

    @staticmethod
    def _fail_event(event: Event, exc: Exception) -> None:
        if event.triggered:
            return
        # Pre-defuse: a flush may hit an event nobody awaits yet (e.g. a
        # sender still parked on a window credit); an undefused failure
        # would otherwise crash the simulation loop.
        event.defuse().fail(exc)

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

    def _refund_flushed(self, ctx: _QpContext) -> None:
        """Mid-verb slow path: a flush landed while the requester was
        parked on a window credit.  Refund the freshly granted credit and
        raise — that beats transmitting into the void."""
        self._window.put(1)
        raise WrFlushError(ctx.qpn, 0, "SQ", ctx.qp.error_reason)

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
        ack_request: bool = False, data: bool = False, **extension,
    ) -> RocePacket:
        """Every frame of a QP is addressed here: this stack to the QP's
        peer on the QP's flow port, ECT(0) on data packets to announce
        DCQCN when it is on."""
        remote = ctx.qp.remote
        return RocePacket.build(
            src_mac=self.mac,
            dst_mac=remote.mac,
            src_ip=self.ip,
            dst_ip=remote.ip,
            bth=BthHeader(opcode=opcode, dest_qp=remote.qpn, psn=psn, ack_request=ack_request),
            src_port=ctx.flow_port,
            ecn=ECN_ECT0 if data and self.config.dcqcn.enabled else ECN_NOT_ECT,
            **extension,
        )

    def _send_packet(self, packet: RocePacket, ctx: Optional[_QpContext] = None) -> Generator:
        """Transmit one frame; with ``ctx``, paced by that QP's DCQCN rate."""
        state = ctx.rate if ctx is not None else None
        if state is not None:
            gap = state.pacing_gap(
                self.env.now, packet.wire_length + FRAME_OVERHEAD_BYTES
            )
            if gap > 0.0:
                yield self.env.sleep(gap)
        # Pooled sleep: per-packet processing is the hottest delay in the
        # NIC and never composed, so it can reuse a recycled relay event.
        yield self.env.sleep(self.config.per_packet_processing_ns)
        try:
            yield from self.cmac.tx(packet)
        except _pfc_storm_error():
            # The switch's storm watchdog broke our pause: the frame is
            # treated as lost (the retransmit machinery re-drives tracked
            # PSNs once the fabric recovers) instead of parking forever.
            self.stats["pfc_storm_drops"] += 1
            return
        self.stats["tx_packets"] += 1

    def _payload_gen(
        self, read_fn: Callable, vaddr: int, segments: List[int], owed: Optional[tuple] = None
    ) -> List[Store]:
        """Start the payload generator (blue-rdma's ``PayloadGen``): local
        reads of ``segments`` running ahead of the wire, as the hardware's
        DMA engine runs ahead of the MAC.  Two fetch lanes, even segments
        in one and odd in the other, so segment *k+1* is translated while
        segment *k*'s DMA is in flight; segment *i* arrives in
        ``lanes[i & 1]``.  Depth 2 per lane keeps at most 16 KB staged.
        With ``owed``, a READ being answered, a lane stops with that
        answer."""
        mtu = self.config.mtu
        side = "wr" if owed is None else "rd"
        lanes = []

        def fetch(first: int, lane: Store):
            for index in range(first, len(segments), 2):
                data = yield from read_fn(vaddr + index * mtu, segments[index])
                # Put first, look second: the consumer may be waiting.
                yield lane.put(data)
                if owed is not None and not self._answering(owed):
                    return

        for first in range(min(2, len(segments))):
            lane = Store(self.env, capacity=2)
            lanes.append(lane)
            self.env.process(fetch(first, lane), name=f"{self.name}-{side}-fetch")
        return lanes

    # ----------------------------------------------------------- requester

    def rdma_write(
        self,
        qpn: int,
        local_vaddr: int,
        remote_vaddr: int,
        length: int,
        wr_id: int = 0,
    ) -> Generator:
        """One-sided RDMA WRITE; returns once the peer acked the last packet."""
        ctx = self._armed(qpn)
        qp = ctx.qp
        read_fn = self._mem(ctx)[0]
        segments = self._segments(length)
        done = Event(self.env)
        lanes = self._payload_gen(read_fn, local_vaddr, segments)
        last = len(segments) - 1
        for index, seg_len in enumerate(segments):
            opcode = _WRITE_OPS[(index == 0) + 2 * (index == last)]
            # Stage first, then take the credit: with no yield between the
            # credit grant and _track(), a concurrent flush can account for
            # every held credit from the retransmit buffer alone.
            payload = yield lanes[index & 1].get()
            yield self._window.get(1)
            if qp.in_error:
                self._refund_flushed(ctx)
            psn = qp.next_psn()
            # Request an ack on every packet so the window drains
            # continuously; real responders coalesce these replies.
            packet = self._build(
                ctx, opcode, psn, ack_request=True, data=True,
                reth=RethHeader(vaddr=remote_vaddr, rkey=qp.remote.rkey, dma_length=length)
                if RoceOpcode.has_reth(opcode)
                else None,
                payload=payload if isinstance(payload, (bytes, bytearray)) else None,
                payload_length=seg_len,
            )
            self._track(ctx, psn, packet)
            if index == last:
                ctx.pending.append(
                    _PendingMessage(last_psn=psn, event=done, wr_id=wr_id, opcode="WRITE", length=length)
                )
            yield from self._send_packet(packet, ctx)
        yield done
        return self._complete(ctx, wr_id, "WRITE", length)

    def rdma_read(
        self,
        qpn: int,
        local_vaddr: int,
        remote_vaddr: int,
        length: int,
        wr_id: int = 0,
    ) -> Generator:
        """One-sided RDMA READ; returns once the full response arrived."""
        ctx = self._armed(qpn)
        qp = ctx.qp
        write_fn = self._mem(ctx)[1]
        nresp = len(self._segments(length))
        # A READ request consumes one PSN per response packet, and one
        # window credit for the request (released when responses ack it).
        yield self._window.get(1)
        if qp.in_error:
            self._refund_flushed(ctx)
        # No yield from here to _track(): READs posted together on one QP
        # take disjoint PSN ranges, in the order their records queue.
        start_psn = qp.sq_psn
        for _ in range(nresp):
            qp.next_psn()
        done = Event(self.env)
        ctx.reads.append(_ReadOp(done, write_fn, local_vaddr, length, start_psn))
        packet = self._build(
            ctx, RoceOpcode.RDMA_READ_REQUEST, start_psn, ack_request=True,
            reth=RethHeader(vaddr=remote_vaddr, rkey=qp.remote.rkey, dma_length=length),
        )
        # Buffered under its *last* PSN: responses ack cumulatively, and the
        # request must stay retransmittable until the last one arrived — a
        # responder that stops answering ends in "retry exhausted", not a hang.
        self._track(ctx, (start_psn + nresp - 1) % PSN_MOD, packet)
        yield from self._send_packet(packet, ctx)
        yield done
        return self._complete(ctx, wr_id, "READ", length)

    def fetch_add(self, qpn: int, remote_vaddr: int, addend: int, wr_id: int = 0) -> Generator:
        """Atomic 64-bit FETCH_ADD at the peer; returns the original value."""
        result = yield from self._atomic(
            qpn, RoceOpcode.FETCH_ADD, remote_vaddr, swap_add=addend, wr_id=wr_id
        )
        return result

    def compare_swap(
        self, qpn: int, remote_vaddr: int, compare: int, swap: int, wr_id: int = 0
    ) -> Generator:
        """Atomic 64-bit CMP_SWAP at the peer; returns the original value
        (the swap happened iff original == compare)."""
        result = yield from self._atomic(
            qpn, RoceOpcode.COMPARE_SWAP, remote_vaddr,
            swap_add=swap, compare=compare, wr_id=wr_id,
        )
        return result

    def _atomic(
        self, qpn: int, opcode: int, remote_vaddr: int,
        swap_add: int, compare: int = 0, wr_id: int = 0,
    ) -> Generator:
        ctx = self._armed(qpn)
        qp = ctx.qp
        yield self._window.get(1)
        if qp.in_error:
            self._refund_flushed(ctx)
        psn = qp.next_psn()
        done = Event(self.env)
        ctx.atomics[psn] = done
        packet = self._build(
            ctx, opcode, psn, ack_request=True,
            atomic_eth=AtomicEthHeader(
                vaddr=remote_vaddr, rkey=qp.remote.rkey,
                swap_add=swap_add & 0xFFFFFFFFFFFFFFFF,
                compare=compare & 0xFFFFFFFFFFFFFFFF,
            ),
        )
        self._track(ctx, psn, packet)
        yield from self._send_packet(packet, ctx)
        original = yield done
        self._complete(ctx, wr_id, RoceOpcode.name(opcode), 8)
        return original

    def send(self, qpn: int, payload: bytes, wr_id: int = 0) -> Generator:
        """Two-sided SEND of a single message."""
        ctx = self._armed(qpn)
        qp = ctx.qp
        segments = self._segments(len(payload))
        done = Event(self.env)
        offset = 0
        last = len(segments) - 1
        for index, seg_len in enumerate(segments):
            opcode = _SEND_OPS[(index == 0) + 2 * (index == last)]
            yield self._window.get(1)
            if qp.in_error:
                self._refund_flushed(ctx)
            psn = qp.next_psn()
            packet = self._build(
                ctx, opcode, psn, ack_request=True, data=True,
                payload=payload[offset : offset + seg_len],
            )
            self._track(ctx, psn, packet)
            if index == last:
                ctx.pending.append(
                    _PendingMessage(last_psn=psn, event=done, wr_id=wr_id, opcode="SEND", length=len(payload))
                )
            yield from self._send_packet(packet, ctx)
            offset += seg_len
        yield done
        return self._complete(ctx, wr_id, "SEND", len(payload))

    def recv(self, qpn: int) -> Generator:
        """Blocking receive of one SEND message."""
        ctx = self._context(qpn)
        if ctx.qp.state is QpState.ERROR:
            # SQ_ERROR still delivers inbound work; full ERROR does not.
            raise QpStateError(qpn, ctx.qp.state, ctx.qp.error_reason)
        message = yield ctx.recv_queue.get()
        return message

    # ------------------------------------------------------------ receiver

    def _rx_loop(self) -> Generator:
        while True:
            packet = yield self._rx_queue.get()
            if not isinstance(packet, RocePacket):
                continue  # another protocol on the shared fabric
            self.stats["rx_packets"] += 1
            yield self.env.sleep(self.config.per_packet_processing_ns)
            ctx = self._contexts.get(packet.bth.dest_qp)
            opcode = packet.bth.opcode
            if ctx is not None and ctx.flushed is not None:
                # The QP's first frame after a flush: the flushed
                # connection's payloads land before anything else.
                flushed, ctx.flushed = ctx.flushed, None
                if flushed.callbacks is not None:
                    yield flushed
            elif ctx is not None and ctx.landings and not (
                opcode in _READ_RESPONSE_OPS
                or (opcode in _WRITE_OPS and packet.bth.psn == ctx.qp.epsn)
            ):
                # PayloadCon's fence: only the next in-sequence payload
                # overtakes a landing of its QP.  A READ or an atomic
                # reads what earlier payloads wrote, a SEND or duplicate
                # is answered by a cumulative ACK, and an inbound ACK
                # would complete a verb posted after a READ still landing.
                yield ctx.landings[-1]
            if self.halted:
                continue  # a crashed node processes nothing
            if ctx is None or ctx.qp.remote is None:
                continue  # drop traffic for unknown QPs
            if ctx.qp.state is QpState.ERROR:
                continue  # ERROR silently discards inbound work (IB)
            if packet.ip.ecn == ECN_CE:
                # Congestion point marked this frame: we are the DCQCN
                # notification point — answer with a (rate-limited) CNP.
                self.stats["ecn_ce_received"] += 1
                self._maybe_send_cnp(ctx)
            if opcode == RoceOpcode.CNP:
                self.stats["cnps_received"] += 1
                if ctx.rate is not None:
                    ctx.rate.on_cnp(self.env.now)
            elif opcode == RoceOpcode.ACKNOWLEDGE:
                self._handle_ack(ctx, packet)
            elif opcode == RoceOpcode.ATOMIC_ACKNOWLEDGE:
                self._handle_atomic_ack(ctx, packet)
            elif opcode in _READ_RESPONSE_OPS:
                self._handle_read_response(ctx, packet)
            elif opcode == RoceOpcode.RDMA_READ_REQUEST:
                yield from self._handle_read_request(ctx, packet)
            elif RoceOpcode.has_atomic_eth(opcode):
                yield from self._handle_atomic_request(ctx, packet)
            else:
                yield from self._handle_inbound_data(ctx, packet)

    def _maybe_send_cnp(self, ctx: _QpContext) -> None:
        """Generate a CNP toward the marked flow's sender, at most one
        per QP per ``cnp_interval_ns`` (the notification-point filter).
        Sent from a spawned process: the reverse path may itself be
        congested or paused, and the rx loop must keep draining."""
        last = ctx.cnp_last_sent
        if last is not None and self.env.now - last < self.config.dcqcn.cnp_interval_ns:
            return
        ctx.cnp_last_sent = self.env.now
        cnp = self._build(ctx, RoceOpcode.CNP, 0)
        self.stats["cnps_sent"] += 1
        self.env.process(self._send_packet(cnp), name=f"{self.name}-cnp")

    def _ack(
        self, ctx: _QpContext, psn: int, syndrome: int = 0,
        atomic_ack: Optional[AtomicAckEthHeader] = None, msn: Optional[int] = None,
    ) -> Generator:
        """Reply to the requester: an ACK, a NAK (``syndrome``) or, with
        ``atomic_ack``, the response of an atomic.  It carries ``msn``,
        the MSN when ``psn`` arrived, else the QP's current one."""
        qp = ctx.qp
        if qp.remote is None or qp.state is QpState.ERROR:
            return  # the connection ended while the handler was in memory
        packet = self._build(
            ctx,
            RoceOpcode.ACKNOWLEDGE if atomic_ack is None else RoceOpcode.ATOMIC_ACKNOWLEDGE,
            psn, aeth=AethHeader(syndrome=syndrome, msn=qp.msn if msn is None else msn),
            atomic_ack=atomic_ack,
        )
        self.stats["naks_sent" if syndrome else "acks_sent"] += 1
        # Response order per QP: ACKs are cumulative, so one that overtook
        # READ responses its QP still owes would acknowledge the READ before
        # its data arrived.  It queues behind them; a QP that owes nothing
        # (always, without READs) replies inline.
        queue = self._read_requests
        if queue and any(owed[0] is ctx for owed in queue):
            queue.append((ctx, packet, 0))
        else:
            yield from self._send_packet(packet)

    def _out_of_sequence(self, ctx: _QpContext, psn: int, reack_duplicate: bool = False) -> Generator:
        """Responder slow path: ``psn`` is not the expected one."""
        qp = ctx.qp
        if reack_duplicate and psn_leq(psn, (qp.epsn - 1) % PSN_MOD):
            # Duplicate from a go-back-N rewind: re-ack, drop.
            yield from self._ack(ctx, (qp.epsn - 1) % PSN_MOD)
        elif not ctx.nak_sent:
            # Sequence gap: NAK once with the expected PSN.
            ctx.nak_sent = True
            yield from self._ack(ctx, qp.epsn, syndrome=AethHeader.NAK_PSN_SEQUENCE_ERROR)

    def _handle_inbound_data(self, ctx: _QpContext, packet: RocePacket) -> Generator:
        """WRITE_* and SEND_* packets at the responder."""
        qp = ctx.qp
        psn = packet.bth.psn
        if psn != qp.epsn:
            yield from self._out_of_sequence(ctx, psn, reack_duplicate=True)
            return
        ctx.nak_sent = False
        qp.epsn = (qp.epsn + 1) % PSN_MOD
        opcode = packet.bth.opcode
        payload = packet.payload
        if ctx.rx_offload is not None and payload is not None:
            payload = ctx.rx_offload(payload)
        if opcode in _WRITE_OPS:
            if opcode in (RoceOpcode.RDMA_WRITE_FIRST, RoceOpcode.RDMA_WRITE_ONLY):
                ctx.write_cursor = packet.reth.vaddr
            vaddr = ctx.write_cursor
            ctx.write_cursor = vaddr + packet.payload_length
            if opcode in (RoceOpcode.RDMA_WRITE_LAST, RoceOpcode.RDMA_WRITE_ONLY):
                qp.msn = (qp.msn + 1) % PSN_MOD
            # The ACK leaves when the payload has landed, with this MSN.
            self._land(
                ctx, self._mem(ctx)[1], vaddr, payload, packet.payload_length,
                psn if packet.bth.ack_request else None, qp.msn,
            )
            return
        # SEND family
        ctx.send_parts.append(payload or bytes(packet.payload_length))
        if opcode in (RoceOpcode.SEND_LAST, RoceOpcode.SEND_ONLY):
            qp.msn = (qp.msn + 1) % PSN_MOD
            ctx.recv_queue.put(b"".join(ctx.send_parts))
            ctx.send_parts.clear()
        if packet.bth.ack_request:
            yield from self._ack(ctx, psn)

    def _handle_atomic_request(self, ctx: _QpContext, packet: RocePacket) -> Generator:
        """Responder side of FETCH_ADD / CMP_SWAP: read-modify-write the
        8-byte target atomically (the rx loop serialises us) and return
        the original value in an ATOMIC_ACKNOWLEDGE."""
        qp = ctx.qp
        psn = packet.bth.psn
        if psn != qp.epsn:
            yield from self._out_of_sequence(ctx, psn)
            return
        ctx.nak_sent = False
        qp.epsn = (qp.epsn + 1) % PSN_MOD
        qp.msn = (qp.msn + 1) % PSN_MOD
        ath = packet.atomic_eth
        raw = yield self.env.process(self._mem(ctx)[0](ath.vaddr, 8))
        original = int.from_bytes(raw, "little") if raw is not None else 0
        if packet.bth.opcode == RoceOpcode.FETCH_ADD:
            updated = (original + ath.swap_add) & 0xFFFFFFFFFFFFFFFF
        else:  # COMPARE_SWAP
            updated = ath.swap_add if original == ath.compare else original
        yield self.env.process(
            self._mem(ctx)[1](ath.vaddr, updated.to_bytes(8, "little"), 8)
        )
        yield from self._ack(ctx, psn, atomic_ack=AtomicAckEthHeader(original=original))

    def _handle_atomic_ack(self, ctx: _QpContext, packet: RocePacket) -> None:
        """Requester side: the response both acks the PSN and carries the
        original value back to the waiting verb."""
        self._progress_ack(ctx, packet.bth.psn)
        waiter = ctx.atomics.pop(packet.bth.psn, None)
        if waiter is not None and not waiter.triggered:
            waiter.succeed(packet.atomic_ack.original)

    def _handle_read_request(self, ctx: _QpContext, packet: RocePacket) -> Generator:
        """Validate a READ request and queue it: the answer comes from
        ``_respond``, so the receive loop goes on to the next frame."""
        qp = ctx.qp
        psn = packet.bth.psn
        if psn == qp.epsn:
            ctx.nak_sent = False
            qp.epsn = (qp.epsn + len(self._segments(packet.reth.dma_length))) % PSN_MOD
            qp.msn = (qp.msn + 1) % PSN_MOD
        elif not psn_leq(psn, (qp.epsn - 1) % PSN_MOD):
            yield from self._out_of_sequence(ctx, psn)
            return
        # else a duplicate: its requester lost a response and asks again,
        # and a READ is answered again (IB), from the memory as it is now.
        self._read_requests.append((ctx, packet, qp.msn))
        if not self._responding:
            self._responding = True
            self.env.process(self._respond(), name=f"{self.name}-rd-resp")

    def _answering(self, owed: tuple) -> bool:
        """Is ``owed`` still the entry the responder is on?  Asked after
        every resume: a halt, ``qp_error``, ``reset_qp`` or ``destroy_qp``
        meanwhile took the connection's entries out of the queue."""
        queue = self._read_requests
        return bool(queue) and queue[0] is owed

    def _respond(self) -> Generator:
        """The responder: answers owed READs oldest first, payloads
        prefetched by ``_payload_gen`` so local reads overlap the wire,
        and sends the replies queued behind them.  Lives only while
        ``_read_requests`` has entries."""
        while self._read_requests:
            owed = self._read_requests[0]
            ctx, packet, msn = owed
            if packet.bth.opcode != RoceOpcode.RDMA_READ_REQUEST:
                yield from self._send_packet(packet)  # a reply that waited
            else:
                psn = packet.bth.psn
                segments = self._segments(packet.reth.dma_length)
                lanes = self._payload_gen(self._mem(ctx)[0], packet.reth.vaddr, segments, owed)
                last = len(segments) - 1
                for index, seg_len in enumerate(segments):
                    payload = yield lanes[index & 1].get()
                    if not self._answering(owed):
                        for lane in lanes:
                            lane.clear()  # lets a blocked prefetcher see it too
                        break
                    opcode = _READ_RESPONSE_OPS[(index == 0) + 2 * (index == last)]
                    response = self._build(
                        ctx, opcode, (psn + index) % PSN_MOD, data=True,
                        aeth=AethHeader(syndrome=0, msn=msn) if RoceOpcode.has_aeth(opcode) else None,
                        payload=payload if isinstance(payload, (bytes, bytearray)) else None,
                        payload_length=seg_len,
                    )
                    yield from self._send_packet(response, ctx)
            if self._answering(owed):
                self._read_requests.popleft()
        self._responding = False

    def _handle_read_response(self, ctx: _QpContext, packet: RocePacket) -> None:
        # Responses arrive in PSN order, so the one taken next is the next
        # PSN of the oldest READ still owed one (every READ is owed one).
        mtu = self.config.mtu
        for op in ctx.reads:
            if not op.received or op.received * mtu < op.length:
                break
        else:
            return
        psn = packet.bth.psn
        if psn != (op.psn + op.received) % PSN_MOD:
            # A duplicate, or one behind a lost response: dropped without
            # acknowledging anything, so the READ is asked for again.
            return
        vaddr = op.local_vaddr + op.received * mtu
        op.received += 1
        self._land(ctx, op.write_fn, vaddr, packet.payload, packet.payload_length, psn, read=op)

    # ------------------------------------------------------------ landing

    def _land(
        self, ctx: _QpContext, write_fn: Callable, vaddr: int, payload: Optional[bytes],
        length: int, psn: Optional[int], msn: int = 0, read: Optional[_ReadOp] = None,
    ) -> None:
        """PayloadCon (blue-rdma's ``PayloadCon``): land one inbound
        payload in local memory beside the receive loop, which goes on to
        the next frame.  Landings of a QP overlap in memory and finish in
        arrival order.  Then a response of ``read`` acknowledges ``psn``
        (and completes the READ if it was the last), and a WRITE segment
        is answered with an ACK of ``psn`` carrying ``msn``, if it asked."""
        lane = ctx.landings
        before = lane[-1] if lane else None

        def landing() -> Generator:
            yield from write_fn(vaddr, payload, length)
            if before is not None and before.callbacks is not None:
                yield before  # still landing: finish in arrival order
            if ctx.landings is not lane:
                return  # flushed meanwhile: nothing to acknowledge or complete
            if read is not None:
                # Responses double as acks for the consumed PSNs.
                self._progress_ack(ctx, psn)
                if vaddr + length == read.local_vaddr + read.length:
                    ctx.reads.popleft()  # its last response
                    read.event.succeed()
            elif psn is not None:
                yield from self._ack(ctx, psn, msn=msn)
            lane.popleft()

        lane.append(self.env.process(landing(), name=f"{self.name}-land"))

    # ----------------------------------------------------- ack processing

    def _progress_ack(self, ctx: _QpContext, psn: int) -> None:
        """Cumulative acknowledgement of every PSN <= psn, short of a READ
        that lost a response."""
        # Both containers are in PSN order (``_track`` and the append to
        # ``pending`` follow the PSN's allocation with no yield between),
        # so what this ACK covers is a prefix of each.
        buffered = ctx.unacked
        released = []
        for p in buffered:
            if not psn_leq(p, psn):
                break
            if p != psn and buffered[p].bth.opcode == RoceOpcode.RDMA_READ_REQUEST:
                # Only its last response acknowledges a READ (it is buffered
                # under that PSN).  Acked past it, it lost a response: it and
                # what follows stay for the retransmit timer to ask again.
                if not released:
                    return  # nothing new acknowledged, so no progress either
                psn = (p - 1) % PSN_MOD
                break
            released.append(p)
        ctx.last_progress = self.env.now
        ctx.retries = 0
        for p in released:
            del buffered[p]
        if released:
            self._window.put(len(released))
        qp = ctx.qp
        if psn_leq(qp.acked_psn % PSN_MOD, psn):
            qp.acked_psn = psn
        pending = ctx.pending
        finished = []
        for msg in pending:
            if not psn_leq(msg.last_psn, psn):
                break
            finished.append(msg)
        del pending[: len(finished)]
        for msg in finished:
            msg.event.succeed()

    def _handle_ack(self, ctx: _QpContext, packet: RocePacket) -> None:
        aeth = packet.aeth
        if aeth is not None and aeth.is_nak:
            self.stats["naks_received"] += 1
            # Go-back-N: retransmit everything from the NAK'ed PSN.
            self.env.process(self._go_back_n(ctx, packet.bth.psn))
            return
        self._progress_ack(ctx, packet.bth.psn)

    def _go_back_n(self, ctx: _QpContext, from_psn: int) -> Generator:
        buffered = ctx.unacked
        ordered = sorted(
            (p for p in buffered if psn_leq(from_psn, p)),
            key=lambda p: (p - from_psn) % PSN_MOD,
        )
        for psn in ordered:
            packet = buffered.get(psn)
            if packet is None:
                continue  # acked while we were retransmitting earlier PSNs
            self.stats["retransmissions"] += 1
            yield from self._send_packet(packet, ctx)
        ctx.last_progress = self.env.now

    def _track(self, ctx: _QpContext, psn: int, packet: RocePacket) -> None:
        """Buffer an unacked packet and wake the retransmit timer."""
        if not ctx.unacked:
            # First outstanding packet after an idle spell starts the
            # progress clock; the timer fires one full timeout later.
            ctx.last_progress = self.env.now
        ctx.unacked[psn] = packet
        if self._timer_parked is not None and not self._timer_parked.triggered:
            self._timer_parked.succeed()

    def _retransmit_timer(self) -> Generator:
        timeout = self.config.retransmit_timeout_ns
        contexts = self._contexts
        while True:
            if not any(ctx.unacked for ctx in contexts.values()):
                # Park: an idle requester must not keep the simulation
                # alive forever; _track() kicks us on the next packet.
                self._timer_parked = Event(self.env)
                yield self._timer_parked
                self._timer_parked = None
                continue
            yield self.env.sleep(timeout)
            for ctx in list(contexts.values()):
                buffered = ctx.unacked
                if not buffered:
                    continue
                if self.env.now - ctx.last_progress < timeout:
                    continue
                ctx.retries += 1
                if ctx.retries > self.config.max_retries:
                    # Retry budget exhausted: the peer (or the path) is
                    # gone.  ERROR the QP; flushed WRs tell the requester.
                    self.qp_error(ctx.qpn, reason="retry exhausted")
                    continue
                oldest = min(buffered, key=lambda p: (p - ctx.qp.acked_psn) % PSN_MOD)
                yield self.env.process(self._go_back_n(ctx, oldest))
