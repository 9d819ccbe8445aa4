"""The receive side: classification and PSN admission (blue-rdma's
``InputPktHandle``), the responder (``RQ``) and payload landing
(``PayloadCon``)."""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Deque, Generator, Optional, Tuple

from ...sim.engine import Event
from ..headers import ECN_CE, AethHeader, AtomicAckEthHeader, RoceOpcode
from ..packet import RocePacket
from ..qp import PSN_MOD, QpState
from .context import (
    _ATOMIC_OPS, _READ_RESPONSE_OPS, _SEND_OPS, _WRITE_OPS, _WRITE_STARTS, WriteLocal, _QpContext,
    _ReadOp, psn_leq,
)

#: What the receive loop tells apart on every frame, as module constants.
_ERROR = QpState.ERROR
_CNP = RoceOpcode.CNP
_ACK_OPS = (RoceOpcode.ACKNOWLEDGE, RoceOpcode.ATOMIC_ACKNOWLEDGE)
#: Request opcodes that end a message, and so take an MSN when admitted.
_MESSAGE_ENDS = _WRITE_OPS[2:] + _SEND_OPS[2:] + (
    RoceOpcode.RDMA_READ_REQUEST, RoceOpcode.FETCH_ADD, RoceOpcode.COMPARE_SWAP,
)


class Responder:
    """The receive loop of one stack and the READ requests it owes."""

    def __init__(self, stack, rx_queue):
        self.stack = stack
        self.env = stack.env
        #: Packet source: the raw CMAC queue, or a demuxed per-protocol
        #: queue when the shell runs several networking services at once.
        self.rx_queue = rx_queue
        # ``(ctx, packet, msn)`` per READ request accepted and not yet
        # answered, oldest first, with the replies that must not overtake
        # them queued in between.  ``_respond`` runs only while this has
        # entries; ``drop`` takes a dead connection's out.
        self.owed: Deque[Tuple[_QpContext, RocePacket, int]] = deque()
        self.responding = False
        self._land_name = f"{stack.name}-land"

    def drop(self, ctx: _QpContext) -> None:
        """What a dead connection's peer was still owed goes with it."""
        if self.owed:
            self.owed = deque(o for o in self.owed if o[0] is not ctx)

    # ------------------------------------------------------ classification

    def loop(self) -> Generator:
        """The receive loop (the ``{name}-rx`` process)."""
        stack = self.stack
        env = self.env
        get = self.rx_queue.get
        stats = stack.stats
        contexts = stack._contexts
        processing_ns = stack.config.per_packet_processing_ns
        while True:
            packet = yield get()
            if not isinstance(packet, RocePacket):
                continue  # another protocol on the shared fabric
            stats["rx_packets"] += 1
            yield env.sleep(processing_ns)
            bth = packet.bth
            ctx = contexts.get(bth.dest_qp)
            opcode = bth.opcode
            if ctx is not None and ctx.flushed is not None:
                # The QP's first frame after a flush: the flushed
                # connection's payloads land before anything else.
                flushed, ctx.flushed = ctx.flushed, None
                if flushed.callbacks is not None:
                    yield flushed
            elif ctx is not None and ctx.landings and not (
                opcode in _READ_RESPONSE_OPS
                or (opcode in _WRITE_OPS and bth.psn == ctx.qp.epsn)
            ):
                # PayloadCon's fence: only the next in-sequence payload
                # overtakes a landing of its QP.  A READ or an atomic
                # reads what earlier payloads wrote, a SEND or duplicate
                # is answered by a cumulative ACK, and an inbound ACK
                # would complete a verb posted after a READ still landing.
                yield ctx.landings[-1]
            if stack.halted:
                continue  # a crashed node processes nothing
            if ctx is None or ctx.qp.remote is None:
                continue  # drop traffic for unknown QPs
            if ctx.qp.state is _ERROR:
                continue  # ERROR silently discards inbound work (IB)
            if packet.ip.ecn == ECN_CE:
                # Congestion point marked this frame: we are the DCQCN
                # notification point — answer with a (rate-limited) CNP.
                stats["ecn_ce_received"] += 1
                self._maybe_send_cnp(ctx)
            if opcode == _CNP:
                stats["cnps_received"] += 1
                if ctx.rate is not None:
                    ctx.rate.on_cnp(env.now)
            elif opcode in _ACK_OPS:
                stack._reliability.on_ack(ctx, packet)
            elif opcode in _READ_RESPONSE_OPS:
                self._read_response(ctx, packet)
            elif (verdict := self._admit(ctx, packet)) is not True:
                if verdict:  # the refusal's re-ack or NAK
                    yield from self.ack(ctx, *verdict)
            elif opcode == RoceOpcode.RDMA_READ_REQUEST:
                # Answered by ``_respond``: the loop goes on to the next frame.
                self.owed.append((ctx, packet, ctx.qp.msn))
                if not self.responding:
                    self.responding = True
                    # Spawned on purpose: responses go out beside the receive loop.
                    env.process(self._respond(), name=f"{stack.name}-rd-resp")
            elif opcode in _WRITE_OPS:
                self._write(ctx, packet)
            elif opcode in _ATOMIC_OPS:
                yield from self._atomic(ctx, packet)
            else:
                yield from self._send(ctx, packet)

    def _maybe_send_cnp(self, ctx: _QpContext) -> None:
        """Generate a CNP toward the marked flow's sender, at most one
        per QP per ``cnp_interval_ns`` (the notification-point filter).
        Sent from a spawned process: the reverse path may itself be
        congested or paused, and the rx loop must keep draining."""
        stack = self.stack
        last = ctx.cnp_last_sent
        if last is not None and self.env.now - last < stack.config.dcqcn.cnp_interval_ns:
            return
        ctx.cnp_last_sent = self.env.now
        cnp = stack._build(ctx, RoceOpcode.CNP, 0)
        stack.stats["cnps_sent"] += 1
        self.env.process(stack._send_packet(cnp), name=f"{stack.name}-cnp")

    def _admit(self, ctx: _QpContext, packet: RocePacket) -> bool | tuple | None:
        """PSN admission of an inbound request: True if a handler may run,
        else the ``ack`` arguments of the reply the refusal owes, if any.
        The expected PSN takes the request (a READ one PSN per response)
        and, if it ends a message, an MSN.  A duplicate from a go-back-N
        rewind is re-acked, a duplicate READ answered again (IB): its
        requester lost a response.  A gap or a duplicate atomic is NAKed
        once."""
        qp = ctx.qp
        psn = packet.bth.psn
        opcode = packet.bth.opcode
        read = opcode == RoceOpcode.RDMA_READ_REQUEST
        if psn == qp.epsn:
            ctx.nak_sent = False
            span = len(self.stack._segments(packet.reth.dma_length)) if read else 1
            qp.epsn = (qp.epsn + span) % PSN_MOD
            if opcode in _MESSAGE_ENDS:
                qp.msn = (qp.msn + 1) % PSN_MOD
            return True
        if psn_leq(psn, (qp.epsn - 1) % PSN_MOD):
            if read:
                return True
            if opcode not in _ATOMIC_OPS:
                return ((qp.epsn - 1) % PSN_MOD,)
        if not ctx.nak_sent:
            ctx.nak_sent = True
            return (qp.epsn, AethHeader.NAK_PSN_SEQUENCE_ERROR)
        return None

    # ----------------------------------------------------------- responder

    def ack(
        self, ctx: _QpContext, psn: int, syndrome: int = 0,
        atomic_ack: Optional[AtomicAckEthHeader] = None, msn: Optional[int] = None,
    ) -> Generator:
        """Reply to the requester: an ACK, a NAK (``syndrome``) or, with
        ``atomic_ack``, the response of an atomic.  It carries ``msn``,
        the MSN when ``psn`` arrived, else the QP's current one."""
        qp = ctx.qp
        if qp.remote is None or qp.state is _ERROR:
            return  # the connection ended while the handler was in memory
        stack = self.stack
        packet = stack._build(
            ctx,
            RoceOpcode.ACKNOWLEDGE if atomic_ack is None else RoceOpcode.ATOMIC_ACKNOWLEDGE,
            psn, aeth=AethHeader(syndrome, qp.msn if msn is None else msn),
            atomic_ack=atomic_ack,
        )
        stack.stats["naks_sent" if syndrome else "acks_sent"] += 1
        # Response order per QP: ACKs are cumulative, so one that overtook
        # READ responses its QP still owes would acknowledge the READ before
        # its data arrived.  It queues behind them; a QP that owes nothing
        # (always, without READs) replies inline.
        queue = self.owed
        if queue and any(owed[0] is ctx for owed in queue):
            queue.append((ctx, packet, 0))
        else:
            yield from stack._send_packet(packet)

    def _write(self, ctx: _QpContext, packet: RocePacket) -> None:
        """An admitted WRITE_* packet: its payload lands beside the
        receive loop."""
        bth = packet.bth
        payload = packet.payload
        if ctx.rx_offload is not None and payload is not None:
            payload = ctx.rx_offload(payload)
        if bth.opcode in _WRITE_STARTS:  # it carries the RETH
            ctx.write_cursor = packet.reth.vaddr
        vaddr = ctx.write_cursor
        length = packet.payload_length
        ctx.write_cursor = vaddr + length
        # The ACK leaves when the payload has landed, with this MSN.
        self.land(
            ctx, self.stack._mem(ctx)[1], vaddr, payload, length,
            bth.psn if bth.ack_request else None, ctx.qp.msn,
        )

    def _send(self, ctx: _QpContext, packet: RocePacket) -> Generator:
        """An admitted SEND_* packet."""
        opcode = packet.bth.opcode
        payload = packet.payload
        if ctx.rx_offload is not None and payload is not None:
            payload = ctx.rx_offload(payload)
        ctx.send_parts.append(payload or bytes(packet.payload_length))
        if opcode in (RoceOpcode.SEND_LAST, RoceOpcode.SEND_ONLY):
            ctx.recv_queue.put(b"".join(ctx.send_parts))
            ctx.send_parts.clear()
        if packet.bth.ack_request:
            yield from self.ack(ctx, packet.bth.psn)

    def _atomic(self, ctx: _QpContext, packet: RocePacket) -> Generator:
        """Responder side of FETCH_ADD / CMP_SWAP: read-modify-write the
        8-byte target atomically (the rx loop serialises us) and return
        the original value in an ATOMIC_ACKNOWLEDGE."""
        read_local, write_local = self.stack._mem(ctx)
        ath = packet.atomic_eth
        raw = yield from read_local(ath.vaddr, 8)
        original = int.from_bytes(raw, "little") if raw is not None else 0
        if packet.bth.opcode == RoceOpcode.FETCH_ADD:
            updated = (original + ath.swap_add) & 0xFFFFFFFFFFFFFFFF
        else:  # COMPARE_SWAP
            updated = ath.swap_add if original == ath.compare else original
        yield from write_local(ath.vaddr, updated.to_bytes(8, "little"), 8)
        yield from self.ack(ctx, packet.bth.psn, atomic_ack=AtomicAckEthHeader(original=original))

    def answering(self, owed: tuple) -> bool:
        """Is ``owed`` still the entry the responder is on?  Asked after
        every resume: a halt, ``qp_error``, ``reset_qp`` or ``destroy_qp``
        meanwhile took the connection's entries out of the queue."""
        queue = self.owed
        return bool(queue) and queue[0] is owed

    def _respond(self) -> Generator:
        """The responder: answers owed READs oldest first, payloads
        prefetched by ``_payload_gen`` so local reads overlap the wire,
        and sends the replies queued behind them.  Lives only while
        ``owed`` has entries."""
        stack = self.stack
        while self.owed:
            owed = self.owed[0]
            ctx, packet, msn = owed
            if packet.bth.opcode != RoceOpcode.RDMA_READ_REQUEST:
                yield from stack._send_packet(packet)  # a reply that waited
            else:
                psn = packet.bth.psn
                segments = stack._segments(packet.reth.dma_length)
                lanes = stack._payload_gen(
                    stack._mem(ctx)[0], packet.reth.vaddr, segments, "rd", partial(self.answering, owed)
                )
                last = len(segments) - 1
                for index, seg_len in enumerate(segments):
                    payload = yield lanes[index & 1].get()
                    if not self.answering(owed):
                        for lane in lanes:
                            lane.clear()  # lets a blocked prefetcher see it too
                        break
                    opcode = _READ_RESPONSE_OPS[(index == 0) + 2 * (index == last)]
                    response = stack._build(
                        ctx, opcode, (psn + index) % PSN_MOD, data=True,
                        # Every response but a middle one carries the AETH.
                        aeth=AethHeader(0, msn) if opcode != _READ_RESPONSE_OPS[0] else None,
                        payload=payload if isinstance(payload, (bytes, bytearray)) else None,
                        payload_length=seg_len,
                    )
                    yield from stack._send_packet(response, ctx)
            if self.answering(owed):
                self.owed.popleft()
        self.responding = False

    # ------------------------------------------------ requester: responses

    def _read_response(self, ctx: _QpContext, packet: RocePacket) -> None:
        # Responses arrive in PSN order, so the one taken next is the next
        # PSN of the oldest READ still owed one (every READ is owed one).
        mtu = self.stack.config.mtu
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
        self.land(ctx, op.write_fn, vaddr, packet.payload, packet.payload_length, psn, read=op)

    # ----------------------------------------------------------- PayloadCon

    def land(
        self, ctx: _QpContext, write_fn: WriteLocal, vaddr: int, payload: Optional[bytes],
        length: int, psn: Optional[int], msn: int = 0, read: Optional[_ReadOp] = None,
    ) -> None:
        """PayloadCon (blue-rdma's ``PayloadCon``): land one inbound
        payload in local memory beside the receive loop, which goes on to
        the next frame.  Landings of a QP overlap in memory and finish in
        arrival order.  Then a response of ``read`` acknowledges ``psn``
        (and completes the READ if it was the last), and a WRITE segment
        is answered with an ACK of ``psn`` carrying ``msn``, if it asked."""
        lane = ctx.landings
        landing = self._landing(
            ctx, lane, lane[-1] if lane else None, write_fn, vaddr, payload, length, psn, msn, read
        )
        # Spawned on purpose: a landing runs beside the receive loop.
        lane.append(self.env.process(landing, name=self._land_name))

    def _landing(
        self, ctx: _QpContext, lane: Deque, before: Optional[Event], write_fn: WriteLocal,
        vaddr: int, payload: Optional[bytes], length: int, psn: Optional[int], msn: int,
        read: Optional[_ReadOp],
    ) -> Generator:
        """The ``{name}-land`` process of :meth:`land`; ``before`` is the
        landing of ``lane`` it must finish behind, if any."""
        yield from write_fn(vaddr, payload, length)
        if before is not None and before.callbacks is not None:
            yield before  # still landing: finish in arrival order
        if ctx.landings is not lane:
            return  # flushed meanwhile: nothing to acknowledge or complete
        if read is not None:
            # Responses double as acks for the consumed PSNs.
            self.stack._reliability.progress(ctx, psn)
            if vaddr + length == read.local_vaddr + read.length:
                ctx.reads.popleft()  # its last response
                read.event.succeed()
        elif psn is not None:
            yield from self.ack(ctx, psn, msn=msn)
        lane.popleft()
