"""The send queue (blue-rdma's ``SendQ``) and its reliability: the window,
the go-back-N retransmit buffer and the retransmit timer."""

from __future__ import annotations

from typing import Callable, Generator, List, Optional

from ...sim.engine import Event
from ...sim.resources import Container
from ..headers import RethHeader, RoceOpcode
from ..packet import RocePacket
from ..qp import PSN_MOD
from .context import (
    _HALF_PSN_SPACE, _WRITE_STARTS, WrFlushError, _PendingMessage, _QpContext, psn_leq,
)


class Reliability:
    """One stack's requester window, shared by every QP, and its timer."""

    def __init__(self, stack):
        self.stack = stack
        self.env = stack.env
        config = stack.config
        # Requester window, shared by every QP of the stack.
        self.window = Container(self.env, capacity=config.max_outstanding, init=config.max_outstanding)
        self.timer_parked: Optional[Event] = None

    def credited(self, ctx: _QpContext, wr_id: int, verb: str) -> None:
        """Called on the grant of ``yield window.get(1)``, the window
        credit of ``ctx``'s next packet.  A flush that landed while the
        requester was parked on it refunds the fresh credit and raises
        for the verb — that beats transmitting into the void."""
        if ctx.qp.in_error:
            self.window.put(1)
            raise WrFlushError(ctx.qpn, wr_id, verb, ctx.qp.error_reason)

    def send_queue(
        self, ctx: _QpContext, ops: tuple, verb: str, segments: List[int], wr_id: int,
        source, remote_vaddr: int = 0,
    ) -> Generator:
        """The send queue (blue-rdma's ``SendQ``): a WRITE or SEND message
        as its MTU ``segments``, each staged, given a window credit and a
        PSN, buffered for retransmission and sent.  ``source`` is the
        payload generator's lanes of a WRITE, or the bytes of a SEND.
        Returns the completion, once the message's last PSN is acked."""
        stack = self.stack
        qp = ctx.qp
        mtu = stack.config.mtu
        length = sum(segments)
        lanes = source if isinstance(source, list) else None
        done = Event(self.env)
        last = len(segments) - 1
        for index, seg_len in enumerate(segments):
            opcode = ops[(index == 0) + 2 * (index == last)]
            if lanes is None:
                payload = source[index * mtu : index * mtu + seg_len]
            else:
                # Stage first, then take the credit: with no yield between
                # the credit grant and track(), a concurrent flush can
                # account for every held credit from the retransmit buffer.
                payload = yield lanes[index & 1].get()
                if not isinstance(payload, (bytes, bytearray)):
                    payload = None
            try:
                yield self.window.get(1)
                self.credited(ctx, wr_id, verb)
            except WrFlushError:
                for lane in lanes or ():
                    lane.clear()  # a fetch parked on a full lane sees the flush
                raise
            psn = qp.next_psn()
            # Request an ack on every packet so the window drains
            # continuously; real responders coalesce these replies.
            packet = stack._build(
                ctx, opcode, psn, ack_request=True, data=True,
                reth=RethHeader(remote_vaddr, qp.remote.rkey, length)
                if opcode in _WRITE_STARTS
                else None,
                payload=payload,
                payload_length=seg_len,
            )
            self.track(ctx, psn, packet)
            if index == last:
                ctx.pending.append(_PendingMessage(psn, done, wr_id, verb, length))
            yield from stack._send_packet(packet, ctx)
        yield done
        return stack._complete(ctx, wr_id, verb, length)

    def request(
        self, ctx: _QpContext, opcode: int, wr_id: int, verb: str, span: int, register: Callable, **extension
    ) -> Generator:
        """A READ or atomic request: one packet, one credit and ``span``
        PSNs; returns what its ``done`` carries.  ``register(first PSN,
        done)`` files the verb's record before ``track``, with no yield
        between, so requests posted together take disjoint PSN ranges in
        the order their records queue.  Buffered under its *last* PSN:
        responses ack cumulatively, so a READ stays retransmittable until
        its last response arrived — a responder that stops answering ends
        in "retry exhausted", not a hang."""
        yield self.window.get(1)
        self.credited(ctx, wr_id, verb)
        qp = ctx.qp
        psn = qp.sq_psn
        qp.sq_psn = (psn + span) % PSN_MOD
        done = Event(self.env)
        register(psn, done)
        packet = self.stack._build(ctx, opcode, psn, ack_request=True, **extension)
        self.track(ctx, (psn + span - 1) % PSN_MOD, packet)
        yield from self.stack._send_packet(packet, ctx)
        return (yield done)

    def track(self, ctx: _QpContext, psn: int, packet: RocePacket) -> None:
        """Buffer an unacked packet and wake the retransmit timer."""
        if not ctx.unacked:
            # First outstanding packet after an idle spell starts the
            # progress clock; the timer fires one full timeout later.
            ctx.last_progress = self.env.now
        ctx.unacked[psn] = packet
        if self.timer_parked is not None and not self.timer_parked.triggered:
            self.timer_parked.succeed()

    def flush(self, ctx: _QpContext) -> None:
        """Drop ``ctx``'s retransmit buffer, refunding the credits it held."""
        if ctx.unacked:
            self.window.put(len(ctx.unacked))
            ctx.unacked.clear()

    def on_ack(self, ctx: _QpContext, packet: RocePacket) -> None:
        """An ACK, a NAK or an atomic's response reached the requester."""
        aeth = packet.aeth
        if aeth is not None and aeth.is_nak:
            self.stack.stats["naks_received"] += 1
            # Go-back-N: retransmit everything from the NAK'ed PSN.
            self.env.process(self._go_back_n(ctx, packet.bth.psn))
            return
        self.progress(ctx, packet.bth.psn)
        if packet.bth.opcode == RoceOpcode.ATOMIC_ACKNOWLEDGE:
            # The response also carries the original value back to the
            # waiting verb.
            waiter, _wr_id = ctx.atomics.pop(packet.bth.psn, (None, 0))
            if waiter is not None and not waiter.triggered:
                waiter.succeed(packet.atomic_ack.original)

    def progress(self, ctx: _QpContext, psn: int) -> None:
        """Cumulative acknowledgement of every PSN <= psn, short of a READ
        that lost a response."""
        # Both containers are in PSN order (``track`` and the append to
        # ``pending`` follow the PSN's allocation with no yield between),
        # so what this ACK covers is a prefix of each.
        buffered = ctx.unacked
        released = []
        for p, packet in buffered.items():
            if (psn - p) % PSN_MOD >= _HALF_PSN_SPACE:
                break  # past ``psn`` (``psn_leq``, inline: once a PSN)
            if p != psn and packet.bth.opcode == RoceOpcode.RDMA_READ_REQUEST:
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
            # Eventless: the window only ever gets back what it lent.
            self.window.put_nowait(len(released))
        qp = ctx.qp
        if psn_leq(qp.acked_psn % PSN_MOD, psn):
            qp.acked_psn = psn
        pending = ctx.pending
        finished = []
        for msg in pending:
            if (psn - msg.last_psn) % PSN_MOD >= _HALF_PSN_SPACE:
                break
            finished.append(msg)
        del pending[: len(finished)]
        for msg in finished:
            msg.event.succeed()

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
            self.stack.stats["retransmissions"] += 1
            yield from self.stack._send_packet(packet, ctx)
        ctx.last_progress = self.env.now

    def timer(self) -> Generator:
        """The retransmit timer (the ``{name}-timer`` process)."""
        stack = self.stack
        timeout = stack.config.retransmit_timeout_ns
        contexts = stack._contexts
        while True:
            if not any(ctx.unacked for ctx in contexts.values()):
                # Park: an idle requester must not keep the simulation
                # alive forever; track() kicks us on the next packet.
                self.timer_parked = Event(self.env)
                yield self.timer_parked
                self.timer_parked = None
                continue
            yield self.env.sleep(timeout)
            for ctx in list(contexts.values()):
                buffered = ctx.unacked
                if not buffered:
                    continue
                if self.env.now - ctx.last_progress < timeout:
                    continue
                ctx.retries += 1
                if ctx.retries > stack.config.max_retries:
                    # Retry budget exhausted: the peer (or the path) is
                    # gone.  ERROR the QP; flushed WRs tell the requester.
                    stack.qp_error(ctx.qpn, reason="retry exhausted")
                    continue
                oldest = min(buffered, key=lambda p: (p - ctx.qp.acked_psn) % PSN_MOD)
                yield from self._go_back_n(ctx, oldest)
