"""AXI4-Stream channel model with ready/valid back-pressure.

An :class:`AxiStream` behaves like the ready/valid handshake of a real AXI
stream: a sender occupies the bus for the flit's beat count, and is blocked
when the downstream FIFO is full (deasserted ``tready``), which is how
back-pressure propagates through the shell and, via the credit system, is
contained to the offending vFPGA.

The bus is a booked station (:class:`repro.sim.rate.FifoServer`): a
flit's beats are known when it is offered, and the shell sizes every
destination FIFO by its credits, so a sender holding a credit never
finds the FIFO full and its slot ends when its beats do.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..sim.clock import FABRIC_CLOCK, Clock
from ..sim.engine import Environment
from ..sim.rate import FifoServer
from ..sim.resources import Store
from .types import STREAM_WIDTH_BYTES, Flit

__all__ = ["AxiStream"]


class AxiStream:
    """A point-to-point AXI4-Stream link.

    Parameters
    ----------
    depth_flits:
        FIFO depth in flits.  A full FIFO blocks the sender (back-pressure).
    width_bytes:
        Bus width; transmission occupies ``flit.beats(width)`` cycles.
    clock:
        Clock domain the bus runs in.
    """

    def __init__(
        self,
        env: Environment,
        name: str = "axis",
        depth_flits: int = 16,
        width_bytes: int = STREAM_WIDTH_BYTES,
        clock: Clock = FABRIC_CLOCK,
    ):
        self.env = env
        self.name = name
        self.width_bytes = width_bytes
        self._beat_ns = clock.period_ns
        self._fifo = Store(env, capacity=depth_flits)
        self._bus = FifoServer(env)
        self.bytes_sent = 0
        self.flits_sent = 0

    # -- producer side ----------------------------------------------------

    def book(self, flit: Flit) -> float:
        """Book the bus for ``flit``'s beat count, behind every flit
        booked before it; returns when its last beat is across."""
        return self._bus.book(flit.beats(self.width_bytes) * self._beat_ns)

    def send(self, flit: Flit) -> Generator:
        """Transmit one flit: its beats on the bus, then into the FIFO,
        waiting there while the FIFO is full.

        Usage from a process: ``yield from stream.send(flit)``.
        """
        yield self.env.timeout_at(self.book(flit))
        yield self._fifo.put(flit)
        self.bytes_sent += flit.length
        self.flits_sent += 1

    def deposit(self, flit: Flit) -> None:
        """Land a flit whose :meth:`book` finish has come, for a sender
        that does not wait: one holding a credit, which guarantees the
        FIFO has room."""
        self._fifo.put(flit)
        self.bytes_sent += flit.length
        self.flits_sent += 1

    def send_bytes(
        self,
        data: bytes,
        tid: int = 0,
        tdest: int = 0,
        chunk: Optional[int] = None,
    ) -> Generator:
        """Split a byte payload into flits and send them all."""
        chunk = chunk or len(data)
        offset = 0
        while offset < len(data):
            piece = data[offset : offset + chunk]
            offset += len(piece)
            flit = Flit(
                length=len(piece),
                data=piece,
                tid=tid,
                tdest=tdest,
                last=offset >= len(data),
            )
            yield from self.send(flit)

    # -- consumer side ----------------------------------------------------

    def recv(self) -> Generator:
        """Receive one flit: ``flit = yield from stream.recv()``."""
        flit = yield self._fifo.get()
        return flit

    def recv_message(self) -> Generator:
        """Collect flits until ``last`` and return the assembled payload."""
        parts = []
        total = 0
        tid = 0
        while True:
            flit = yield self._fifo.get()
            tid = flit.tid
            total += flit.length
            if flit.data is not None:
                parts.append(flit.data)
            if flit.last:
                break
        data = b"".join(parts) if parts else None
        return Flit(length=total, data=data, tid=tid, last=True)

    def try_recv(self) -> Optional[Flit]:
        return self._fifo.try_get()

    def reset(self) -> int:
        """Wipe the FIFO (region hot-reset); returns flits discarded."""
        return self._fifo.clear()

    @property
    def occupancy(self) -> int:
        return len(self._fifo)
