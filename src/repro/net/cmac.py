"""100G CMAC model: the card's Ethernet MAC.

Serialises frames at 100 Gbit/s (12.5 bytes/ns) with the standard 20-byte
inter-frame overhead (preamble + IPG).  The sniffer service (paper §8)
inserts its filter between the network stacks and the CMAC, so the MAC
exposes TX/RX tap points.

PFC (IEEE 802.1Qbb) is modelled on both faces of the MAC:

* **Honoring pause** — :meth:`pause` (called by the switch when this
  port's ingress buffer share crosses XOFF) gates :meth:`tx` until the
  hold timer expires, an explicit :meth:`resume` (XON) arrives, or the
  switch's storm watchdog breaks the pause with a typed
  ``PfcStormError`` delivered to every parked sender.
* **Asserting pause** — with ``rx_xoff_frames`` configured, a receive
  backlog past the watermark pauses the *link partner* (the switch
  egress port feeding this MAC), modelling a slow or wedged host NIC —
  the classic trigger of congestion spreading and PFC storms.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional

from ..sim.engine import Environment, Event
from ..sim.resources import Resource, Store
from .packet import RocePacket

__all__ = ["Cmac", "CMAC_BANDWIDTH", "PAUSE_QUANTA_NS", "PfcPause"]

#: 100 Gbit/s in bytes per nanosecond.
CMAC_BANDWIDTH = 12.5
#: Preamble + start delimiter + minimum inter-packet gap, in bytes.
FRAME_OVERHEAD_BYTES = 20
#: How long one pause frame holds the transmitter.  Real PFC quanta are
#: 512 bit-times each; 10 µs approximates a near-full quanta field at
#: 100G.  The hold timer makes pause *leaky*: an unrefreshed pause
#: expires on its own, which is what keeps storm detection live.
PAUSE_QUANTA_NS = 10_000.0


class PfcPause:
    """How a transmitter honours PFC: the one pause that a :class:`Cmac`
    and a switch egress port each hold.

    :meth:`hold` (XOFF) extends ``until``; :meth:`release` (XON, or a
    storm break with ``exc``) ends it at once.  Every waiter — a sender
    in :meth:`wait`, a station's callback in :meth:`park` — parks on one
    shared wake event, woken by the release or by the hold timer: one
    ``timeout(until - now)`` callback, armed by the first waiter and
    re-armed while refreshes keep pushing ``until`` out.  A release
    disarms it, so a later, shorter hold arms its own.  ``name`` is what
    profilers book the timer under.
    """

    __slots__ = ("env", "name", "until", "_wake", "_timer")

    def __init__(self, env: Environment, name: str):
        self.env = env
        self.name = name
        self.until = 0.0
        self._wake: Optional[Event] = None
        self._timer: Optional[Event] = None

    def hold(self, duration_ns: float) -> None:
        until = self.env.now + duration_ns
        if until > self.until:
            self.until = until

    def release(self, exc: Optional[Exception] = None) -> None:
        """End the hold; with ``exc``, fail every parked waiter with it."""
        self.until = self.env.now
        self._timer = None
        wake, self._wake = self._wake, None
        if wake is None:
            return
        if exc is None:
            wake.succeed()
        else:
            # Pre-defuse: the failure must reach parked waiters without
            # crashing the loop if one abandoned the wait meanwhile.
            wake.defuse().fail(exc)

    def wait(self) -> Generator:
        """Park until the hold lifts; re-raises a storm break."""
        while self.env.now < self.until:
            yield self._armed_wake()

    def park(self, callback: Callable[[Event], None]) -> None:
        """:meth:`wait` for a station with no process: ``callback`` runs
        on the wake, where a waiter's resume would, and re-checks the
        hold as :meth:`wait`'s loop does.  Call it only while held."""
        self._armed_wake().callbacks.append(callback)

    def _armed_wake(self) -> Event:
        if self._wake is None:
            self._wake = Event(self.env)
        if self._timer is None:
            self._arm()
        return self._wake

    def _arm(self) -> None:
        self._timer = self.env.timeout(self.until - self.env.now)
        self._timer.callbacks.append(self._expire)

    def _expire(self, timer: Event) -> None:
        if timer is not self._timer:
            return  # disarmed by a release
        if self.env.now < self.until:
            self._arm()  # refreshed since it was armed: sleep out the rest
            return
        self._timer = None
        wake, self._wake = self._wake, None
        if wake is not None:
            wake.succeed()


class Cmac:
    """One port of 100G Ethernet attached to the switch fabric."""

    def __init__(
        self,
        env: Environment,
        name: str = "cmac",
        rx_xoff_frames: Optional[int] = None,
        rx_xon_frames: Optional[int] = None,
    ):
        self.env = env
        self.name = name
        self._tx_port = Resource(env, capacity=1)
        self.rx_queue: Store = Store(env)
        self._wire: Optional[Callable[[RocePacket], None]] = None
        # Taps: the sniffer filter registers observers here.
        self.tx_taps: List[Callable[[float, RocePacket], None]] = []
        self.rx_taps: List[Callable[[float, RocePacket], None]] = []
        self.tx_frames = 0
        self.rx_frames = 0
        self.tx_bytes = 0
        self.rx_bytes = 0
        # -- PFC: honoring pause (transmit side) -------------------------
        self.pfc = PfcPause(env, f"{name}-pfc-hold")
        self.pause_frames_rx = 0  # XOFFs this MAC honored
        self.pause_resumes_rx = 0  # explicit XONs received
        # -- PFC: asserting pause (receive side) --------------------------
        #: Set by the switch at attach time: the egress port feeding this
        #: MAC, pausable when the receive backlog crosses the watermark.
        self.link_partner = None
        self.rx_xoff_frames = rx_xoff_frames
        self.rx_xon_frames = (
            rx_xon_frames
            if rx_xon_frames is not None
            else (max(0, rx_xoff_frames // 2) if rx_xoff_frames else None)
        )
        self._rx_pause_asserted = False
        self.pause_frames_tx = 0  # XOFFs this MAC sent upstream

    def attach_wire(self, deliver: Callable[[RocePacket], None]) -> None:
        """Connect to the switch; ``deliver`` enqueues into the fabric."""
        self._wire = deliver

    # ------------------------------------------------------ PFC honoring

    def pause(self, duration_ns: float = PAUSE_QUANTA_NS) -> None:
        """Honor a PFC XOFF: hold the transmitter for ``duration_ns``
        (refreshes extend the hold; the timer expiring resumes on its own)."""
        self.pause_frames_rx += 1
        self.pfc.hold(duration_ns)

    def resume(self) -> None:
        """Honor a PFC XON: release the transmitter immediately."""
        self.pause_resumes_rx += 1
        self.pfc.release()

    def break_pause(self, exc: Exception) -> None:
        """Storm mitigation: tear the pause down, delivering ``exc`` (a
        typed ``PfcStormError``) to every sender parked on it."""
        self.pfc.release(exc)

    # ---------------------------------------------------------- datapath

    def tx(self, packet: RocePacket) -> Generator:
        """Serialise one frame onto the wire."""
        if self._wire is None:
            raise RuntimeError(f"{self.name}: not attached to a wire")
        env = self.env
        pause = self.pfc
        if env.now < pause.until:
            yield from pause.wait()
        port = self._tx_port
        # A free port whose grant would be the next event dispatched is
        # taken with no event: the sender goes on at this instant with
        # nothing run in between, as it would on the grant's dispatch.
        grant = port.take()
        if grant is None:
            grant = port.request()
            yield grant
        try:
            # The pause may have landed while we queued for the port.
            if env.now < pause.until:
                yield from pause.wait()
            yield env.sleep((packet.wire_length + FRAME_OVERHEAD_BYTES) / CMAC_BANDWIDTH)
        finally:
            port.release(grant)
        self.tx_frames += 1
        self.tx_bytes += packet.wire_length
        for tap in self.tx_taps:
            tap(self.env.now, packet)
        self._wire(packet)

    def deliver(self, packet: RocePacket) -> None:
        """Called by the switch when a frame arrives for this port."""
        self.rx_frames += 1
        self.rx_bytes += packet.wire_length
        for tap in self.rx_taps:
            tap(self.env.now, packet)
        # Nobody waits on a delivery: the receive loop is parked on the
        # queue's get, or the frame queues (the queue is unbounded).
        self.rx_queue.put_nowait(packet)
        if (
            self.rx_xoff_frames is not None
            and self.link_partner is not None
            and len(self.rx_queue) >= self.rx_xoff_frames
        ):
            # Receive backlog past the watermark: XOFF the switch egress
            # feeding us.  Every further delivery refreshes the pause, so
            # a wedged host keeps its uplink throttled (and, past the
            # storm threshold, trips the switch's watchdog).
            self._rx_pause_asserted = True
            self.pause_frames_tx += 1
            self.link_partner.pause()

    def rx(self) -> Generator:
        """Receive the next frame: ``pkt = yield from cmac.rx()``."""
        packet = yield self.rx_queue.get()
        if (
            self._rx_pause_asserted
            and self.link_partner is not None
            and len(self.rx_queue) <= (self.rx_xon_frames or 0)
        ):
            self._rx_pause_asserted = False
            self.link_partner.resume()
        return packet
