"""A cut-through data-center switch connecting simulated 100G ports.

The paper's RDMA stack runs "over a switched network ... compatible with
commodity hardware"; experiments here connect two or more simulated FPGA
nodes (and, for tests, software peers) through this fabric.

Forwarding is no longer instantaneous: every egress port owns a
finite, byte-accounted FIFO queue drained at line rate.  Above the
configurable ECN threshold the queue CE-marks ECT traffic (the signal
DCQCN endpoints react to); at capacity it tail-drops.  PFC (802.1Qbb)
backpressure is available on top: when an ingress port's buffer share
crosses the XOFF watermark the switch sends a pause frame upstream
(:meth:`~repro.net.cmac.Cmac.pause`, honored with a hold timer), and
resumes it at XON.  A pause-storm watchdog converts the classic PFC
deadlock — a port continuously paused past ``storm_threshold_ns`` —
into a typed :class:`repro.health.PfcStormError` (recorded, surfaced to
``on_pfc_storm``, and delivered to parked senders) instead of a hung
simulation; mitigation mutes PFC on the offending port.

Switches compose into multi-tier fabrics: :meth:`Switch.connect_trunk`
links two switches with a pair of egress queues, remote MACs route via
static entries (:meth:`add_route`) or deterministic ECMP hashing over
the uplink set — see :class:`repro.net.topology.LeafSpineTopology`.

Fault injection goes through the unified :mod:`repro.faults` sites
(loss, corruption, duplication, reordering, plus ``net.ecn_suppress``
and ``net.pause_drop`` to break the congestion-control loop).  The
legacy ``drop_fn`` hook has been removed; arm a
:class:`repro.faults.FaultPlan` with a ``net.drop`` rule instead.
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..faults.plan import (
    LINK_FLAP,
    NET_CORRUPT,
    NET_DROP,
    NET_DUPLICATE,
    NET_ECN_SUPPRESS,
    NET_PARTITION,
    NET_PAUSE_DROP,
    NET_REORDER,
    NODE_CRASH,
)
from ..health.errors import PfcStormError
from ..sim.engine import NORMAL, Environment, Event
from .cmac import CMAC_BANDWIDTH, FRAME_OVERHEAD_BYTES, PAUSE_QUANTA_NS, Cmac, PfcPause
from .headers import ECN_CE, ECN_ECT0, ECN_ECT1, MacAddress
from .packet import RocePacket

__all__ = ["Switch", "SwitchConfig", "LINK_FLAP_HOLDOFF_NS", "SWITCH_LATENCY_NS"]

#: Typical ToR cut-through forwarding latency.
SWITCH_LATENCY_NS = 600.0
#: Extra path latency for a reordered frame (adaptive-routing detour):
#: long enough that back-to-back MTU frames overtake it.
REORDER_DETOUR_NS = 4 * SWITCH_LATENCY_NS
#: Gap between the original and its injected duplicate.
DUPLICATE_GAP_NS = 50.0
#: How long a flapped link black-holes frames before auto-recovering.
#: Chosen comfortably above the RDMA retransmit timeout so a flap always
#: costs at least one go-back-N round, but well below the retry budget
#: (``8 × 100 µs``) so a flap alone never escalates to a QP error.
LINK_FLAP_HOLDOFF_NS = 250_000.0


@dataclass(frozen=True)
class SwitchConfig:
    """Per-switch congestion parameters.

    The defaults are sized so uncongested workloads (anything whose
    fan-in stays inside the requester windows) never queue deep enough
    to mark, drop or pause — congestion behavior is opt-in via tighter
    values.  PFC itself defaults off, mirroring the many RoCE
    deployments that run ECN-only.
    """

    #: Per-egress-queue buffer; beyond it frames tail-drop.
    egress_capacity_bytes: int = 1 << 20
    #: CE-mark ECT frames arriving to a queue deeper than this.
    ecn_threshold_bytes: int = 256 << 10
    #: Enable 802.1Qbb pause toward ingress ports over their watermark.
    pfc_enabled: bool = False
    #: Ingress-port buffer share that triggers an XOFF upstream...
    xoff_bytes: int = 512 << 10
    #: ...and the share below which the port is XON'd again.
    xon_bytes: int = 256 << 10
    #: Hold duration carried by each pause frame (refreshed while over
    #: XOFF; expiring unrefreshed is what keeps storm detection live).
    pause_quanta_ns: float = PAUSE_QUANTA_NS
    #: Continuous pause beyond this is a storm: typed error + PFC mute.
    storm_threshold_ns: float = 1_000_000.0


def _twin(obj):
    """``copy.copy`` of a frame or a header, which keep their fields in
    ``__dict__``, without ``copy``'s dispatch (a quarter of its time)."""
    twin = object.__new__(obj.__class__)
    twin.__dict__.update(obj.__dict__)
    return twin


class _Ingress:
    """What the switch knows about one ingress source: a host port (``key``
    is its MAC) or a trunk (``key`` is the trunk key).

    ``upstream`` is the pause handle — the port's :class:`Cmac`, or the
    peer switch's egress queue feeding the trunk — and ``None`` once the
    port was unplugged; ``bytes`` is what the source has buffered in this
    switch right now; ``paused_since`` is when its continuous pause began
    (PFC asserted and not yet XON'd; hold-timer expiries do not clear
    it); ``pfc_muted`` is set when a storm was detected and PFC toward
    it is disabled.  :meth:`Switch.attach` / :meth:`Switch.connect_trunk`
    make the record and hand it to the callback that delivers the
    source's frames, so the per-frame path reads attributes, not tables;
    :meth:`Switch.detach` ends it, and the next CMAC plugged in under the
    same MAC starts from a new one.
    """

    __slots__ = ("key", "upstream", "bytes", "paused_since", "pfc_muted")

    def __init__(self, key, upstream):
        self.key = key
        self.upstream = upstream
        self.bytes = 0
        self.paused_since: Optional[float] = None
        self.pfc_muted = False

    @property
    def label(self) -> str:
        return str(self.key)

    def break_pause(self, err: Exception) -> None:
        """Storm mitigation: stop pausing this source and fail its parked
        senders with ``err``."""
        self.pfc_muted = True
        self.paused_since = None
        if self.upstream is not None:
            self.upstream.break_pause(err)


class _EgressPort:
    """One output queue: byte-accounted FIFO drained at line rate.

    ``deliver_fn`` hands a frame to whatever sits at the other end of
    the link (a host CMAC via the switch's delivery-time port lookup, or
    a peer switch's trunk ingress), with whether this copy carries the
    switch's ``forwarded`` count.  The port is itself pausable — a
    downstream receiver (CMAC rx watermark) or peer switch asserts PFC
    against it, freezing the drain.

    The drain is a station on timers, not a process: :meth:`_start` puts
    the head frame on the wire (its delivery timer and its serialisation
    timer), :meth:`_serialised` frees its bytes and starts the next.
    Each timer is drawn where the drain process drew it, so frames leave
    and land at the times, and in the order, the process gave.
    """

    def __init__(
        self,
        switch: "Switch",
        label: str,
        deliver_fn: Callable[[RocePacket, bool], None],
        line_rate: float = CMAC_BANDWIDTH,
    ):
        self.switch = switch
        self.label = label
        #: Profilers book the drain's callbacks by this name.
        self.name = f"{switch.name}-egress-{label}"
        self.deliver_fn = deliver_fn
        self.line_rate = line_rate
        self.queue: deque = deque()  # (packet, counted, wire_len, source, extra_delay)
        self.queued_bytes = 0
        self.queue_high_water = 0
        # PFC asserted *against* this port by its downstream.
        self.pfc = PfcPause(switch.env, self.name)
        self.paused_since: Optional[float] = None
        self.pfc_muted = False  # storm mitigation: ignore further pauses
        #: A frame is starting or on the wire, or the drain waits out a
        #: pause: a new frame queues behind it with nothing to wake.
        self._busy = False

    # -- downstream-asserted PFC ----------------------------------------

    def pause(self, duration_ns: Optional[float] = None) -> None:
        """PFC XOFF from the downstream device (refreshable hold)."""
        switch = self.switch
        switch.pause_frames_received += 1
        if self.pfc_muted or switch._storm_clock(self):
            return
        self.pfc.hold(duration_ns if duration_ns is not None else switch.config.pause_quanta_ns)

    def resume(self) -> None:
        """PFC XON: the downstream caught up."""
        self.switch.pause_resumes_received += 1
        self.paused_since = None
        self.pfc.release()

    def break_pause(self, _exc: Exception) -> None:
        """Storm mitigation: drop the pause and ignore future ones.  The
        drain is the switch's own station, so it is woken, not failed."""
        self.pfc_muted = True
        self.paused_since = None
        self.pfc.release()

    # -- queue ----------------------------------------------------------

    def enqueue(
        self, packet: RocePacket, source: _Ingress, extra_delay: float, counted: bool
    ) -> bool:
        """Admit one frame; returns False on tail drop.  ``counted`` is
        False for a copy whose ingress frame ``forwarded`` already counts."""
        switch = self.switch
        config = switch.config
        wire_len = packet.wire_length + FRAME_OVERHEAD_BYTES
        if self.queued_bytes + wire_len > config.egress_capacity_bytes:
            switch.dropped += 1
            switch.tail_drops += 1
            return False
        if (
            packet.ip.ecn in (ECN_ECT0, ECN_ECT1)
            and self.queued_bytes >= config.ecn_threshold_bytes
        ):
            faults = switch.faults
            if faults is not None and faults.fires(NET_ECN_SUPPRESS, packet):
                switch.ecn_suppressed += 1
            else:
                # Mark a *copy*: the original may sit in a sender's
                # retransmit buffer, and a retransmission must not
                # inherit a stale CE mark from a congested first try.
                # (The headers are shared with the frame's connection.)
                packet = _twin(packet)
                packet.ip = ip = _twin(packet.ip)
                ip.ecn = ECN_CE
                switch.ecn_marks += 1
        self.queue.append((packet, counted, wire_len, source, extra_delay))
        self.queued_bytes += wire_len
        if self.queued_bytes > self.queue_high_water:
            self.queue_high_water = self.queued_bytes
        source.bytes += wire_len
        if not self._busy:
            # An idle drain starts one relay later, where the drain
            # process was woken: a frame arriving at the same instant
            # still queues behind whatever that instant runs first.
            self._busy = True
            switch.env._relay(True, None, self._start, NORMAL)
        return True

    def _start(self, _event: Optional[Event] = None) -> None:
        """Put the head frame on the wire; while paused, park on the
        pause's wake and try again when it lifts."""
        env = self.switch.env
        pfc = self.pfc
        if env.now < pfc.until:
            pfc.park(self._start)
            return
        entry = self.queue.popleft()
        packet, counted, wire_len, _source, extra_delay = entry
        # Cut-through: the head of the frame leaves after the fixed
        # forwarding latency (plus any fault detour), while the queue
        # stays occupied for the frame's full serialisation time.
        # Nothing waits on a delivery and it cannot block, so the frame
        # in flight is just this timer (pooled, as is the serialisation's).
        env.sleep(self.switch.latency_ns + extra_delay, self._deliver, (packet, counted))
        env.sleep(wire_len / self.line_rate, self._serialised, entry)

    def _serialised(self, event: Event) -> None:
        """The frame is off the wire: free its bytes, start the next."""
        _packet, _counted, wire_len, source, _extra_delay = event._value
        self.queued_bytes -= wire_len
        self.switch._drained(source, wire_len)
        if self.queue:
            self._start()
        else:
            self._busy = False

    def _deliver(self, event: Event) -> None:
        self.deliver_fn(*event._value)


class Switch:
    """MAC-learning-free static switch: ports are registered explicitly."""

    def __init__(
        self,
        env: Environment,
        latency_ns: float = SWITCH_LATENCY_NS,
        config: Optional[SwitchConfig] = None,
        name: str = "sw",
    ):
        self.env = env
        self.latency_ns = latency_ns
        self.config = config if config is not None else SwitchConfig()
        self.name = name
        self._ports: Dict[MacAddress, Cmac] = {}
        #: Egress queues, keyed by local MAC or trunk key.
        self._egress: Dict[object, _EgressPort] = {}
        #: Static routes for MACs living behind a trunk.
        self._routes: Dict[MacAddress, object] = {}
        #: Uplink trunk keys eligible for ECMP hashing of unknown MACs.
        self.ecmp_uplinks: List[object] = []
        self._trunk_serial = 0
        #: One record per ingress source, keyed like ``_egress``.
        self._sources: Dict[object, _Ingress] = {}
        #: Armed :class:`repro.faults.FaultInjector`, or ``None``.
        self.faults = None
        # Cluster fault state (all dict-keyed on MacAddress; stateful,
        # unlike the per-frame net.* sites).
        self._dead: Dict[MacAddress, bool] = {}
        self._link_down_until: Dict[MacAddress, float] = {}
        self._partitions: Dict[Tuple[MacAddress, MacAddress], bool] = {}
        #: Wired by :class:`repro.cluster.FpgaCluster`: invoked once when a
        #: ``node.crash`` fires, with the dying port's MAC.
        self.on_node_crash: Optional[Callable[[MacAddress], None]] = None
        #: Invoked with each typed :class:`repro.health.PfcStormError`.
        self.on_pfc_storm: Optional[Callable[[Exception], None]] = None
        self.pfc_storm_errors: List[Exception] = []
        self.forwarded = 0
        self.dropped = 0
        self.tail_drops = 0
        self.corrupted = 0
        self.duplicated = 0
        self.reordered = 0
        self.unroutable = 0
        self.crashes = 0
        self.link_flaps = 0
        self.partitions_created = 0
        self.ecn_marks = 0
        self.ecn_suppressed = 0
        self.pause_frames_sent = 0
        self.pause_frames_dropped = 0
        self.pause_resumes_sent = 0
        self.pause_frames_received = 0
        self.pause_resumes_received = 0
        self.pfc_storms = 0

    def counters(self) -> Dict[str, int]:
        """Telemetry snapshot of the fabric counters."""
        return {
            "forwarded": self.forwarded,
            "dropped": self.dropped,
            "tail_drops": self.tail_drops,
            "corrupted": self.corrupted,
            "duplicated": self.duplicated,
            "reordered": self.reordered,
            "unroutable": self.unroutable,
            "crashes": self.crashes,
            "link_flaps": self.link_flaps,
            "partitions": self.partitions_created,
            "ecn_marks": self.ecn_marks,
            "ecn_suppressed": self.ecn_suppressed,
            "pause_frames_sent": self.pause_frames_sent,
            "pause_frames_dropped": self.pause_frames_dropped,
            "pause_frames_received": self.pause_frames_received,
            "pfc_storms": self.pfc_storms,
        }

    # ------------------------------------------------------------ topology

    def attach(self, mac: MacAddress, cmac: Cmac) -> None:
        if mac in self._ports:
            raise ValueError(f"port {mac!r} already attached")
        self._ports[mac] = cmac
        port = _EgressPort(self, f"host-{mac!r}", self._deliver_local)
        self._egress[mac] = port
        source = self._sources[mac] = _Ingress(mac, cmac)
        cmac.link_partner = port
        cmac.attach_wire(partial(self._ingress, source))

    def detach(self, mac: MacAddress) -> None:
        """Unplug a port (a shell reconfiguration swapping its CMAC)."""
        cmac = self._ports.pop(mac, None)
        if cmac is None:
            raise ValueError(f"port {mac!r} is not attached")
        cmac.link_partner = None
        # The egress queue keeps draining any frames already admitted;
        # delivery re-resolves through _ports and counts them unroutable.
        self._egress.pop(mac, None)
        # Frames the port sent that are still queued drain against its
        # old record, which can no longer reach the unplugged CMAC.
        self._sources.pop(mac).upstream = None

    def connect_trunk(
        self,
        peer: "Switch",
        line_rate: float = CMAC_BANDWIDTH,
        ecmp_here: bool = False,
        ecmp_there: bool = False,
    ) -> Tuple[object, object]:
        """Create a bidirectional inter-switch link (a pair of egress
        queues, one per direction).  ``ecmp_here``/``ecmp_there`` add the
        respective direction to that switch's ECMP uplink set (what a
        leaf does toward its spines).  Returns the two trunk keys."""
        self._trunk_serial += 1
        peer._trunk_serial += 1
        key_out = f"{self.name}>{peer.name}#{self._trunk_serial}"
        key_back = f"{peer.name}>{self.name}#{peer._trunk_serial}"
        self._egress[key_out] = self._trunk_port(key_out, peer, line_rate)
        peer._egress[key_back] = peer._trunk_port(key_back, self, line_rate)
        if ecmp_here:
            self.ecmp_uplinks.append(key_out)
        if ecmp_there:
            peer.ecmp_uplinks.append(key_back)
        return key_out, key_back

    def _trunk_port(self, key: str, peer: "Switch", line_rate: float) -> _EgressPort:
        """One direction of a trunk: this switch's egress queue toward
        ``peer``, and ``peer``'s ingress record for what arrives over it —
        pausing a trunk ingress means pausing the queue that feeds it."""
        port = _EgressPort(
            self, key, lambda pkt, _counted: peer._ingress(source, pkt), line_rate
        )
        source = peer._sources[key] = _Ingress(key, port)
        return port

    def add_route(self, mac: MacAddress, trunk_key: object) -> None:
        """Static route: frames for ``mac`` leave via this trunk."""
        if trunk_key not in self._egress:
            raise ValueError(f"unknown trunk {trunk_key!r}")
        self._routes[mac] = trunk_key

    def egress_ports(self) -> List[Tuple[str, _EgressPort]]:
        """Deterministically ordered (label, port) pairs for telemetry."""
        return sorted(
            ((port.label, port) for port in self._egress.values()),
            key=lambda item: item[0],
        )

    # ------------------------------------------------- cluster fault state

    @staticmethod
    def _pair(a: MacAddress, b: MacAddress) -> Tuple[MacAddress, MacAddress]:
        return (a, b) if a.value <= b.value else (b, a)

    def kill_port(self, mac: MacAddress) -> None:
        """Mark a port dead (node crash): frames from or to it black-hole.
        The port stays attached so :meth:`revive_port` is just a flag flip."""
        self._dead[mac] = True

    def revive_port(self, mac: MacAddress) -> None:
        self._dead.pop(mac, None)

    def is_dead(self, mac: MacAddress) -> bool:
        return mac in self._dead

    def partition(self, a: MacAddress, b: MacAddress) -> None:
        """Sever the (bidirectional) path between two ports until healed."""
        key = self._pair(a, b)
        if key not in self._partitions:
            self._partitions[key] = True
            self.partitions_created += 1

    def heal_partition(self, a: MacAddress, b: MacAddress) -> bool:
        """Restore a severed pair; returns True if one was actually healed."""
        return self._partitions.pop(self._pair(a, b), None) is not None

    def heal_all_partitions(self) -> int:
        healed = len(self._partitions)
        self._partitions.clear()
        return healed

    def is_partitioned(self, a: MacAddress, b: MacAddress) -> bool:
        return self._pair(a, b) in self._partitions

    def link_down(self, mac: MacAddress, duration_ns: float = LINK_FLAP_HOLDOFF_NS) -> None:
        """Drop a port's link; it auto-recovers once the hold-off expires."""
        until = self.env.now + duration_ns
        if self._link_down_until.get(mac, 0.0) < until:
            self._link_down_until[mac] = until

    def link_is_down(self, mac: MacAddress) -> bool:
        until = self._link_down_until.get(mac)
        if until is None:
            return False
        if self.env.now >= until:
            del self._link_down_until[mac]
            return False
        return True

    # ------------------------------------------------------------ datapath

    def _ingress(self, source: _Ingress, packet: RocePacket) -> None:
        src = packet.eth.src
        dst = packet.eth.dst
        # Standing cluster-fault state first: frames involving a dead
        # node, a downed link or a severed pair never reach the per-frame
        # chaos sites (their event streams only shift when cluster faults
        # are actually active, preserving the zero-overhead guarantee for
        # plans that don't arm them).
        if self._dead and (src in self._dead or dst in self._dead):
            self.dropped += 1
            return
        if self._link_down_until and (self.link_is_down(src) or self.link_is_down(dst)):
            self.dropped += 1
            return
        if self._partitions and self._pair(src, dst) in self._partitions:
            self.dropped += 1
            return
        extra_delay = 0.0
        copies = 1
        faults = self.faults
        if faults is not None:
            if faults.fires(NODE_CRASH, packet):
                self.crashes += 1
                self.kill_port(src)
                if self.on_node_crash is not None:
                    self.on_node_crash(src)
                self.dropped += 1
                return
            if faults.fires(LINK_FLAP, packet):
                self.link_flaps += 1
                self.link_down(src)
                self.dropped += 1
                return
            if faults.fires(NET_PARTITION, packet):
                self.partition(src, dst)
                self.dropped += 1
                return
            if faults.fires(NET_DROP, packet):
                self.dropped += 1
                return
            if faults.fires(NET_CORRUPT, packet):
                # Bit errors on the wire: the receiving CMAC's FCS/ICRC
                # check discards the frame, so corruption is never silent
                # — the reliable transports see it as loss and retransmit.
                self.corrupted += 1
                self.dropped += 1
                return
            if faults.fires(NET_REORDER, packet):
                self.reordered += 1
                extra_delay += REORDER_DETOUR_NS
            if faults.fires(NET_DUPLICATE, packet):
                self.duplicated += 1
                copies = 2
        # An attached port's MAC keys its egress queue (trunk keys are
        # strings, which no MAC equals); anything else is routed.
        egress = self._egress.get(dst)
        if egress is None:
            egress = self._route(packet)
            if egress is None:
                self.unroutable += 1
                return
        admitted = False
        for copy in range(copies):
            # The first admitted copy carries the frame's count, so an
            # undeliverable duplicate cannot take it back twice.
            if egress.enqueue(
                packet, source, extra_delay + copy * DUPLICATE_GAP_NS, not admitted
            ):
                admitted = True
        if admitted:
            # One per ingress frame (duplicate copies don't double-count),
            # matching the pre-queueing forwarding semantics.
            self.forwarded += 1
        if self.config.pfc_enabled:
            self._pfc_check(source, packet)

    def _route(self, packet: RocePacket) -> Optional[_EgressPort]:
        """The egress toward a MAC that is not attached here: a static
        route, else an ECMP uplink."""
        dst = packet.eth.dst
        key = self._routes.get(dst)
        if key is None:
            uplinks = self.ecmp_uplinks
            if not uplinks:
                return None
            # Deterministic ECMP: hash the flow identity (src/dst MAC +
            # UDP source port, the RoCE entropy field) so one flow always
            # takes one path — order within a flow is preserved.
            flow = f"{packet.eth.src.value:012x}>{dst.value:012x}:{packet.udp.src_port}"
            key = uplinks[zlib.crc32(flow.encode()) % len(uplinks)]
        return self._egress.get(key)

    def _deliver_local(self, packet: RocePacket, counted: bool) -> None:
        # Re-resolve at delivery time: the port may have been detached
        # (shell reconfiguration) while the frame was in flight — a frame
        # must never be delivered to an unplugged CMAC.
        port = self._ports.get(packet.eth.dst)
        if port is None:
            if counted:
                self.forwarded -= 1
            self.unroutable += 1
            return
        port.deliver(packet)

    # ----------------------------------------------------------------- PFC

    def _pfc_check(self, source: _Ingress, packet: RocePacket) -> None:
        """Ingress-pressure check, run while PFC is enabled on *every*
        frame from a source (tail-dropped ones included — a full buffer
        is exactly when the pause must be refreshed and the storm clock
        must advance)."""
        config = self.config
        if source.pfc_muted:
            return
        if source.bytes < config.xoff_bytes:
            return
        if self._storm_clock(source):
            return
        if self.faults is not None and self.faults.fires(NET_PAUSE_DROP, packet):
            self.pause_frames_dropped += 1
            return
        if source.upstream is not None:
            self.pause_frames_sent += 1
            source.upstream.pause(config.pause_quanta_ns)

    def _drained(self, source: _Ingress, wire_len: int) -> None:
        """Egress drained one frame: release the ingress accounting and
        XON the source if it fell back under the watermark."""
        remaining = source.bytes - wire_len
        source.bytes = remaining if remaining > 0 else 0
        if source.paused_since is not None and source.bytes <= self.config.xon_bytes:
            source.paused_since = None
            if source.upstream is not None:
                self.pause_resumes_sent += 1
                source.upstream.resume()

    def _storm_clock(self, holder) -> bool:
        """Start or advance ``holder``'s continuous pause — an
        :class:`_Ingress` this switch pauses, or an :class:`_EgressPort`
        its downstream pauses.  Past ``storm_threshold_ns`` the pause is a
        storm: record the typed error, mute PFC on the holder and unblock
        whatever it froze.  Returns whether it stormed."""
        now = self.env.now
        since = holder.paused_since
        if since is None:
            holder.paused_since = now
            return False
        threshold = self.config.storm_threshold_ns
        if now - since < threshold:
            return False
        err = PfcStormError(port=holder.label, paused_ns=now - since, threshold_ns=threshold)
        self.pfc_storms += 1
        self.pfc_storm_errors.append(err)
        holder.break_pause(err)
        if self.on_pfc_storm is not None:
            self.on_pfc_storm(err)
        return True
