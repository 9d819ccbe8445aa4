"""The switch egress on timers against the processes it replaced.

A forwarded frame used to be a whole ``Process`` — ``_deliver_later``: a
generator, a start relay, a ``Timeout``, a process-end event nobody
joined — only to call ``deliver_fn`` after a fixed delay; and each port
drained its queue in a ``_drain`` process of its own, started with the
port and woken per idle-to-busy frame.  The frame in flight is now a
pooled timer alone, with ``_EgressPort._deliver`` as its callback, and
the drain is a station on its serialisation timer: a relay starts an
idle port where the process was woken, and ``_serialised`` starts the
next frame.  The process forms stay here as the oracle: under generated
frame schedules both must hand over the identical ``(time, port, frame)``
sequence with **bit-equal** floats, for two events fewer per frame and
one per port.  Both runs take every MAC grant by ``request()``, so that
count is the egress's alone.  Two end-to-end pins hold the RDMA stacks
above the switch to the completion times the per-frame processes gave
(recorded at 1042d48, the last commit with them).
"""

import hashlib
import os
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Environment, Oper, RdmaSg, SgEntry
from repro.cluster import FpgaCluster
from repro.core import ServiceConfig
from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.net import (
    BthHeader,
    Cmac,
    DcqcnConfig,
    MacAddress,
    RdmaConfig,
    RdmaStack,
    RoceOpcode,
    RocePacket,
    Switch,
    SwitchConfig,
)
from repro.net import switch as switch_module
from repro.net.cmac import CMAC_BANDWIDTH, FRAME_OVERHEAD_BYTES
from repro.net.headers import ECN_ECT0
from repro.net.switch import SWITCH_LATENCY_NS, _EgressPort
from repro.sim import Event, Resource

#: The CI ``engine-conformance`` job runs this file under the long profile.
MAX_EXAMPLES = 500 if os.environ.get("HYPOTHESIS_PROFILE") == "long" else 60


class _ProcessEgressPort(_EgressPort):
    """The reference: the drain as it was, a process started with the
    port, and a process per forwarded frame.  The timer station never
    starts: the port is busy from the first frame on, and ``enqueue``
    wakes the parked drain where the station's relay is drawn."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._busy = True
        self._parked = None
        self.switch.env.process(self._drain(), name=self.name)

    def enqueue(self, *args):
        admitted = super().enqueue(*args)
        if admitted and self._parked is not None and not self._parked.triggered:
            self._parked.succeed()
        return admitted

    def _drain(self):
        env = self.switch.env
        while True:
            if not self.queue:
                self._parked = Event(env)
                yield self._parked
                self._parked = None
                continue
            if env.now < self.pfc.until:
                yield from self.pfc.wait()
            packet, counted, wire_len, source, extra_delay = self.queue.popleft()
            env.process(
                self._deliver_later(packet, counted, self.switch.latency_ns + extra_delay)
            )
            yield env.timeout(wire_len / self.line_rate)
            self.queued_bytes -= wire_len
            self.switch._drained(source, wire_len)

    def _deliver_later(self, packet, counted, delay_ns):
        yield self.switch.env.timeout(delay_ns)
        self.deliver_fn(packet, counted)


def _mac(index):
    return MacAddress(0x02_0000_0001 + index)


def _frame(src, dst, size, serial):
    return RocePacket.build(
        src_mac=_mac(src), dst_mac=_mac(dst), src_ip=src, dst_ip=dst,
        bth=BthHeader(opcode=RoceOpcode.SEND_ONLY, dest_qp=1, psn=serial),
        payload_length=size, ecn=ECN_ECT0,
    )


def _wire_ns(size):
    return (_frame(0, 1, size, 0).wire_length + FRAME_OVERHEAD_BYTES) / CMAC_BANDWIDTH


#: Small enough that a same-instant burst of MTU frames marks and drops.
_TIGHT = SwitchConfig(egress_capacity_bytes=8 << 10, ecn_threshold_bytes=2 << 10)


def _deliveries(port_class, senders, latency_ns=SWITCH_LATENCY_NS, tight=False,
                reorder=(), duplicate=(), pause=None, detach=None):
    """Run one frame schedule through a switch built from ``port_class``.

    ``senders[i]`` is port *i*'s ``(gap, hops to the destination port,
    payload size)`` list, sent back to back through its CMAC.  Returns
    every hand-over an egress port made — ``(time, port label, frame
    serial, ECN bits, carries the count)`` — with the switch counters
    and how many events the run took.  Every MAC grant is queued
    (``Resource.take`` declines): a grant taken with no event where one
    run's lanes are empty and the other's hold a process-end event would
    move the event count by one without touching the egress.
    """
    with mock.patch.object(switch_module, "_EgressPort", port_class):
        env = Environment()
        switch = Switch(env, latency_ns=latency_ns, config=_TIGHT if tight else None)
        cmacs = [Cmac(env, name=f"port{i}") for i in range(len(senders))]
        for index, cmac in enumerate(cmacs):
            switch.attach(_mac(index), cmac)
    FaultInjector(FaultPlan(rules=(
        FaultRule(site="net.reorder", at_events=tuple(reorder)),
        FaultRule(site="net.duplicate", at_events=tuple(duplicate)),
    ))).arm(switch=switch)

    log = []
    for label, port in switch.egress_ports():
        def handed_over(packet, counted, label=label, deliver=port.deliver_fn):
            log.append((env.now, label, packet.bth.psn, packet.ip.ecn, counted))
            deliver(packet, counted)

        port.deliver_fn = handed_over

    def sender(src, frames):
        for number, (gap, hops, size) in enumerate(frames):
            if gap:
                yield env.timeout(gap)
            dst = (src + 1 + hops % (len(senders) - 1)) % len(senders)
            yield from cmacs[src].tx(_frame(src, dst, size, 100 * src + number))

    def at(when, action):
        yield env.timeout(when)
        action()

    for src, frames in enumerate(senders):
        env.process(sender(src, frames))
    if pause is not None:
        when, index, hold_ns = pause
        partner = cmacs[index % len(cmacs)].link_partner
        env.process(at(when, lambda: partner.pause(hold_ns)))
    if detach is not None:
        when, index = detach
        env.process(at(when, lambda: switch.detach(_mac(index % len(cmacs)))))
    with mock.patch.object(Resource, "take", lambda resource: None):
        env.run()
    assert switch.forwarded >= 0
    return log, switch.counters(), env.events_processed


def _assert_timer_matches_process(**scenario):
    timer_log, timer_counters, timer_events = _deliveries(_EgressPort, **scenario)
    process_log, process_counters, process_events = _deliveries(
        _ProcessEgressPort, **scenario
    )
    assert timer_log == process_log
    assert timer_counters == process_counters
    # The start relay and the process-end event of every frame handed
    # over, and each port's drain process's start.
    ports = len(scenario["senders"])
    assert process_events - timer_events == 2 * len(process_log) + ports
    return timer_log, timer_counters


_MTU = 4096
#: Gaps are mostly zero (back-to-back frames, same-instant arrivals from
#: ports that send equal sizes); the rest sit around the times in play —
#: a duplicate's 50 ns, the 600 ns forwarding latency, a serialisation.
_gap = st.sampled_from([0.0, 0.0, 0.0, 1 / 3, 50.0, 600.0, _wire_ns(1024), 10_000 / 3])
_size = st.sampled_from([0, 64, 1024, 1024, _MTU])
_frames = st.lists(st.tuples(_gap, st.integers(0, 2), _size), max_size=8)
#: The last one makes a 1 KiB frame's delivery timer and its
#: serialisation timer fall due at the same float.
_latency = st.sampled_from([SWITCH_LATENCY_NS, SWITCH_LATENCY_NS, 0.0, _wire_ns(1024)])
_when = st.sampled_from([0.0, 90.0, 700.0, 1_500.0, 4_000.0])
_indices = st.sets(st.integers(0, 23), max_size=4)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    senders=st.lists(_frames, min_size=2, max_size=4),
    latency_ns=_latency,
    tight=st.booleans(),
    reorder=_indices,
    duplicate=_indices,
    pause=st.none() | st.tuples(_when, st.integers(0, 3), st.sampled_from([400.0, 5_000.0])),
    detach=st.none() | st.tuples(_when, st.integers(0, 3)),
)
@example(  # three ports, one instant, one destination; a reordered frame
    senders=[[(0.0, 2, 1024)] * 3, [(0.0, 1, 1024)] * 3, [(0.0, 0, 1024)] * 3, []],
    latency_ns=SWITCH_LATENCY_NS, tight=True, reorder={1, 4}, duplicate={2},
    pause=(700.0, 3, 5_000.0), detach=None,
)
@example(  # a delivery and a transmit meet at one instant
    senders=[[], [(0.0, 1, 1024)], [(0.0, 0, 0), (0.0, 0, 1024), (0.0, 0, 0)]],
    latency_ns=_wire_ns(1024), tight=False, reorder=set(), duplicate=set(),
    pause=None, detach=None,
)
@example(  # the destination unplugged with frames queued and in flight
    senders=[[(0.0, 0, _MTU)] * 4, [(0.0, 0, 64)] * 2],
    latency_ns=_wire_ns(1024), tight=False, reorder=set(), duplicate={0, 1},
    pause=None, detach=(700.0, 1),
)
def test_timer_delivery_is_bit_equal_to_the_per_frame_process(
    senders, latency_ns, tight, reorder, duplicate, pause, detach
):
    _assert_timer_matches_process(
        senders=senders, latency_ns=latency_ns, tight=tight,
        reorder=reorder, duplicate=duplicate, pause=pause, detach=detach,
    )


def test_same_instant_arrivals_on_three_ports_keep_their_order():
    """Three ports put one equal frame on the wire at t=0: all three reach
    the switch at one instant and leave port 3 in arrival order, one
    serialisation apart."""
    log, counters = _assert_timer_matches_process(
        senders=[[(0.0, 2, 1024)], [(0.0, 1, 1024)], [(0.0, 0, 1024)], []],
    )
    wire = _wire_ns(1024)
    drained = [wire, wire + wire, wire + wire + wire]  # arrival, then one frame each
    assert [(when, serial) for when, _label, serial, _ecn, _counted in log] == [
        (start + SWITCH_LATENCY_NS, serial) for start, serial in zip(drained, [0, 100, 200])
    ]
    assert counters["forwarded"] == 3


def test_reordered_and_duplicated_frames_land_where_the_process_put_them():
    log, counters = _assert_timer_matches_process(
        senders=[[(0.0, 0, 64)] * 3, []], reorder={0}, duplicate={1},
    )
    # The detoured frame 0 is overtaken by both; frame 1 arrives twice —
    # the copy 50 ns late, so behind frame 2 — and only its first copy
    # carries the switch's ``forwarded`` count.
    assert [(serial, counted) for _when, _label, serial, _ecn, counted in log] == [
        (1, True), (2, True), (1, False), (0, True),
    ]
    assert (counters["reordered"], counters["duplicated"], counters["forwarded"]) == (1, 1, 3)


def test_paused_egress_holds_the_queue_not_the_frame_in_flight():
    """PFC freezes the drain; a frame whose timer is already running
    still arrives on time."""
    wire = _wire_ns(_MTU)
    log, _counters = _assert_timer_matches_process(
        senders=[[(0.0, 0, _MTU)] * 3, []], pause=(wire + 100.0, 1, 5_000.0),
    )
    times = [when for when, *_rest in log]
    assert times[0] == wire + SWITCH_LATENCY_NS  # in flight when the pause landed
    assert times[1] >= wire + 100.0 + 5_000.0  # queued behind it: held


# ------------------------------------------------------- end-to-end pins


def _incast_completions(nsenders=16, horizon_ns=2_000_000.0, msg_bytes=64 << 10):
    """The DCQCN-on arm of ``test_net_congestion.py::run_incast`` at 16
    senders over 2 ms — every sender starts at t=0 — recording when each
    64 KiB WRITE completed."""
    env = Environment()
    switch = Switch(env, config=SwitchConfig(
        egress_capacity_bytes=32 << 10, ecn_threshold_bytes=8 << 10,
    ))
    config = RdmaConfig(
        mtu=1024,
        retransmit_timeout_ns=100_000.0,
        dcqcn=DcqcnConfig(
            enabled=True, min_rate=0.25, alpha_update_ns=5_000.0,
            rate_increase_ns=20_000.0, additive_increase=0.1, hyper_increase=0.5,
            cnp_interval_ns=10_000.0, initial_rate=CMAC_BANDWIDTH / 8.0,
        ),
    )

    def attach(mac_value, ip, name):
        mac = MacAddress(mac_value)
        cmac = Cmac(env, name=f"{name}-cmac")
        switch.attach(mac, cmac)
        stack = RdmaStack(env, cmac, mac, ip, name=name, config=config)

        def read_local(vaddr, length):
            yield env.timeout(length / 125.0)

        def write_local(vaddr, data, length):
            yield env.timeout(length / 125.0)

        stack.bind_memory(read_local, write_local)
        return stack

    receiver = attach(0x02_0000_0100, 0x0A0000FF, "incast-rx")
    senders = [
        attach(0x02_0000_0001 + i, 0x0A000001 + i, f"incast-s{i}") for i in range(nsenders)
    ]
    for i, sender in enumerate(senders):
        qp_s = sender.create_qp(1, psn=0)
        qp_r = receiver.create_qp(100 + i, psn=0)
        qp_s.connect(qp_r.local)
        qp_r.connect(qp_s.local)

    completions = []

    def sender_proc(i, sender):
        while env.now < horizon_ns:
            yield from sender.rdma_write(1, 0, 0x1000, msg_bytes)
            completions.append((i, env.now))

    for i, sender in enumerate(senders):
        env.process(sender_proc(i, sender), name=f"incast-sender-{i}")
    env.run(until=horizon_ns)
    return completions, switch.counters()


def _digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_sixteen_to_one_incast_completes_when_the_processes_said():
    completions, counters = _incast_completions()
    per_flow = [sum(1 for i, _when in completions if i == flow) for flow in range(16)]
    total = sum(per_flow)
    jain = total * total / (16 * sum(n * n for n in per_flow))
    assert (total, round(jain, 3)) == (233, 0.950)
    assert [(i, repr(when)) for i, when in completions[:3]] == INCAST_FIRST
    assert [(i, repr(when)) for i, when in completions[-2:]] == INCAST_LAST
    assert _digest(completions) == INCAST_DIGEST
    assert {k: counters[k] for k in INCAST_COUNTERS} == INCAST_COUNTERS


def _write_read_mix_finishes():
    """Two shells through the cluster switch: WRITEs and READs of mixed
    size, one after another, each checked byte for byte."""
    env = Environment()
    cluster = FpgaCluster(env, 2, services=ServiceConfig(en_memory=True, en_rdma=True))
    local, remote = cluster.connect_qps(0, 1, pid_a=1, pid_b=2, qpn_a=1, qpn_b=2)
    size = 64 << 10
    finishes = []

    def main():
        out = yield from local.get_mem(size)
        landing = yield from local.get_mem(size)
        far = yield from remote.get_mem(size)
        local.write_buffer(out.vaddr, bytes(i % 251 for i in range(size)))
        def sg(local_addr, length):
            return SgEntry(rdma=RdmaSg(
                local_addr=local_addr, remote_addr=far.vaddr, len=length, qpn=1
            ))

        for length in [4096, size, 100, 20_000, 1, size - 64]:
            yield from local.invoke(Oper.REMOTE_RDMA_WRITE, sg(out.vaddr, length))
            finishes.append(("write", length, repr(env.now)))
            assert remote.read_buffer(far.vaddr, length) == local.read_buffer(out.vaddr, length)
            yield from local.invoke(Oper.REMOTE_RDMA_READ, sg(landing.vaddr, length))
            finishes.append(("read", length, repr(env.now)))
            assert local.read_buffer(landing.vaddr, length) == local.read_buffer(out.vaddr, length)

    env.run(env.process(main()))
    env.run()
    return finishes, cluster.switch.forwarded


def test_two_node_write_read_mix_finishes_when_the_processes_said():
    finishes, forwarded = _write_read_mix_finishes()
    assert finishes == MIX_FINISHES
    assert forwarded == MIX_FORWARDED
    # Closed loop: a verb starts when the one before it finished.
    whens = [float(when) for _kind, _length, when in finishes]
    durations = {
        verb[:2]: round(end - start, 6)
        for verb, start, end in zip(finishes[1:], whens, whens[1:])
    }
    assert {verb: durations[verb] for verb in MIX_SAME_DURATIONS} == MIX_SAME_DURATIONS


INCAST_FIRST = [
    (2, "103368.79944555464"), (3, "103545.11944555465"), (4, "103633.27944555465"),
]
INCAST_LAST = [(4, "1997020.8807834464"), (7, "1998697.2007834448")]
INCAST_DIGEST = "6b184bd3358e2e837e621e73e0bfe27c781f420cf28fed044483a4ae2ea1e5a7"
INCAST_COUNTERS = {"forwarded": 42333, "tail_drops": 55, "ecn_marks": 5262, "unroutable": 0}
#: Re-recorded when both ends' local memory became a pipeline: a payload
#: is fetched by one of two lanes, so segment k+1's translation overlaps
#: segment k's DMA, and lands beside the receive loop instead of in it.
#: Every multi-packet verb finishes sooner (64 KiB WRITE: 10 162.8 ->
#: 8 003.2 ns, READ: 9 614.4 -> 8 003.5 ns; 20 000 B WRITE: 4 536.0 ->
#: 3 937.5 ns, READ: 4 389.8 -> 3 937.5 ns) and every verb behind them
#: starts earlier.  Nothing else moved: ``MIX_SAME_DURATIONS`` holds the
#: durations of the single-packet verbs as they were before, and the
#: switch forwards the same 126 frames.
MIX_FINISHES = [
    ("write", 4096, "4944.426666666667"), ("read", 4096, "7488.8533333333335"),
    ("write", 65536, "15492.080000000002"), ("read", 65536, "23495.626666666645"),
    ("write", 100, "25054.37333333331"), ("read", 100, "26613.119999999977"),
    ("write", 20000, "30550.63999999997"), ("read", 20000, "34488.159999999974"),
    ("write", 1, "36022.48666666664"), ("read", 1, "37556.81333333331"),
    ("write", 65472, "45549.58666666662"), ("read", 65472, "53542.67999999993"),
]
MIX_SAME_DURATIONS = {
    ("read", 4096): 2544.426667,
    ("write", 100): 1558.746667, ("read", 100): 1558.746667,
    ("write", 1): 1534.326667, ("read", 1): 1534.326667,
}
MIX_FORWARDED = 126
