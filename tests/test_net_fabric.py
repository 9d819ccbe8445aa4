"""Edge-case tests for the CMAC and switch fabric."""

import pytest

from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.net import BthHeader, Cmac, MacAddress, RocePacket, RoceOpcode, Switch
from repro.net.cmac import CMAC_BANDWIDTH, FRAME_OVERHEAD_BYTES
from repro.sim import Environment

MAC_A = MacAddress(0x02_11_01)
MAC_B = MacAddress(0x02_11_02)


def packet(dst=MAC_B, payload=b"x" * 100):
    return RocePacket.build(
        src_mac=MAC_A, dst_mac=dst, src_ip=1, dst_ip=2,
        bth=BthHeader(opcode=RoceOpcode.SEND_ONLY, dest_qp=1, psn=0),
        payload=payload,
    )


def test_tx_without_wire_rejected():
    env = Environment()
    cmac = Cmac(env)

    def proc():
        yield from cmac.tx(packet())

    env.process(proc())
    with pytest.raises(RuntimeError, match="not attached"):
        env.run()


def test_tx_serialisation_time_matches_line_rate():
    env = Environment()
    switch = Switch(env, latency_ns=0)
    cmac_a, cmac_b = Cmac(env), Cmac(env)
    switch.attach(MAC_A, cmac_a)
    switch.attach(MAC_B, cmac_b)
    pkt = packet()

    def proc():
        yield from cmac_a.tx(pkt)
        return env.now

    elapsed = env.run(env.process(proc()))
    expected = (pkt.wire_length + FRAME_OVERHEAD_BYTES) / CMAC_BANDWIDTH
    assert elapsed == pytest.approx(expected)


def test_unroutable_frames_counted():
    env = Environment()
    switch = Switch(env)
    cmac_a = Cmac(env)
    switch.attach(MAC_A, cmac_a)

    def proc():
        yield from cmac_a.tx(packet(dst=MacAddress(0xDEAD)))

    env.run(env.process(proc()))
    env.run()
    assert switch.unroutable == 1
    assert switch.forwarded == 0


def test_switch_drop_counts():
    env = Environment()
    switch = Switch(env)
    cmac_a, cmac_b = Cmac(env), Cmac(env)
    switch.attach(MAC_A, cmac_a)
    switch.attach(MAC_B, cmac_b)
    FaultInjector(FaultPlan.build(net_drop=1.0)).arm(switch=switch)

    def proc():
        yield from cmac_a.tx(packet())

    env.run(env.process(proc()))
    env.run()
    assert switch.dropped == 1
    assert cmac_b.rx_frames == 0


def test_legacy_drop_fn_hook_removed():
    """The deprecated ``Switch.drop_fn`` escape hatch is gone: selective
    drops go through a ``FaultPlan`` (here: a match predicate standing in
    for what drop_fn callers used to write)."""
    env = Environment()
    switch = Switch(env)
    assert not hasattr(switch, "drop_fn")
    cmac_a, cmac_b = Cmac(env), Cmac(env)
    switch.attach(MAC_A, cmac_a)
    switch.attach(MAC_B, cmac_b)
    plan = FaultPlan(rules=(
        FaultRule(site="net.drop", probability=1.0,
                  match=lambda pkt: pkt.eth.dst == MAC_B),
    ))
    FaultInjector(plan).arm(switch=switch)

    def proc():
        yield from cmac_a.tx(packet())

    env.run(env.process(proc()))
    env.run()
    assert switch.dropped == 1
    assert cmac_b.rx_frames == 0


def test_duplicate_attach_rejected():
    env = Environment()
    switch = Switch(env)
    switch.attach(MAC_A, Cmac(env))
    with pytest.raises(ValueError, match="already attached"):
        switch.attach(MAC_A, Cmac(env))


def test_cmac_counters():
    env = Environment()
    switch = Switch(env, latency_ns=10)
    cmac_a, cmac_b = Cmac(env), Cmac(env)
    switch.attach(MAC_A, cmac_a)
    switch.attach(MAC_B, cmac_b)
    pkt = packet()

    def proc():
        yield from cmac_a.tx(pkt)
        yield from cmac_a.tx(pkt)

    env.run(env.process(proc()))
    env.run()
    assert cmac_a.tx_frames == 2
    assert cmac_a.tx_bytes == 2 * pkt.wire_length
    assert cmac_b.rx_frames == 2
    assert cmac_b.rx_bytes == 2 * pkt.wire_length
    assert len(cmac_b.rx_queue) == 2


def test_detach_while_frame_in_flight_is_unroutable():
    """A port unplugged (shell reconfiguration) while a frame is crossing
    the switch must not receive it: membership is re-checked at delivery."""
    env = Environment()
    switch = Switch(env)
    cmac_a, cmac_b = Cmac(env), Cmac(env)
    switch.attach(MAC_A, cmac_a)
    switch.attach(MAC_B, cmac_b)

    pkt = packet()
    serialise_ns = (pkt.wire_length + FRAME_OVERHEAD_BYTES) / CMAC_BANDWIDTH

    def sender():
        yield from cmac_a.tx(pkt)

    def unplug():
        # tx serialisation finishes first, then the frame sits in the
        # switch for latency_ns; detach inside that window.
        yield env.timeout(serialise_ns + switch.latency_ns / 2)
        switch.detach(MAC_B)

    env.process(sender())
    env.process(unplug())
    env.run()
    assert cmac_b.rx_frames == 0
    assert switch.unroutable == 1
    assert switch.forwarded == 0


def test_detached_duplicate_takes_the_forwarded_count_back_once():
    """``forwarded`` counts ingress frames, so of a duplicated frame's two
    copies only the one that carried the count may take it back when the
    destination is unplugged under both (it used to end at -1)."""
    env = Environment()
    switch = Switch(env)
    cmac_a, cmac_b = Cmac(env), Cmac(env)
    switch.attach(MAC_A, cmac_a)
    switch.attach(MAC_B, cmac_b)
    FaultInjector(
        FaultPlan(rules=(FaultRule(site="net.duplicate", at_events=(0,)),))
    ).arm(switch=switch)

    def sender():
        yield from cmac_a.tx(packet())
        switch.detach(MAC_B)  # both copies sit in the egress queue

    env.run(env.process(sender()))
    assert switch.forwarded == 1
    env.run()
    assert cmac_b.rx_frames == 0
    assert switch.duplicated == 1
    assert switch.unroutable == 2
    assert switch.forwarded == 0


def test_delivery_exception_escapes_run_and_leaves_nothing_half_delivered():
    """A frame in flight is a timer with the egress port's ``_deliver`` on
    it; what that raises comes out of ``env.run()``, as the crashed
    per-frame process's failure did, before the CMAC counted the frame —
    and the port goes on draining."""
    env = Environment()
    switch = Switch(env)
    cmac_a, cmac_b = Cmac(env), Cmac(env)
    switch.attach(MAC_A, cmac_a)
    switch.attach(MAC_B, cmac_b)
    port = cmac_b.link_partner
    deliver = port.deliver_fn

    def jam_once(pkt, counted):
        port.deliver_fn = deliver
        raise RuntimeError("egress jammed")

    port.deliver_fn = jam_once

    def sender():
        yield from cmac_a.tx(packet())
        yield from cmac_a.tx(packet())

    env.process(sender())
    with pytest.raises(RuntimeError, match="egress jammed"):
        env.run()
    assert cmac_b.rx_frames == 0
    env.run()
    assert cmac_b.rx_frames == 1
    assert switch.forwarded == 2


def test_profiler_books_a_delivery_to_the_egress_port_not_to_the_timer():
    """``_EgressPort.name`` is its drain process's name, and profilers
    book a callback by its owner's name: the delivery timer stays on the
    switch's row instead of falling to an anonymous ``Timeout`` one."""
    from repro.telemetry import SimProfiler

    env = Environment()
    switch = Switch(env)
    cmac_a, cmac_b = Cmac(env), Cmac(env)
    switch.attach(MAC_A, cmac_a)
    switch.attach(MAC_B, cmac_b)
    profiler = SimProfiler().attach(env)
    env.run(env.process(cmac_a.tx(packet())))
    before = dict(profiler.events)
    env.run()  # what is left: the drain's serialisation timer and the delivery
    assert cmac_b.rx_frames == 1
    booked = {k: n - before.get(k, 0) for k, n in profiler.events.items() if n != before.get(k, 0)}
    assert booked and all(key.startswith("sw-egress-host-") for key in booked)
    assert "Timeout" not in profiler.events


def test_flapped_link_recovers_and_its_entry_is_gone():
    """``link_is_down`` expires a hold-off as it reads it; the datapath
    consults the table only while it has entries, so the first frame
    after the hold-off both gets through and empties it."""
    env = Environment()
    switch = Switch(env)
    cmac_a, cmac_b = Cmac(env), Cmac(env)
    switch.attach(MAC_A, cmac_a)
    switch.attach(MAC_B, cmac_b)
    switch.link_down(MAC_B, duration_ns=1_000.0)

    def sender():
        yield from cmac_a.tx(packet())  # black-holed
        assert switch.link_is_down(MAC_B)
        yield env.timeout(1_000.0)
        yield from cmac_a.tx(packet())

    env.run(env.process(sender()))
    env.run()
    assert (switch.dropped, cmac_b.rx_frames) == (1, 1)
    assert switch._link_down_until == {}
    assert not switch.link_is_down(MAC_B)
