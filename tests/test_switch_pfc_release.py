"""A paused switch egress port resumes the moment its pause is lifted.

DESIGN.md "PFC": a pause holds the port's drain for the pause quanta
unless it is "released early by an explicit XON" — or broken by the
storm watchdog.  Both must wake the drain then, not let it sleep out the
rest of the 10 µs hold.
"""

from repro import Environment
from repro.health import PfcStormError
from repro.net import BthHeader, Cmac, MacAddress, RoceOpcode, RocePacket, Switch
from repro.net.cmac import PAUSE_QUANTA_NS
from repro.net.switch import SWITCH_LATENCY_NS

SENDER, RECEIVER = MacAddress(0x02_0000_0001), MacAddress(0x02_0000_0002)


def _frame(serial):
    return RocePacket.build(
        src_mac=SENDER, dst_mac=RECEIVER, src_ip=1, dst_ip=2,
        bth=BthHeader(opcode=RoceOpcode.SEND_ONLY, dest_qp=1, psn=serial),
        payload_length=1024,
    )


def _pair(**receiver_kw):
    env = Environment()
    switch = Switch(env)
    sender, receiver = Cmac(env, name="tx"), Cmac(env, name="rx", **receiver_kw)
    switch.attach(SENDER, sender)
    switch.attach(RECEIVER, receiver)

    def send(count):
        for serial in range(count):
            yield from sender.tx(_frame(serial))

    return env, switch, send, receiver


def test_xon_from_a_receiver_that_reads_again_wakes_the_drain():
    """The receiver stops reading, so its backlog XOFFs the egress port
    feeding it with frames still queued there; at 5 µs it reads its
    backlog down to the XON mark, and the first held frame reaches it
    one forwarding latency later, not after the hold runs out."""
    env, switch, send, receiver = _pair(rx_xoff_frames=2)
    arrivals, xon_at = {}, []

    def read():
        yield env.timeout(5_000.0)
        while len(arrivals) < 10:
            packet = yield from receiver.rx()
            arrivals[packet.bth.psn] = env.now
            if switch.pause_resumes_received and not xon_at:
                xon_at.append(env.now)

    env.process(send(10))
    env.run(env.process(read()))
    assert receiver.pause_frames_tx >= 1 and switch.pause_resumes_received == 1
    assert xon_at == [5_000.0]
    held = [psn for psn, when in arrivals.items() if when > 5_000.0]
    assert held and sorted(arrivals) == list(range(10))
    assert arrivals[held[0]] == 5_000.0 + SWITCH_LATENCY_NS < PAUSE_QUANTA_NS


def test_storm_break_wakes_the_drain():
    """A frame queued behind a long pause leaves when the storm watchdog
    breaks the pause."""
    env, _switch, send, receiver = _pair()
    port = receiver.link_partner
    port.pause(50_000.0)
    arrivals = []

    def read():
        packet = yield from receiver.rx()
        arrivals.append((packet.bth.psn, env.now))

    def storm():
        yield env.timeout(2_000.0)
        port.break_pause(PfcStormError("rx", 2_000.0, 1_000.0))

    env.process(send(1))
    env.process(storm())
    env.run(env.process(read()))
    assert arrivals == [(0, 2_000.0 + SWITCH_LATENCY_NS)]
    assert port.pfc_muted
