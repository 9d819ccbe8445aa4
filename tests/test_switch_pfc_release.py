"""A paused transmitter resumes the moment its pause is lifted.

DESIGN.md "PFC": a pause holds a transmitter — a switch egress port's
drain, or a sender in ``Cmac.tx`` — for the pause quanta unless it is
released early by an explicit XON, or broken by the storm watchdog.
Both must wake it then, not let it sleep out the rest of the hold; a
storm break fails every sender parked on the CMAC.
"""

from repro import Environment
from repro.health import PfcStormError
from repro.net import BthHeader, Cmac, MacAddress, RoceOpcode, RocePacket, Switch
from repro.net.cmac import CMAC_BANDWIDTH, FRAME_OVERHEAD_BYTES, PAUSE_QUANTA_NS
from repro.net.switch import SWITCH_LATENCY_NS

SENDER, RECEIVER = MacAddress(0x02_0000_0001), MacAddress(0x02_0000_0002)


def _frame(serial):
    return RocePacket.build(
        src_mac=SENDER, dst_mac=RECEIVER, src_ip=1, dst_ip=2,
        bth=BthHeader(opcode=RoceOpcode.SEND_ONLY, dest_qp=1, psn=serial),
        payload_length=1024,
    )


#: How long one test frame takes to serialise.
WIRE_NS = (_frame(0).wire_length + FRAME_OVERHEAD_BYTES) / CMAC_BANDWIDTH


def _pair(**receiver_kw):
    env = Environment()
    switch = Switch(env)
    sender, receiver = Cmac(env, name="tx"), Cmac(env, name="rx", **receiver_kw)
    switch.attach(SENDER, sender)
    switch.attach(RECEIVER, receiver)

    def send(count):
        for serial in range(count):
            yield from sender.tx(_frame(serial))

    return env, switch, send, receiver, sender


def test_xon_from_a_receiver_that_reads_again_wakes_the_drain():
    """The receiver stops reading, so its backlog XOFFs the egress port
    feeding it with frames still queued there; at 5 µs it reads its
    backlog down to the XON mark, and the first held frame reaches it
    one forwarding latency later, not after the hold runs out."""
    env, switch, send, receiver, _sender = _pair(rx_xoff_frames=2)
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
    env, _switch, send, receiver, _sender = _pair()
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


def test_xon_wakes_a_sender_parked_in_cmac_tx():
    """A sender parked in ``Cmac.tx`` by a 50 µs pause starts its frame
    the instant the XON lands, at 2 µs."""
    env, _switch, send, _receiver, sender = _pair()
    sender.pause(50_000.0)
    sent = []
    sender.tx_taps.append(lambda now, packet: sent.append(now))

    def xon():
        yield env.timeout(2_000.0)
        sender.resume()

    env.process(xon())
    env.run(env.process(send(1)))
    assert sent == [2_000.0 + WIRE_NS]
    assert sender.pause_resumes_rx == 1


def test_storm_break_fails_every_sender_parked_in_cmac_tx():
    """A storm break reaches every sender parked on the CMAC's pause as
    the one typed error, at the break, and nothing goes on the wire."""
    env, _switch, _send, _receiver, sender = _pair()
    sender.pause(50_000.0)
    err = PfcStormError("tx", 2_000.0, 1_000.0)
    failed = []

    def parked(serial):
        try:
            yield from sender.tx(_frame(serial))
        except PfcStormError as exc:
            failed.append((serial, env.now, exc))

    def storm():
        yield env.timeout(2_000.0)
        sender.break_pause(err)

    for serial in range(3):
        env.process(parked(serial))
    env.process(storm())
    env.run()
    assert [(serial, when) for serial, when, _ in failed] == [
        (0, 2_000.0), (1, 2_000.0), (2, 2_000.0)
    ]
    assert all(exc is err for _, _, exc in failed)
    assert sender.tx_frames == 0


def test_a_shorter_hold_after_an_xon_is_not_slept_past():
    """An XON at 2 µs lifts a 50 µs pause; a fresh 10 µs XOFF at 3 µs
    holds the next frame until 13 µs, not until the lifted hold's 50 µs
    would have run out."""
    env, _switch, send, _receiver, sender = _pair()
    sent = []
    sender.tx_taps.append(lambda now, packet: sent.append(now))

    def script():
        yield env.timeout(2_000.0)
        sender.resume()
        yield env.timeout(1_000.0)
        sender.pause(10_000.0)
        yield from sender.tx(_frame(1))

    sender.pause(50_000.0)
    env.process(send(1))
    env.run(env.process(script()))
    assert sent == [2_000.0 + WIRE_NS, 13_000.0 + WIRE_NS]
