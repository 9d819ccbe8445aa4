"""READ responses come from the stack's payload generator, not from the
receive loop: the node keeps receiving while it answers, a QP's replies
keep their order, and a response ends with its connection while the
responder itself goes on to the next request."""

import pytest

from repro.net import RdmaConfig, RdmaError, RoceOpcode

from .platforms import rdma_pair
from .test_rdma_qp_lifecycle import guarded

KIB = 1024
#: Short timers: a responder that went quiet is given up on within ~60 µs.
IMPATIENT = RdmaConfig(retransmit_timeout_ns=20_000, max_retries=2)


def pattern(length, salt=0):
    return bytes((i * 7 + salt) % 251 for i in range(length))


def tx_log(stack):
    """Every frame the stack's port puts on the wire, as (when, packet)."""
    frames = []
    stack.cmac.tx_taps.append(lambda now, packet: frames.append((now, packet)))
    return frames


def is_response(packet):
    opcode = packet.bth.opcode
    return RoceOpcode.RDMA_READ_RESPONSE_FIRST <= opcode <= RoceOpcode.RDMA_READ_RESPONSE_ONLY


# ------------------------------------------------------------ response order


def test_an_ack_waits_for_the_read_responses_its_qp_still_owes():
    """ACKs are cumulative: the ACK of a WRITE posted behind a READ on
    the same QP must not leave before the READ's last response does."""
    env, _sw, (a, b), (mem_a, mem_b) = rdma_pair()
    mem_b.write(0x100000, pattern(256 * KIB))
    mem_a.write(0x1000, pattern(4 * KIB, salt=3))
    sent = tx_log(b)
    first_psn = a.qps[1].sq_psn
    finished = []

    def reader():
        yield from a.rdma_read(1, 0x200000, 0x100000, 256 * KIB)
        finished.append("read")

    def writer():
        yield from a.rdma_write(1, 0x1000, 0x8000, 4 * KIB)
        finished.append("write")

    env.process(reader())
    env.process(writer())
    env.run()
    assert finished == ["read", "write"]
    assert mem_a.read(0x200000, 256 * KIB) == pattern(256 * KIB)
    assert mem_b.read(0x8000, 4 * KIB) == pattern(4 * KIB, salt=3)
    last_psn = first_psn + 256 * KIB // a.config.mtu - 1
    psns = [packet.bth.psn for _when, packet in sent]
    # The WRITE was landed while the READ was being answered ...
    assert b.stats["rx_packets"] == 2 and len(psns) == 65
    # ... and nothing past the READ's range left before its last response.
    assert psns == list(range(first_psn, last_psn + 2))
    assert sent[-1][1].bth.opcode == RoceOpcode.ACKNOWLEDGE
    assert not b._responder.owed and not b._responder.responding


def test_two_reads_outstanding_on_one_qp_are_answered_in_request_order():
    env, _sw, (a, b), (mem_a, mem_b) = rdma_pair()
    mem_b.write(0x10000, pattern(64 * KIB, salt=1))
    mem_b.write(0x40000, pattern(4 * KIB, salt=2))
    sent = tx_log(b)
    finished = []

    def reader(local, remote, length):
        yield from a.rdma_read(1, local, remote, length)
        finished.append(length)

    env.process(reader(0x100000, 0x10000, 64 * KIB))
    env.process(reader(0x200000, 0x40000, 4 * KIB))
    env.run()
    assert finished == [64 * KIB, 4 * KIB]
    assert mem_a.read(0x100000, 64 * KIB) == pattern(64 * KIB, salt=1)
    assert mem_a.read(0x200000, 4 * KIB) == pattern(4 * KIB, salt=2)
    psns = [packet.bth.psn for _when, packet in sent]
    assert psns == sorted(psns) and len(psns) == 17


# --------------------------------------------------------------- head of line


def test_a_node_answering_a_long_read_still_completes_its_own_write():
    """A serves a 1 MiB READ for B; A's own 4 KiB WRITE to B, posted 5 µs
    in, needs A's receive loop for its ACK and gets it."""
    env, _sw, (a, b), (mem_a, mem_b) = rdma_pair()
    mem_a.write(0x100000, pattern(1024 * KIB))
    mem_a.write(0x1000, pattern(4 * KIB, salt=5))
    took = {}

    def reader():
        yield from b.rdma_read(2, 0x400000, 0x100000, 1024 * KIB)
        took["read"] = env.now

    def writer():
        yield env.timeout(5_000)
        yield from a.rdma_write(1, 0x1000, 0x8000, 4 * KIB)
        took["write"] = env.now - 5_000

    env.process(reader())
    env.process(writer())
    env.run()
    assert mem_b.read(0x400000, 1024 * KIB) == pattern(1024 * KIB)
    assert mem_b.read(0x8000, 4 * KIB) == pattern(4 * KIB, salt=5)
    assert took["write"] < 10_000 and took["read"] > 80_000


# ------------------------------------------- a response ends with its connection


def cut_read(action):
    """A 256 KiB READ whose responder-side connection ``action`` ends 15 µs
    in.  Returns what ``b`` sent after that and how the verb ended."""
    env, _sw, (a, b), (mem_a, mem_b) = rdma_pair(IMPATIENT)
    mem_b.write(0x100000, pattern(256 * KIB))
    sent = tx_log(b)
    verb = env.process(guarded(a.rdma_read(1, 0x200000, 0x100000, 256 * KIB)))
    env.run(until=15_000)
    assert b._responder.responding and 0 < len(sent) < 64
    action(b)
    cut_at = env.now
    env.run()  # returns: no exception out of a handler, no livelock
    late = [packet for when, packet in sent if when > cut_at and is_response(packet)]
    assert not b._responder.owed and not b._responder.responding
    return env, (a, mem_a), (b, mem_b), late, verb


def reconnect_and_read(env, a, mem_a, b, mem_b):
    """The recycle path: both ends back to RESET, connected, one READ."""
    for stack, qpn in ((a, 1), (b, 2)):
        if qpn in stack.qps:
            stack.reset_qp(qpn)
        else:
            stack.create_qp(qpn, psn=10 * qpn)
    a.qps[1].connect(b.qps[2].local)
    b.qps[2].connect(a.qps[1].local)
    mem_b.write(0x300000, pattern(64 * KIB, salt=9))
    again = env.process(guarded(a.rdma_read(1, 0x500000, 0x300000, 64 * KIB)))
    env.run()
    assert again.value == "ok"
    assert mem_a.read(0x500000, 64 * KIB) == pattern(64 * KIB, salt=9)


def test_reset_qp_mid_response_ends_the_response_not_the_responder():
    env, (a, mem_a), (b, mem_b), late, verb = cut_read(lambda b: b.reset_qp(2))
    # The frame on its way out at the reset still leaves; nothing after it.
    assert len(late) <= 1
    assert isinstance(verb.value, RdmaError) and "retry exhausted" in str(verb.value)
    reconnect_and_read(env, a, mem_a, b, mem_b)


def test_halt_mid_response_stops_the_stream():
    env, (a, mem_a), (b, mem_b), late, verb = cut_read(lambda b: b.halt("pulled"))
    assert len(late) <= 1
    assert isinstance(verb.value, RdmaError) and "retry exhausted" in str(verb.value)
    b.halted = False  # what restore_node does before it recycles the QPs
    reconnect_and_read(env, a, mem_a, b, mem_b)


def test_destroy_qp_drops_its_queued_request_and_the_next_qp_is_served():
    """Two QPs owe a READ each; the first QP is destroyed while it is
    being answered with a second request of its own queued behind."""
    env, _sw, (a, b), (mem_a, mem_b) = rdma_pair(IMPATIENT)
    qa, qb = a.create_qp(3, psn=30), b.create_qp(4, psn=40)
    qa.connect(qb.local)
    qb.connect(qa.local)
    mem_b.write(0x100000, pattern(256 * KIB))
    mem_b.write(0x180000, pattern(64 * KIB, salt=4))
    sent = tx_log(b)
    doomed = [
        env.process(guarded(a.rdma_read(1, 0x200000, 0x100000, 256 * KIB))),
        env.process(guarded(a.rdma_read(1, 0x280000, 0x100000, 8 * KIB))),
    ]
    other = env.process(guarded(a.rdma_read(3, 0x300000, 0x180000, 64 * KIB)))
    env.run(until=15_000)
    assert [owed[0].qpn for owed in b._responder.owed] == [2, 2, 4]
    b.destroy_qp(2)
    cut_at = env.now
    assert [owed[0].qpn for owed in b._responder.owed] == [4]
    env.run()
    for verb in doomed:
        assert isinstance(verb.value, RdmaError) and "retry exhausted" in str(verb.value)
    assert other.value == "ok"
    assert mem_a.read(0x300000, 64 * KIB) == pattern(64 * KIB, salt=4)
    late = [p for when, p in sent if when > cut_at and is_response(p) and p.bth.dest_qp == 1]
    assert len(late) <= 1
    assert not b._responder.owed and not b._responder.responding
    reconnect_and_read(env, a, mem_a, b, mem_b)


def test_a_qp_that_errored_while_landing_a_write_does_not_ack_it():
    """The receive loop now lands a WRITE while a READ is being answered.
    If the QP errors meanwhile, an ACK sent on resume would cumulatively
    acknowledge the READ whose responses just stopped: the requester
    would wait for ever instead of running out of retries."""
    env, _sw, (a, b), (_mem_a, _mem_b) = rdma_pair(IMPATIENT)
    sent = tx_log(b)
    read = env.process(guarded(a.rdma_read(1, 0x200000, 0x100000, 16 * KIB)))
    write = env.process(guarded(a.rdma_write(1, 0x1000, 0x8000, 4_000)))
    while b.stats["rx_packets"] < 2:
        env.step()
    env.run(until=env.now + 100)  # past the pipeline delay, into the landing
    b.qp_error(2, reason="pulled")
    env.run()
    assert not any(packet.bth.opcode == RoceOpcode.ACKNOWLEDGE for _when, packet in sent)
    for verb in (read, write):
        assert isinstance(verb.value, RdmaError) and "retry exhausted" in str(verb.value)


@pytest.mark.parametrize("length", [0, 1, 4 * KIB, 4 * KIB + 1])
def test_short_reads_take_the_same_path(length):
    env, _sw, (a, _b), (mem_a, mem_b) = rdma_pair()
    mem_b.write(0x2000, pattern(length, salt=6))
    verb = env.process(guarded(a.rdma_read(1, 0x300, 0x2000, length)))
    env.run()
    assert verb.value == "ok"
    assert mem_a.read(0x300, length) == pattern(length, salt=6)
