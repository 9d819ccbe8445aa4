"""Inbound payloads land beside the receive loop (blue-rdma's
``PayloadCon``): an inbound WRITE segment and a READ response each land
in their own process while the loop goes on to the next frame.  Four
ordering rules keep that invisible to both ends of a QP:

(a) the ACK of PSN *n* leaves after *n* and every earlier landing of its
    QP have landed, and carries the MSN as of *n*'s arrival;
(b) a READ or atomic request behind a landing reads what it wrote;
(c) a QP completes its verbs in the order they were posted;
(d) a flush while landings are in flight acknowledges and completes
    nothing of the old connection, and its landings finish before the
    QP handles its next frame.

Each rule has a test whose landings are made to finish out of order by
a slow page; the property at the end mixes every verb on one QP of a
two-card cluster with TLB-evicted pages."""

from itertools import count

from hypothesis import given
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.mem import AllocType
from repro.net import RdmaConfig, RdmaError, RoceOpcode, WrFlushError
from repro.net.qp import PSN_MOD

from .platforms import rdma_cluster, rdma_pair

KIB = 1024
#: A landing on a page this slow takes 5 µs longer than its neighbours.
SLOW_NS = 5_000.0
#: Short timers: a peer that stopped answering is given up on quickly.
IMPATIENT = RdmaConfig(retransmit_timeout_ns=20_000, max_retries=2)


def pattern(length, salt=0):
    return bytes((i * 7 + salt) % 251 for i in range(length))


def slow_pages(env, stack, qpn, memory, slow, bytes_per_ns=12.0):
    """Bind ``qpn``'s memory to ``memory``, with a write to any vaddr in
    ``slow`` taking :data:`SLOW_NS` longer.  Returns the landing log,
    ``(when it landed, vaddr)`` in the order they finished."""
    landed = []

    def read_local(vaddr, length):
        yield env.timeout(length / bytes_per_ns)
        return memory.read(vaddr, length)

    def write_local(vaddr, data, length):
        yield env.timeout(length / bytes_per_ns + (SLOW_NS if vaddr in slow else 0.0))
        if data is not None:
            memory.write(vaddr, data)
        landed.append((env.now, vaddr))

    stack.bind_qp_memory(qpn, read_local, write_local)
    return landed


def replies(stack):
    """Every ACK/NAK the stack puts on the wire: ``(when, psn, msn)``."""
    sent = []

    def tap(now, packet):
        if packet.bth.opcode == RoceOpcode.ACKNOWLEDGE:
            sent.append((now, packet.bth.psn, packet.aeth.msn))

    stack.cmac.tx_taps.append(tap)
    return sent


def outcome(verb):
    """Run a verb to its end: what it returned, or the typed error it raised."""
    try:
        return (yield from verb)
    except RdmaError as exc:
        return exc


def post_in_order(env, stack, qpn, verbs):
    """Start each ``(psns, verb)`` once the one before has taken all its
    PSNs, so post order is PSN order on the wire.  Returns the verbs'
    processes, each ending in the verb's :func:`outcome`."""
    qp = stack.qps[qpn]
    started = []

    def poster():
        for psns, verb in verbs:
            target = (qp.sq_psn + psns) % PSN_MOD
            process = env.process(outcome(verb))
            started.append(process)
            while qp.sq_psn != target and not process.triggered:
                yield env.timeout(5)

    env.process(poster())
    return started


# --------------------------------------------- (a) ACK after the landing


def test_an_ack_leaves_after_its_landing_and_every_earlier_one():
    env, _sw, (a, b), (_mem_a, mem_b) = rdma_pair()
    remote = 0x8000
    landed = slow_pages(env, b, 2, mem_b, slow={remote})
    acks = replies(b)
    first = a.qps[1].sq_psn
    env.run(env.process(a.rdma_write(1, 0x1000, remote, 3 * 4 * KIB)))
    # The first segment landed last, yet no ACK overtook it.
    assert [vaddr for _when, vaddr in landed] == [remote + 4 * KIB, remote + 8 * KIB, remote]
    landed_at = {vaddr: when for when, vaddr in landed}
    assert [psn for _when, psn, _msn in acks] == [first, first + 1, first + 2]
    for when, psn, _msn in acks:
        for segment in range(psn - first + 1):
            assert landed_at[remote + segment * 4 * KIB] <= when


def test_an_ack_carries_the_msn_of_its_psn_arrival():
    """The second WRITE arrives (MSN + 2) while the first is still
    landing; the first's ACK still says MSN + 1."""
    env, _sw, (a, b), (_mem_a, mem_b) = rdma_pair()
    landed = slow_pages(env, b, 2, mem_b, slow={0x8000})
    acks = replies(b)
    msn = b.qps[2].msn
    writes = post_in_order(env, a, 1, [
        (1, a.rdma_write(1, 0x1000, 0x8000, 4 * KIB)),
        (1, a.rdma_write(1, 0x2000, 0x10000, 4 * KIB)),
    ])
    env.run()
    assert [w.value.opcode for w in writes] == ["WRITE", "WRITE"]
    assert [vaddr for _when, vaddr in landed] == [0x10000, 0x8000]
    assert [m for _when, _psn, m in acks] == [msn + 1, msn + 2]
    assert all(when >= landed[-1][0] for when, _psn, _msn in acks)


# ---------------------------------------- (b) read-after-write ordering


def test_a_read_behind_a_landing_reads_what_it_wrote():
    env, _sw, (a, b), (mem_a, mem_b) = rdma_pair()
    mem_a.write(0x1000, pattern(4 * KIB, salt=5))
    slow_pages(env, b, 2, mem_b, slow={0x8000})
    verbs = post_in_order(env, a, 1, [
        (1, a.rdma_write(1, 0x1000, 0x8000, 4 * KIB)),
        (1, a.rdma_read(1, 0x20000, 0x8000, 4 * KIB)),
    ])
    env.run()
    assert [v.value.opcode for v in verbs] == ["WRITE", "READ"]
    assert mem_a.read(0x20000, 4 * KIB) == pattern(4 * KIB, salt=5)


def test_an_atomic_behind_a_landing_adds_to_what_it_wrote():
    env, _sw, (a, b), (mem_a, mem_b) = rdma_pair()
    mem_a.write(0x1000, (40).to_bytes(8, "little"))
    slow_pages(env, b, 2, mem_b, slow={0x100})
    verbs = post_in_order(env, a, 1, [
        (1, a.rdma_write(1, 0x1000, 0x100, 8)),
        (1, a.fetch_add(1, 0x100, 2)),
    ])
    env.run()
    assert verbs[1].value == 40
    assert int.from_bytes(mem_b.read(0x100, 8), "little") == 42


# ---------------------------------------------- (c) post-order completion


def test_verbs_complete_in_post_order_behind_a_slow_read_landing():
    """The WRITE's ACK arrives while the READ's last response is still
    landing: the READ completes first all the same."""
    env, _sw, (a, b), (mem_a, mem_b) = rdma_pair()
    mem_b.write(0x40000, pattern(8 * KIB, salt=1))
    slow_pages(env, a, 1, mem_a, slow={0x20000 + 4 * KIB})
    verbs = post_in_order(env, a, 1, [
        (2, a.rdma_read(1, 0x20000, 0x40000, 8 * KIB, wr_id=1)),
        (1, a.rdma_write(1, 0x1000, 0x8000, 4 * KIB, wr_id=2)),
    ])
    env.run()
    assert [v.value.opcode for v in verbs] == ["READ", "WRITE"]
    assert [c.wr_id for c in a.cq.items] == [1, 2]
    assert mem_a.read(0x20000, 8 * KIB) == pattern(8 * KIB, salt=1)


# ------------------------------------------------ (d) flush mid-landing


def test_a_responder_flushed_mid_landing_sends_no_ack():
    env, _sw, (a, b), (_mem_a, mem_b) = rdma_pair(IMPATIENT)
    landed = slow_pages(env, b, 2, mem_b, slow={0x8000})
    acks = replies(b)
    write = env.process(outcome(a.rdma_write(1, 0x1000, 0x8000, 4 * KIB)))
    env.run(until=2_000)
    assert len(b._contexts[2].landings) == 1 and not landed
    b.qp_error(2, reason="cut")
    env.run()
    assert landed and not acks  # the data landed; nobody was told
    assert isinstance(write.value, WrFlushError)


def test_a_requester_flushed_mid_landing_completes_nothing():
    env, _sw, (a, b), (mem_a, mem_b) = rdma_pair()
    slow_pages(env, a, 1, mem_a, slow={0x20000})
    read = env.process(outcome(a.rdma_read(1, 0x20000, 0x40000, 4 * KIB)))
    env.run(until=2_500)
    assert len(a._contexts[1].landings) == 1
    assert a.qp_error(1, reason="cut") == 1
    env.run()
    assert isinstance(read.value, WrFlushError) and read.value.opcode == "READ"
    assert not a.cq.items and not a._contexts[1].reads


def test_a_landing_across_a_reset_lands_first_and_stays_quiet():
    """The new connection's WRITE to the same page arrives while the old
    one is still landing, and would land sooner: it waits, so the page
    ends with the new bytes, and only the new WRITE is acknowledged."""
    env, _sw, (a, b), (mem_a, mem_b) = rdma_pair(IMPATIENT)
    mem_a.write(0x1000, pattern(4 * KIB, salt=9))
    mem_a.write(0x2000, pattern(4 * KIB, salt=3))
    slow = {0x8000}
    landed = slow_pages(env, b, 2, mem_b, slow=slow)
    acks = replies(b)
    old = env.process(outcome(a.rdma_write(1, 0x1000, 0x8000, 4 * KIB)))
    env.run(until=2_000)
    assert len(b._contexts[2].landings) == 1
    slow.clear()  # only the old connection's landing is slow
    qp_a, qp_b = a.reset_qp(1), b.reset_qp(2)
    assert not b._contexts[2].landings  # the reset starts the slot over
    qp_a.connect(qp_b.local)
    qp_b.connect(qp_a.local)
    new = env.process(outcome(a.rdma_write(1, 0x2000, 0x8000, 4 * KIB)))
    env.run()
    assert isinstance(old.value, WrFlushError) and new.value.opcode == "WRITE"
    assert [vaddr for _when, vaddr in landed] == [0x8000, 0x8000]
    assert mem_b.read(0x8000, 4 * KIB) == pattern(4 * KIB, salt=3)
    assert len(acks) == 1 and acks[0][0] >= landed[-1][0]


# ------------------------------------------------ a lost READ response


def test_a_read_that_lost_a_response_asks_again():
    """The 12 KiB READ's middle response is dropped.  Neither its last
    response nor the next READ's is taken in its place, and the ACK of
    the WRITE behind them does not release it: the verbs stay
    unacknowledged, the retransmit timer asks again, and the responder
    answers the duplicate READs.  All complete, whole, in post order."""
    env, switch, (a, b), (mem_a, mem_b) = rdma_pair(IMPATIENT)
    middle = RoceOpcode.RDMA_READ_RESPONSE_MIDDLE
    FaultInjector(FaultPlan(rules=(
        FaultRule(site="net.drop", at_events=(0,), match=lambda pkt: pkt.bth.opcode == middle),
    ))).arm(switch=switch)
    mem_b.write(0x40000, pattern(12 * KIB, salt=4))
    mem_b.write(0x50000, pattern(4 * KIB, salt=6))
    mem_a.write(0x1000, pattern(4 * KIB, salt=8))
    verbs = post_in_order(env, a, 1, [
        (3, a.rdma_read(1, 0x20000, 0x40000, 12 * KIB, wr_id=1)),
        (1, a.rdma_read(1, 0x30000, 0x50000, 4 * KIB, wr_id=2)),
        (1, a.rdma_write(1, 0x1000, 0x60000, 4 * KIB, wr_id=3)),
    ])
    env.run()
    assert mem_a.read(0x20000, 12 * KIB) == pattern(12 * KIB, salt=4)
    assert mem_a.read(0x30000, 4 * KIB) == pattern(4 * KIB, salt=6)
    assert mem_b.read(0x60000, 4 * KIB) == pattern(4 * KIB, salt=8)
    assert [v.value.opcode for v in verbs] == ["READ", "READ", "WRITE"]
    assert [c.wr_id for c in a.cq.items] == [1, 2, 3]
    assert switch.dropped == 1 and a.stats["retransmissions"] >= 2
    assert not a._contexts[1].unacked and not a._contexts[1].reads


# ---------------------------------------------------- generated mixes

def write_arrivals(stack):
    """The PSN of every WRITE segment the stack receives, in order."""
    psns = []

    def tap(_now, packet):
        if packet.bth.opcode in WRITE_OPCODES:
            psns.append(packet.bth.psn)

    stack.cmac.rx_taps.append(tap)
    return psns


WRITE_OPCODES = {
    RoceOpcode.RDMA_WRITE_FIRST, RoceOpcode.RDMA_WRITE_MIDDLE,
    RoceOpcode.RDMA_WRITE_LAST, RoceOpcode.RDMA_WRITE_ONLY,
}


def log_landings(env, stack, qpn, skip):
    """Wrap ``qpn``'s ``write_local`` so each landing logs ``(when it
    landed, its index in arrival order)``; a write to ``skip`` (the
    atomics' target) is not a landing.  Returns the log."""
    read_local, write_local = stack._contexts[qpn].memory
    arrived = count()
    log = []

    def logged(vaddr, data, length):
        order = None if vaddr == skip else next(arrived)
        yield from write_local(vaddr, data, length)
        if order is not None:
            log.append((env.now, order))

    stack.bind_qp_memory(qpn, read_local, logged)
    return log


#: One QP's worth of verbs: (kind, slot, segments, evict the target).
VERBS = st.lists(
    st.tuples(
        st.sampled_from(["write", "read", "send", "atomic"]),
        st.integers(0, 3),
        st.integers(1, 3),
        st.booleans(),
    ),
    min_size=1,
    max_size=8,
)
SLOT = 3 * 4 * KIB


@given(VERBS)
def test_generated_mixes_keep_bytes_order_and_acks(verbs):
    """WRITE, READ, SEND and FETCH_ADD on one QP, each posted behind the
    last one's PSNs, some with their target pages evicted from the TLB
    so their landings walk: the bytes are those of the verbs in post
    order, completions come in post order, and no ACK leaves before a
    landing it covers."""
    env, cluster = rdma_cluster(page_size=4 * KIB)
    local, remote = cluster.connect_qps(0, 1, pid_a=1, pid_b=2, qpn_a=1, qpn_b=2)
    requester, responder = (node.shell.dynamic.rdma for node in cluster.nodes)
    mmus = [node.shell.dynamic.mmus[0] for node in cluster.nodes]
    buffers = {}

    def setup():
        for name, thread in (("out", local), ("land", local), ("far", remote)):
            alloc = yield from thread.get_mem(4 * SLOT + 4 * KIB, AllocType.REG)
            buffers[name] = alloc.vaddr

    env.run(env.process(setup()))
    out, land, far = buffers["out"], buffers["land"], buffers["far"]
    counter = far + 4 * SLOT
    far_image = bytearray(4 * SLOT)
    landings = log_landings(env, responder, 2, skip=counter)
    arrivals = write_arrivals(responder)
    acks = replies(responder)

    plan, expect, read_slots = [], [], set()
    sends, received, total = [], [], 0
    for index, (kind, slot, segments, evict) in enumerate(verbs):
        length = segments * 4 * KIB - 64 * index
        at = slot * SLOT
        if kind == "write" and slot in read_slots:
            continue  # a WRITE behind a READ of its bytes may overtake it (IB)
        if kind == "write":
            data = pattern(length, salt=index)
            local.write_buffer(out + at, data)
            far_image[at : at + length] = data
            verb = requester.rdma_write(1, out + at, far + at, length, wr_id=index)
            target, psns = (1, far + at), segments
        elif kind == "read":
            read_slots.add(slot)
            expect.append((land + at, bytes(far_image[at : at + length])))
            verb = requester.rdma_read(1, land + at, far + at, length, wr_id=index)
            target, psns = (0, land + at), segments
        elif kind == "send":
            sends.append(pattern(length, salt=index))
            verb = requester.send(1, sends[-1], wr_id=index)
            received.append(env.process(responder.recv(2)))
            target, psns = None, segments
        else:
            expect.append(("fetch_add", total))
            total += index
            verb = requester.fetch_add(1, counter, index, wr_id=index)
            target, psns, length = (1, counter), 1, 8
        if evict and target is not None:
            node, vaddr = target
            for page in range(vaddr, vaddr + length, 4 * KIB):
                mmus[node].shootdown(page)
        plan.append((index, kind, psns, verb))

    finished = post_in_order(env, requester, 1, [(psns, verb) for _i, _k, psns, verb in plan])
    env.run()
    # Every verb succeeded, and completed in the order it was posted.
    assert not [p.value for p in finished if isinstance(p.value, Exception)]
    assert [c.wr_id for c in requester.cq.items] == [index for index, *_ in plan]
    # The bytes: READs saw every WRITE posted before them, the far side
    # holds every WRITE, each FETCH_ADD saw the sum before it and the
    # SENDs arrived whole, in order.
    values = iter(p.value for (_i, kind, *_), p in zip(plan, finished) if kind == "atomic")
    for where, want in expect:
        if where == "fetch_add":
            assert next(values) == want
        else:
            assert local.read_buffer(where, len(want)) == want
    assert remote.read_buffer(far, 4 * SLOT) == bytes(far_image)
    assert int.from_bytes(remote.read_buffer(counter, 8), "little") == total
    assert [r.value for r in received] == sends
    # No ACK left before a WRITE landing of a PSN it covers.
    landed_at = dict((order, when) for when, order in landings)
    assert len(landed_at) == len(arrivals)
    for when, psn, _msn in acks:
        for order, arrived_psn in enumerate(arrivals):
            if (psn - arrived_psn) % PSN_MOD < PSN_MOD // 2:
                assert landed_at[order] <= when
