"""Tests for RoCE v2 atomic verbs (FETCH_ADD, CMP_SWAP)."""

from repro.net import MacAddress, RoceOpcode
from repro.net.headers import AethHeader, AtomicAckEthHeader, AtomicEthHeader, BthHeader
from repro.net.packet import RocePacket
from repro.sim import AllOf

from .platforms import connect, rdma_group, rdma_pair


def test_atomic_eth_header_roundtrip():
    hdr = AtomicEthHeader(vaddr=0xDEAD0000, rkey=7, swap_add=42, compare=13)
    back = AtomicEthHeader.unpack(hdr.pack())
    assert (back.vaddr, back.rkey, back.swap_add, back.compare) == (0xDEAD0000, 7, 42, 13)
    assert len(hdr.pack()) == 28


def test_atomic_packet_wire_roundtrip():
    pkt = RocePacket.build(
        src_mac=MacAddress(1), dst_mac=MacAddress(2), src_ip=1, dst_ip=2,
        bth=BthHeader(opcode=RoceOpcode.FETCH_ADD, dest_qp=5, psn=9, ack_request=True),
        atomic_eth=AtomicEthHeader(vaddr=0x100, rkey=0, swap_add=1),
    )
    back = RocePacket.from_bytes(pkt.to_bytes())
    assert back.atomic_eth.swap_add == 1
    ack = RocePacket.build(
        src_mac=MacAddress(2), dst_mac=MacAddress(1), src_ip=2, dst_ip=1,
        bth=BthHeader(opcode=RoceOpcode.ATOMIC_ACKNOWLEDGE, dest_qp=4, psn=9),
        aeth=AethHeader(0, 1),
        atomic_ack=AtomicAckEthHeader(original=777),
    )
    assert RocePacket.from_bytes(ack.to_bytes()).atomic_ack.original == 777


def test_fetch_add_returns_original_and_updates():
    env, _sw, stacks, memories = rdma_pair()
    memories[1].write(0x100, (100).to_bytes(8, "little"))

    def proc():
        original = yield from stacks[0].fetch_add(1, 0x100, 5)
        return original

    assert env.run(env.process(proc())) == 100
    assert int.from_bytes(memories[1].read(0x100, 8), "little") == 105


def test_fetch_add_wraps_64_bits():
    env, _sw, stacks, memories = rdma_pair()
    memories[1].write(0, ((1 << 64) - 1).to_bytes(8, "little"))

    def proc():
        original = yield from stacks[0].fetch_add(1, 0, 2)
        return original

    assert env.run(env.process(proc())) == (1 << 64) - 1
    assert int.from_bytes(memories[1].read(0, 8), "little") == 1


def test_compare_swap_success_and_failure():
    env, _sw, stacks, memories = rdma_pair()
    memories[1].write(0x40, (7).to_bytes(8, "little"))

    def proc():
        # Matching compare: swap happens.
        first = yield from stacks[0].compare_swap(1, 0x40, compare=7, swap=99)
        # Non-matching compare: value unchanged.
        second = yield from stacks[0].compare_swap(1, 0x40, compare=7, swap=123)
        return first, second

    first, second = env.run(env.process(proc()))
    assert first == 7
    assert second == 99
    assert int.from_bytes(memories[1].read(0x40, 8), "little") == 99


def test_concurrent_fetch_adds_are_atomic():
    """Two requesters incrementing one counter must not lose updates."""
    env, _sw, stacks, memories = rdma_group(3)  # node 2 holds the counter
    # Nodes 0 and 1 each connect to node 2.
    for i in (0, 1):
        connect(stacks[i], stacks[2], 1, 10 + i)

    def incrementer(node, times):
        for _ in range(times):
            yield from stacks[node].fetch_add(1, 0x200, 1)

    procs = [env.process(incrementer(0, 20)), env.process(incrementer(1, 20))]
    env.run(AllOf(env, procs))
    assert int.from_bytes(memories[2].read(0x200, 8), "little") == 40


def test_atomic_completion_lands_in_cq():
    env, _sw, stacks, memories = rdma_pair()

    def proc():
        yield from stacks[0].fetch_add(1, 0, 1, wr_id=55)
        completion = yield stacks[0].cq.get()
        return completion

    completion = env.run(env.process(proc()))
    assert completion.wr_id == 55
    assert completion.opcode == "FETCH_ADD"
    assert completion.length == 8
