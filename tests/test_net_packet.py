"""Tests for full RoCE v2 packet assembly/parsing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    AethHeader,
    BthHeader,
    MacAddress,
    ParseError,
    RethHeader,
    RocePacket,
    RoceOpcode,
)

from repro.net.headers import AtomicAckEthHeader, AtomicEthHeader

MAC_A = MacAddress(0x020000000001)
MAC_B = MacAddress(0x020000000002)
IP_A = 0x0A000001
IP_B = 0x0A000002


def build_write_only(payload=b"hello world!"):
    return RocePacket.build(
        src_mac=MAC_A,
        dst_mac=MAC_B,
        src_ip=IP_A,
        dst_ip=IP_B,
        bth=BthHeader(
            opcode=RoceOpcode.RDMA_WRITE_ONLY, dest_qp=7, psn=100, ack_request=True
        ),
        reth=RethHeader(vaddr=0x1000, rkey=3, dma_length=len(payload)),
        payload=payload,
    )


def test_wire_roundtrip_write_only():
    pkt = build_write_only()
    raw = pkt.to_bytes()
    assert len(raw) == pkt.wire_length
    back = RocePacket.from_bytes(raw)
    assert back.bth.opcode == RoceOpcode.RDMA_WRITE_ONLY
    assert back.bth.psn == 100
    assert back.reth.vaddr == 0x1000
    assert back.payload == b"hello world!"
    assert back.aeth is None


def test_wire_roundtrip_ack():
    pkt = RocePacket.build(
        src_mac=MAC_B,
        dst_mac=MAC_A,
        src_ip=IP_B,
        dst_ip=IP_A,
        bth=BthHeader(opcode=RoceOpcode.ACKNOWLEDGE, dest_qp=9, psn=55),
        aeth=AethHeader(syndrome=0, msn=3),
    )
    back = RocePacket.from_bytes(pkt.to_bytes())
    assert back.aeth.msn == 3
    assert not back.aeth.is_nak
    assert back.payload == b""
    assert back.reth is None


def test_lengths_are_consistent():
    pkt = build_write_only(b"x" * 100)
    # eth 14 + ip 20 + udp 8 + bth 12 + reth 16 + payload 100 + icrc 4
    assert pkt.wire_length == 14 + 20 + 8 + 12 + 16 + 100 + 4
    assert pkt.udp.length == 8 + pkt.transport_length
    assert pkt.ip.total_length == 20 + pkt.udp.length


def test_timing_only_packet_zero_fills():
    pkt = RocePacket.build(
        src_mac=MAC_A,
        dst_mac=MAC_B,
        src_ip=IP_A,
        dst_ip=IP_B,
        bth=BthHeader(opcode=RoceOpcode.RDMA_WRITE_MIDDLE, dest_qp=1, psn=0),
        payload=None,
        payload_length=256,
    )
    back = RocePacket.from_bytes(pkt.to_bytes())
    assert back.payload == bytes(256)


def test_icrc_detects_payload_corruption():
    raw = bytearray(build_write_only().to_bytes())
    raw[-10] ^= 0x01  # flip a payload bit
    with pytest.raises(ParseError, match="ICRC"):
        RocePacket.from_bytes(bytes(raw))


def test_non_roce_udp_port_rejected():
    pkt = build_write_only()
    pkt.udp.dst_port = 53
    with pytest.raises(ParseError, match="not RoCE"):
        RocePacket.from_bytes(pkt.to_bytes())


def test_describe_mentions_opcode_and_qp():
    text = build_write_only().describe()
    assert "RDMA_WRITE_ONLY" in text
    assert "qp=7" in text


@settings(max_examples=50, deadline=None)
@given(payload=st.binary(min_size=0, max_size=4096))
def test_wire_roundtrip_property(payload):
    pkt = build_write_only(payload) if payload else RocePacket.build(
        src_mac=MAC_A,
        dst_mac=MAC_B,
        src_ip=IP_A,
        dst_ip=IP_B,
        bth=BthHeader(opcode=RoceOpcode.SEND_ONLY, dest_qp=2, psn=1),
        payload=payload,
    )
    back = RocePacket.from_bytes(pkt.to_bytes())
    assert back.payload == payload
    assert back.bth.psn == pkt.bth.psn


# ------------------------------------------- lengths fixed at construction

_OPCODES = sorted(v for v in vars(RoceOpcode).values() if isinstance(v, int))
_U24 = st.integers(0, (1 << 24) - 1)
_U32 = st.integers(0, (1 << 32) - 1)
_U64 = st.integers(0, (1 << 64) - 1)


@st.composite
def _packets(draw, real_payload):
    """Any opcode, with exactly the extension headers the parser expects
    for it, and a real or a timing-only payload."""
    opcode = draw(st.sampled_from(_OPCODES))
    payload = draw(st.binary(max_size=1500)) if real_payload else None
    return RocePacket.build(
        src_mac=MAC_A, dst_mac=MAC_B, src_ip=IP_A, dst_ip=IP_B,
        bth=BthHeader(opcode=opcode, dest_qp=draw(_U24), psn=draw(_U24),
                      ack_request=draw(st.booleans())),
        reth=RethHeader(draw(_U64), draw(_U32), draw(_U32))
        if RoceOpcode.has_reth(opcode) else None,
        aeth=AethHeader(syndrome=draw(st.sampled_from([0, 0x60])), msn=draw(_U24))
        if RoceOpcode.has_aeth(opcode) else None,
        atomic_eth=AtomicEthHeader(draw(_U64), draw(_U32), draw(_U64), draw(_U64))
        if RoceOpcode.has_atomic_eth(opcode) else None,
        atomic_ack=AtomicAckEthHeader(draw(_U64))
        if opcode == RoceOpcode.ATOMIC_ACKNOWLEDGE else None,
        payload=payload,
        payload_length=0 if real_payload else draw(st.integers(0, 4096)),
        ecn=draw(st.sampled_from([0, 2])),
    )


def _assert_lengths_match_the_wire(pkt):
    raw = pkt.to_bytes()
    assert pkt.wire_length == len(raw)
    assert pkt.udp.length == 8 + pkt.transport_length
    assert pkt.ip.total_length == 20 + pkt.udp.length
    return raw


def test_lengths_are_plain_attributes_not_properties():
    assert not isinstance(vars(RocePacket).get("wire_length"), property)
    assert not isinstance(vars(RocePacket).get("transport_length"), property)
    pkt = build_write_only()
    assert {"wire_length", "transport_length"} <= set(vars(pkt))
    assert "wire_length" not in repr(pkt)


@settings(max_examples=200, deadline=None)
@given(pkt=_packets(real_payload=True))
def test_real_payload_lengths_match_the_wire_and_roundtrip(pkt):
    raw = _assert_lengths_match_the_wire(pkt)
    back = RocePacket.from_bytes(raw)
    assert back == pkt
    assert (back.wire_length, back.transport_length) == (pkt.wire_length, pkt.transport_length)


@settings(max_examples=100, deadline=None)
@given(pkt=_packets(real_payload=False))
def test_timing_only_lengths_match_the_wire_and_come_back_zero_filled(pkt):
    raw = _assert_lengths_match_the_wire(pkt)
    back = RocePacket.from_bytes(raw)
    assert back.payload == bytes(pkt.payload_length)
    assert (back.wire_length, back.transport_length) == (pkt.wire_length, pkt.transport_length)
    assert back.bth == pkt.bth and back.reth == pkt.reth and back.aeth == pkt.aeth
