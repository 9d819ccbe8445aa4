"""Unit and property tests for RoCE v2 header serialisation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    AethHeader,
    BthHeader,
    EthernetHeader,
    Ipv4Header,
    MacAddress,
    RethHeader,
    RoceOpcode,
    UdpHeader,
)


def test_mac_from_string_and_repr():
    mac = MacAddress.from_string("aa:bb:cc:dd:ee:ff")
    assert mac.value == 0xAABBCCDDEEFF
    assert repr(mac) == "aa:bb:cc:dd:ee:ff"


def test_mac_validation():
    with pytest.raises(ValueError):
        MacAddress(1 << 48)
    with pytest.raises(ValueError):
        MacAddress.from_string("aa:bb")


def test_ethernet_roundtrip():
    hdr = EthernetHeader(
        dst=MacAddress(0x112233445566), src=MacAddress(0xAABBCCDDEEFF)
    )
    packed = hdr.pack()
    assert len(packed) == 14
    back = EthernetHeader.unpack(packed)
    assert back.dst == hdr.dst
    assert back.src == hdr.src
    assert back.ethertype == 0x0800


def test_ipv4_roundtrip_and_checksum():
    hdr = Ipv4Header(src=0x0A000001, dst=0x0A000002, total_length=100)
    packed = hdr.pack()
    assert len(packed) == 20
    back = Ipv4Header.unpack(packed)
    assert back.src == hdr.src
    assert back.dst == hdr.dst
    assert back.total_length == 100


@settings(max_examples=50)
@given(
    dscp=st.integers(min_value=0, max_value=0x3F),
    ecn=st.integers(min_value=0, max_value=3),
)
def test_ipv4_dscp_ecn_roundtrip(dscp, ecn):
    """Regression: parsing used to keep only DSCP from the TOS byte,
    silently zeroing ECN — which DCQCN's CE marks ride on."""
    hdr = Ipv4Header(
        src=0x0A000001, dst=0x0A000002, total_length=64, dscp=dscp, ecn=ecn
    )
    back = Ipv4Header.unpack(hdr.pack())
    assert back.ecn == ecn
    assert back.dscp == dscp


def test_ipv4_checksum_detects_corruption():
    packed = bytearray(Ipv4Header(src=1, dst=2, total_length=64).pack())
    packed[8] ^= 0xFF  # corrupt TTL
    with pytest.raises(ValueError, match="checksum"):
        Ipv4Header.unpack(bytes(packed))


def test_udp_roundtrip():
    hdr = UdpHeader(src_port=1000, dst_port=4791, length=52)
    back = UdpHeader.unpack(hdr.pack())
    assert (back.src_port, back.dst_port, back.length) == (1000, 4791, 52)


def test_bth_roundtrip_all_fields():
    hdr = BthHeader(
        opcode=RoceOpcode.RDMA_WRITE_ONLY,
        dest_qp=0x123456,
        psn=0xABCDEF,
        ack_request=True,
        solicited=True,
    )
    packed = hdr.pack()
    assert len(packed) == 12
    back = BthHeader.unpack(packed)
    assert back.opcode == RoceOpcode.RDMA_WRITE_ONLY
    assert back.dest_qp == 0x123456
    assert back.psn == 0xABCDEF
    assert back.ack_request
    assert back.solicited


def test_reth_roundtrip():
    hdr = RethHeader(vaddr=0xDEADBEEF0000, rkey=0x42, dma_length=1 << 20)
    packed = hdr.pack()
    assert len(packed) == 16
    back = RethHeader.unpack(packed)
    assert (back.vaddr, back.rkey, back.dma_length) == (0xDEADBEEF0000, 0x42, 1 << 20)


def test_aeth_ack_vs_nak():
    ack = AethHeader(syndrome=0, msn=7)
    nak = AethHeader(syndrome=AethHeader.NAK_PSN_SEQUENCE_ERROR, msn=7)
    assert not ack.is_nak
    assert nak.is_nak
    assert AethHeader.unpack(nak.pack()).syndrome == 0x60


def test_opcode_extension_header_predicates():
    assert RoceOpcode.has_reth(RoceOpcode.RDMA_WRITE_FIRST)
    assert RoceOpcode.has_reth(RoceOpcode.RDMA_READ_REQUEST)
    assert not RoceOpcode.has_reth(RoceOpcode.RDMA_WRITE_MIDDLE)
    assert RoceOpcode.has_aeth(RoceOpcode.ACKNOWLEDGE)
    assert RoceOpcode.has_aeth(RoceOpcode.RDMA_READ_RESPONSE_ONLY)
    assert not RoceOpcode.has_aeth(RoceOpcode.SEND_ONLY)


def test_opcode_names():
    assert RoceOpcode.name(RoceOpcode.ACKNOWLEDGE) == "ACKNOWLEDGE"
    assert "OPCODE" in RoceOpcode.name(0xFE)


@settings(max_examples=100, deadline=None)
@given(
    opcode=st.sampled_from(
        [RoceOpcode.SEND_ONLY, RoceOpcode.RDMA_WRITE_ONLY, RoceOpcode.ACKNOWLEDGE]
    ),
    dest_qp=st.integers(min_value=0, max_value=(1 << 24) - 1),
    psn=st.integers(min_value=0, max_value=(1 << 24) - 1),
    ack=st.booleans(),
)
def test_bth_roundtrip_property(opcode, dest_qp, psn, ack):
    hdr = BthHeader(opcode=opcode, dest_qp=dest_qp, psn=psn, ack_request=ack)
    back = BthHeader.unpack(hdr.pack())
    assert (back.opcode, back.dest_qp, back.psn, back.ack_request) == (
        opcode,
        dest_qp,
        psn,
        ack,
    )


@settings(max_examples=100, deadline=None)
@given(
    vaddr=st.integers(min_value=0, max_value=(1 << 64) - 1),
    rkey=st.integers(min_value=0, max_value=(1 << 32) - 1),
    length=st.integers(min_value=0, max_value=(1 << 32) - 1),
)
def test_reth_roundtrip_property(vaddr, rkey, length):
    back = RethHeader.unpack(RethHeader(vaddr, rkey, length).pack())
    assert (back.vaddr, back.rkey, back.dma_length) == (vaddr, rkey, length)


@settings(max_examples=100, deadline=None)
@given(value=st.integers(0, (1 << 48) - 1), other=st.integers(0, (1 << 48) - 1))
def test_mac_parsed_off_the_wire_finds_its_switch_port(value, other):
    """The hash is computed once per address object; an equal address
    rebuilt from bytes must land in the same dict slot."""
    from repro.net import Cmac, Switch
    from repro.sim import Environment

    mac = MacAddress(value)
    env = Environment()
    switch = Switch(env)
    cmac = Cmac(env)
    switch.attach(mac, cmac)
    twin = MacAddress.unpack(mac.pack())
    assert twin is not mac and twin == mac and hash(twin) == hash(mac) == hash(value)
    assert switch._ports[twin] is cmac
    assert (MacAddress(other) in switch._ports) == (other == value)


def test_mac_has_no_instance_dict():
    mac = MacAddress(0x02_00_00_00_00_01)
    assert not hasattr(mac, "__dict__")
    with pytest.raises(AttributeError):
        mac.label = "x"
