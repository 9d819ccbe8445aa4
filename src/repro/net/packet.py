"""Full RoCE v2 packet assembly and parsing.

A :class:`RocePacket` is the unit moving through the CMAC, the switch and
the sniffer.  ``to_bytes``/``from_bytes`` produce/consume the exact on-wire
layout: Ethernet / IPv4 / UDP / BTH [/ RETH] [/ AETH] / payload / ICRC.

Payloads may be real bytes or ``None`` with an explicit length (timing-only
mode); serialisation of a timing-only packet zero-fills the payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .headers import (
    ETHERTYPE_IPV4,
    IP_PROTO_UDP,
    ROCE_UDP_PORT,
    AethHeader,
    AtomicAckEthHeader,
    AtomicEthHeader,
    BthHeader,
    EthernetHeader,
    Ipv4Header,
    MacAddress,
    RethHeader,
    RoceOpcode,
    UdpHeader,
    icrc32,
)

__all__ = ["RocePacket", "ParseError"]

ICRC_SIZE = 4


class ParseError(ValueError):
    """Raised when a byte buffer is not a valid RoCE v2 packet."""


@dataclass
class RocePacket:
    """A RoCE v2 packet with optional RETH/AETH extension headers."""

    eth: EthernetHeader
    ip: Ipv4Header
    udp: UdpHeader
    bth: BthHeader
    reth: Optional[RethHeader] = None
    aeth: Optional[AethHeader] = None
    atomic_eth: Optional[AtomicEthHeader] = None
    atomic_ack: Optional[AtomicAckEthHeader] = None
    payload: Optional[bytes] = None
    payload_length: int = 0

    #: Bytes from BTH through ICRC (the UDP payload).
    transport_length: int = field(init=False, repr=False, compare=False)
    #: Total frame size on the wire (without preamble/FCS).
    wire_length: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.payload is not None:
            self.payload_length = len(self.payload)
        # A frame is sized once: every hop reads these, nothing mutates
        # the headers they depend on (a ``replace`` copy recomputes).
        size = BthHeader.SIZE
        if self.reth is not None:
            size += RethHeader.SIZE
        if self.aeth is not None:
            size += AethHeader.SIZE
        if self.atomic_eth is not None:
            size += AtomicEthHeader.SIZE
        if self.atomic_ack is not None:
            size += AtomicAckEthHeader.SIZE
        self.transport_length = size + self.payload_length + ICRC_SIZE
        self.wire_length = (
            EthernetHeader.SIZE + Ipv4Header.SIZE + UdpHeader.SIZE + self.transport_length
        )

    # -------------------------------------------------------- constructors

    @classmethod
    def build(
        cls,
        src_mac: MacAddress,
        dst_mac: MacAddress,
        src_ip: int,
        dst_ip: int,
        bth: BthHeader,
        reth: Optional[RethHeader] = None,
        aeth: Optional[AethHeader] = None,
        atomic_eth: Optional[AtomicEthHeader] = None,
        atomic_ack: Optional[AtomicAckEthHeader] = None,
        payload: Optional[bytes] = None,
        payload_length: int = 0,
        src_port: int = 49152,
        ecn: int = 0,
    ) -> "RocePacket":
        pkt = cls(
            eth=EthernetHeader(dst=dst_mac, src=src_mac),
            ip=Ipv4Header(src=src_ip, dst=dst_ip, total_length=0, ecn=ecn),
            udp=UdpHeader(src_port=src_port, dst_port=ROCE_UDP_PORT, length=0),
            bth=bth,
            reth=reth,
            aeth=aeth,
            atomic_eth=atomic_eth,
            atomic_ack=atomic_ack,
            payload=payload,
            payload_length=payload_length if payload is None else len(payload),
        )
        pkt.udp.length = UdpHeader.SIZE + pkt.transport_length
        pkt.ip.total_length = Ipv4Header.SIZE + pkt.udp.length
        return pkt

    # ------------------------------------------------------- serialisation

    def to_bytes(self) -> bytes:
        transport = self.bth.pack()
        if self.reth is not None:
            transport += self.reth.pack()
        if self.aeth is not None:
            transport += self.aeth.pack()
        if self.atomic_eth is not None:
            transport += self.atomic_eth.pack()
        if self.atomic_ack is not None:
            transport += self.atomic_ack.pack()
        transport += self.payload if self.payload is not None else bytes(self.payload_length)
        crc = icrc32(transport)
        return (
            self.eth.pack()
            + self.ip.pack()
            + self.udp.pack()
            + transport
            + crc.to_bytes(4, "big")
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "RocePacket":
        try:
            eth = EthernetHeader.unpack(data)
            if eth.ethertype != ETHERTYPE_IPV4:
                raise ParseError(f"not IPv4: ethertype {eth.ethertype:#x}")
            offset = EthernetHeader.SIZE
            ip = Ipv4Header.unpack(data[offset:])
            if ip.protocol != IP_PROTO_UDP:
                raise ParseError(f"not UDP: protocol {ip.protocol}")
            offset += Ipv4Header.SIZE
            udp = UdpHeader.unpack(data[offset:])
            if udp.dst_port != ROCE_UDP_PORT:
                raise ParseError(f"not RoCE v2: UDP port {udp.dst_port}")
            offset += UdpHeader.SIZE
            bth = BthHeader.unpack(data[offset:])
            offset += BthHeader.SIZE
            reth = aeth = atomic_eth = atomic_ack = None
            if RoceOpcode.has_reth(bth.opcode):
                reth = RethHeader.unpack(data[offset:])
                offset += RethHeader.SIZE
            if RoceOpcode.has_aeth(bth.opcode):
                aeth = AethHeader.unpack(data[offset:])
                offset += AethHeader.SIZE
            if RoceOpcode.has_atomic_eth(bth.opcode):
                atomic_eth = AtomicEthHeader.unpack(data[offset:])
                offset += AtomicEthHeader.SIZE
            if bth.opcode == RoceOpcode.ATOMIC_ACKNOWLEDGE:
                atomic_ack = AtomicAckEthHeader.unpack(data[offset:])
                offset += AtomicAckEthHeader.SIZE
            trailer = EthernetHeader.SIZE + ip.total_length
            payload = data[offset : trailer - ICRC_SIZE]
            crc = int.from_bytes(data[trailer - ICRC_SIZE : trailer], "big")
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        transport_bytes = data[
            EthernetHeader.SIZE + Ipv4Header.SIZE + UdpHeader.SIZE : trailer - ICRC_SIZE
        ]
        if icrc32(transport_bytes) != crc:
            raise ParseError("ICRC mismatch")
        return cls(
            eth=eth, ip=ip, udp=udp, bth=bth, reth=reth, aeth=aeth,
            atomic_eth=atomic_eth, atomic_ack=atomic_ack, payload=bytes(payload),
        )

    def describe(self) -> str:
        """One-line human-readable summary (used by the sniffer example)."""
        extra = ""
        if self.reth is not None:
            extra = f" reth(va={self.reth.vaddr:#x}, len={self.reth.dma_length})"
        if self.aeth is not None:
            kind = "NAK" if self.aeth.is_nak else "ACK"
            extra += f" aeth({kind}, msn={self.aeth.msn})"
        return (
            f"{RoceOpcode.name(self.bth.opcode)} qp={self.bth.dest_qp} "
            f"psn={self.bth.psn} len={self.payload_length}{extra}"
        )
