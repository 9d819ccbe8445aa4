"""Byte-accurate packet headers for the RoCE v2 stack.

The BALBOA service (paper §6.2) is "fully RoCE v2-compliant ... compatible
with commodity hardware (e.g., Mellanox, BlueField)".  RoCE v2 carries
InfiniBand transport packets over Ethernet/IPv4/UDP (destination port
4791).  We implement the on-wire layouts exactly so the traffic-sniffer
service can emit PCAPs that standard tooling would parse.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "MacAddress",
    "EthernetHeader",
    "Ipv4Header",
    "UdpHeader",
    "BthHeader",
    "RethHeader",
    "AethHeader",
    "AtomicEthHeader",
    "AtomicAckEthHeader",
    "RoceOpcode",
    "ROCE_UDP_PORT",
    "ETHERTYPE_IPV4",
    "IP_PROTO_UDP",
    "ECN_NOT_ECT",
    "ECN_ECT0",
    "ECN_ECT1",
    "ECN_CE",
    "icrc32",
]

ROCE_UDP_PORT = 4791
ETHERTYPE_IPV4 = 0x0800
IP_PROTO_UDP = 17

# RFC 3168 ECN codepoints (the low two bits of the IPv4 TOS byte).
ECN_NOT_ECT = 0  # not ECN-capable transport
ECN_ECT1 = 1
ECN_ECT0 = 2  # what DCQCN-enabled senders mark their data packets with
ECN_CE = 3  # Congestion Experienced: set by the switch above threshold


class MacAddress:
    """A 48-bit Ethernet address."""

    __slots__ = ("value", "_hash")

    def __init__(self, value: int):
        if not 0 <= value < (1 << 48):
            raise ValueError("MAC address out of range")
        self.value = value
        self._hash = hash(value)

    @classmethod
    def from_string(cls, text: str) -> "MacAddress":
        parts = text.split(":")
        if len(parts) != 6:
            raise ValueError(f"bad MAC {text!r}")
        return cls(int("".join(parts), 16))

    def pack(self) -> bytes:
        return self.value.to_bytes(6, "big")

    @classmethod
    def unpack(cls, data: bytes) -> "MacAddress":
        return cls(int.from_bytes(data[:6], "big"))

    def __eq__(self, other) -> bool:
        return isinstance(other, MacAddress) and self.value == other.value

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        raw = self.value.to_bytes(6, "big")
        return ":".join(f"{b:02x}" for b in raw)


@dataclass
class EthernetHeader:
    """14-byte Ethernet II header."""

    dst: MacAddress
    src: MacAddress
    ethertype: int = ETHERTYPE_IPV4

    SIZE = 14

    def pack(self) -> bytes:
        return self.dst.pack() + self.src.pack() + struct.pack("!H", self.ethertype)

    @classmethod
    def unpack(cls, data: bytes) -> "EthernetHeader":
        if len(data) < cls.SIZE:
            raise ValueError("truncated Ethernet header")
        return cls(
            dst=MacAddress.unpack(data[0:6]),
            src=MacAddress.unpack(data[6:12]),
            ethertype=struct.unpack("!H", data[12:14])[0],
        )


def _ipv4_checksum(header: bytes) -> int:
    total = 0
    for i in range(0, len(header), 2):
        total += (header[i] << 8) | header[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


@dataclass
class Ipv4Header:
    """20-byte IPv4 header (no options) with a real checksum.

    The second byte carries DSCP in its upper six bits and ECN in the
    lower two (RFC 3168): ``0`` not-ECT, ``1``/``2`` ECT(1)/ECT(0), ``3``
    Congestion Experienced.  DCQCN rides on this field — the switch CE-marks
    ECT packets above its queue threshold and the responder answers with
    CNPs — so both bits round-trip through serialisation.
    """

    src: int  # 32-bit addresses as ints
    dst: int
    total_length: int
    protocol: int = IP_PROTO_UDP
    ttl: int = 64
    dscp: int = 0
    ecn: int = ECN_NOT_ECT
    identification: int = 0

    SIZE = 20

    def pack(self) -> bytes:
        head = struct.pack(
            "!BBHHHBBH4s4s",
            (4 << 4) | 5,  # version 4, IHL 5
            ((self.dscp & 0x3F) << 2) | (self.ecn & 0x3),
            self.total_length,
            self.identification,
            0x4000,  # DF
            self.ttl,
            self.protocol,
            0,  # checksum placeholder
            self.src.to_bytes(4, "big"),
            self.dst.to_bytes(4, "big"),
        )
        checksum = _ipv4_checksum(head)
        return head[:10] + struct.pack("!H", checksum) + head[12:]

    @classmethod
    def unpack(cls, data: bytes) -> "Ipv4Header":
        if len(data) < cls.SIZE:
            raise ValueError("truncated IPv4 header")
        (vihl, dscp_ecn, total_length, ident, _flags, ttl, proto, checksum, src, dst) = (
            struct.unpack("!BBHHHBBH4s4s", data[:20])
        )
        if vihl != 0x45:
            raise ValueError(f"unsupported IPv4 version/IHL {vihl:#x}")
        if _ipv4_checksum(data[:20]) != 0:
            raise ValueError("IPv4 checksum mismatch")
        return cls(
            src=int.from_bytes(src, "big"),
            dst=int.from_bytes(dst, "big"),
            total_length=total_length,
            protocol=proto,
            ttl=ttl,
            dscp=dscp_ecn >> 2,
            ecn=dscp_ecn & 0x3,
            identification=ident,
        )


@dataclass
class UdpHeader:
    """8-byte UDP header.  RoCE v2 fixes the destination port to 4791."""

    src_port: int
    dst_port: int
    length: int
    checksum: int = 0  # RoCE v2 permits zero UDP checksum

    SIZE = 8

    def pack(self) -> bytes:
        return struct.pack("!HHHH", self.src_port, self.dst_port, self.length, self.checksum)

    @classmethod
    def unpack(cls, data: bytes) -> "UdpHeader":
        if len(data) < cls.SIZE:
            raise ValueError("truncated UDP header")
        src, dst, length, checksum = struct.unpack("!HHHH", data[:8])
        return cls(src_port=src, dst_port=dst, length=length, checksum=checksum)


class RoceOpcode:
    """InfiniBand RC transport opcodes used by the stack."""

    SEND_FIRST = 0x00
    SEND_MIDDLE = 0x01
    SEND_LAST = 0x02
    SEND_ONLY = 0x04
    RDMA_WRITE_FIRST = 0x06
    RDMA_WRITE_MIDDLE = 0x07
    RDMA_WRITE_LAST = 0x08
    RDMA_WRITE_ONLY = 0x0A
    RDMA_READ_REQUEST = 0x0C
    RDMA_READ_RESPONSE_FIRST = 0x0D
    RDMA_READ_RESPONSE_MIDDLE = 0x0E
    RDMA_READ_RESPONSE_LAST = 0x0F
    RDMA_READ_RESPONSE_ONLY = 0x10
    ACKNOWLEDGE = 0x11
    ATOMIC_ACKNOWLEDGE = 0x12
    COMPARE_SWAP = 0x13
    FETCH_ADD = 0x14
    # RoCE v2 Congestion Notification Packet (Annex A17): BTH-only frame
    # the responder returns to the requester when it receives CE-marked
    # traffic; the requester's DCQCN rate limiter reacts to it.
    CNP = 0x81

    _NAMES = {}

    @classmethod
    def name(cls, opcode: int) -> str:
        if not cls._NAMES:
            cls._NAMES = {
                v: k for k, v in vars(cls).items() if isinstance(v, int)
            }
        return cls._NAMES.get(opcode, f"OPCODE_{opcode:#x}")

    @staticmethod
    def has_reth(opcode: int) -> bool:
        return opcode in (
            RoceOpcode.RDMA_WRITE_FIRST,
            RoceOpcode.RDMA_WRITE_ONLY,
            RoceOpcode.RDMA_READ_REQUEST,
        )

    @staticmethod
    def has_aeth(opcode: int) -> bool:
        return opcode in (
            RoceOpcode.ACKNOWLEDGE,
            RoceOpcode.ATOMIC_ACKNOWLEDGE,
            RoceOpcode.RDMA_READ_RESPONSE_FIRST,
            RoceOpcode.RDMA_READ_RESPONSE_LAST,
            RoceOpcode.RDMA_READ_RESPONSE_ONLY,
        )

    @staticmethod
    def has_atomic_eth(opcode: int) -> bool:
        return opcode in (RoceOpcode.COMPARE_SWAP, RoceOpcode.FETCH_ADD)


@dataclass(slots=True)
class BthHeader:
    """12-byte InfiniBand Base Transport Header."""

    opcode: int
    dest_qp: int
    psn: int
    ack_request: bool = False
    solicited: bool = False
    partition_key: int = 0xFFFF

    SIZE = 12

    def pack(self) -> bytes:
        flags = (0x80 if self.solicited else 0) | 0x40  # migreq set like HW stacks
        return struct.pack(
            "!BBHII",
            self.opcode,
            flags,
            self.partition_key,
            self.dest_qp & 0xFFFFFF,
            ((0x80000000 if self.ack_request else 0) | (self.psn & 0xFFFFFF)),
        )

    @classmethod
    def unpack(cls, data: bytes) -> "BthHeader":
        if len(data) < cls.SIZE:
            raise ValueError("truncated BTH")
        opcode, flags, pkey, destqp, psn_word = struct.unpack("!BBHII", data[:12])
        return cls(
            opcode=opcode,
            dest_qp=destqp & 0xFFFFFF,
            psn=psn_word & 0xFFFFFF,
            ack_request=bool(psn_word & 0x80000000),
            solicited=bool(flags & 0x80),
            partition_key=pkey,
        )


@dataclass(slots=True)
class RethHeader:
    """16-byte RDMA Extended Transport Header: target address + length."""

    vaddr: int
    rkey: int
    dma_length: int

    SIZE = 16

    def pack(self) -> bytes:
        return struct.pack("!QII", self.vaddr, self.rkey, self.dma_length)

    @classmethod
    def unpack(cls, data: bytes) -> "RethHeader":
        if len(data) < cls.SIZE:
            raise ValueError("truncated RETH")
        vaddr, rkey, length = struct.unpack("!QII", data[:16])
        return cls(vaddr=vaddr, rkey=rkey, dma_length=length)


@dataclass(slots=True)
class AethHeader:
    """4-byte ACK Extended Transport Header."""

    syndrome: int  # 0 = ACK, 0x60|code = NAK
    msn: int

    SIZE = 4

    NAK_PSN_SEQUENCE_ERROR = 0x60

    def pack(self) -> bytes:
        return struct.pack("!I", ((self.syndrome & 0xFF) << 24) | (self.msn & 0xFFFFFF))

    @classmethod
    def unpack(cls, data: bytes) -> "AethHeader":
        if len(data) < cls.SIZE:
            raise ValueError("truncated AETH")
        word = struct.unpack("!I", data[:4])[0]
        return cls(syndrome=word >> 24, msn=word & 0xFFFFFF)

    @property
    def is_nak(self) -> bool:
        return self.syndrome != 0


@dataclass
class AtomicEthHeader:
    """28-byte Atomic Extended Transport Header (CmpSwap / FetchAdd)."""

    vaddr: int
    rkey: int
    swap_add: int  # swap value (CmpSwap) or addend (FetchAdd)
    compare: int = 0

    SIZE = 28

    def pack(self) -> bytes:
        return struct.pack("!QIQQ", self.vaddr, self.rkey, self.swap_add, self.compare)

    @classmethod
    def unpack(cls, data: bytes) -> "AtomicEthHeader":
        if len(data) < cls.SIZE:
            raise ValueError("truncated AtomicETH")
        vaddr, rkey, swap_add, compare = struct.unpack("!QIQQ", data[:28])
        return cls(vaddr=vaddr, rkey=rkey, swap_add=swap_add, compare=compare)


@dataclass
class AtomicAckEthHeader:
    """8-byte Atomic ACK ETH: the original value at the target address."""

    original: int

    SIZE = 8

    def pack(self) -> bytes:
        return struct.pack("!Q", self.original)

    @classmethod
    def unpack(cls, data: bytes) -> "AtomicAckEthHeader":
        if len(data) < cls.SIZE:
            raise ValueError("truncated AtomicAckETH")
        return cls(original=struct.unpack("!Q", data[:8])[0])


def icrc32(packet_bytes: bytes) -> int:
    """Invariant CRC over the RoCE packet.

    Real ICRC masks variant fields (TTL, checksum, ...) before CRC32; since
    we compute it over the already-assembled invariant portion this CRC32 is
    a faithful stand-in that still detects corruption in simulation.
    """
    return zlib.crc32(packet_bytes) & 0xFFFFFFFF
