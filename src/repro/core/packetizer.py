"""Packetization of arbitrary-size requests (paper §6.3).

"Packetization divides transfers into manageable 4 KB chunks (default, but
configurable), which enables precise control over outstanding transactions
while ensuring efficient saturation of both local and remote links.  The
shell seamlessly splits requests of arbitrary sizes into packets,
requiring no user application involvement."

A :class:`Packetizer` is told its size by the mover that owns it.  A host
packet is 2 KiB (``MoverConfig.packet_bytes``): the host link's
round-robin interleaving granularity, the size that won the host sweep of
the packet-size ablation.  A card packet is one HBM stripe
(``HbmConfig.stripe_bytes``, 4 KiB, the paper's default): one translation
and one channel booking, derived by ``CardDataMover``, not configured.

A packet is translated once, at its first byte, so it must not cross a
page: a mover passes its region's MMU page size to :meth:`Packetizer.split`
and a packet then also ends at each page boundary.  A buffer that starts
on a packet boundary of a page never needs that cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .interfaces import Descriptor

__all__ = ["Packet", "Packetizer"]


@dataclass(slots=True)
class Packet:
    """A packet-sized slice of a descriptor."""

    descriptor: Descriptor
    vaddr: int
    length: int
    last: bool  # last packet of the parent descriptor

    @property
    def vfpga_id(self) -> int:
        return self.descriptor.vfpga_id

    @property
    def dest(self) -> int:
        return self.descriptor.dest


class Packetizer:
    """Splits descriptors into fixed-size packets."""

    def __init__(self, packet_bytes: int):
        if packet_bytes <= 0:
            raise ValueError("packet size must be positive")
        self.packet_bytes = packet_bytes

    def split(self, descriptor: Descriptor, page_bytes: int = 0) -> Iterator[Packet]:
        """The descriptor's packets, in order; with ``page_bytes``, none
        crosses a page boundary."""
        vaddr, length = descriptor.vaddr, descriptor.length
        if 0 < length <= self.packet_bytes and (
            not page_bytes or vaddr // page_bytes == (vaddr + length - 1) // page_bytes
        ):
            # Single-packet fast path: most control-plane transfers fit in
            # one packet (of one page), so skip the offset loop entirely.
            yield Packet(descriptor, vaddr, length, True)
            return
        offset = 0
        while offset < length:
            take = min(self.packet_bytes, length - offset)
            if page_bytes:
                take = min(take, page_bytes - (vaddr + offset) % page_bytes)
            offset += take
            yield Packet(descriptor, vaddr + offset - take, take, offset >= length)

    def count(self, length: int) -> int:
        """Number of packets a request of ``length`` bytes produces when
        no page boundary cuts one."""
        return -(-length // self.packet_bytes)
