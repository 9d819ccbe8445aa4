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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from .interfaces import Descriptor

__all__ = ["Packet", "Packetizer"]


@dataclass
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

    def split(self, descriptor: Descriptor) -> Iterator[Packet]:
        if 0 < descriptor.length <= self.packet_bytes:
            # Single-packet fast path: most control-plane transfers fit in
            # one packet, so skip the offset loop entirely.
            yield Packet(
                descriptor=descriptor,
                vaddr=descriptor.vaddr,
                length=descriptor.length,
                last=True,
            )
            return
        offset = 0
        while offset < descriptor.length:
            take = min(self.packet_bytes, descriptor.length - offset)
            offset += take
            yield Packet(
                descriptor=descriptor,
                vaddr=descriptor.vaddr + offset - take,
                length=take,
                last=offset >= descriptor.length,
            )

    def count(self, length: int) -> int:
        """Number of packets a request of ``length`` bytes produces."""
        return -(-length // self.packet_bytes)

    def split_all(self, descriptor: Descriptor) -> List[Packet]:
        return list(self.split(descriptor))
