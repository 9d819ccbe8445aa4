"""Common AXI data types.

To keep the simulation fast we do not model individual 512-bit beats as
events.  Instead streams carry :class:`Flit` objects — contiguous chunks of
up to one packet (2 KiB host, 4 KiB card; see :mod:`repro.core.packetizer`) — and
the channel models charge ``ceil(length / width)`` bus cycles per flit.
This is cycle-approximate: total cycles match a beat-level model exactly
for back-to-back transfers, which is the regime every benchmark runs in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["Flit", "STREAM_WIDTH_BYTES"]

#: Data bus width of the shell's AXI4 streams (512 bits, paper §9.5).
STREAM_WIDTH_BYTES = 64


@dataclass(slots=True)
class Flit:
    """A chunk of data moving through an AXI4-Stream channel.

    ``data`` carries the functional payload when the producing component is
    functional (e.g. AES input text); timing-only producers leave it ``None``
    and just set ``length``.
    """

    length: int
    data: Optional[bytes] = None
    tid: int = 0
    tdest: int = 0
    last: bool = True

    def __post_init__(self) -> None:
        if self.data is not None and len(self.data) != self.length:
            raise ValueError(
                f"flit length {self.length} != payload length {len(self.data)}"
            )
        if self.length <= 0:
            raise ValueError("flit length must be positive")

    def beats(self, width_bytes: int = STREAM_WIDTH_BYTES) -> int:
        """Number of bus beats this flit occupies."""
        return -(-self.length // width_bytes)
