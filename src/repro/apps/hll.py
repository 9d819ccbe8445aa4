"""HyperLogLog cardinality estimation (paper §9.6).

A complete HLL sketch (Flajolet et al. with the standard bias corrections,
as in the FPGA implementation of Kulkarni et al. [35]) plus the HLS-style
streaming kernel the benchmark deploys: 32-bit items stream in from host
memory, the estimate streams back / is exposed via CSR.

The hash is a 64-bit Murmur3 finaliser — cheap in LUTs, well-distributed,
and exactly what hardware sketches typically use.
"""

from __future__ import annotations

import math
import struct
from typing import Generator, Iterable, Optional

from ..axi.types import Flit
from ..core.interfaces import StreamType
from ..core.vfpga import UserApp, VFpga
from ..sim.clock import FABRIC_CLOCK

__all__ = ["HyperLogLog", "HllApp", "murmur64"]


def murmur64(value: int) -> int:
    """64-bit Murmur3 finaliser (a.k.a. fmix64)."""
    h = value & 0xFFFFFFFFFFFFFFFF
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & 0xFFFFFFFFFFFFFFFF
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & 0xFFFFFFFFFFFFFFFF
    h ^= h >> 33
    return h


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


class HyperLogLog:
    """The sketch: 2^p registers of max leading-zero ranks."""

    def __init__(self, precision: int = 14):
        import numpy as np  # deferred: ``import repro`` stays numpy-free

        if not 4 <= precision <= 18:
            raise ValueError("precision must be in [4, 18]")
        self.precision = precision
        self.m = 1 << precision
        self.registers = np.zeros(self.m, dtype=np.uint8)

    def add(self, value: int) -> None:
        h = murmur64(value)
        index = h >> (64 - self.precision)
        rest = h & ((1 << (64 - self.precision)) - 1)
        # Rank: position of the leftmost 1-bit in the remaining bits.
        rank = (64 - self.precision) - rest.bit_length() + 1
        if rank > self.registers[index]:
            self.registers[index] = rank

    def add_batch(self, values: Iterable[int]) -> None:
        for value in values:
            self.add(value)

    def merge(self, other: "HyperLogLog") -> None:
        import numpy as np

        if other.precision != self.precision:
            raise ValueError("cannot merge sketches of different precision")
        np.maximum(self.registers, other.registers, out=self.registers)

    def estimate(self) -> float:
        import numpy as np

        m = self.m
        inv_sum = float(np.sum(np.exp2(-self.registers.astype(np.float64))))
        raw = _alpha(m) * m * m / inv_sum
        if raw <= 2.5 * m:
            zeros = int(np.count_nonzero(self.registers == 0))
            if zeros:
                return m * math.log(m / zeros)  # linear counting
        if raw > (1 << 32) / 30.0:
            return -(1 << 32) * math.log(1.0 - raw / (1 << 32))
        return raw

    @property
    def standard_error(self) -> float:
        return 1.04 / math.sqrt(self.m)


#: CSR layout of the HLL kernel.
CSR_CTRL = 0  # write 1: reset sketch
CSR_COUNT_LO = 4  # RO: estimate as integer
CSR_ITEMS = 5  # RO: items consumed


class HllApp(UserApp):
    """Streaming HLL kernel: consumes 32-bit items from a host stream.

    Throughput model: the HLS kernel from [35] sustains one 512-bit word
    (16 items) per fabric cycle — 16 GB/s nominal, so end-to-end the
    benchmark is bound by the ~12 GB/s host link, matching the paper's
    observation that Coyote v2 performs on par with Coyote v1 here.
    """

    name = "hll"
    required_services = frozenset({"host"})

    def __init__(self, precision: int = 14, num_streams: int = 1):
        self.sketch = HyperLogLog(precision)
        self.num_streams = num_streams
        self.items = 0

    def on_csr_write(self, index: int, value: int) -> None:
        if index == CSR_CTRL and value == 1:
            self.sketch = HyperLogLog(self.sketch.precision)
            self.items = 0

    def run(self, vfpga: VFpga) -> Generator:
        vfpga.ctrl.on_read(CSR_COUNT_LO, lambda: int(self.sketch.estimate()))
        vfpga.ctrl.on_read(CSR_ITEMS, lambda: self.items)
        for dest in range(self.num_streams):
            vfpga.spawn(self._lane(vfpga, dest), name=f"v{vfpga.vfpga_id}-hll{dest}")
        yield vfpga.env.event()

    def _lane(self, vfpga: VFpga, dest: int) -> Generator:
        while True:
            flit = yield from vfpga.recv(StreamType.HOST, dest)
            cycles = -(-flit.length // 64)  # 16 items per cycle
            yield vfpga.env.timeout(FABRIC_CLOCK.cycles_to_ns(cycles))
            if flit.data is not None:
                count = len(flit.data) // 4
                values = struct.unpack(f"<{count}I", flit.data[: 4 * count])
                self.sketch.add_batch(values)
                self.items += count
            else:
                self.items += flit.length // 4
            if flit.last:
                # Estimate ready: notify the host (paper: user interrupts).
                vfpga.interrupt(value=int(self.sketch.estimate()))
