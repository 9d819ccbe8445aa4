"""GPU device memory reachable over PCIe peer-to-peer.

Paper §6.1: "Proof of Coyote v2's flexible and extensible MMU is an
external contribution to the open-source codebase, which extended the MMU
to include GPU memory and supports direct data movement between the FPGA
and a GPU as proposed in [FpgaNIC]."

The model: a GPU with HBM-class device memory sitting on the same PCIe
switch as the FPGA.  P2P TLPs bypass host memory entirely; the achievable
P2P bandwidth is below the host-DMA rate (typical of real root complexes /
switches), which the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from ..sim.engine import Environment
from ..sim.rate import FifoServer
from .allocator import FrameAllocator
from .sparse import SparseMemory
from .tlb import PAGE_2M

__all__ = ["GpuConfig", "GpuDevice"]


@dataclass(frozen=True)
class GpuConfig:
    """Device-memory geometry and P2P link speed."""

    memory_bytes: int = 16 * 1024 * 1024 * 1024  # 16 GB device memory
    page_size: int = PAGE_2M
    #: PCIe peer-to-peer bandwidth, bytes/ns (== GB/s).  Lower than the
    #: 12 GB/s host path: P2P traverses the switch without write combining.
    p2p_bandwidth: float = 9.0
    p2p_latency_ns: float = 600.0


class GpuDevice:
    """A GPU as a P2P DMA target for the shell."""

    def __init__(self, env: Environment, config: GpuConfig = GpuConfig(), name: str = "gpu0"):
        self.env = env
        self.config = config
        self.name = name
        self.mem = SparseMemory(config.memory_bytes, name=f"{name}-mem")
        self.frames = FrameAllocator(config.memory_bytes, config.page_size, f"{name}-frames")
        self._p2p = FifoServer(env)
        self.bytes_read = 0
        self.bytes_written = 0

    def allocate_page(self) -> int:
        """Reserve one device page; returns its device physical address."""
        return self.frames.allocate()

    def free_page(self, paddr: int) -> None:
        self.frames.free(paddr)

    # -- P2P DMA (FPGA-initiated, host never touched) ------------------------

    def book(self, nbytes: int) -> float:
        """Book one P2P transfer on the port now; returns when it
        finishes.  Land it with :meth:`land_read` or :meth:`land_write`."""
        return self._p2p.book(
            self.config.p2p_latency_ns + nbytes / self.config.p2p_bandwidth
        )

    def land_read(self, paddr: int, length: int) -> bytes:
        self.bytes_read += length
        return self.mem.read(paddr, length)

    def land_write(self, paddr: int, data: bytes) -> None:
        self.mem.write(paddr, data)
        self.bytes_written += len(data)

    def read(self, paddr: int, length: int) -> Generator:
        """P2P read from device memory; returns the bytes."""
        yield self.env.timeout_at(self.book(length))
        return self.land_read(paddr, length)

    def write(self, paddr: int, data: bytes) -> Generator:
        """P2P write into device memory."""
        yield self.env.timeout_at(self.book(len(data)))
        self.land_write(paddr, data)

    # -- host-side (CUDA-style) access, untimed ------------------------------

    def upload(self, paddr: int, data: bytes) -> None:
        """cudaMemcpy(HostToDevice) equivalent for test/benchmark setup."""
        self.mem.write(paddr, data)

    def download(self, paddr: int, length: int) -> bytes:
        return self.mem.read(paddr, length)
