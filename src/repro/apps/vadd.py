"""Vector addition / product kernels.

These are the paper's running example for why the unified interface needs
*multiple* data streams (§2.2, Figure 2): the kernel consumes two input
vectors on two parallel streams and produces the result on a third — no
software-side packing/unpacking of operands into one stream.

Vectors are little-endian int32; arithmetic wraps modulo 2^32 like the
hardware adders would.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from ..axi.types import Flit
from ..core.interfaces import StreamType
from ..core.vfpga import UserApp, VFpga
from ..sim.clock import FABRIC_CLOCK

if TYPE_CHECKING:
    import numpy as np

__all__ = ["VectorOpApp", "vector_add", "vector_mul"]


def _as_i32(data: bytes) -> np.ndarray:
    import numpy as np  # deferred: ``import repro`` stays numpy-free

    if len(data) % 4:
        raise ValueError("vector byte length must be a multiple of 4")
    return np.frombuffer(data, dtype="<u4")


def vector_add(a: bytes, b: bytes) -> bytes:
    """Reference elementwise int32 addition (wrapping)."""
    return (_as_i32(a) + _as_i32(b)).astype("<u4").tobytes()


def vector_mul(a: bytes, b: bytes) -> bytes:
    """Reference elementwise int32 product (wrapping)."""
    return (_as_i32(a) * _as_i32(b)).astype("<u4").tobytes()


class VectorOpApp(UserApp):
    """Streaming binary vector op: in0 (op) in1 -> out on stream 2.

    Uses three parallel streams of the same kind: operands on 0 and 1,
    result on 2.  The datapath processes one 512-bit word per cycle.
    """

    OPS = {"add": vector_add, "mul": vector_mul}

    def __init__(self, op: str = "add", stream: StreamType = StreamType.CARD):
        if op not in self.OPS:
            raise ValueError(f"unknown vector op {op!r}")
        self.op = op
        self.stream = stream
        self.name = f"v{op}"
        self.required_services = (
            frozenset({"host"})
            if stream is StreamType.HOST
            else frozenset({"host", "memory"})
        )
        self.elements_processed = 0

    def run(self, vfpga: VFpga) -> Generator:
        fn = self.OPS[self.op]
        while True:
            flit_a = yield from vfpga.recv(self.stream, 0)
            flit_b = yield from vfpga.recv(self.stream, 1)
            if flit_a.length != flit_b.length:
                vfpga.interrupt(value=0xBAD)  # malformed operands
                continue
            # One 64-byte word per fabric cycle through the adder array.
            cycles = -(-flit_a.length // 64)
            yield vfpga.env.timeout(FABRIC_CLOCK.cycles_to_ns(cycles))
            data: Optional[bytes] = None
            if flit_a.data is not None and flit_b.data is not None:
                data = fn(flit_a.data, flit_b.data)
                self.elements_processed += len(data) // 4
            out = Flit(
                length=flit_a.length,
                data=data,
                tid=flit_a.tid,
                last=flit_a.last and flit_b.last,
            )
            yield from vfpga.send(out, self.stream, 2)
