"""Pass-through kernels: the micro-benchmark workhorses.

``PassThroughApp`` copies every inbound flit straight back out on the same
stream index — the "simple data pass-through application, moving data from
one host buffer to another" of Figure 7(b)'s first config, and (with
``stream=CARD``) the HBM-scaling kernel of Figure 7(a).
"""

from __future__ import annotations

from typing import Generator

from ..core.interfaces import StreamType
from ..core.vfpga import UserApp, VFpga

__all__ = ["PassThroughApp"]


class PassThroughApp(UserApp):
    """Echo flits from ``stream`` input ``i`` to ``stream`` output ``i``."""

    name = "passthrough"

    def __init__(self, num_streams: int = 1, stream: StreamType = StreamType.HOST):
        self.num_streams = num_streams
        self.stream = stream
        self.required_services = (
            frozenset({"host"})
            if stream is StreamType.HOST
            else frozenset({"host", "memory"})
        )
        self.flits_moved = 0
        self.bytes_moved = 0

    def run(self, vfpga: VFpga) -> Generator:
        for dest in range(self.num_streams):
            vfpga.spawn(self._lane(vfpga, dest), name=f"v{vfpga.vfpga_id}-pt{dest}")
        yield vfpga.env.event()  # persist until reconfigured

    def _lane(self, vfpga: VFpga, dest: int) -> Generator:
        # Each flit goes back out as it came: nothing downstream mutates
        # a flit, and the movers make every flit with ``tdest`` 0.
        while True:
            flit = yield from vfpga.recv(self.stream, dest)
            self.flits_moved += 1
            self.bytes_moved += flit.length
            yield from vfpga.send(flit, self.stream, dest)
