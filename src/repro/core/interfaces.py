"""The unified vFPGA interface types (paper §7.1, Figure 5).

Descriptors are what flows through the read/write send queues: a request to
move ``length`` bytes at virtual address ``vaddr`` between a memory
(host/card/network) and one of the vFPGA's parallel streams.  They can be
issued from host software (``cThread.invoke``) *or from the hardware
itself* via the send-queue interface — the latter is what enables
pointer-chasing offloads with no CPU involvement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

__all__ = [
    "StreamType",
    "Oper",
    "Descriptor",
    "DescriptorError",
    "CompletionEntry",
    "LocalSg",
    "RdmaSg",
    "SgEntry",
]


class StreamType(Enum):
    """Which peripheral a data stream talks to."""

    HOST = "host"
    CARD = "card"
    NET = "net"

    # Members are singletons compared by identity, so the identity hash
    # is a valid one; Enum's own hashes the name in Python, and every
    # flit a kernel moves looks its stream and crediter up by kind.
    __hash__ = object.__hash__


class Oper(Enum):
    """Operations a cThread can invoke (subset of Coyote's ``CoyoteOper``)."""

    NOOP = "noop"
    LOCAL_READ = "local_read"  # memory -> vFPGA stream
    LOCAL_WRITE = "local_write"  # vFPGA stream -> memory
    LOCAL_TRANSFER = "local_transfer"  # read + write through the kernel
    LOCAL_OFFLOAD = "local_offload"  # host -> card migration
    LOCAL_SYNC = "local_sync"  # card -> host migration
    REMOTE_RDMA_WRITE = "remote_rdma_write"
    REMOTE_RDMA_READ = "remote_rdma_read"
    REMOTE_RDMA_SEND = "remote_rdma_send"


@dataclass
class Descriptor:
    """One entry in a vFPGA's read or write send queue."""

    vfpga_id: int
    pid: int
    vaddr: int
    length: int
    stream: StreamType = StreamType.HOST
    dest: int = 0  # which parallel stream (the AXI TID / TDEST)
    wr_id: int = 0
    last: bool = True  # signal completion when done
    #: Memory-region key the vaddr was resolved from, when the request
    #: came through a ring slot (None for the raw-vaddr ops ``invoke`` issues).
    mr_key: Optional[int] = None

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError("descriptor length must be positive")
        if self.vaddr < 0:
            raise ValueError("descriptor vaddr must be non-negative")


class DescriptorError(ValueError):
    """A send-queue descriptor the shell cannot serve: its stream kind
    has no datapath in this shell build, or ``dest`` is past the
    region's parallel streams.  Raised at ``Shell.post_descriptor``, in
    the submitter's own frame, before anything is queued."""


@dataclass
class CompletionEntry:
    """One entry in a read/write completion queue."""

    vfpga_id: int
    pid: int
    wr_id: int
    length: int
    stream: StreamType
    dest: int
    timestamp_ns: float = 0.0
    #: "success", or an error code such as "timeout" — a stuck operation
    #: surfaces as an error completion instead of hanging its cThread.
    status: str = "success"


@dataclass
class LocalSg:
    """Scatter-gather element for local operations (paper's ``sg.local``)."""

    src_addr: int = 0
    src_len: int = 0
    dst_addr: int = 0
    dst_len: int = 0
    src_stream: StreamType = StreamType.HOST
    dst_stream: StreamType = StreamType.HOST
    src_dest: int = 0
    dst_dest: int = 0


@dataclass
class RdmaSg:
    """Scatter-gather element for RDMA operations (paper's ``sg.rdma``)."""

    local_addr: int = 0
    remote_addr: int = 0
    len: int = 0
    qpn: int = 0


@dataclass
class SgEntry:
    """The union the software API passes to ``invoke`` (paper Code 1)."""

    local: Optional[LocalSg] = None
    rdma: Optional[RdmaSg] = None
