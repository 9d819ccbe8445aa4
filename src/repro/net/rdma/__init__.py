"""BALBOA: the RoCE v2 reliable-connection RDMA stack (paper §6.2).

Implements the requester and responder halves of IB RC verbs over the
simulated 100G CMAC: one-sided RDMA WRITE and READ, atomics and two-sided
SEND, with go-back-N retransmission, NAK generation on PSN sequence errors
and cumulative ACKs.  Local buffer addresses are *virtual*: the stack calls
into the shell-injected translate/read/write callbacks, which route
through Coyote's MMU and the static layer — exactly the paper's layering
("the network stack ... operates on virtual memory addresses that are
translated using Coyote v2's internal MMU and TLB, before writing the data
to host memory through the static layer").

Its modules follow blue-rdma's seams; DESIGN.md "RDMA stack" maps them.
"""

from ..qp import DcqcnConfig
from .context import Completion, QpStateError, RdmaConfig, RdmaError, WrFlushError
from .stack import RdmaStack

__all__ = [
    "RdmaConfig", "DcqcnConfig", "RdmaStack", "Completion", "RdmaError", "QpStateError",
    "WrFlushError",
]
