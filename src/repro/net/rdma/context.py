"""The QP context (blue-rdma's ``QPContext``) and the types the stack's
modules share: errors, configuration, completions and verb records."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Generator, List, Optional, Tuple

from ...sim.engine import Environment, Event
from ...sim.resources import Store
from ..headers import RoceOpcode
from ..packet import RocePacket
from ..qp import PSN_MOD, DcqcnConfig, DcqcnState, QpState, QueuePair


class RdmaError(Exception):
    """Unrecoverable QP error (e.g. verbs on an unconnected QP)."""


class QpStateError(RdmaError):
    """A verb was armed on a QP whose state cannot carry it (ERROR,
    SQ_ERROR, or simply never connected).  Raised at arm time instead of
    silently queueing work that can never complete."""

    def __init__(self, qpn: int, state: QpState, reason: str = ""):
        detail = f" ({reason})" if reason else ""
        super().__init__(f"QP {qpn} in state {state.value!r}{detail}")
        self.qpn = qpn
        self.state = state
        self.reason = reason


class WrFlushError(RdmaError):
    """An outstanding work request was flushed because its QP moved to
    ERROR (IB completion status ``IBV_WC_WR_FLUSH_ERR``).  Carries enough
    context for the caller to know *which* connection died and why."""

    def __init__(self, qpn: int, wr_id: int = 0, opcode: str = "", reason: str = ""):
        detail = f": {reason}" if reason else ""
        super().__init__(f"QP {qpn} flushed {opcode or 'WR'} wr_id={wr_id}{detail}")
        self.qpn = qpn
        self.wr_id = wr_id
        self.opcode = opcode
        self.reason = reason


#: The local-memory hooks a stack or a QP is bound to: generator functions
#: over virtual addresses, ``read_local(vaddr, length)`` and
#: ``write_local(vaddr, data or None, length)``.
ReadLocal = Callable[[int, int], Generator]
WriteLocal = Callable[[int, Optional[bytes], int], Generator]


#: ``a`` precedes ``b`` when ``b`` is less than half the PSN space ahead.
_HALF_PSN_SPACE = PSN_MOD // 2


def psn_leq(a: int, b: int) -> bool:
    """True if PSN ``a`` <= ``b`` under 24-bit wraparound."""
    return (b - a) % PSN_MOD < _HALF_PSN_SPACE


@dataclass(frozen=True)
class RdmaConfig:
    """Stack parameters; MTU 4096 is the RoCE maximum and Coyote's default."""

    mtu: int = 4096
    max_outstanding: int = 64  # requester window, in packets
    retransmit_timeout_ns: float = 100_000.0
    per_packet_processing_ns: float = 30.0  # stack pipeline occupancy
    max_retries: int = 8
    dcqcn: DcqcnConfig = DcqcnConfig()


@dataclass
class Completion:
    """A work completion delivered to the CQ."""

    wr_id: int
    opcode: str
    length: int
    status: str = "success"


@dataclass
class _PendingMessage:
    last_psn: int
    event: Event
    wr_id: int
    opcode: str
    length: int


@dataclass
class _ReadOp:
    """Requester-side progress of one outstanding READ."""

    event: Event
    write_fn: WriteLocal
    local_vaddr: int
    length: int
    psn: int  # of its first response
    wr_id: int
    received: int = 0  # responses taken, each the next PSN of its range


#: Segment opcodes of the three multi-packet families, indexed by
#: ``first + 2 * last``: middle, first, last, only.
_WRITE_OPS = (
    RoceOpcode.RDMA_WRITE_MIDDLE, RoceOpcode.RDMA_WRITE_FIRST,
    RoceOpcode.RDMA_WRITE_LAST, RoceOpcode.RDMA_WRITE_ONLY,
)
_SEND_OPS = (RoceOpcode.SEND_MIDDLE, RoceOpcode.SEND_FIRST, RoceOpcode.SEND_LAST, RoceOpcode.SEND_ONLY)
#: The WRITE segments that carry the RETH: a message's first or only one.
_WRITE_STARTS = (RoceOpcode.RDMA_WRITE_FIRST, RoceOpcode.RDMA_WRITE_ONLY)
#: Opcodes carrying an AtomicETH (``RoceOpcode.has_atomic_eth``, without
#: a call per received frame).
_ATOMIC_OPS = (RoceOpcode.COMPARE_SWAP, RoceOpcode.FETCH_ADD)
_READ_RESPONSE_OPS = (
    RoceOpcode.RDMA_READ_RESPONSE_MIDDLE, RoceOpcode.RDMA_READ_RESPONSE_FIRST,
    RoceOpcode.RDMA_READ_RESPONSE_LAST, RoceOpcode.RDMA_READ_RESPONSE_ONLY,
)


class _QpContext:
    """Everything the stack knows about one queue pair (blue-rdma's
    ``QPContext``).  ``RdmaStack.create_qp`` makes it, :meth:`renew`
    returns every per-connection slot to its just-created value and
    ``destroy_qp`` drops it: no slot is born, reset or dropped anywhere
    else, so the three cannot drift apart."""

    __slots__ = (
        "qp",
        "qpn",
        # UDP source port carrying the flow's ECMP entropy: the RoCE v2
        # convention of a per-QP value in the dynamic range, so a QP's
        # packets always hash onto one fabric path (order-preserving).
        "flow_port",
        # The QP's owner, not its connection: these outlive a reset.
        "ops",  # telemetry: completed verbs ...
        "bytes",  # ... and their payload bytes
        "memory",  # (read_local, write_local) through the owner's MMU
        "rx_offload",  # on-datapath payload transform (SmartNIC-style)
        # Requester.
        "unacked",  # psn -> packet, the go-back-N retransmit buffer
        "pending",  # WRITE/SEND messages awaiting their last ACK
        # Forward-progress clock: ACK arrival for this QP (or a finished
        # go-back-N round).  Per-QP, not stack-global — a dead peer must
        # exhaust its retry budget even while other QPs on the same
        # stack are making steady progress.
        "last_progress",
        # Timer-driven go-back-N rounds without forward progress.
        # Exceeding ``config.max_retries`` moves the QP to ERROR — the
        # requester-side signal that the peer (or the path to it) is dead.
        "retries",
        "reads",  # outstanding READs, oldest first (responses come in PSN order)
        "atomics",  # psn -> (event, wr_id) of the waiting atomic verb
        # Responder.
        "recv_queue",  # reassembled SEND messages
        "send_parts",  # segments of the SEND being reassembled
        "write_cursor",  # next vaddr of the inbound WRITE in progress
        "nak_sent",  # one NAK per sequence gap
        "cnp_last_sent",  # notification-point filter (None: never)
        # Both ends: payloads still landing in local memory, oldest first
        # (``_land``).  A flush swaps in a fresh deque, and a landing that
        # finds its own gone was flushed.
        "landings",
        # The last landing of a flushed connection while it may still be
        # running: the QP's next frame waits for it, so old bytes never
        # land over the new connection's.  Outlives ``renew``.
        "flushed",
        # DCQCN reaction point (None while DCQCN is off).
        "rate",
        # (ecn, transport length) -> the Ethernet, IPv4 and UDP headers
        # every such frame of the connection shares (``RdmaStack._build``).
        "frames",
    )

    def __init__(self, qp: QueuePair, env: Environment, dcqcn: DcqcnConfig):
        self.qp = qp
        self.qpn = qp.local.qpn
        self.flow_port = 0xC000 | (self.qpn & 0x3FFF)
        self.ops = 0
        self.bytes = 0
        self.memory: Optional[Tuple[ReadLocal, WriteLocal]] = None
        self.rx_offload: Optional[Callable[[bytes], bytes]] = None
        self.flushed: Optional[Event] = None
        self.renew(env, dcqcn)

    def renew(self, env: Environment, dcqcn: DcqcnConfig) -> None:
        """A connection's worth of state, as a fresh QP has it.  The
        caller has flushed whatever the old values still owed anyone."""
        self.unacked: Dict[int, RocePacket] = {}
        self.pending: List[_PendingMessage] = []
        self.last_progress = env.now
        self.retries = 0
        self.reads: Deque[_ReadOp] = deque()
        self.atomics: Dict[int, Tuple[Event, int]] = {}
        self.recv_queue = Store(env)
        self.send_parts: List[bytes] = []
        self.write_cursor = 0
        self.nak_sent = False
        self.cnp_last_sent: Optional[float] = None
        self.landings: Deque[Event] = deque()
        # A re-connecting QP starts its congestion history over.
        self.rate: Optional[DcqcnState] = DcqcnState(dcqcn) if dcqcn.enabled else None
        self.frames: Dict[Tuple[int, int], tuple] = {}
