"""Collective communication over the RDMA service (paper future work).

The conclusion names "support for services such as collective
communication [ACCL+]" as future work; ACCL+ builds collectives on
exactly this kind of FPGA RDMA stack.  This module implements the two
canonical collectives over a fully-connected QP mesh:

* **broadcast** — binomial tree from the root;
* **allreduce** — ring reduce-scatter followed by ring allgather
  (bandwidth-optimal: each node sends ``2 * (n-1)/n * size`` bytes).

Data is real: reductions operate on little-endian int32 vectors.

Fault tolerance follows the NCCL communicator model:

* every send/recv **leg carries a deadline** (the group default, or a
  per-call ``timeout_ns``);
* a leg that fails (``WrFlushError`` from a flushed QP) or times out
  **aborts the whole group symmetrically** — every rank currently parked
  in (or later entering) a collective raises a typed
  :class:`CollectiveAbortError`; no survivor is left parked;
* an aborted group is **dead** until :meth:`CollectiveGroup.rebuild`
  reforms the QP mesh over the survivors, after which the caller retries
  the collective on the shrunken group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional

from ..sim.engine import AnyOf, Environment, Event, Process
from .rdma import RdmaStack

__all__ = [
    "CollectiveGroup",
    "CollectiveError",
    "CollectiveAbortError",
    "CollectiveTimeoutError",
    "sum_i32",
    "DEFAULT_LEG_TIMEOUT_NS",
]

#: Default per-leg deadline.  Generous against the worst legitimate leg
#: (retry-exhaustion detection at ``8 × 100 µs`` completes first, so a
#: crashed peer surfaces as a flush, not a timeout), yet bounded so even
#: a silent black hole cannot park a rank forever.
DEFAULT_LEG_TIMEOUT_NS = 10_000_000.0


class CollectiveError(Exception):
    """Mesh misconfiguration or mismatched participation."""


class CollectiveAbortError(CollectiveError):
    """The group aborted (NCCL-style): some rank's leg failed or timed
    out, and every rank gets this instead of parking.  The group stays
    dead — further collectives raise immediately — until ``rebuild()``."""

    def __init__(self, op: str, rank: int, peer: Optional[int] = None, cause=None):
        leg = f" (leg to rank {peer})" if peer is not None else ""
        why = f": {cause}" if cause is not None else ""
        super().__init__(f"collective {op!r} aborted at rank {rank}{leg}{why}")
        self.op = op
        self.rank = rank
        self.peer = peer
        self.cause = cause


class CollectiveTimeoutError(CollectiveAbortError):
    """A leg's deadline expired; names the offending (unresponsive) rank."""

    def __init__(self, op: str, rank: int, peer: Optional[int], timeout_ns: float):
        CollectiveError.__init__(
            self,
            f"collective {op!r} timed out at rank {rank} waiting on "
            f"rank {peer} after {timeout_ns:.0f} ns",
        )
        self.op = op
        self.rank = rank
        self.peer = peer
        self.cause = None
        self.timeout_ns = timeout_ns


def sum_i32(a: bytes, b: bytes) -> bytes:
    """Elementwise wrapping int32 sum — the default reduction."""
    import numpy as np  # deferred: ``import repro`` stays numpy-free

    va = np.frombuffer(a, dtype="<u4")
    vb = np.frombuffer(b, dtype="<u4")
    if va.shape != vb.shape:
        raise CollectiveError("reduction operands differ in length")
    return (va + vb).astype("<u4").tobytes()


@dataclass
class _Member:
    rank: int
    stack: RdmaStack
    #: QP this member uses to *send to* each peer rank.
    qp_to: Dict[int, int]


class CollectiveGroup:
    """A communicator over N RDMA stacks with a full QP mesh.

    Construction wires ``n*(n-1)`` queue pairs (one direction each) and
    binds their local memory to simple scratch buffers, so collectives
    are self-contained; integrating with the shell's MMU instead only
    requires passing bound stacks.
    """

    def __init__(
        self,
        env: Environment,
        stacks: List[RdmaStack],
        qpn_base: int = 0x100,
        timeout_ns: Optional[float] = DEFAULT_LEG_TIMEOUT_NS,
        stats: Optional[Dict[str, int]] = None,
    ):
        if len(stacks) < 2:
            raise CollectiveError("a collective group needs at least 2 members")
        self.env = env
        self.size = len(stacks)
        self.qpn_base = qpn_base
        self.timeout_ns = timeout_ns
        #: Shared across rebuilds: the communicator's lifetime counters.
        self.stats: Dict[str, int] = (
            stats
            if stats is not None
            else {"completed": 0, "timeouts": 0, "aborts": 0, "rebuilds": 0}
        )
        #: First abort to land; sticky until ``rebuild()`` (NCCL: an
        #: aborted communicator never comes back — you make a new one).
        self._aborted: Optional[CollectiveAbortError] = None
        self._abort_waiters: List[Event] = []
        self.members: List[_Member] = []
        # Create the mesh: member i's QP towards j is qpn_base + i*n + j.
        for i, stack in enumerate(stacks):
            qp_to = {}
            for j in range(self.size):
                if i == j:
                    continue
                qpn = qpn_base + i * self.size + j
                stack.create_qp(qpn, psn=qpn)
                qp_to[j] = qpn
            self.members.append(_Member(rank=i, stack=stack, qp_to=qp_to))
        for i, member in enumerate(self.members):
            for j, qpn in member.qp_to.items():
                peer = self.members[j]
                peer_qpn = peer.qp_to[i]
                member.stack.qps[qpn].connect(peer.stack.qps[peer_qpn].local)

    def _member(self, rank: int) -> _Member:
        if not 0 <= rank < self.size:
            raise CollectiveError(f"rank {rank} outside group of {self.size}")
        return self.members[rank]

    @property
    def aborted(self) -> bool:
        return self._aborted is not None

    # --------------------------------------------------------- abort machinery

    def _abort(self, exc: CollectiveAbortError) -> None:
        """First failure wins; wake every rank parked in ``_await_leg``.
        Waiters are *succeeded* (not failed) — each rank then raises its
        own per-rank :class:`CollectiveAbortError`."""
        if self._aborted is not None:
            return
        self._aborted = exc
        self.stats["aborts"] += 1
        waiters, self._abort_waiters = self._abort_waiters, []
        for waiter in waiters:
            if not waiter.triggered:
                waiter.succeed()

    def _spawn(self, generator: Generator, label: str) -> Process:
        proc = self.env.process(generator, name=label)
        # A leg may fail after its awaiting AnyOf already settled (abort
        # and failure racing in the same step); pre-defuse so the orphaned
        # failure cannot crash the simulation loop.
        proc.defuse()
        return proc

    @staticmethod
    def _cancel(proc: Process) -> None:
        if proc.is_alive:
            proc.interrupt("collective leg cancelled")

    def _ensure_usable(self, op: str, rank: int) -> None:
        if self._aborted is not None:
            raise CollectiveAbortError(op, rank, cause=self._aborted)

    def _await_leg(
        self,
        proc: Process,
        rank: int,
        peer: int,
        op: str,
        timeout_ns: Optional[float],
    ) -> Generator:
        """Wait for one send/recv leg under the group's failure contract:
        first of {leg done, group abort, deadline} wins."""
        if self._aborted is not None:
            self._cancel(proc)
            raise CollectiveAbortError(op, rank, peer, cause=self._aborted)
        waiter = Event(self.env)
        self._abort_waiters.append(waiter)
        watch: List[Event] = [proc, waiter]
        if timeout_ns is not None:
            watch.append(self.env.timeout(timeout_ns))
        try:
            yield AnyOf(self.env, watch)
        except Exception as exc:
            # The leg itself failed (typically WrFlushError from a QP that
            # saw retry exhaustion, or QpStateError on a halted stack):
            # this rank detected the fault — abort everyone.
            abort = CollectiveAbortError(op, rank, peer, cause=exc)
            self._abort(abort)
            raise abort from exc
        finally:
            try:
                self._abort_waiters.remove(waiter)
            except ValueError:
                pass
        if proc.triggered and proc.ok:
            return proc.value
        if self._aborted is not None:
            # Another rank aborted the group while our leg was in flight.
            self._cancel(proc)
            raise CollectiveAbortError(op, rank, peer, cause=self._aborted)
        # Deadline expired with the leg still pending: the peer is
        # unresponsive but nothing flushed — declare it and abort.
        self.stats["timeouts"] += 1
        self._cancel(proc)
        timeout_exc = CollectiveTimeoutError(op, rank, peer, float(timeout_ns))
        self._abort(timeout_exc)
        raise timeout_exc

    # ------------------------------------------------------------ broadcast

    def broadcast(
        self,
        root: int,
        payload: Optional[bytes],
        rank: int,
        timeout_ns: Optional[float] = None,
    ) -> Generator:
        """Binomial-tree broadcast; every rank calls this, root passes data.

        Returns the payload at every rank.
        """
        member = self._member(rank)
        self._ensure_usable("broadcast", rank)
        deadline = self.timeout_ns if timeout_ns is None else timeout_ns
        relative = (rank - root) % self.size
        # Receive from parent unless we are the root.
        if relative != 0:
            parent_rel = relative - (1 << (relative.bit_length() - 1))
            parent = (parent_rel + root) % self.size
            parent_member = self._member(parent)
            recv_proc = self._spawn(
                _recv_via_send(parent_member, rank, self), f"bcast-recv-{rank}"
            )
            payload = yield from self._await_leg(
                recv_proc, rank, parent, "broadcast", deadline
            )
        if payload is None:
            raise CollectiveError(f"rank {rank}: no payload to forward")
        # Forward to children: relative + 2^k for growing k.
        bit = 1 << relative.bit_length() if relative else 1
        while relative + bit < self.size:
            child = (relative + bit + root) % self.size
            send_proc = self._spawn(
                _send_bytes(member, child, payload, self), f"bcast-send-{rank}-{child}"
            )
            yield from self._await_leg(send_proc, rank, child, "broadcast", deadline)
            bit <<= 1
        self.stats["completed"] += 1
        return payload

    # ------------------------------------------------------------ allreduce

    def allreduce(
        self,
        payload: bytes,
        rank: int,
        reduce_fn: Callable[[bytes, bytes], bytes] = sum_i32,
        timeout_ns: Optional[float] = None,
    ) -> Generator:
        """Ring allreduce; every rank calls this with its contribution."""
        n = self.size
        if len(payload) % (4 * n):
            raise CollectiveError(
                f"payload must divide into {n} int32-aligned chunks"
            )
        member = self._member(rank)
        self._ensure_usable("allreduce", rank)
        deadline = self.timeout_ns if timeout_ns is None else timeout_ns
        chunk = len(payload) // n
        chunks = [bytearray(payload[i * chunk : (i + 1) * chunk]) for i in range(n)]
        right = (rank + 1) % n
        left = (rank - 1) % n
        left_member = self._member(left)
        # Phase 1: reduce-scatter.  Step s: send chunk (rank - s), reduce
        # incoming chunk (rank - s - 1).
        for step in range(n - 1):
            send_idx = (rank - step) % n
            recv_idx = (rank - step - 1) % n
            send_proc = self._spawn(
                _send_bytes(member, right, bytes(chunks[send_idx]), self),
                f"ar-send-{rank}-{step}",
            )
            recv_proc = self._spawn(
                _recv_via_send(left_member, rank, self), f"ar-recv-{rank}-{step}"
            )
            incoming = yield from self._await_leg(
                recv_proc, rank, left, "allreduce", deadline
            )
            chunks[recv_idx] = bytearray(reduce_fn(bytes(chunks[recv_idx]), incoming))
            yield from self._await_leg(send_proc, rank, right, "allreduce", deadline)
        # Phase 2: allgather.  Step s: send chunk (rank + 1 - s), receive
        # chunk (rank - s).
        for step in range(n - 1):
            send_idx = (rank + 1 - step) % n
            recv_idx = (rank - step) % n
            send_proc = self._spawn(
                _send_bytes(member, right, bytes(chunks[send_idx]), self),
                f"ag-send-{rank}-{step}",
            )
            recv_proc = self._spawn(
                _recv_via_send(left_member, rank, self), f"ag-recv-{rank}-{step}"
            )
            incoming = yield from self._await_leg(
                recv_proc, rank, left, "allreduce", deadline
            )
            chunks[recv_idx] = bytearray(incoming)
            yield from self._await_leg(send_proc, rank, right, "allreduce", deadline)
        self.stats["completed"] += 1
        return b"".join(bytes(c) for c in chunks)

    # -------------------------------------------------------------- rebuild

    def rebuild(self, survivors: List[int]) -> "CollectiveGroup":
        """Reform the communicator over the surviving ranks.

        Tears down the survivors' half of the old QP mesh (flushing any
        stragglers) and wires a fresh mesh at a disjoint QPN range.
        Ranks are renumbered ``0..len(survivors)-1`` in the order given;
        the new group shares this one's lifetime ``stats``.  The old
        group object stays dead.
        """
        ranks = list(survivors)
        if len(ranks) < 2:
            raise CollectiveError("rebuild needs at least 2 survivors")
        if len(set(ranks)) != len(ranks):
            raise CollectiveError("rebuild survivors must be unique")
        for rank in ranks:
            member = self._member(rank)
            if member.stack.halted:
                raise CollectiveError(
                    f"rank {rank}: stack is halted; not a survivor"
                )
        for rank in ranks:
            member = self.members[rank]
            for peer in sorted(member.qp_to):
                qpn = member.qp_to[peer]
                if qpn in member.stack.qps:
                    member.stack.destroy_qp(qpn)
        self.stats["rebuilds"] += 1
        if self._aborted is None:
            # A voluntary shrink still kills this group: its mesh is gone.
            self._abort(CollectiveAbortError("rebuild", ranks[0]))
        return CollectiveGroup(
            self.env,
            [self.members[rank].stack for rank in ranks],
            qpn_base=self.qpn_base + self.size * self.size,
            timeout_ns=self.timeout_ns,
            stats=self.stats,
        )

    # ------------------------------------------------------------ telemetry

    def export_metrics(self, registry) -> None:
        """Fold the communicator's lifetime counters into a registry
        (additive, so several groups aggregate per cluster)."""
        registry.counter("collectives.completed").inc(self.stats["completed"])
        registry.counter("collectives.timeouts").inc(self.stats["timeouts"])
        registry.counter("collectives.aborts").inc(self.stats["aborts"])
        registry.counter("collectives.rebuilds").inc(self.stats["rebuilds"])


def _send_bytes(member: _Member, to_rank: int, payload: bytes, group: CollectiveGroup) -> Generator:
    qpn = member.qp_to[to_rank]
    yield from member.stack.send(qpn, payload)


def _recv_via_send(from_member: _Member, my_rank: int, group: CollectiveGroup) -> Generator:
    """Receive the next SEND that ``from_member`` directed at ``my_rank``."""
    me = group._member(my_rank)
    qpn = me.qp_to[from_member.rank]  # our QP facing them receives their sends
    payload = yield from me.stack.recv(qpn)
    return payload
