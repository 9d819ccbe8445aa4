"""cThreads: the user-facing software API (paper §7.3, Code 1).

A :class:`CThread` corresponds to one software thread bound to a vFPGA.
Multiple cThreads can share the same vFPGA pipeline (hardware
multi-threading): each is assigned a distinct parallel stream index, and
the hardware differentiates requests by the AXI TID.

Host-side calls that touch the card (CSR access, invoke) are generators
running in simulated time; pure CPU-side calls (buffer fill) are plain
methods.
"""

from __future__ import annotations

import itertools
from typing import Generator, Iterable, List, Optional

from ..core.interfaces import (
    CompletionEntry,
    LocalSg,
    Oper,
    RdmaSg,
    SgEntry,
    StreamType,
)
from ..driver.driver import Driver, ProcessContext
from ..driver.errors import RingFullError
from ..driver.ringbuf import (
    DEFAULT_RING_SLOTS,
    CompletionBatch,
    MemoryRegion,
    RingOp,
    RingOpcode,
    RingState,
)
from ..health.errors import DecoupledError, QuarantinedError
from ..mem.allocator import Allocation, AllocType
from ..sim.engine import AnyOf, Environment

__all__ = ["CThread"]

#: PCIe MMIO latencies for user-space BAR access (kernel bypassed).
CSR_WRITE_NS = 120.0
CSR_READ_NS = 900.0
#: Completion-polling interval when writeback is disabled.
POLL_INTERVAL_NS = 1_000.0

#: Work-request ids of RDMA verbs (the QP's namespace; local operations
#: draw theirs from the driver's counter).
_rdma_wr_ids = itertools.count(1)
#: The local operations ``invoke`` submits through the driver.
_LOCAL_OPCODES = {
    Oper.LOCAL_READ: RingOpcode.READ,
    Oper.LOCAL_WRITE: RingOpcode.WRITE,
    Oper.LOCAL_TRANSFER: RingOpcode.TRANSFER,
}


class CThread:
    """One software thread executing against one vFPGA."""

    def __init__(
        self,
        driver: Driver,
        vfpga_id: int,
        pid: int,
        stream_dest: int = 0,
    ):
        self.driver = driver
        self.env: Environment = driver.env
        self.vfpga_id = vfpga_id
        self.pid = pid
        #: Which parallel stream this thread's data uses (the TID).
        self.stream_dest = stream_dest
        self.ctx: ProcessContext = driver.open(pid, vfpga_id)
        self._vfpga = driver.shell.vfpgas[vfpga_id]

    @classmethod
    def attach(cls, driver: Driver, pid: int) -> "CThread":
        """Bind a cThread to an *already registered* process context —
        the reattach after a live migration restored the pid on the
        destination driver (a fresh construction would re-``open`` and
        fail with "already registered")."""
        ctx = driver.processes.get(pid)
        if ctx is None:
            raise ValueError(f"pid {pid} not registered with the driver")
        thread = cls.__new__(cls)
        thread.driver = driver
        thread.env = driver.env
        thread.vfpga_id = ctx.vfpga_id
        thread.pid = pid
        thread.stream_dest = 0
        thread.ctx = ctx
        thread._vfpga = driver.shell.vfpgas[ctx.vfpga_id]
        return thread

    # ---------------------------------------------------------------- memory

    def get_mem(self, length: int, alloc_type: AllocType = AllocType.HPF) -> Generator:
        """Allocate a mapped buffer; adds its pages to the TLB (Code 1)."""
        alloc = yield self.env.process(self.driver.get_mem(self.pid, length, alloc_type))
        return alloc

    def free_mem(self, alloc: Allocation) -> None:
        self.driver.free_mem(self.pid, alloc)

    def gpu_alloc(self, length: int) -> Generator:
        """Allocate a GPU-resident SVM buffer: vFPGA accesses go P2P."""
        alloc = yield self.env.process(self.driver.gpu_alloc(self.pid, length))
        return alloc

    def gpu_write_buffer(self, vaddr: int, data: bytes) -> None:
        """cudaMemcpy-style host upload into GPU memory (untimed)."""
        self.driver.gpu_write_buffer(self.pid, vaddr, data)

    def gpu_read_buffer(self, vaddr: int, length: int) -> bytes:
        return self.driver.gpu_read_buffer(self.pid, vaddr, length)

    def write_buffer(self, vaddr: int, data: bytes) -> None:
        """CPU store into a mapped buffer (host-side, untimed)."""
        self.driver.write_buffer(self.pid, vaddr, data)

    def read_buffer(self, vaddr: int, length: int) -> bytes:
        return self.driver.read_buffer(self.pid, vaddr, length)

    # ------------------------------------------------------------------- CSR

    def set_csr(self, value: int, index: int) -> Generator:
        """Write a control register (user-space BAR mapping)."""
        yield self.env.timeout(CSR_WRITE_NS)
        self._vfpga.csr_write(index, value)

    def get_csr(self, index: int) -> Generator:
        yield self.env.timeout(CSR_READ_NS)
        return self._vfpga.csr_read(index)

    # ------------------------------------------------------- rings + MRs

    def setup_rings(self, slots: int = DEFAULT_RING_SLOTS) -> RingState:
        """Arm the batched command/completion rings for this thread."""
        return self.driver.setup_rings(self.pid, slots)

    def register_mr(
        self, vaddr: int, length: int, writable: bool = True
    ) -> Generator:
        """Register (and TLB-pin) a memory region; returns the MR whose
        ``key`` ring operations use instead of raw virtual addresses."""
        mr = yield self.env.process(
            self.driver.register_mr(self.pid, vaddr, length, writable)
        )
        return mr

    def deregister_mr(self, mr: MemoryRegion) -> MemoryRegion:
        return self.driver.deregister_mr(self.pid, mr.key)

    def post_many(self, ops: Iterable[RingOp]) -> Generator:
        """Submit a batch of ring operations with doorbell semantics.

        Slots are filled back-to-back (host-memory stores, untimed);
        each doorbell is **one** CSR write regardless of how many slots
        it drains, and each drained batch completes with **one** event
        carrying all its completion entries — this is where the ring
        path beats ``invoke()``, a batch of one per call with one
        completion event each, on sim events per request.  A full ring
        forces an early doorbell for the slots so far (a
        ``ring.full_stalls`` occurrence), then posting resumes.
        Returns every completion entry in post order.
        """
        batches = []
        for op in ops:
            try:
                self.driver.ring_post(self.pid, op)
            except RingFullError:
                batches.append((yield from self._ring_doorbell()))
                self.driver.ring_post(self.pid, op)
        batches.append((yield from self._ring_doorbell()))
        entries: List[CompletionEntry] = []
        for batch in batches:
            entries.extend((yield batch))
        return entries

    def _ring_doorbell(self) -> Generator:
        """One doorbell MMIO write; re-rings if the write was dropped."""
        while True:
            yield self.env.timeout(CSR_WRITE_NS)
            batch = self.driver.ring_doorbell(self.pid)
            if batch is not None:
                return batch
            # The ring.doorbell_drop fault ate the MMIO write: the slots
            # are still pending, so back off one poll interval and ring
            # again (what the real driver's doorbell timeout does).
            yield self.env.timeout(POLL_INTERVAL_NS)

    # ------------------------------------------------------------ interrupts

    def wait_interrupt(self) -> Generator:
        """Block on the eventfd until the vFPGA raises a user interrupt."""
        event = yield self.ctx.interrupts.get()
        return event  # (timestamp_ns, value)

    # ---------------------------------------------------------------- invoke

    def invoke(
        self,
        oper: Oper,
        sg: SgEntry,
        last: bool = True,
        timeout_ns: Optional[float] = None,
    ) -> Generator:
        """Launch a hardware operation and wait for its completion.

        With ``timeout_ns`` set, a stuck operation returns a
        :class:`CompletionEntry` with ``status == "timeout"`` instead of
        blocking forever; the default (``None``) waits indefinitely.

        Invoking against a region under recovery fails fast with a typed
        error instead of queuing work the reset would wipe anyway.
        """
        region = self.driver.shell.vfpgas[self.vfpga_id]
        if region.quarantined:
            raise QuarantinedError(self.vfpga_id)
        if region.decoupled:
            raise DecoupledError(self.vfpga_id)
        opcode = _LOCAL_OPCODES.get(oper)
        if opcode is not None:
            return (yield from self._local(opcode, sg.local, timeout_ns))
        elif oper is Oper.LOCAL_OFFLOAD:
            yield self.env.process(
                self.driver.offload(self.pid, sg.local.src_addr, sg.local.src_len)
            )
        elif oper is Oper.LOCAL_SYNC:
            yield self.env.process(
                self.driver.sync(self.pid, sg.local.src_addr, sg.local.src_len)
            )
        elif oper is Oper.REMOTE_RDMA_WRITE:
            return (yield from self._rdma(sg.rdma, write=True, timeout_ns=timeout_ns))
        elif oper is Oper.REMOTE_RDMA_READ:
            return (yield from self._rdma(sg.rdma, write=False, timeout_ns=timeout_ns))
        elif oper is Oper.NOOP:
            yield self.env.timeout(0)
        else:
            raise ValueError(f"unsupported operation {oper}")

    def invoke_async(self, oper: Oper, sg: SgEntry):
        """Fire-and-forget variant; returns the spawned process."""
        return self.env.process(self.invoke(oper, sg))

    # -------------------------------------------------------------- internals

    def _writeback_enabled(self) -> bool:
        return self.driver.shell.config.services.mover.writeback

    def _timeout_entry(self, wr_id: int, stream: StreamType) -> CompletionEntry:
        """Give up on a completion and report the error."""
        self.driver.invoke_timeouts += 1
        return CompletionEntry(
            vfpga_id=self.vfpga_id,
            pid=self.pid,
            wr_id=wr_id,
            length=0,
            stream=stream,
            dest=self.stream_dest,
            timestamp_ns=self.env.now,
            status="timeout",
        )

    def _local(
        self, opcode: RingOpcode, sg: LocalSg, timeout_ns: Optional[float] = None
    ) -> Generator:
        """Issue one local operation as a batch of one and wait for it.

        ``READ`` moves src into the kernel, ``WRITE`` collects kernel
        output into dst, ``TRANSFER`` does both.  The submit is untimed:
        no ring slot is filled and no doorbell CSR is written.
        """
        dest = self.stream_dest
        if opcode is RingOpcode.WRITE:
            op = RingOp(
                opcode, mr_key=None, length=sg.dst_len,
                stream=sg.dst_stream, dest=sg.dst_dest or dest,
            )
            slot = (op, sg.dst_addr, None)
        else:
            op = RingOp(
                opcode, mr_key=None, length=sg.src_len,
                stream=sg.src_stream, dest=sg.src_dest or dest,
                dst_length=sg.dst_len, dst_stream=sg.dst_stream,
                dst_dest=sg.dst_dest or dest,
            )
            slot = (op, sg.src_addr, sg.dst_addr)
        batch = self.driver._issue(self.ctx, [slot])
        stream = sg.src_stream if opcode is RingOpcode.READ else sg.dst_stream
        return (yield from self._await_completion(batch, stream, timeout_ns))

    def _await_completion(
        self,
        batch: CompletionBatch,
        stream: StreamType,
        timeout_ns: Optional[float] = None,
    ) -> Generator:
        """Writeback mode: sleep until the driver resolves the batch's
        event.  Polling mode: spin on MMIO until it resolved.  Either way
        a ``timeout_ns`` deadline yields an error completion, not a hang,
        and the table absorbs the completion if it still arrives."""
        event = batch.event
        if self._writeback_enabled():
            if timeout_ns is None:
                return (yield event)[0]
            yield AnyOf(self.env, [event, self.env.timeout(timeout_ns)])
        else:
            deadline = None if timeout_ns is None else self.env.now + timeout_ns
            while not event.triggered and (
                deadline is None or self.env.now < deadline
            ):
                yield self.env.timeout(POLL_INTERVAL_NS + CSR_READ_NS)
        if not event.triggered:
            self.ctx.rings.abandon(batch)
            return self._timeout_entry(batch.keys[0][1], stream)
        if not event.ok:
            raise event.value  # e.g. RecoveredError from a region reset
        return event.value[0]

    def _rdma(self, sg: RdmaSg, write: bool, timeout_ns: Optional[float] = None) -> Generator:
        stack = self.driver.shell.dynamic.rdma
        if stack is None:
            raise ValueError("shell has no RDMA service")
        self.driver.check_qp(self.pid, sg.qpn)
        verb = stack.rdma_write if write else stack.rdma_read
        wr_id = next(_rdma_wr_ids)
        proc = self.env.process(
            verb(sg.qpn, sg.local_addr, sg.remote_addr, sg.len, wr_id=wr_id)
        )
        if timeout_ns is None:
            yield proc
            return None
        yield AnyOf(self.env, [proc, self.env.timeout(timeout_ns)])
        if not proc.triggered:
            # Abort the stuck verb; defuse so the interrupt never
            # propagates out of the simulation as an unhandled failure.
            proc.defuse()
            proc.interrupt("invoke timeout")
            return self._timeout_entry(wr_id, StreamType.NET)
        return None

    # ----------------------------------------------------------------- RDMA

    def create_qp(self, qpn: int, psn: int = 0) -> "object":
        """Create a QP owned by this thread; binds it to this MMU context."""
        stack = self.driver.shell.dynamic.rdma
        if stack is None:
            raise ValueError("shell has no RDMA service")
        qp = stack.create_qp(qpn, psn=psn)
        self.driver.bind_qp(self.pid, qpn)
        return qp

    # ---------------------------------------------------------------- teardown

    def close(self) -> None:
        """Release the driver context.

        Closing mid-batch is safe: the driver fails every in-flight
        batch with a typed
        :class:`~repro.driver.errors.ProcessClosedError` before tearing
        the mappings down, so concurrent invoke/post_many callers see
        an error instead of parking forever.
        """
        self.driver.close(self.pid)
