"""Live migration of vFPGA tenants between cluster nodes.

State machine per migration (DESIGN.md "Checkpoint & live migration"):

    RUNNING -> PRECOPY -> QUIESCING -> SNAPSHOT -> TRANSFER -> RESTORE -> RESUME
                  |            |                       |           |
                  +------------+----- fallback to source ----------+

The pre-copy pass ships a first memory image and warms the destination
region (PR through the ICAP bitstream cache) while the tenant is still
running, so the stop-and-copy window pays only for the *dirty* pages and
the control state.  A transfer abort or restore failure resumes the
source region — the replay-or-reject policy re-runs the interrupted
request there — so the tenant is never wedged.  On success the queue is
transplanted to the destination scheduler, placement flips atomically in
``cluster.placements``, and the source pid is closed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from ..faults.retry import RetryPolicy
from ..telemetry.metrics import Histogram
from .checkpoint import VfpgaCheckpoint, memory_image, restore_tenant, snapshot_tenant
from .errors import CheckpointError, MigratedError, MigrateError, TransferAbortedError
from .transfer import DEFAULT_CHUNK_BYTES, MIGRATION_QPN_BASE, MigrationChannel

__all__ = ["MigrateConfig", "MigrationRecord", "LiveMigrator"]


@dataclass(frozen=True)
class MigrateConfig:
    """Tuning for checkpoint transfer and the stop-and-copy window."""

    chunk_bytes: int = DEFAULT_CHUNK_BYTES
    #: Quiesce drain window before the snapshot (mirrors region recovery).
    drain_ns: float = 20_000.0
    qpn_base: int = MIGRATION_QPN_BASE
    retry: RetryPolicy = RetryPolicy(
        max_retries=4, base_backoff_ns=50_000.0, backoff_cap_ns=1_000_000.0
    )


@dataclass
class MigrationRecord:
    """Audit trail for one migration attempt."""

    pid: int
    src: int
    dst: int
    started_ns: float
    state: str = "RUNNING"
    #: ``"completed"`` / ``"aborted"`` once finished.
    result: Optional[str] = None
    reason: str = ""
    #: Tenant-observed stop-and-copy pause.
    pause_ns: float = 0.0
    checkpoint_sha256: Optional[str] = None
    dirty_pages: int = 0
    total_pages: int = 0
    finished_ns: Optional[float] = None


class LiveMigrator:
    """Checkpoint/transfer/restore engine attached to an ``FpgaCluster``."""

    def __init__(self, cluster, config: MigrateConfig = MigrateConfig()):
        self.cluster = cluster
        self.env = cluster.env
        self.config = config
        self._channels: Dict = {}
        self.records: List[MigrationRecord] = []
        self.started = 0
        self.completed = 0
        self.aborted = 0
        self.queue_transplants = 0
        self.replays = 0
        self.replay_rejects = 0
        #: Shared with every channel so chunk accounting lands here.
        self.stats: Dict[str, int] = {
            "chunks_sent": 0,
            "chunk_retries": 0,
            "transfer_drops": 0,
            "bytes_sent": 0,
        }
        self.pause_hist = Histogram.exponential("migrate.pause_ns")
        cluster.migrator = self

    # ---------------------------------------------------------- plumbing

    def _channel(self, src: int, dst: int) -> MigrationChannel:
        key = (src, dst)
        if key not in self._channels:
            self._channels[key] = MigrationChannel(
                self.cluster,
                src,
                dst,
                qpn_base=self.config.qpn_base,
                chunk_bytes=self.config.chunk_bytes,
                retry=self.config.retry,
                stats=self.stats,
            )
        return self._channels[key]

    @staticmethod
    def _resume_source(node, vfpga_id: int, scheduler) -> None:
        """Fallback-to-source: restart the region and replay-or-reject."""
        node.driver.restart_region(vfpga_id)
        if scheduler is not None:
            scheduler.resume_after_recovery(quarantined=False)

    def _note(self, kind: str, node: int, reason: str) -> None:
        note = getattr(self.cluster, "note_admin_event", None)
        if note is not None:
            note(kind, node, reason)

    # ----------------------------------------------------------- migrate

    def migrate(
        self, pid: int, src: int, dst: int, app_factory=None
    ) -> Generator:
        """Move one tenant ``src`` -> ``dst``; returns a MigrationRecord.

        ``app_factory`` programs the destination region for raw cThreads
        whose kernel is not registered with a destination scheduler.
        """
        if src == dst:
            raise MigrateError(f"pid {pid}: source and destination are both node {src}")
        src_node = self.cluster.nodes[src]
        dst_node = self.cluster.nodes[dst]
        if not src_node.alive or not dst_node.alive:
            raise MigrateError(
                f"pid {pid}: migration needs both nodes alive "
                f"(src alive={src_node.alive}, dst alive={dst_node.alive})"
            )
        ctx = src_node.driver._ctx(pid)
        vfpga_id = ctx.vfpga_id
        if pid in dst_node.driver.processes:
            raise MigrateError(f"pid {pid} already registered on node {dst}")

        src_sched = src_node.driver.schedulers.get(vfpga_id)
        dst_sched = dst_node.driver.schedulers.get(vfpga_id)
        kernel = src_sched.loaded if src_sched is not None else None
        channel = self._channel(src, dst)
        record = MigrationRecord(pid=pid, src=src, dst=dst, started_ns=self.env.now)
        self.records.append(record)
        self.started += 1

        # PRECOPY: first memory image + destination warm-up, tenant live.
        record.state = "PRECOPY"
        image1 = memory_image(src_node.driver, pid)
        try:
            precopy_raw = yield from channel.transfer(
                f"precopy-{pid}", VfpgaCheckpoint(
                    pid=pid, vfpga_id=vfpga_id, src_node=src, kernel=kernel,
                    memory=image1,
                ).to_bytes()
            )
        except TransferAbortedError as exc:
            self._finish(record, "aborted", str(exc))
            raise
        precopy_memory = VfpgaCheckpoint.from_bytes(precopy_raw).memory
        yield from self._warm_destination(
            dst_node, dst_sched, vfpga_id, kernel, app_factory
        )

        # QUIESCING: stop the source region; in-flight work parks or
        # flushes with typed MigratedError.
        record.state = "QUIESCING"
        pause_start = self.env.now
        quiesce_exc = MigratedError(vfpga_id, f"pid {pid} migrating to node {dst}")
        yield from src_node.driver.quiesce_region(
            vfpga_id, quiesce_exc, self.config.drain_ns
        )

        # SNAPSHOT: capture control state (including still-pending WR
        # keys), then flush those waiters, then diff the dirty pages.
        record.state = "SNAPSHOT"
        image2 = memory_image(src_node.driver, pid)
        ckpt = snapshot_tenant(
            src_node.driver, pid, src_node=src, kernel=kernel, memory=image2
        )
        src_node.driver.fail_pending(vfpga_id, quiesce_exc)
        dirty = {
            vaddr: data
            for vaddr, data in image2.items()
            if image1.get(vaddr) != data
        }
        record.dirty_pages = len(dirty)
        record.total_pages = len(image2)
        record.checkpoint_sha256 = ckpt.sha256()

        # TRANSFER: control state + dirty pages only.
        record.state = "TRANSFER"
        delta = VfpgaCheckpoint.from_payload(ckpt.payload())
        delta.memory = dirty
        try:
            delta_raw = yield from channel.transfer(f"delta-{pid}", delta.to_bytes())
        except TransferAbortedError as exc:
            self._resume_source(src_node, vfpga_id, src_sched)
            self._abort(record, pause_start, str(exc))
            raise

        # RESTORE: merge pre-copy + dirty, verify, rebuild on ``dst``.
        record.state = "RESTORE"
        try:
            restored = VfpgaCheckpoint.from_bytes(delta_raw)
            merged = dict(precopy_memory)
            merged.update(restored.memory)
            restored.memory = merged
            if restored.sha256() != record.checkpoint_sha256:
                raise CheckpointError(
                    f"pid {pid}: merged checkpoint hash mismatch after transfer"
                )
            yield from restore_tenant(dst_node.driver, restored)
        except Exception as exc:
            self._resume_source(src_node, vfpga_id, src_sched)
            self._abort(record, pause_start, str(exc))
            raise

        # RESUME: flip placement, transplant the queue, retire the source.
        record.state = "RESUME"
        self.cluster.placements[pid] = dst
        self.cluster.migrations += 1
        if src_sched is not None and dst_sched is not None:
            moved, replayed, rejected = src_sched.transplant_to(dst_sched)
            self.queue_transplants += moved
            self.replays += replayed
            self.replay_rejects += rejected
        elif src_sched is not None:
            src_sched.resume_after_recovery(quarantined=False)
        src_node.driver.restart_region(vfpga_id)
        src_node.driver.close(pid, reason=f"migrated to node {dst}")
        record.pause_ns = self.env.now - pause_start
        self.pause_hist.observe(record.pause_ns)
        self._finish(record, "completed", f"node {src} -> node {dst}")
        self.completed += 1
        self._note(
            "tenant_migrated", dst, f"pid {pid}: node {src} -> node {dst}"
        )
        return record

    def _warm_destination(
        self, dst_node, dst_sched, vfpga_id: int, kernel, app_factory
    ) -> Generator:
        """Program the destination region while the tenant still runs, so
        partial reconfiguration stays outside the pause window (cached
        bitstreams make repeats near-free)."""
        if (
            kernel is not None
            and dst_sched is not None
            and kernel in dst_sched.kernels
            and dst_sched.loaded != kernel
        ):
            yield from dst_sched.load(kernel, cached=True)
        elif app_factory is not None and dst_node.shell.vfpgas[vfpga_id].app is None:
            dst_node.shell.load_app(vfpga_id, app_factory())

    def _abort(self, record: MigrationRecord, pause_start: float, reason: str) -> None:
        record.pause_ns = self.env.now - pause_start
        self.pause_hist.observe(record.pause_ns)
        self._finish(record, "aborted", reason)
        self._note(
            "migration_aborted",
            record.src,
            f"pid {record.pid}: fell back to node {record.src} ({reason})",
        )

    def _finish(self, record: MigrationRecord, result: str, reason: str) -> None:
        record.result = result
        record.reason = reason
        record.finished_ns = self.env.now
        if result == "aborted":
            self.aborted += 1
        record.state = "DONE" if result == "completed" else "FAILED"

    # ------------------------------------------------------ queue drains

    def migrate_queue(self, src: int, dst: int, vfpga_id: int) -> Generator:
        """Relocate a scheduler's queued work without any pid state.

        Used by node drains for regions whose tenants are scheduler
        requests only: quiesce, drain, transplant the queue under the
        replay-or-reject policy, restart the source region.  Returns the
        number of requests moved.
        """
        src_node = self.cluster.nodes[src]
        dst_node = self.cluster.nodes[dst]
        src_sched = src_node.driver.schedulers.get(vfpga_id)
        dst_sched = dst_node.driver.schedulers.get(vfpga_id)
        if src_sched is None or dst_sched is None:
            raise MigrateError(
                f"queue migration needs schedulers on region {vfpga_id} of "
                f"both node {src} and node {dst}"
            )
        pause_start = self.env.now
        exc = MigratedError(vfpga_id, f"region {vfpga_id} draining to node {dst}")
        yield from src_node.driver.quiesce_region(vfpga_id, exc, self.config.drain_ns)
        src_node.driver.fail_pending(vfpga_id, exc)
        moved, replayed, rejected = src_sched.transplant_to(dst_sched)
        self.queue_transplants += moved
        self.replays += replayed
        self.replay_rejects += rejected
        src_node.driver.restart_region(vfpga_id)
        self.pause_hist.observe(self.env.now - pause_start)
        return moved

    # --------------------------------------------------------- telemetry

    def export_metrics(self, registry) -> None:
        registry.counter("migrate.started").value = self.started
        registry.counter("migrate.completed").value = self.completed
        registry.counter("migrate.aborted").value = self.aborted
        registry.counter("migrate.queue_transplants").value = self.queue_transplants
        registry.counter("migrate.replays").value = self.replays
        registry.counter("migrate.replay_rejects").value = self.replay_rejects
        registry.counter("migrate.chunks_sent").value = self.stats["chunks_sent"]
        registry.counter("migrate.chunk_retries").value = self.stats["chunk_retries"]
        registry.counter("migrate.transfer_drops").value = self.stats["transfer_drops"]
        registry.counter("migrate.bytes_sent").value = self.stats["bytes_sent"]
        registry.histogram("migrate.pause_ns", self.pause_hist.bounds).merge(
            self.pause_hist
        )
