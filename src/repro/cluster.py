"""Multi-card deployments: a switch plus N shells with drivers.

Convenience wiring for the multi-node experiments (RDMA, collectives,
service swaps): every node gets a deterministic MAC/IP, its shell is
attached to one shared switch, and a driver is bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from .core.dynamic_layer import ServiceConfig
from .core.shell import Shell, ShellConfig
from .core.vfpga import VFpgaConfig
from .driver.driver import Driver
from .health.errors import NodeDownError
from .net.headers import MacAddress
from .net.switch import Switch
from .sim.engine import Environment

__all__ = ["FpgaNode", "FpgaCluster"]

_MAC_BASE = 0x02_C0_70_7E_00_00  # locally administered
_IP_BASE = 0x0A_00_01_00


@dataclass
class FpgaNode:
    """One card in the cluster."""

    index: int
    mac: MacAddress
    ip: int
    shell: Shell
    driver: Driver
    #: False while crashed (see :meth:`FpgaCluster.crash_node`).
    alive: bool = True
    #: Bumped by :meth:`FpgaCluster.rolling_upgrade` each time the node's
    #: regions are re-programmed during a maintenance pass.
    shell_version: int = 0


class FpgaCluster:
    """N Coyote v2 cards on one switched network."""

    def __init__(
        self,
        env: Environment,
        num_nodes: int,
        services: Optional[ServiceConfig] = None,
        num_vfpgas: int = 1,
        vfpga: VFpgaConfig = VFpgaConfig(),
        device: str = "u55c",
    ):
        if num_nodes < 1:
            raise ValueError("cluster needs at least one node")
        self.env = env
        self.switch = Switch(env)
        if services is None:
            services = ServiceConfig(en_memory=True, en_rdma=True)
        self.services = services
        self.nodes: List[FpgaNode] = []
        for index in range(num_nodes):
            mac = MacAddress(_MAC_BASE + index)
            ip = _IP_BASE + index
            shell = Shell(
                env,
                ShellConfig(
                    device=device,
                    num_vfpgas=num_vfpgas,
                    vfpga=vfpga,
                    services=services,
                ),
                switch=self.switch,
                mac=mac,
                ip=ip,
            )
            driver = Driver(env, shell)
            driver.node_index = index
            self.nodes.append(
                FpgaNode(index=index, mac=mac, ip=ip, shell=shell, driver=driver)
            )
        self._by_mac: Dict[MacAddress, FpgaNode] = {
            node.mac: node for node in self.nodes
        }
        # A seeded ``node.crash`` in the fabric takes the whole node down,
        # not just its port.
        self.switch.on_node_crash = self._on_node_crash
        # PFC storms surface in the maintenance audit trail: operators see
        # the typed error, not a mysteriously slow fabric.
        self.switch.on_pfc_storm = self._on_pfc_storm
        self.pfc_storms = 0
        #: Attached :class:`repro.health.ClusterMonitor`, or ``None``.
        self.monitor = None
        #: Live :class:`repro.net.collectives.CollectiveGroup`\ s built via
        #: :meth:`collective_group` (telemetry roll-up walks these).
        self.collective_groups: List = []
        self.crashes = 0
        self.restores = 0
        #: Attached :class:`repro.migrate.LiveMigrator`, or ``None``
        #: (built on demand by :meth:`drain_node` / :meth:`rolling_upgrade`).
        self.migrator = None
        #: pid -> node index, flipped atomically by the migrator at the
        #: RESUME edge of each migration.
        self.placements: Dict[int, int] = {}
        self.migrations = 0
        self.drains = 0
        self.upgrades = 0
        #: ``(time_ns, kind, node, reason)`` maintenance audit trail;
        #: mirrored into the ClusterMonitor event log when one is attached.
        self.admin_log: List[Tuple[float, str, int, str]] = []

    def __len__(self) -> int:
        return len(self.nodes)

    def __getitem__(self, index: int) -> FpgaNode:
        return self.nodes[index]

    # ------------------------------------------------------- fault tolerance

    def _on_pfc_storm(self, err: Exception) -> None:
        self.pfc_storms += 1
        self.admin_log.append((self.env.now, "pfc_storm", -1, str(err)))
        if self.monitor is not None:
            self.monitor.record_admin_event("pfc_storm", -1, str(err))

    def _on_node_crash(self, mac: MacAddress) -> None:
        node = self._by_mac.get(mac)
        if node is not None:
            self.crash_node(node.index)

    def crash_node(self, index: int, reason: str = "crash") -> None:
        """Take a whole card down, as a power loss would: its switch port
        black-holes, every QP on its RDMA stack is flushed (peers see
        retry exhaustion), pending driver completions fail with
        :class:`NodeDownError`, and its schedulers quiesce so the
        idempotent-replay-or-reject policy can run at restore time.
        Idempotent while down."""
        node = self.nodes[index]
        if not node.alive:
            return
        node.alive = False
        self.crashes += 1
        self.switch.kill_port(node.mac)
        exc = NodeDownError(index, reason)
        rdma = node.shell.dynamic.rdma
        if rdma is not None:
            rdma.halt(reason=f"node {index} {reason}")
        node.driver.node_down = True
        for vfpga in node.shell.vfpgas:
            node.driver.fail_pending(vfpga.vfpga_id, exc)
        for scheduler in node.driver.schedulers.values():
            scheduler.quiesce(exc)
        self.note_admin_event("node_crashed", index, reason)

    def restore_node(self, index: int, reason: str = "restore") -> None:
        """Bring a crashed card back: port revived, its QPs recycled to
        RESET (re-connect is the caller's job — e.g. ``rebuild()`` on a
        collective group), schedulers resumed under the replay-or-reject
        policy.  Idempotent while up."""
        node = self.nodes[index]
        if node.alive:
            return
        node.alive = True
        self.restores += 1
        self.switch.revive_port(node.mac)
        rdma = node.shell.dynamic.rdma
        if rdma is not None:
            rdma.halted = False
            for qpn in sorted(rdma.qps):
                rdma.reset_qp(qpn)
        node.driver.node_down = False
        for scheduler in node.driver.schedulers.values():
            scheduler.resume_after_recovery(quarantined=False)
        if self.monitor is not None:
            self.monitor.on_node_restored(index)
        self.note_admin_event("node_restored", index, reason)

    def note_admin_event(self, kind: str, node: int, reason: str) -> None:
        """Record a maintenance event (crash/restore/drain/upgrade/...)
        with its reason string, both locally and — when a ClusterMonitor
        is attached — in the ``card_report()["health"]["cluster"]`` log."""
        self.admin_log.append((self.env.now, kind, node, reason))
        if self.monitor is not None:
            self.monitor.record_admin_event(kind, node, reason)

    def alive_indices(self) -> List[int]:
        return [node.index for node in self.nodes if node.alive]

    # ---------------------------------------------------- live migration

    def _ensure_migrator(self):
        """Build (once) and return the attached LiveMigrator."""
        if self.migrator is None:
            from .migrate.migrator import LiveMigrator

            LiveMigrator(self)  # attaches itself as ``self.migrator``
        return self.migrator

    def drain_node(self, index: int, reason: str = "drain") -> Generator:
        """Migrate every tenant off a node (a sim process).

        Each registered pid moves to the least-loaded live peer; a
        transfer abort falls back to the source and the pid retries
        toward a different destination (up to three attempts).  Any
        scheduler queue left on the node (requests not tied to a pid)
        is transplanted afterwards under the replay-or-reject policy.
        Returns the list of MigrationRecords.
        """
        from .migrate.errors import TransferAbortedError

        node = self.nodes[index]
        if not node.alive:
            raise ValueError(f"cannot drain node {index}: it is down")
        targets = [i for i in self.alive_indices() if i != index]
        if not targets:
            raise ValueError("drain needs at least one other live node")
        migrator = self._ensure_migrator()
        self.drains += 1
        self.note_admin_event("node_drain", index, reason)
        records = []
        for pid in sorted(node.driver.processes):
            tried: List[int] = []
            while True:
                remaining = [i for i in targets if i not in tried]
                if not remaining:
                    raise TransferAbortedError(
                        index, tried[-1], f"drain-{pid}",
                        f"pid {pid}: every destination aborted the transfer",
                    )
                dst = min(
                    remaining,
                    key=lambda i: (len(self.nodes[i].driver.processes), i),
                )
                try:
                    record = yield from migrator.migrate(pid, index, dst)
                    records.append(record)
                    break
                except TransferAbortedError:
                    # The tenant fell back to the source; try another peer.
                    tried.append(dst)
        for vfpga_id, scheduler in sorted(node.driver.schedulers.items()):
            if not scheduler.has_work:
                continue
            for dst in sorted(
                targets, key=lambda i: (len(self.nodes[i].driver.processes), i)
            ):
                if vfpga_id in self.nodes[dst].driver.schedulers:
                    yield from migrator.migrate_queue(index, dst, vfpga_id)
                    break
        return records

    def rolling_upgrade(self, reason: str = "upgrade") -> Generator:
        """Upgrade every live node in sequence, under live traffic.

        Per node: drain its tenants to peers, fence it like a crash
        (ports black-holed, heartbeats see it down), re-program each
        scheduler's resident kernel through the ICAP bitstream cache,
        bump ``shell_version``, rejoin the fabric (heartbeat pairs
        re-arm), and rebalance tenants back.  Returns a per-node summary
        list.
        """
        if len(self.alive_indices()) < 2:
            raise ValueError("rolling upgrade needs at least two live nodes")
        summary = []
        for index in [node.index for node in self.nodes]:
            node = self.nodes[index]
            if not node.alive:
                continue
            records = yield from self.drain_node(index, reason=reason)
            self.crash_node(index, reason=reason)
            regions = 0
            for _vfpga_id, scheduler in sorted(node.driver.schedulers.items()):
                if scheduler.loaded is not None:
                    yield from scheduler.load(scheduler.loaded, cached=True)
                    regions += 1
            node.shell_version += 1
            self.restore_node(index, reason=reason)
            self.upgrades += 1
            self.note_admin_event(
                "node_upgraded", index, f"{reason}: {regions} region(s) re-programmed"
            )
            yield from self._rebalance()
            summary.append(
                {"node": index, "migrated": len(records), "regions": regions}
            )
        return summary

    def _rebalance(self) -> Generator:
        """Move pids from the most- to the least-loaded live node until
        the spread is at most one tenant; stops early if a transfer
        aborts (the tenant stays safe on its source)."""
        from .migrate.errors import TransferAbortedError

        migrator = self._ensure_migrator()
        moved = []
        while True:
            alive = self.alive_indices()
            if len(alive) < 2:
                return moved
            by_load = sorted(
                alive, key=lambda i: (len(self.nodes[i].driver.processes), i)
            )
            lightest, heaviest = by_load[0], by_load[-1]
            spread = len(self.nodes[heaviest].driver.processes) - len(
                self.nodes[lightest].driver.processes
            )
            if spread <= 1:
                return moved
            pid = sorted(self.nodes[heaviest].driver.processes)[0]
            try:
                record = yield from migrator.migrate(pid, heaviest, lightest)
            except TransferAbortedError:
                return moved
            moved.append(record)

    def collective_group(self, qpn_base: int = 0x100, **kwargs):
        """Build a :class:`repro.net.collectives.CollectiveGroup` over all
        nodes' RDMA stacks and register it for telemetry roll-up."""
        from .net.collectives import CollectiveGroup

        stacks = []
        for node in self.nodes:
            rdma = node.shell.dynamic.rdma
            if rdma is None:
                raise ValueError(f"node {node.index} has no RDMA service")
            stacks.append(rdma)
        group = CollectiveGroup(self.env, stacks, qpn_base=qpn_base, **kwargs)
        self.collective_groups.append(group)
        return group

    def connect_qps(self, a: int, b: int, pid_a: int, pid_b: int,
                    qpn_a: int, qpn_b: int, vfpga: int = 0):
        """Create and cross-connect a QP pair between two nodes' cThreads."""
        from .api.cthread import CThread

        thread_a = CThread(self.nodes[a].driver, vfpga, pid=pid_a)
        thread_b = CThread(self.nodes[b].driver, vfpga, pid=pid_b)
        qp_a = thread_a.create_qp(qpn_a, psn=qpn_a)
        qp_b = thread_b.create_qp(qpn_b, psn=qpn_b)
        qp_a.connect(qp_b.local)
        qp_b.connect(qp_a.local)
        return thread_a, thread_b
