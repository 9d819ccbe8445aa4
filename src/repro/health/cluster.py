"""Cluster-level failure detection: RDMA heartbeats + a miss-count detector.

Node-local health (``HealthMonitor``) sees hangs *inside* one card; this
module sees whole cards disappearing from the fabric.  Every node pair
gets a dedicated heartbeat queue pair (far above the application QPN
ranges), each node SENDs an 8-byte sequence number to every peer at a
fixed interval, and a phi-style miss-count detector turns silence into
edge-triggered ``node_down`` / ``node_up`` events:

* **Soft evidence** — an observer has not heard a peer's heartbeat for
  ``miss_threshold`` intervals (``phi() >= 1``).
* **Hard evidence** — the observer's heartbeat SEND toward the peer hit
  retry exhaustion and was flushed (``WrFlushError``), i.e. the RC layer
  itself gave up.  This saturates suspicion immediately.

A peer is declared down only when *every* live observer suspects it, so
a two-node ``net.partition`` does not take down a node the rest of the
fabric can still hear.  Events land in ``card_report()["health"]`` (via
``driver.cluster_health``) and in the ``cluster.*`` namespace of
:func:`repro.telemetry.collect_cluster_metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..net.qp import QpState
from ..net.rdma import RdmaError
from ..sim.engine import Event

__all__ = ["ClusterHealthConfig", "ClusterMonitor"]

#: Heartbeat QPNs live far above application / collective ranges.
HEARTBEAT_QPN_BASE = 0xE000


@dataclass(frozen=True)
class ClusterHealthConfig:
    """Tuning for the cluster failure detector."""

    #: Heartbeat period per directed pair.
    interval_ns: float = 100_000.0
    #: Consecutive missed intervals before an observer suspects a peer.
    miss_threshold: int = 3
    #: Base QPN for the dedicated heartbeat mesh.
    qpn_base: int = HEARTBEAT_QPN_BASE
    #: Keep at most this many (time, kind, node, reason) events in the log.
    max_events: int = 256


class ClusterMonitor:
    """Heartbeat mesh + failure detector over an :class:`FpgaCluster`.

    Construction wires the monitor into the cluster (``cluster.monitor``)
    and every driver (``driver.cluster_health``), builds the heartbeat QP
    mesh, and starts the sender/receiver/checker processes.  Call
    :meth:`stop` before draining the simulation — the periodic loops
    otherwise keep the event queue alive forever.
    """

    def __init__(self, cluster, config: ClusterHealthConfig = ClusterHealthConfig()):
        self.cluster = cluster
        self.env = cluster.env
        self.config = config

        self._stacks = []
        for node in cluster.nodes:
            rdma = node.shell.dynamic.rdma
            if rdma is None:
                raise ValueError(f"node {node.index} has no RDMA service")
            self._stacks.append(rdma)
        self.size = len(self._stacks)

        # (observer, peer) -> sim time the observer last heard the peer.
        self._last_seen: Dict[Tuple[int, int], float] = {}
        # (observer, peer) -> the observer's SEND toward peer was flushed.
        self._flushed: Dict[Tuple[int, int], bool] = {}
        # peer -> currently declared down by the detector.
        self._down: Dict[int, bool] = {}
        # Unordered pair key -> events of loops parked on a broken pair.
        self._parked: Dict[Tuple[int, int], List[Event]] = {}
        # Unordered pair key -> rearm generation.  A loop records the
        # epoch before each blocking verb; a failure delivered under a
        # newer epoch is stale (the flush came from the rearm itself, or
        # from the pre-rearm era) and must neither count as evidence nor
        # park the loop — the waiter list it would join was already
        # drained by the rearm that invalidated it.
        self._epochs: Dict[Tuple[int, int], int] = {}
        # Unordered pair key -> (qpn on low node, qpn on high node).
        self._pair_qpns: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._stopped = False

        #: Edge-triggered detector events plus administrative ones
        #: (crash/restore/drain/upgrade/migration), each a
        #: ``(time_ns, kind, node_index, reason)`` tuple.
        self.events: List[Tuple[float, str, int, str]] = []
        self.heartbeats_sent = 0
        self.heartbeats_received = 0
        self.polls = 0
        self.down_events = 0
        self.up_events = 0
        self.rearms = 0
        self.admin_events = 0

        self._build_mesh()
        cluster.monitor = self
        for node in cluster.nodes:
            node.driver.cluster_health = self

        now = self.env.now
        for i in range(self.size):
            for j in range(self.size):
                if i != j:
                    self._last_seen[(i, j)] = now
        for i in range(self.size):
            for j in range(self.size):
                if i == j:
                    continue
                qpn = self._qpn_for(i, j)
                self.env.process(
                    self._sender(i, j, qpn), name=f"hb-send-{i}-{j}"
                )
                self.env.process(
                    self._receiver(i, j, qpn), name=f"hb-recv-{i}-{j}"
                )
        self.env.process(self._checker(), name="hb-checker")

    # ------------------------------------------------------------- mesh

    @staticmethod
    def _pairkey(a: int, b: int) -> Tuple[int, int]:
        return (a, b) if a < b else (b, a)

    def _qpn_for(self, node: int, peer: int) -> int:
        return self.config.qpn_base + node * self.size + peer

    def _build_mesh(self) -> None:
        """One bidirectional heartbeat QP per node pair, cross-connected."""
        for i in range(self.size):
            for j in range(i + 1, self.size):
                qpn_i = self._qpn_for(i, j)
                qpn_j = self._qpn_for(j, i)
                qp_i = self._stacks[i].create_qp(qpn_i, psn=qpn_i)
                qp_j = self._stacks[j].create_qp(qpn_j, psn=qpn_j)
                qp_i.connect(qp_j.local)
                qp_j.connect(qp_i.local)
                self._pair_qpns[(i, j)] = (qpn_i, qpn_j)
                self._epochs[(i, j)] = 0

    def _park(self, a: int, b: int) -> Event:
        event = Event(self.env)
        self._parked.setdefault(self._pairkey(a, b), []).append(event)
        return event

    def rearm(self, a: int, b: int) -> None:
        """Recycle the heartbeat QP pair between two live nodes and wake
        any loops parked on it (used after partition heals and by
        :meth:`on_node_restored`)."""
        key = self._pairkey(a, b)
        qpn_low, qpn_high = self._pair_qpns[key]
        stack_low = self._stacks[key[0]]
        stack_high = self._stacks[key[1]]
        qp_low = stack_low.qps[qpn_low]
        qp_high = stack_high.qps[qpn_high]
        if not qp_low.connected or not qp_high.connected:
            if qp_low.state is not QpState.RESET:
                stack_low.reset_qp(qpn_low)
            if qp_high.state is not QpState.RESET:
                stack_high.reset_qp(qpn_high)
            qp_low.connect(qp_high.local)
            qp_high.connect(qp_low.local)
        now = self.env.now
        self._last_seen[(a, b)] = now
        self._last_seen[(b, a)] = now
        self._flushed[(a, b)] = False
        self._flushed[(b, a)] = False
        self._epochs[key] += 1
        self.rearms += 1
        for event in self._parked.pop(key, []):
            if not event.triggered:
                event.succeed()

    def on_node_restored(self, index: int) -> None:
        """Hook from :meth:`FpgaCluster.restore_node`: re-arm every
        heartbeat pair between the restored node and a live peer."""
        for peer in range(self.size):
            if peer == index:
                continue
            if self.cluster.nodes[peer].alive:
                self.rearm(index, peer)

    # ------------------------------------------------------------ loops

    def _sender(self, node: int, peer: int, qpn: int):
        stack = self._stacks[node]
        key = self._pairkey(node, peer)
        seq = 0
        while True:
            yield self.env.timeout(self.config.interval_ns)
            if self._stopped:
                return
            seq += 1
            epoch = self._epochs[key]
            try:
                yield from stack.send(qpn, seq.to_bytes(8, "big"), wr_id=qpn)
                self.heartbeats_sent += 1
            except RdmaError:
                if self._stopped:
                    return
                if self._epochs[key] != epoch:
                    continue  # stale failure: the pair was just rearmed
                if not stack.halted:
                    # Our RC layer gave up on the peer: hard evidence.
                    self._flushed[(node, peer)] = True
                yield self._park(node, peer)
                if self._stopped:
                    return

    def _receiver(self, node: int, peer: int, qpn: int):
        stack = self._stacks[node]
        key = self._pairkey(node, peer)
        while True:
            if self._stopped:
                return
            epoch = self._epochs[key]
            try:
                yield from stack.recv(qpn)
            except RdmaError:
                if self._stopped:
                    return
                if self._epochs[key] != epoch:
                    continue  # stale failure: the pair was just rearmed
                yield self._park(node, peer)
                continue
            self.heartbeats_received += 1
            self._last_seen[(node, peer)] = self.env.now

    def _checker(self):
        while True:
            yield self.env.timeout(self.config.interval_ns)
            if self._stopped:
                return
            self.poll_once()

    def stop(self) -> None:
        """Halt all monitor loops so the simulation can drain."""
        self._stopped = True
        for key in list(self._parked):
            for event in self._parked.pop(key, []):
                if not event.triggered:
                    event.succeed()

    # --------------------------------------------------------- detector

    def phi(self, observer: int, peer: int) -> float:
        """Suspicion level of ``observer`` about ``peer``: ``>= 1.0``
        means suspect (miss count crossed the threshold, or the RC layer
        flushed a heartbeat toward the peer)."""
        if self._flushed.get((observer, peer), False):
            return 1.0
        elapsed = self.env.now - self._last_seen[(observer, peer)]
        misses = max(0.0, elapsed / self.config.interval_ns - 1.0)
        return misses / self.config.miss_threshold

    def _observers_of(self, peer: int) -> List[int]:
        return [
            node
            for node in range(self.size)
            if node != peer and not self._down.get(node, False)
        ]

    def _record(self, kind: str, node: int, reason: str = "") -> None:
        self.events.append((self.env.now, kind, node, reason))
        if len(self.events) > self.config.max_events:
            del self.events[0 : len(self.events) - self.config.max_events]

    def record_admin_event(self, kind: str, node: int, reason: str = "") -> None:
        """Administrative event feed (``FpgaCluster.note_admin_event``):
        crashes, restores, drains, upgrades and migrations land in the
        same timestamped log as detector events, reason string included,
        so the report shows *why* a node went away, not just that it did."""
        self._record(kind, node, reason)
        self.admin_events += 1

    def poll_once(self) -> None:
        """One detector pass: accrue suspicion, edge-trigger events."""
        self.polls += 1
        now = self.env.now
        grace = 2.0 * self.config.interval_ns
        for peer in range(self.size):
            observers = self._observers_of(peer)
            if not observers:
                continue
            if not self._down.get(peer, False):
                suspects = [
                    obs for obs in observers if self.phi(obs, peer) >= 1.0
                ]
                if len(suspects) == len(observers):
                    self._down[peer] = True
                    self.down_events += 1
                    self._record(
                        "node_down", peer,
                        "all live observers lost heartbeats",
                    )
            else:
                heard = [
                    obs
                    for obs in observers
                    if now - self._last_seen[(obs, peer)] <= grace
                ]
                if heard:
                    self._down[peer] = False
                    self.up_events += 1
                    self._record("node_up", peer, "heartbeats resumed")

    # ----------------------------------------------------------- report

    @property
    def down_nodes(self) -> List[int]:
        return [peer for peer in range(self.size) if self._down.get(peer, False)]

    def section(self) -> Dict:
        """The ``card_report()["health"]["cluster"]`` section."""
        return {
            "nodes": self.size,
            "down": self.down_nodes,
            "events": [
                {"time_ns": time, "kind": kind, "node": node, "reason": reason}
                for time, kind, node, reason in self.events
            ],
            "heartbeats_sent": self.heartbeats_sent,
            "heartbeats_received": self.heartbeats_received,
        }

    def export_metrics(self, registry) -> None:
        registry.counter("cluster.heartbeats_sent").value = self.heartbeats_sent
        registry.counter("cluster.heartbeats_received").value = (
            self.heartbeats_received
        )
        registry.counter("cluster.monitor_polls").value = self.polls
        registry.counter("cluster.node_down_events").value = self.down_events
        registry.counter("cluster.node_up_events").value = self.up_events
        registry.counter("cluster.heartbeat_rearms").value = self.rearms
        registry.counter("cluster.admin_events").value = self.admin_events
        registry.gauge("cluster.nodes_suspected").set(len(self.down_nodes))
