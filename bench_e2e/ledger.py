"""Per-layer metrics: public counters plus the tracer's ledger.

``read_counters`` snapshots the counters the models already expose as
public attributes (``PcieLink``, ``Tlb``, ``HbmController``, ``Crediter``,
``RoundRobinArbiter``, ``Driver``, ``RdmaStack.stats``, ``Cmac``,
``Switch.counters()``, ``Environment``).  Counts are reported as the
difference over the timed phase of the traced repeat; high-water marks
cannot be differenced and are reported as they stand at its end.

``per_layer`` turns two snapshots and the tracer's ledger into the
per-layer metrics, and ``structural_violations`` checks the zeros the
layer table predicts (a layer a workload must leave idle).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from repro.net import CMAC_BANDWIDTH
from repro.pcie import PcieLinkConfig

import layers
from harness import Repeat, quantile
from workloads import Platform

__all__ = ["read_counters", "per_layer", "structural_violations", "HIGH_WATER"]

#: Counters that are gauges (not differenced over the phase).
HIGH_WATER = (
    "pcie.in_flight_high_water", "mem.mmu.pinned",
    "net.switch.queue_high_water_bytes", "sim.queue_high_water",
)

#: Bytes/ns of one direction of the host link; no workload changes the default.
PCIE_BANDWIDTH = PcieLinkConfig().h2c_bandwidth


def read_counters(p: Platform) -> Dict[str, float]:
    """One flat snapshot of every public counter the ledger uses."""
    c: Dict[str, float] = defaultdict(int)
    c["sim.events"] = p.env.events_processed
    c["sim.queue_high_water"] = p.env.queue_high_water
    for index, driver in enumerate(p.drivers):
        shell = driver.shell
        link = shell.static.xdma.link
        c["api.doorbells"] += driver.ring_doorbells
        c["api.ring_full_stalls"] += driver.ring_full_stalls
        c["driver.descriptors"] += driver.ring_descriptors
        c["driver.page_faults"] += driver.page_faults
        c["driver.tlb_walks"] += driver.tlb_walks
        c["driver.migrated_bytes"] += driver.migrated_bytes
        c["pcie.h2c_bytes"] += link.h2c_bytes
        c["pcie.c2h_bytes"] += link.c2h_bytes
        c["pcie.transfers"] += link.h2c_transfers + link.c2h_transfers
        c["pcie.in_flight_high_water"] = max(
            c["pcie.in_flight_high_water"], *link.in_flight_high_water.values()
        )
        for mmu in shell.dynamic.mmus.values():
            c["mem.mmu.tlb_hits"] += mmu.tlb.hits
            c["mem.mmu.tlb_misses"] += mmu.tlb.misses
            c["mem.mmu.tlb_evictions"] += mmu.tlb.evictions
            c["mem.mmu.pinned"] += mmu.tlb.pinned_occupancy
        hbm = shell.dynamic.hbm
        if hbm is not None:
            c["mem.hbm.bytes"] += hbm.bytes_read + hbm.bytes_written
            c["mem.hbm.channel_accesses"] += sum(hbm.channel_accesses)
            # Per channel, so that "busiest" is decided on the phase's own
            # accesses (``_busiest``), not on totals since the build.
            for channel, accesses in enumerate(hbm.channel_accesses):
                c[f"mem.hbm.channel@{index}.{channel}"] = accesses
        for vfpga in shell.vfpgas:
            for pool in (vfpga.rd_credits, vfpga.wr_credits):
                for crediter in pool.values():
                    c["core.credit_acquires"] += crediter.acquired_total
                    c["core.credit_stalls"] += crediter.stalls
        mover = shell.dynamic.host_mover
        c["core.arbiter_grants"] += mover.rd_arbiter.grants + mover.wr_arbiter.grants
    for stack in p.stacks:
        stats = stack.stats
        c["net.rdma.tx_packets"] += stats["tx_packets"]
        c["net.rdma.rx_packets"] += stats["rx_packets"]
        c["net.rdma.acks"] += stats["acks_sent"]
        c["net.rdma.naks"] += stats["naks_sent"]
        c["net.rdma.retransmissions"] += stats["retransmissions"]
        c["net.rdma.cnps_received"] += stats["cnps_received"]
        c["net.rdma.qp_errors"] += stats["qp_errors"]
    for index, cmac in enumerate(p.cmacs):
        c["net.cmac.tx_frames"] += cmac.tx_frames
        c["net.cmac.tx_bytes"] += cmac.tx_bytes
        c[f"net.cmac.port_tx_bytes@{index}"] = cmac.tx_bytes
        c["net.cmac.pause_frames_rx"] += cmac.pause_frames_rx
    switch = p.switch
    fabric = switch.counters() if switch is not None else {}
    for key in ("forwarded", "tail_drops", "ecn_marks", "pause_frames_sent"):
        c[f"net.switch.{key}"] = fabric.get(key, 0)
    c["net.switch.queue_high_water_bytes"] = max(
        (port.queue_high_water for _label, port in switch.egress_ports()), default=0
    ) if switch is not None else 0
    return c


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _busiest(deltas: Dict[str, float], prefix: str) -> float:
    """The largest of the per-instance counters ``prefix@...``."""
    return max((v for key, v in deltas.items() if key.startswith(prefix + "@")), default=0)


def per_layer(repeat: Repeat, ledger: dict) -> Dict[str, float]:
    """Every per-layer metric of one traced repeat, by name."""
    n = repeat.completed
    before, after = repeat.counters_before, repeat.counters_after
    d: Dict[str, float] = defaultdict(int, {
        key: after[key] if key in HIGH_WATER else after[key] - before[key]
        for key in after
    })
    m: Dict[str, float] = {}
    for layer in layers.LAYERS:
        m[f"{layer}.calls_per_req"] = ledger["calls"][layer] / n
        m[f"{layer}.host_us_per_req"] = ledger["host_ns"][layer] / n / 1e3
        m[f"{layer}.sim_ns_per_req"] = ledger["sim_ns"][layer] / n
        m[f"{layer}.events_per_req"] = ledger["events"][layer] / n
    # The engine's one call is ``Environment.run``: the whole phase.
    m["sim.sim_ns_per_req"] = repeat.sim_ns / n

    m["api.doorbells_per_req"] = d["api.doorbells"] / n
    m["api.ring_full_stalls"] = d["api.ring_full_stalls"]
    m["driver.descriptors_per_doorbell"] = _ratio(d["driver.descriptors"], d["api.doorbells"])
    m["driver.cq_events_per_req"] = ledger["group_events"]["cq"] / n
    m["driver.page_faults"] = d["driver.page_faults"]
    m["driver.tlb_walks"] = d["driver.tlb_walks"]
    m["driver.migrated_bytes"] = d["driver.migrated_bytes"]
    m["pcie.h2c_bytes"] = d["pcie.h2c_bytes"]
    m["pcie.c2h_bytes"] = d["pcie.c2h_bytes"]
    m["pcie.transfers_per_req"] = d["pcie.transfers"] / n
    # The busier direction against one direction's 12 GB/s.
    m["pcie.link_util"] = max(d["pcie.h2c_bytes"], d["pcie.c2h_bytes"]) / (
        repeat.sim_ns * PCIE_BANDWIDTH
    )
    m["pcie.in_flight_high_water"] = d["pcie.in_flight_high_water"]
    m["mem.mmu.tlb_hits"] = d["mem.mmu.tlb_hits"]
    m["mem.mmu.tlb_misses"] = d["mem.mmu.tlb_misses"]
    m["mem.mmu.tlb_hit_ratio"] = _ratio(
        d["mem.mmu.tlb_hits"], d["mem.mmu.tlb_hits"] + d["mem.mmu.tlb_misses"]
    )
    m["mem.mmu.tlb_evictions"] = d["mem.mmu.tlb_evictions"]
    m["mem.mmu.pinned"] = d["mem.mmu.pinned"]
    m["mem.hbm.bytes"] = d["mem.hbm.bytes"]
    m["mem.hbm.channel_accesses"] = d["mem.hbm.channel_accesses"]
    m["mem.hbm.busiest_channel_share"] = _ratio(
        _busiest(d, "mem.hbm.channel"), d["mem.hbm.channel_accesses"]
    )
    m["core.packets_per_req"] = ledger["entry_yields"].get("Packetizer.split", 0) / n
    m["core.credit_acquires_per_req"] = d["core.credit_acquires"] / n
    m["core.credit_stalls"] = d["core.credit_stalls"]
    m["core.credit_stall_ratio"] = _ratio(d["core.credit_stalls"], d["core.credit_acquires"])
    m["core.arbiter_grants"] = d["core.arbiter_grants"]
    m["core.mover_events_per_req"] = ledger["group_events"]["mover"] / n
    m["apps.kernel_events_per_req"] = ledger["group_events"]["kernel"] / n
    for key in ("tx_packets", "rx_packets", "acks", "naks", "retransmissions",
                "cnps_received", "qp_errors"):
        m[f"net.rdma.{key}"] = d[f"net.rdma.{key}"]
    m["net.rdma.retransmit_ratio"] = _ratio(
        d["net.rdma.retransmissions"], d["net.rdma.tx_packets"]
    )
    for verb in ("write", "read"):
        m[f"net.rdma.{verb}_sim_p50_ns"] = quantile(
            (end - start for _c, kind, _n, start, end in repeat.records
             if kind == f"rdma_{verb}"), 0.5,
        )
    m["net.cmac.tx_frames"] = d["net.cmac.tx_frames"]
    m["net.cmac.tx_bytes"] = d["net.cmac.tx_bytes"]
    m["net.cmac.pause_frames_rx"] = d["net.cmac.pause_frames_rx"]
    # The port that sent most during the phase, against the 100G line.
    m["net.cmac.wire_util"] = _busiest(d, "net.cmac.port_tx_bytes") / (
        repeat.sim_ns * CMAC_BANDWIDTH
    )
    for key in ("forwarded", "tail_drops", "ecn_marks", "pause_frames_sent"):
        m[f"net.switch.{key}"] = d[f"net.switch.{key}"]
    m["net.switch.queue_high_water_bytes"] = d["net.switch.queue_high_water_bytes"]
    m["net.switch.drop_ratio"] = _ratio(
        d["net.switch.tail_drops"], d["net.switch.forwarded"] + d["net.switch.tail_drops"]
    )
    total_events = sum(ledger["events"].values())
    m["sim.events"] = d["sim.events"]
    m["sim.queue_high_water"] = d["sim.queue_high_water"]
    m["sim.no_callback_events_per_req"] = ledger["no_callback_events"] / n
    # CPU outside every layer span: heap, dispatch, relay recycling.
    m["sim.dispatch_host_ms"] = ledger["host_ns"]["sim"] / 1e6
    m["sim.layer_other_share"] = _ratio(ledger["events"][layers.OTHER], total_events)
    m["bench.events_per_req"] = ledger["events"][layers.BENCH] / n
    m["bench.host_us_per_req"] = ledger["host_ns"][layers.BENCH] / n / 1e3
    return m


def structural_violations(workload: str, m: Dict[str, float], ledger: dict,
                          engine_events: int) -> List[str]:
    """What the layer table predicts to be exactly zero, and the two
    sums that keep the ledger honest."""
    bad: List[str] = []

    def zero(metric: str) -> None:
        if m[metric] != 0:
            bad.append(f"{workload}: {metric} = {m[metric]} but must be 0")

    booked = sum(ledger["events"].values())
    if booked != engine_events:
        bad.append(f"{workload}: layer events sum to {booked}, engine dispatched {engine_events}")
    if m["sim.layer_other_share"] > 0.02:
        bad.append(
            f"{workload}: {m['sim.layer_other_share']:.1%} of the events belong to no "
            f"layer; unmapped processes: {sorted(ledger['unmapped'])}"
        )
    if workload in ("host_small", "host_bulk", "incast_dcqcn"):
        zero("mem.hbm.calls_per_req")
        zero("mem.hbm.bytes")
    if workload != "svm_thrash":
        zero("driver.page_faults")
    if workload == "rdma_mix":
        zero("net.switch.tail_drops")
        zero("net.switch.ecn_marks")
    if workload == "incast_dcqcn":
        zero("api.calls_per_req")
        zero("driver.calls_per_req")
        zero("pcie.calls_per_req")
    if workload == "card_hbm":
        zero("pcie.h2c_bytes")
        zero("pcie.c2h_bytes")
    return bad
