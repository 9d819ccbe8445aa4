"""Harvest one card's live hardware counters into a MetricsRegistry.

Every hardware model keeps plain integer counters on itself (the same
pattern the fault subsystem uses) so the hot paths never pay for metric
plumbing; this module is the read side that folds them into the canonical
``domain.metric`` namespace.  It is the only path from a counter to a reader:
``card_report()`` embeds it as the report's ``telemetry`` section, and
``collect_cluster_metrics`` merges every node's registry for the
fabric-wide view.
"""

from __future__ import annotations

from .metrics import MetricsRegistry

__all__ = ["collect_card_metrics", "collect_cluster_metrics"]


def _set_counter(registry: MetricsRegistry, name: str, value: int) -> None:
    counter = registry.counter(name)
    counter.value = int(value)


def collect_card_metrics(driver, registry: MetricsRegistry = None) -> MetricsRegistry:
    """Snapshot one driver/shell pair into (a fresh or given) registry."""
    reg = registry if registry is not None else MetricsRegistry()
    shell = driver.shell
    env = driver.env
    xdma = shell.static.xdma
    link = xdma.link

    # -- sim: the engine itself ------------------------------------------
    _set_counter(reg, "sim.events_processed", env.events_processed)
    queue = reg.gauge("sim.event_queue")
    queue.set(env.pending)
    queue.high_water = max(queue.high_water, env.queue_high_water)
    requests_served = sum(s.requests_served for s in driver.schedulers.values())
    if requests_served:
        reg.gauge("sim.events_per_request").set(
            env.events_processed / requests_served
        )
    if env.profiler is not None:
        # Wall-clock throughput is only knowable while a SimProfiler is
        # attached; report-only (DET001-waived inside the profiler).
        reg.gauge("sim.events_per_sec").set(env.profiler.events_per_sec)
    if env.sanitizer is not None:
        # Orphaned waiters visible right now (stuck-at-drain ledger) —
        # only knowable while the SimSanitizer tracks processes, so the
        # gauge appears exactly when REPRO_SANITIZE runs do.
        reg.gauge("sim.stuck_at_drain").set(len(env.sanitizer.stuck_ledger(env)))

    # -- pcie: link + XDMA channel groups --------------------------------
    _set_counter(reg, "pcie.h2c_bytes", link.h2c_bytes)
    _set_counter(reg, "pcie.c2h_bytes", link.c2h_bytes)
    _set_counter(reg, "pcie.h2c_transfers", link.h2c_transfers)
    _set_counter(reg, "pcie.c2h_transfers", link.c2h_transfers)
    _set_counter(reg, "pcie.replays", link.replays)
    for direction in ("h2c", "c2h"):
        gauge = reg.gauge(f"pcie.{direction}_in_flight")
        gauge.set(link.in_flight(direction))
        gauge.high_water = max(gauge.high_water, link.in_flight_high_water[direction])
    _set_counter(reg, "pcie.migrated_bytes", xdma.migration_bytes)
    _set_counter(reg, "pcie.interrupts_raised", xdma.interrupts_raised)
    _set_counter(reg, "pcie.interrupts_lost", xdma.interrupts_lost)
    # Host-mapped completion counters, one per vFPGA stream direction.
    for name, writeback in xdma.writebacks.items():
        _set_counter(reg, f"pcie.writebacks.{name.replace('-', '_')}", writeback.count)

    # -- reconfig: shell and app swaps through the ICAP ------------------
    icap = shell.static.icap
    _set_counter(reg, "reconfig.shell_swaps", shell.shell_reconfigs)
    _set_counter(reg, "reconfig.app_swaps", shell.app_reconfigs)
    _set_counter(reg, "reconfig.icap_bytes", icap.bytes_programmed)
    _set_counter(reg, "reconfig.icap_crc_failures", icap.crc_failures)
    _set_counter(reg, "reconfig.icap_rollbacks", shell.icap_rollbacks)
    _set_counter(reg, "reconfig.retries", driver.reconfig_retries)
    _set_counter(reg, "reconfig.irq_timeouts", driver.irq_timeouts)

    # -- mem: HBM + TLB + driver paging ----------------------------------
    hbm = shell.dynamic.hbm
    if hbm is not None:
        _set_counter(reg, "mem.hbm_bytes_read", hbm.bytes_read)
        _set_counter(reg, "mem.hbm_bytes_written", hbm.bytes_written)
        _set_counter(reg, "mem.hbm_channel_accesses", sum(hbm.channel_accesses))
        busiest = reg.gauge("mem.hbm_busiest_channel_accesses")
        busiest.set(max(hbm.channel_accesses, default=0))
        _set_counter(reg, "mem.hbm_ecc_corrected", hbm.ecc_corrected)
        _set_counter(reg, "mem.hbm_ecc_uncorrected", hbm.ecc_uncorrected)
    tlb_hits = tlb_misses = tlb_evictions = 0
    for mmu in shell.dynamic.mmus.values():
        tlb_hits += mmu.tlb.hits
        tlb_misses += mmu.tlb.misses
        tlb_evictions += mmu.tlb.evictions
    _set_counter(reg, "mem.tlb_hits", tlb_hits)
    _set_counter(reg, "mem.tlb_misses", tlb_misses)
    _set_counter(reg, "mem.tlb_evictions", tlb_evictions)
    _set_counter(reg, "mem.page_faults", driver.page_faults)
    _set_counter(reg, "mem.tlb_walks", driver.tlb_walks)
    _set_counter(reg, "mem.migrated_bytes", driver.migrated_bytes)
    _set_counter(
        reg,
        "mem.tlb_pinned_evictions",
        sum(m.tlb.pinned_evictions for m in shell.dynamic.mmus.values()),
    )
    reg.gauge("mem.tlb_pinned").set(
        sum(m.tlb.pinned_occupancy for m in shell.dynamic.mmus.values())
    )

    # -- ring: the descriptor-ring command path --------------------------
    _set_counter(reg, "ring.doorbells", driver.ring_doorbells)
    _set_counter(reg, "ring.doorbells_lost", driver.ring_doorbells_lost)
    _set_counter(reg, "ring.descriptors", driver.ring_descriptors)
    _set_counter(reg, "ring.batches", driver.ring_batches)
    _set_counter(reg, "ring.full_stalls", driver.ring_full_stalls)
    _set_counter(reg, "ring.mr_registered", driver.mrs_registered)
    _set_counter(reg, "ring.mr_deregistered", driver.mrs_deregistered)
    _set_counter(reg, "ring.invoke_timeouts", driver.invoke_timeouts)
    if driver.ring_doorbells:
        reg.gauge("ring.descriptors_per_doorbell").set(
            driver.ring_descriptors / driver.ring_doorbells
        )

    # -- net: RDMA / TCP stacks (joins the PR 1 fault counters) ----------
    rdma = shell.dynamic.rdma
    if rdma is not None:
        for key, value in rdma.stats.items():
            _set_counter(reg, f"net.rdma_{key}", value)
        for qpn, per_qp in sorted(rdma.qp_stats.items()):
            _set_counter(reg, f"net.qp.{qpn}.ops", per_qp["ops"])
            _set_counter(reg, f"net.qp.{qpn}.bytes", per_qp["bytes"])
        # DCQCN reaction-point state: the per-QP paced rate (Gbit/s) and
        # the CNPs that shaped it.
        for qpn, state in sorted(rdma.qp_rates.items()):
            reg.gauge(f"net.qp.{qpn}.rate_gbps").set(state.current_rate * 8.0)
            _set_counter(reg, f"net.qp.{qpn}.cnps", state.cnps)
    tcp = shell.dynamic.tcp
    if tcp is not None:
        for key, value in tcp.stats.items():
            _set_counter(reg, f"net.tcp_{key}", value)
    sniffer = shell.dynamic.sniffer
    if sniffer is not None:
        _set_counter(reg, "net.sniffer_captured", sniffer.captured)
        _set_counter(reg, "net.sniffer_dropped", sniffer.dropped)

    # -- scheduler: every AppScheduler attached to this driver -----------
    for scheduler in driver.schedulers.values():
        scheduler.export_metrics(reg)

    # -- health: watchdog verdicts + recovery pipeline -------------------
    monitor = driver.health
    if monitor is not None:
        _set_counter(reg, "health.polls", monitor.polls)
        _set_counter(reg, "health.hung_verdicts", monitor.hung_verdicts)
        _set_counter(reg, "health.watchdog_trips", monitor.watchdog_trips)
    recovery = driver.recovery
    if recovery is not None:
        _set_counter(reg, "health.recoveries", recovery.total_recoveries())
        _set_counter(reg, "health.quarantines", recovery.quarantines)
        _set_counter(reg, "health.completions_failed", recovery.completions_failed)
        _set_counter(reg, "health.descriptors_dropped", recovery.descriptors_dropped)
        _set_counter(reg, "health.tlb_entries_flushed", recovery.tlb_entries_flushed)

    return reg


def collect_cluster_metrics(cluster) -> MetricsRegistry:
    """Fabric-wide roll-up: merge every node's registry, then add the
    switch counters and the cluster fault-tolerance layer."""
    reg = MetricsRegistry()
    for node in cluster.nodes:
        reg.merge(collect_card_metrics(node.driver))
    switch = cluster.switch
    for name, value in switch.counters().items():
        _set_counter(reg, f"net.switch_{name}", value)
    for index, (_label, port) in enumerate(switch.egress_ports()):
        depth = reg.gauge(f"net.port.{index}.queue_bytes")
        depth.set(port.queued_bytes)
        depth.high_water = max(depth.high_water, port.queue_high_water)
    _set_counter(reg, "cluster.node_crashes", cluster.crashes)
    _set_counter(reg, "cluster.node_restores", cluster.restores)
    _set_counter(reg, "cluster.node_drains", cluster.drains)
    _set_counter(reg, "cluster.node_upgrades", cluster.upgrades)
    _set_counter(reg, "cluster.tenant_migrations", cluster.migrations)
    if cluster.migrator is not None:
        cluster.migrator.export_metrics(reg)
    reg.gauge("cluster.nodes_alive").set(sum(1 for node in cluster.nodes if node.alive))
    if cluster.monitor is not None:
        cluster.monitor.export_metrics(reg)
    seen_stats = []
    for group in cluster.collective_groups:
        # Rebuilt groups share their predecessor's lifetime stats dict;
        # count each communicator lineage once.
        if any(group.stats is stats for stats in seen_stats):
            continue
        seen_stats.append(group.stats)
        group.export_metrics(reg)
    return reg
