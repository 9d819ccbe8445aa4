#!/usr/bin/env python
"""Fixed-workload performance harness emitting ``BENCH_PR2.json``.

Runs a small suite of representative workloads over the simulated card
and records, for every workload, achieved throughput, operation latency
percentiles, simulated time and host wall time:

* ``hbm_scaling``       -- card-memory pass-through across HBM channel counts
                           (the Figure 7a axis).
* ``rdma_msgsize``      -- two-node RDMA WRITE message-size sweep over the
                           simulated RoCE fabric.
* ``multitenant_aes``   -- AES ECB tenants sharing one card (Figure 8 axis).
* ``scheduler_churn``   -- AppScheduler serving alternating kernels, measuring
                           queue wait and reconfiguration overhead; also runs
                           under ``SimProfiler`` to capture simulator hot paths.
* ``net_incast``        -- N-to-1 RDMA incast with DCQCN on vs off; gates the
                           collapse-avoidance ratio and fairness, and emits
                           both congestion trajectories to ``BENCH_NET.json``.

Usage::

    PYTHONPATH=src python benchmarks/perf_harness.py [--quick] [--out FILE]
    PYTHONPATH=src python benchmarks/perf_harness.py --validate FILE

``--quick`` shrinks every workload for CI smoke runs; ``--validate``
checks an existing result file against the schema and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro import CThread, Environment, LocalSg, Oper, RdmaSg, SgEntry  # noqa: E402
from repro.api import AppScheduler  # noqa: E402
from repro.apps import AesEcbApp, HllApp, PassThroughApp  # noqa: E402
from repro.cluster import FpgaCluster  # noqa: E402
from repro.core import ServiceConfig, Shell, ShellConfig  # noqa: E402
from repro.driver import Driver, RingOp, RingOpcode  # noqa: E402
from repro.experiments.macrobench import multitenant_ecb_rates  # noqa: E402
from repro.experiments.microbench import hbm_throughput  # noqa: E402
from repro.net import (  # noqa: E402
    CMAC_BANDWIDTH,
    Cmac,
    DcqcnConfig,
    MacAddress,
    RdmaStack,
    Switch,
    SwitchConfig,
)
from repro.net import RdmaConfig as NetRdmaConfig  # noqa: E402
from repro.sim import AllOf, LatencyStats, Store  # noqa: E402
from repro.synth import (  # noqa: E402
    BuildFlow,
    LockedShellCheckpoint,
    modules_for_services,
)
from repro.telemetry import SimProfiler  # noqa: E402

SCHEMA_VERSION = 2
DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_PR2.json"
)

__all__ = ["run_suite", "validate_results", "main"]


def _workload(name, *, throughput_gbps=None, ops_per_s=None,
              latency_ns=None, sim_time_ns=0.0, wall_time_s=0.0, detail=None):
    return {
        "name": name,
        "throughput_gbps": throughput_gbps,
        "ops_per_s": ops_per_s,
        "latency_ns": latency_ns,
        "sim_time_ns": sim_time_ns,
        "wall_time_s": wall_time_s,
        "detail": detail or {},
    }


def _percentiles(stats: LatencyStats) -> Dict[str, float]:
    return {
        "p50": stats.percentile(50),
        "p99": stats.percentile(99),
        "mean": stats.mean,
    }


# ----------------------------------------------------------------- workloads


def bench_hbm_scaling(quick: bool) -> Dict[str, Any]:
    channels = [1, 4] if quick else [1, 2, 4, 8]
    transfer_mb = 1 if quick else 2
    t0 = time.perf_counter()
    series = {str(ch): hbm_throughput(ch, transfer_mb=transfer_mb) for ch in channels}
    wall = time.perf_counter() - t0
    best = max(series.values())
    return _workload(
        "hbm_scaling",
        throughput_gbps=best,
        wall_time_s=wall,
        detail={"transfer_mb": transfer_mb, "gbps_by_channels": series},
    )


def bench_rdma_msgsize(quick: bool) -> Dict[str, Any]:
    sizes = [4096, 65536] if quick else [4096, 65536, 1 << 20]
    messages = 4 if quick else 16
    t0 = time.perf_counter()
    series: Dict[str, float] = {}
    lat = LatencyStats("rdma_write")
    total_bytes = 0
    total_sim_ns = 0.0
    for size in sizes:
        env = Environment()
        cluster = FpgaCluster(
            env, 2, services=ServiceConfig(en_memory=True, en_rdma=True)
        )
        thread_a, thread_b = cluster.connect_qps(
            0, 1, pid_a=1, pid_b=2, qpn_a=1, qpn_b=2
        )

        def client():
            src = yield from thread_a.get_mem(size)
            dst = yield from thread_b.get_mem(size)
            sg = SgEntry(
                rdma=RdmaSg(local_addr=src.vaddr, remote_addr=dst.vaddr,
                            len=size, qpn=1)
            )
            for _ in range(messages):
                start = env.now
                yield from thread_a.invoke(Oper.REMOTE_RDMA_WRITE, sg)
                lat.record(env.now - start)

        env.run(env.process(client()))
        series[str(size)] = size * messages * 8 / env.now if env.now else 0.0
        total_bytes += size * messages
        total_sim_ns += env.now
    wall = time.perf_counter() - t0
    return _workload(
        "rdma_msgsize",
        throughput_gbps=max(series.values()),
        latency_ns=_percentiles(lat),
        sim_time_ns=total_sim_ns,
        wall_time_s=wall,
        detail={"messages_per_size": messages, "gbps_by_msgsize": series},
    )


def bench_multitenant_aes(quick: bool) -> Dict[str, Any]:
    tenants = 2 if quick else 4
    transfer_mb = 1 if quick else 2
    messages = 2 if quick else 3
    t0 = time.perf_counter()
    rates = multitenant_ecb_rates(tenants, transfer_mb=transfer_mb, messages=messages)
    wall = time.perf_counter() - t0
    return _workload(
        "multitenant_aes",
        throughput_gbps=sum(rates),
        wall_time_s=wall,
        detail={
            "tenants": tenants,
            "per_tenant_gbps": rates,
            "fairness_min_over_max": min(rates) / max(rates) if max(rates) else 0.0,
        },
    )


def _run_churn(requests: int, cache_enabled: bool, profile: bool = False):
    """One scheduler-churn pass; returns (env, scheduler, profiler, wall_s)."""
    env = Environment()
    shell = Shell(
        env, ShellConfig(num_vfpgas=1, services=ServiceConfig(en_memory=False))
    )
    driver = Driver(env, shell)
    shell.static.icap.region_cache_enabled = cache_enabled
    flow = BuildFlow("u55c")
    checkpoint = LockedShellCheckpoint(
        "u55c", shell.config.services, shell.shell_id,
        sum(m.luts for m in modules_for_services(shell.config.services)),
    )
    scheduler = AppScheduler(driver, affinity_window=4)
    scheduler.register("hll", flow.app_flow(checkpoint, ["hll"]).bitstream, HllApp)
    scheduler.register(
        "aes", flow.app_flow(checkpoint, ["aes_ecb"]).bitstream, AesEcbApp
    )

    def body(app):
        yield env.timeout(2_000.0)
        return True

    def client(i):
        kernel = "hll" if i % 3 else "aes"
        yield from scheduler.submit(kernel, body)

    procs = [env.process(client(i)) for i in range(requests)]
    profiler = SimProfiler().attach(env) if profile else None
    t0 = time.perf_counter()
    env.run(AllOf(env, procs))
    wall = time.perf_counter() - t0
    if profiler is not None:
        profiler.detach()
    return env, scheduler, profiler, wall


#: Regression bound asserted here and by ``validate_results``: sim events
#: attributed to the scheduler component per request served.  The edge-
#: triggered loop runs at ~1.3 (one body event per request plus a shared
#: wakeup/reconfig budget); the old level-triggered loop sat at ~2.0+.
SCHED_EVENTS_PER_REQUEST_BOUND = 1.3


def bench_scheduler_churn(quick: bool) -> Dict[str, Any]:
    # Same request count in quick mode: the events-per-request bound
    # amortises the fixed wakeup/reconfig events over the request count,
    # and 24 requests cost well under 0.1 s of wall time.
    requests = 24
    # A/B the per-region bitstream cache: the alternating kernels make
    # every reconfiguration a cache hit after its first load, so the
    # warm pass must finish in markedly less simulated time.
    cold_env, _, _, _ = _run_churn(requests, cache_enabled=False)
    env, scheduler, profiler, wall = _run_churn(
        requests, cache_enabled=True, profile=True
    )
    icap = scheduler.driver.shell.static.icap
    speedup = cold_env.now / env.now if env.now else 0.0
    assert speedup > 1.2, (
        f"bitstream cache must speed up scheduler churn: cold {cold_env.now} ns "
        f"vs warm {env.now} ns (speedup {speedup:.2f}x)"
    )
    sched_events = profiler.events.get("sched", 0)
    events_per_request = sched_events / requests if requests else 0.0
    assert events_per_request <= SCHED_EVENTS_PER_REQUEST_BOUND, (
        f"edge-triggered scheduler regressed: {sched_events} sched events for "
        f"{requests} requests = {events_per_request:.2f} events/request "
        f"(bound {SCHED_EVENTS_PER_REQUEST_BOUND})"
    )
    wait = scheduler.queue_wait
    return _workload(
        "scheduler_churn",
        ops_per_s=requests / (env.now / 1e9) if env.now else 0.0,
        latency_ns={
            "p50": wait.percentile(50),
            "p99": wait.percentile(99),
            "mean": wait.mean,
        },
        sim_time_ns=env.now,
        wall_time_s=wall,
        detail={
            "requests": requests,
            "reconfigurations": scheduler.reconfigurations,
            "affinity_hits": scheduler.affinity_hits,
            "reconfig_failures": scheduler.reconfig_failures,
            "wakeups": scheduler.wakeups,
            "dispatches": scheduler.dispatches,
            "events_per_request": events_per_request,
            "events_per_request_bound": SCHED_EVENTS_PER_REQUEST_BOUND,
            "events_per_sec": profiler.events_per_sec,
            "bitstream_cache": {
                "cold_sim_time_ns": cold_env.now,
                "warm_sim_time_ns": env.now,
                "speedup": speedup,
                "cache_hits": icap.cache_hits,
                "cache_misses": icap.cache_misses,
            },
            "profile": profiler.report(top=6),
        },
    )


def _events_per_host_second(env: Environment) -> Dict[str, Any]:
    """Drain ``env`` under an attached profiler; wall numbers, not gated."""
    profiler = SimProfiler().attach(env)
    t0 = time.perf_counter()
    env.run()
    wall = time.perf_counter() - t0
    profiler.detach()
    return {
        "events_processed": env.events_processed,
        "events_per_sec": profiler.events_per_sec,
        "wall_time_s": wall,
    }


def bench_engine_events(quick: bool) -> Dict[str, Any]:
    """Raw DES-core throughput: dispatched events per host second.

    Two arms with no hardware models attached, one per container the
    dispatch loop takes events from (all run forms share that loop):

    * **timers** (the headline ``ops_per_s``) -- 64 tickers on pooled
      ``env.sleep`` delays, so nearly every event goes through the timed
      heap and the relay free-list.
    * **hand-offs** (``detail.handoff``) -- 64 producer/consumer pairs
      over two-slot ``Store``s: every event is a zero-delay ``succeed``
      on a lane, the clock never moves, and both blocking directions
      (full store, empty store) occur.  Most events in the shell
      workloads are of this kind (``bench_e2e`` measures them in situ).
    """
    n_procs = 64
    steps = 400 if quick else 2_000

    env = Environment()

    def ticker(pid):
        for step_no in range(steps):
            yield env.sleep(float((pid + step_no) % 7) + 1.0)

    for pid in range(n_procs):
        env.process(ticker(pid), name=f"tick{pid}")
    timers = _events_per_host_second(env)

    handoff_env = Environment()

    def producer(store):
        for item in range(steps):
            yield store.put(item)

    def consumer(store):
        for _ in range(steps):
            yield store.get()

    for pid in range(n_procs):
        store = Store(handoff_env, capacity=2)
        handoff_env.process(producer(store), name=f"put{pid}")
        handoff_env.process(consumer(store), name=f"get{pid}")
    handoff = _events_per_host_second(handoff_env)
    handoff.update(pairs=n_procs, items_per_pair=steps)

    wall = timers["wall_time_s"]
    return _workload(
        "engine_events",
        ops_per_s=timers["events_processed"] / wall if wall else 0.0,
        sim_time_ns=env.now,
        wall_time_s=wall + handoff["wall_time_s"],
        detail={
            "processes": n_procs,
            "steps_per_process": steps,
            "events_processed": timers["events_processed"],
            "events_per_sec": timers["events_per_sec"],
            "handoff": handoff,
        },
    )


#: Regression bounds asserted here and by ``validate_results``.  The
#: transfer mix is identical on both paths, so the *total* events ratio
#: (ring/ioctl) is diluted by the shared data-path work but must still
#: sit measurably below 1.  The *submit-path* ratio counts only events
#: attributed to the submitting client process (SimProfiler): per-call
#: submission resumes the client once per request, batched doorbells
#: once per drain — this is the ABI cost the ring removes, so the bound
#: is aggressive.  An ``invoke`` is itself a batch of one through the
#: same issue routine, so all the ring saves in total is the per-request
#: completion event and client wakeup: 0.985 of ~53 events/request.
RING_EVENTS_RATIO_BOUND = 0.99
RING_SUBMIT_EVENTS_RATIO_BOUND = 0.5


def _run_submit(requests: int, transfer_bytes: int, use_ring: bool, slots: int):
    """One submit-path pass; returns (env, driver, submit-phase events)."""
    env = Environment()
    shell = Shell(env, ShellConfig(num_vfpgas=1))
    driver = Driver(env, shell)
    shell.load_app(0, PassThroughApp())
    thread = CThread(driver, 0, pid=1)
    payload = bytes(range(256)) * (transfer_bytes // 256)
    measured = {}

    def submit():
        src = yield from thread.get_mem(transfer_bytes * requests)
        dst = yield from thread.get_mem(transfer_bytes * requests)
        for i in range(requests):
            thread.write_buffer(src.vaddr + i * transfer_bytes, payload)
        if use_ring:
            thread.setup_rings(slots=slots)
            src_mr = yield from thread.register_mr(
                src.vaddr, transfer_bytes * requests, writable=False
            )
            dst_mr = yield from thread.register_mr(
                dst.vaddr, transfer_bytes * requests
            )
        profiler = SimProfiler().attach(env)
        events_before = env.events_processed
        started_at = env.now
        if use_ring:
            ops = [
                RingOp(
                    opcode=RingOpcode.TRANSFER,
                    mr_key=src_mr.key,
                    offset=i * transfer_bytes,
                    length=transfer_bytes,
                    dst_mr_key=dst_mr.key,
                    dst_offset=i * transfer_bytes,
                )
                for i in range(requests)
            ]
            entries = yield from thread.post_many(ops)
            assert len(entries) == requests, (
                f"ring batch lost completions: {len(entries)}/{requests}"
            )
        else:
            for i in range(requests):
                sg = SgEntry(local=LocalSg(
                    src_addr=src.vaddr + i * transfer_bytes,
                    src_len=transfer_bytes,
                    dst_addr=dst.vaddr + i * transfer_bytes,
                    dst_len=transfer_bytes,
                ))
                yield from thread.invoke(Oper.LOCAL_TRANSFER, sg)
        measured["events"] = env.events_processed - events_before
        measured["sim_ns"] = env.now - started_at
        profiler.detach()
        measured["client_events"] = profiler.events.get("submit", 0)
        out = thread.read_buffer(dst.vaddr + (requests - 1) * transfer_bytes,
                                 transfer_bytes)
        assert out == payload, "submit path corrupted data"

    env.run(env.process(submit(), name="submit"))
    return env, driver, measured


def bench_ring_submit(quick: bool) -> Dict[str, Any]:
    """Batched doorbell submission vs the per-call ioctl (same transfers)."""
    requests = 32
    transfer_bytes = 2048
    slots = 16  # < requests, so the ring must stall and re-doorbell once
    t0 = time.perf_counter()
    _, _, ioctl = _run_submit(requests, transfer_bytes, use_ring=False, slots=slots)
    env, driver, ring = _run_submit(requests, transfer_bytes, use_ring=True, slots=slots)
    wall = time.perf_counter() - t0
    ioctl_epr = ioctl["events"] / requests
    ring_epr = ring["events"] / requests
    ratio = ring_epr / ioctl_epr if ioctl_epr else 1.0
    assert ratio <= RING_EVENTS_RATIO_BOUND, (
        f"ring submit must beat the per-call ioctl: {ring_epr:.2f} vs "
        f"{ioctl_epr:.2f} events/request (ratio {ratio:.3f}, bound "
        f"{RING_EVENTS_RATIO_BOUND})"
    )
    submit_ratio = (
        ring["client_events"] / ioctl["client_events"]
        if ioctl["client_events"] else 1.0
    )
    assert submit_ratio <= RING_SUBMIT_EVENTS_RATIO_BOUND, (
        f"batched doorbells must collapse per-request client wakeups: "
        f"{ring['client_events']} vs {ioctl['client_events']} submit-path "
        f"events (ratio {submit_ratio:.3f}, bound "
        f"{RING_SUBMIT_EVENTS_RATIO_BOUND})"
    )
    return _workload(
        "ring_submit",
        ops_per_s=requests / (ring["sim_ns"] / 1e9) if ring["sim_ns"] else 0.0,
        sim_time_ns=ring["sim_ns"],
        wall_time_s=wall,
        detail={
            "requests": requests,
            "transfer_bytes": transfer_bytes,
            "ring_slots": slots,
            "ioctl_events_per_request": ioctl_epr,
            "ring_events_per_request": ring_epr,
            "events_ratio": ratio,
            "events_ratio_bound": RING_EVENTS_RATIO_BOUND,
            "ioctl_submit_events": ioctl["client_events"],
            "ring_submit_events": ring["client_events"],
            "submit_events_ratio": submit_ratio,
            "submit_events_ratio_bound": RING_SUBMIT_EVENTS_RATIO_BOUND,
            "doorbells": driver.ring_doorbells,
            "descriptors_per_doorbell": (
                driver.ring_descriptors / driver.ring_doorbells
                if driver.ring_doorbells else 0.0
            ),
            "batches": driver.ring_batches,
            "full_stalls": driver.ring_full_stalls,
        },
    )


#: Collapse-avoidance bounds asserted here and by ``validate_results``.
#: At the incast collapse point DCQCN-on must sustain at least this
#: multiple of DCQCN-off's goodput (measured headroom ~4.3x full /
#: ~3.2x quick), and its Jain fairness index must stay above the
#: fairness floor (measured ~0.95 full / ~0.99 quick; DCQCN-off sits
#: near 0.2-0.4 because go-back-N retry lotteries starve victim flows).
NET_COLLAPSE_RATIO_BOUND = 2.0
NET_FAIRNESS_BOUND = 0.85

BENCH_NET_OUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_NET.json"
)


def _run_incast(nsenders, dcqcn, horizon_ns, *, msg_bytes=64 << 10,
                sample_ns=50_000.0):
    """One N-to-1 incast pass; returns goodput + congestion trajectory.

    All senders stream fixed-size RDMA WRITEs at a single receiver
    through one switch whose receiver-facing egress queue is the
    bottleneck.  1 KB MTU against a 32 KB buffer reproduces the classic
    collapse: with no rate control the synchronized windows overrun the
    queue, go-back-N retransmissions waste the drained bytes and tail
    losses strand flows in RTO, so goodput collapses and whichever
    flows win the retry lottery starve the rest.
    """
    env = Environment()
    switch = Switch(env, config=SwitchConfig(
        egress_capacity_bytes=32 << 10,
        ecn_threshold_bytes=8 << 10,
    ))
    cfg = NetRdmaConfig(
        mtu=1024,
        retransmit_timeout_ns=100_000.0,
        dcqcn=dcqcn,
    )
    def attach(mac_value, ip, name):
        mac = MacAddress(mac_value)
        cmac = Cmac(env, name=f"{name}-cmac")
        switch.attach(mac, cmac)
        stack = RdmaStack(env, cmac, mac, ip, name=name, config=cfg)

        def read_local(vaddr, length):
            yield env.timeout(length / 125.0)
            return None

        def write_local(vaddr, data, length):
            yield env.timeout(length / 125.0)

        stack.bind_memory(read_local, write_local)
        return stack

    receiver = attach(0x02_0000_0100, 0x0A0000FF, "incast-rx")
    senders = [
        attach(0x02_0000_0001 + i, 0x0A000001 + i, f"incast-s{i}")
        for i in range(nsenders)
    ]
    for i, sender in enumerate(senders):
        qp_s = sender.create_qp(1, psn=0)
        qp_r = receiver.create_qp(100 + i, psn=0)
        qp_s.connect(qp_r.local)
        qp_r.connect(qp_s.local)

    goodput = [0] * nsenders

    def sender_proc(i, sender):
        while env.now < horizon_ns:
            try:
                yield from sender.rdma_write(1, 0, 0x1000, msg_bytes)
            except Exception:
                return  # retry exhaustion flushed the QP: flow is dead
            goodput[i] += msg_bytes

    for i, sender in enumerate(senders):
        env.process(sender_proc(i, sender), name=f"incast-sender-{i}")

    trajectory = []

    def monitor():
        ports = switch.egress_ports()
        while env.now < horizon_ns:
            yield env.timeout(sample_ns)
            counters = switch.counters()
            rates = [s.qp_rates[1].current_rate for s in senders
                     if 1 in s.qp_rates]
            trajectory.append({
                "t_ns": env.now,
                "queue_bytes": max(p.queued_bytes for _, p in ports),
                "tail_drops": counters["tail_drops"],
                "ecn_marks": counters["ecn_marks"],
                "goodput_bytes": sum(goodput),
                "sum_rate_gbps": sum(rates) * 8.0,
            })

    env.process(monitor(), name="incast-monitor")
    env.run(until=horizon_ns)

    total = sum(goodput)
    jain = (total * total / (nsenders * sum(g * g for g in goodput))
            if total else 0.0)
    counters = switch.counters()
    return {
        "goodput_bytes": total,
        "goodput_gbps": total * 8.0 / horizon_ns,
        "per_flow_bytes": list(goodput),
        "jain_fairness": jain,
        "tail_drops": counters["tail_drops"],
        "ecn_marks": counters["ecn_marks"],
        "cnps_received": sum(s.stats["cnps_received"] for s in senders),
        "dead_flows": sum(1 for g in goodput if g == 0),
        "trajectory": trajectory,
    }


def bench_net_incast(quick: bool) -> Dict[str, Any]:
    """N-to-1 incast with and without DCQCN: the collapse-avoidance gate.

    DCQCN-off is the collapse point; DCQCN-on must hold at least
    ``NET_COLLAPSE_RATIO_BOUND`` times its goodput with Jain fairness
    above ``NET_FAIRNESS_BOUND``.  Both trajectories (queue depth,
    drops, marks, aggregate rate over time) land in ``BENCH_NET.json``.
    """
    nsenders = 8 if quick else 16
    horizon_ns = 800_000.0 if quick else 2_000_000.0
    dcqcn_params = dict(
        min_rate=0.25,
        alpha_update_ns=5_000.0,
        rate_increase_ns=20_000.0,
        additive_increase=0.1,
        hyper_increase=0.5,
        cnp_interval_ns=10_000.0,
        initial_rate=CMAC_BANDWIDTH / 8.0,
    )
    t0 = time.perf_counter()
    off = _run_incast(nsenders, DcqcnConfig(enabled=False), horizon_ns)
    on = _run_incast(
        nsenders, DcqcnConfig(enabled=True, **dcqcn_params), horizon_ns
    )
    wall = time.perf_counter() - t0
    ratio = on["goodput_bytes"] / max(off["goodput_bytes"], 1)
    assert ratio >= NET_COLLAPSE_RATIO_BOUND, (
        f"DCQCN must avoid the incast collapse: on/off goodput ratio "
        f"{ratio:.2f} below the bound {NET_COLLAPSE_RATIO_BOUND}"
    )
    assert on["jain_fairness"] >= NET_FAIRNESS_BOUND, (
        f"DCQCN-on fairness {on['jain_fairness']:.3f} below the bound "
        f"{NET_FAIRNESS_BOUND}"
    )
    net_out = os.path.abspath(BENCH_NET_OUT)
    with open(net_out, "w") as fh:
        json.dump({
            "schema_version": 1,
            "suite": "net_incast",
            "quick": quick,
            "senders": nsenders,
            "horizon_ns": horizon_ns,
            "dcqcn_params": dcqcn_params,
            "collapse_ratio": ratio,
            "runs": {"dcqcn_off": off, "dcqcn_on": on},
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
    detail = {
        "senders": nsenders,
        "horizon_ns": horizon_ns,
        "collapse_ratio": ratio,
        "collapse_ratio_bound": NET_COLLAPSE_RATIO_BOUND,
        "jain_on": on["jain_fairness"],
        "jain_off": off["jain_fairness"],
        "jain_bound": NET_FAIRNESS_BOUND,
        "goodput_on_gbps": on["goodput_gbps"],
        "goodput_off_gbps": off["goodput_gbps"],
        "tail_drops_on": on["tail_drops"],
        "tail_drops_off": off["tail_drops"],
        "trajectory_file": net_out,
    }
    return _workload(
        "net_incast",
        throughput_gbps=on["goodput_gbps"],
        sim_time_ns=2 * horizon_ns,
        wall_time_s=wall,
        detail=detail,
    )


WORKLOADS = [
    bench_hbm_scaling,
    bench_rdma_msgsize,
    bench_multitenant_aes,
    bench_scheduler_churn,
    bench_engine_events,
    bench_ring_submit,
    bench_net_incast,
]


# ----------------------------------------------------------- suite + schema


def run_suite(quick: bool = False) -> Dict[str, Any]:
    t0 = time.perf_counter()
    workloads: List[Dict[str, Any]] = []
    for bench in WORKLOADS:
        print(f"[perf] running {bench.__name__} ...", flush=True)
        workloads.append(bench(quick))
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": "perf_harness",
        "quick": quick,
        "total_wall_time_s": time.perf_counter() - t0,
        "workloads": workloads,
    }


def validate_results(results: Dict[str, Any]) -> List[str]:
    """Pure-python schema check (no external deps); returns problems."""
    errors: List[str] = []

    def expect(cond, msg):
        if not cond:
            errors.append(msg)

    expect(isinstance(results, dict), "top level must be an object")
    if not isinstance(results, dict):
        return errors
    expect(results.get("schema_version") == SCHEMA_VERSION,
           f"schema_version must be {SCHEMA_VERSION}")
    expect(results.get("suite") == "perf_harness", "suite must be 'perf_harness'")
    expect(isinstance(results.get("quick"), bool), "quick must be a bool")
    expect(isinstance(results.get("total_wall_time_s"), (int, float)),
           "total_wall_time_s must be a number")
    workloads = results.get("workloads")
    expect(isinstance(workloads, list) and len(workloads) >= 4,
           "workloads must be a list with >= 4 entries")
    for i, wl in enumerate(workloads or []):
        where = f"workloads[{i}]"
        if not isinstance(wl, dict):
            errors.append(f"{where} must be an object")
            continue
        expect(isinstance(wl.get("name"), str) and wl["name"],
               f"{where}.name must be a non-empty string")
        for key in ("throughput_gbps", "ops_per_s"):
            value = wl.get(key)
            expect(value is None or (isinstance(value, (int, float)) and value >= 0),
                   f"{where}.{key} must be null or a non-negative number")
        expect(wl.get("throughput_gbps") is not None or wl.get("ops_per_s") is not None,
               f"{where} needs throughput_gbps or ops_per_s")
        latency = wl.get("latency_ns")
        if latency is not None:
            expect(isinstance(latency, dict)
                   and {"p50", "p99", "mean"} <= set(latency)
                   and all(isinstance(latency[k], (int, float)) for k in
                           ("p50", "p99", "mean")),
                   f"{where}.latency_ns needs numeric p50/p99/mean")
        for key in ("sim_time_ns", "wall_time_s"):
            expect(isinstance(wl.get(key), (int, float)) and wl[key] >= 0,
                   f"{where}.{key} must be a non-negative number")
        expect(isinstance(wl.get("detail"), dict), f"{where}.detail must be an object")
        if wl.get("name") == "scheduler_churn" and isinstance(wl.get("detail"), dict):
            cache = wl["detail"].get("bitstream_cache")
            expect(isinstance(cache, dict),
                   f"{where}.detail.bitstream_cache must be an object")
            if isinstance(cache, dict):
                expect(isinstance(cache.get("speedup"), (int, float))
                       and cache["speedup"] > 1.0,
                       f"{where} bitstream cache speedup must exceed 1.0")
            epr = wl["detail"].get("events_per_request")
            expect(isinstance(epr, (int, float)) and epr > 0,
                   f"{where}.detail.events_per_request must be a positive number")
            if isinstance(epr, (int, float)):
                expect(epr <= SCHED_EVENTS_PER_REQUEST_BOUND,
                       f"{where} events_per_request {epr} exceeds the "
                       f"edge-trigger bound {SCHED_EVENTS_PER_REQUEST_BOUND}")
        if wl.get("name") == "ring_submit" and isinstance(wl.get("detail"), dict):
            detail = wl["detail"]
            for key in ("ioctl_events_per_request", "ring_events_per_request"):
                expect(isinstance(detail.get(key), (int, float))
                       and detail[key] > 0,
                       f"{where}.detail.{key} must be a positive number")
            ratio = detail.get("events_ratio")
            expect(isinstance(ratio, (int, float)) and ratio > 0,
                   f"{where}.detail.events_ratio must be a positive number")
            if isinstance(ratio, (int, float)):
                expect(ratio <= RING_EVENTS_RATIO_BOUND,
                       f"{where} ring/ioctl events ratio {ratio} exceeds the "
                       f"batched-submission bound {RING_EVENTS_RATIO_BOUND}")
            sratio = detail.get("submit_events_ratio")
            expect(isinstance(sratio, (int, float)) and sratio > 0,
                   f"{where}.detail.submit_events_ratio must be a positive number")
            if isinstance(sratio, (int, float)):
                expect(sratio <= RING_SUBMIT_EVENTS_RATIO_BOUND,
                       f"{where} submit-path events ratio {sratio} exceeds "
                       f"the doorbell bound {RING_SUBMIT_EVENTS_RATIO_BOUND}")
            dpd = detail.get("descriptors_per_doorbell")
            expect(isinstance(dpd, (int, float)) and dpd > 1.0,
                   f"{where}.detail.descriptors_per_doorbell must exceed 1.0 "
                   f"(batched doorbells)")
        if wl.get("name") == "engine_events" and isinstance(wl.get("detail"), dict):
            for label, arm in (("detail", wl["detail"]),
                               ("detail.handoff", wl["detail"].get("handoff"))):
                if not isinstance(arm, dict):
                    errors.append(f"{where}.{label} must be an object")
                    continue
                for key in ("events_per_sec", "events_processed"):
                    expect(isinstance(arm.get(key), (int, float)) and arm[key] > 0,
                           f"{where}.{label}.{key} must be a positive number")
        if wl.get("name") == "net_incast" and isinstance(wl.get("detail"), dict):
            detail = wl["detail"]
            ratio = detail.get("collapse_ratio")
            expect(isinstance(ratio, (int, float)) and ratio > 0,
                   f"{where}.detail.collapse_ratio must be a positive number")
            if isinstance(ratio, (int, float)):
                expect(ratio >= NET_COLLAPSE_RATIO_BOUND,
                       f"{where} DCQCN on/off goodput ratio {ratio} below "
                       f"the collapse-avoidance bound "
                       f"{NET_COLLAPSE_RATIO_BOUND}")
            jain = detail.get("jain_on")
            expect(isinstance(jain, (int, float)) and 0 < jain <= 1.0,
                   f"{where}.detail.jain_on must be in (0, 1]")
            if isinstance(jain, (int, float)):
                expect(jain >= NET_FAIRNESS_BOUND,
                       f"{where} DCQCN-on Jain fairness {jain} below the "
                       f"bound {NET_FAIRNESS_BOUND}")
    names = [wl.get("name") for wl in workloads or [] if isinstance(wl, dict)]
    expect(len(names) == len(set(names)), "workload names must be unique")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="shrink workloads for CI smoke runs")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="output JSON path (default: repo-root BENCH_PR2.json)")
    parser.add_argument("--validate", metavar="FILE",
                        help="validate an existing result file and exit")
    args = parser.parse_args(argv)

    if args.validate:
        with open(args.validate) as fh:
            problems = validate_results(json.load(fh))
        for problem in problems:
            print(f"[perf] schema error: {problem}", file=sys.stderr)
        print(f"[perf] {args.validate}: "
              + ("INVALID" if problems else "valid"))
        return 1 if problems else 0

    results = run_suite(quick=args.quick)
    problems = validate_results(results)
    if problems:
        for problem in problems:
            print(f"[perf] schema error: {problem}", file=sys.stderr)
        return 1
    out = os.path.abspath(args.out)
    with open(out, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for wl in results["workloads"]:
        rate = (f"{wl['throughput_gbps']:.2f} GB/s" if wl["throughput_gbps"]
                is not None else f"{wl['ops_per_s']:.1f} ops/s")
        print(f"[perf] {wl['name']:<16} {rate:>14}  wall {wl['wall_time_s']:.2f}s")
    print(f"[perf] wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
