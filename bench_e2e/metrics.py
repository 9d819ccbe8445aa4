"""What ``bench_e2e`` measures: the one table every other file reads.

``BENCHMARK.json`` at the repo root is ``manifest()`` written out (its
shape is fixed by the driver: name / unit / better / bound and nothing
else).  What that shape has no room for lives here: whether a number is
*simulated* (what the modelled card would take; exact for a seed) or
*host* (what the simulator costs to run; CPU time at the box's reference
speed, see ``hostclock``), which layer owns a metric, and which
end-to-end metric it is expected to move on which workload.
"""

from __future__ import annotations

from typing import Dict, List

import layers

__all__ = ["WORKLOADS", "END_TO_END", "PER_LAYER", "RUN_SECONDS", "manifest", "units"]

RUN_SECONDS = 10

#: name, why (one line; goes into BENCHMARK.json), loop, clients, sizes.
WORKLOADS = [
    {
        "name": "host_small",
        "why": "one packet per ring request, so per-request overhead (api, ring, doorbell, "
               "completion demux, mover relays) is nearly all the cost; HBM and net stay idle",
        "loop": "closed", "clients": 1,
        "sizes": "12 032 ring ops of 1.9-2 KiB in 64-deep post_many batches on a 64-slot ring "
                 "over pinned MRs; TRANSFER:READ:WRITE = 2:1:1 per batch, order from the seed",
    },
    {
        "name": "host_bulk",
        "why": "four tenants contend for the host link with 128-packet invokes: per-packet "
               "cost, credits and the round-robin arbiter under load (Fig 8's shape)",
        "loop": "closed", "clients": 4,
        "sizes": "4 vFPGAs x 30 invoke(LOCAL_TRANSFER) of 240-256 KiB, concurrent",
    },
    {
        "name": "card_hbm",
        "why": "card-resident buffers over 8 card streams: the only workload where HBM and "
               "the MMU translation stations carry the load (Fig 7a); pcie and net idle",
        "loop": "closed", "clients": 1,
        "sizes": "16 rounds of 8 concurrent 240-256 KiB card-stream transfers (128 requests)",
    },
    {
        "name": "rdma_mix",
        "why": "uncongested two-node RDMA WRITE and READ verbs: rdma, cmac, switch and both "
               "nodes' MMUs on the path, reads beside writes so a one-sided gain shows",
        "loop": "closed", "clients": 1,
        "sizes": "608 verbs alternating WRITE/READ, 4 KiB : 64 KiB : 256 KiB = 3:3:2 per verb, each "
                 "up to 1/16 shorter",
    },
    {
        "name": "incast_dcqcn",
        "why": "16-to-1 incast on bare RDMA stacks with DCQCN on: switch queueing, pacing, "
               "CNPs and retransmit timers with api, driver and pcie bypassed",
        "loop": "closed", "clients": 16,
        "sizes": "64 KiB writes, 1 KiB MTU, 32 KiB egress buffer, 2 ms simulated horizon",
    },
    {
        "name": "svm_thrash",
        "why": "4 KiB pages at 16x TLB reach with a quarter of the sources faulted back from "
               "card memory: the MMU's miss, walk and page-migration paths, not its hit path",
        "loop": "closed", "clients": 1,
        "sizes": "6 000 invoke(LOCAL_TRANSFER) of 3.8-4 KiB on seeded pages of two 512-page "
                 "buffers, 64-entry 4-way TLB, 25 % preceded by LOCAL_OFFLOAD",
    },
]

#: ``manifest`` False: reported by ``--all`` and ``--compare`` but not part
#: of BENCHMARK.json — ``fail_share`` is 0 on every good run (the driver
#: takes failures from ``failed``/``attempted``) and ``ref_err_pct`` does
#: not exist for the three workloads without a reference.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "kind": "host", "better": "lower", "bound": 0.15,
     "meaning": "platform build to first request ready: CPU time at reference speed; median "
                "over >= 15 builds"},
    {"name": "host_us_per_req", "unit": "us", "kind": "host", "better": "lower", "bound": 0.10,
     "meaning": "timed-phase CPU time at reference speed / requests completed; median over "
                "repeats"},
    {"name": "host_ns_per_event", "unit": "ns", "kind": "host", "better": "lower", "bound": 0.10,
     "meaning": "timed-phase CPU time at reference speed / engine events dispatched; median "
                "over repeats"},
    {"name": "events_per_req", "unit": "events", "kind": "sim", "better": "lower", "bound": 0.01,
     "meaning": "engine events dispatched / requests completed"},
    {"name": "sim_p50_ns", "unit": "ns", "kind": "sim", "better": "lower", "bound": 0.01,
     "meaning": "median simulated submit-to-completion latency of a request"},
    {"name": "sim_p99_ns", "unit": "ns", "kind": "sim", "better": "lower", "bound": 0.01,
     "meaning": "p99 from 1 000 samples, else the highest percentile with ten samples beyond"},
    {"name": "sim_gbps", "unit": "GB/s", "kind": "sim", "better": "higher", "bound": 0.01,
     "meaning": "payload bytes completed / simulated time of the timed phase"},
    {"name": "sim_fairness_jain", "unit": "ratio", "kind": "sim", "better": "higher",
     "bound": 0.01, "meaning": "Jain index over per-client goodput (1 for a single client)"},
    {"name": "peak_rss_mb", "unit": "MiB", "kind": "host", "better": "lower", "bound": 0.10,
     "meaning": "ru_maxrss of the workload's process"},
    {"name": "fail_share", "unit": "ratio", "kind": "sim", "better": "lower", "bound": 0.0,
     "manifest": False,
     "meaning": "requests that raised, timed out, died or failed the byte compare / attempted"},
    {"name": "ref_err_pct", "unit": "%", "kind": "sim", "better": "lower", "bound_points": 1.0,
     "manifest": False,
     "meaning": "|throughput - reference| / reference, see references.json"},
]

_UNIFORM = [
    ("calls_per_req", "count", "calls into the layer's public entry points"),
    ("host_us_per_req", "us", "self CPU time: its spans minus what their children cover"),
    ("sim_ns_per_req", "ns", "simulated time inside the layer's outermost calls"),
    ("events_per_req", "events", "engine events that resumed a call of this layer"),
]

#: layer -> what it is expected to move, on which workload.
MOVES = {
    "api": "events_per_req, host_us_per_req -> host_small; untouched on incast_dcqcn",
    "driver": "ring/demux counts -> events_per_req on host_small and (ioctl) host_bulk; "
              "faults, walks, migrated bytes -> sim_p99_ns, host_us_per_req on svm_thrash",
    "pcie": "sim_gbps -> host_bulk (link-bound); per-transfer events -> events_per_req on "
            "host_bulk; idle on card_hbm and incast_dcqcn",
    "mem.mmu": "hit path -> a small share of host_us_per_req on every local workload; miss "
               "path -> svm_thrash; translation-station wait -> card_hbm sim_gbps (the taper)",
    "mem.hbm": "sim_gbps, host_us_per_req -> card_hbm; untouched on host_small, host_bulk, "
               "incast_dcqcn",
    "core": "relay, credit and per-beat events -> events_per_req, host_us_per_req on "
            "host_small (per request) and host_bulk (x 128 packets); stalls, grants -> "
            "sim_fairness_jain, sim_p99_ns on host_bulk",
    "apps": "host_us_per_req on the four local workloads; should stay small and flat",
    "net.rdma": "per-packet events -> events_per_req, host_us_per_req on rdma_mix; "
                "retransmits, CNPs, QP errors -> sim_gbps, sim_fairness_jain on incast_dcqcn",
    "net.cmac": "sim_p50_ns -> rdma_mix; pause frames -> sim_gbps on incast_dcqcn",
    "net.switch": "host_us_per_req, sim_gbps, sim_p99_ns -> incast_dcqcn; a pass-through on "
                  "rdma_mix (no drops, no marks)",
    "sim": "host_ns_per_event -> host_us_per_req on every workload in proportion; an "
           "engine-only change must leave events_per_req and every sim_* metric identical",
    "bench": "none: these say how far to trust the rest",
}

_EXTRA = [
    ("api.doorbells_per_req", "count", "lower"), ("api.ring_full_stalls", "count", "lower"),
    ("driver.descriptors_per_doorbell", "count", "higher"),
    ("driver.cq_events_per_req", "events", "lower"),
    ("driver.page_faults", "count", "lower"), ("driver.tlb_walks", "count", "lower"),
    ("driver.migrated_bytes", "bytes", "lower"),
    ("pcie.h2c_bytes", "bytes", "lower"), ("pcie.c2h_bytes", "bytes", "lower"),
    ("pcie.transfers_per_req", "count", "lower"), ("pcie.link_util", "ratio", "higher"),
    ("pcie.in_flight_high_water", "count", "lower"),
    ("mem.mmu.tlb_hits", "count", "higher"), ("mem.mmu.tlb_misses", "count", "lower"),
    ("mem.mmu.tlb_hit_ratio", "ratio", "higher"), ("mem.mmu.tlb_evictions", "count", "lower"),
    ("mem.mmu.pinned", "count", "higher"),
    ("mem.hbm.bytes", "bytes", "lower"), ("mem.hbm.channel_accesses", "count", "lower"),
    ("mem.hbm.busiest_channel_share", "ratio", "lower"),
    ("core.packets_per_req", "count", "lower"),
    ("core.credit_acquires_per_req", "count", "lower"),
    ("core.credit_stalls", "count", "lower"), ("core.credit_stall_ratio", "ratio", "lower"),
    ("core.arbiter_grants", "count", "lower"),
    ("core.mover_events_per_req", "events", "lower"),
    ("apps.kernel_events_per_req", "events", "lower"),
    ("net.rdma.tx_packets", "count", "lower"), ("net.rdma.rx_packets", "count", "lower"),
    ("net.rdma.acks", "count", "lower"), ("net.rdma.naks", "count", "lower"),
    ("net.rdma.retransmissions", "count", "lower"),
    ("net.rdma.retransmit_ratio", "ratio", "lower"),
    ("net.rdma.cnps_received", "count", "lower"), ("net.rdma.qp_errors", "count", "lower"),
    ("net.rdma.write_sim_p50_ns", "ns", "lower"), ("net.rdma.read_sim_p50_ns", "ns", "lower"),
    ("net.cmac.tx_frames", "count", "lower"), ("net.cmac.tx_bytes", "bytes", "lower"),
    ("net.cmac.pause_frames_rx", "count", "lower"), ("net.cmac.wire_util", "ratio", "higher"),
    ("net.switch.forwarded", "count", "lower"), ("net.switch.tail_drops", "count", "lower"),
    ("net.switch.ecn_marks", "count", "lower"),
    ("net.switch.queue_high_water_bytes", "bytes", "lower"),
    ("net.switch.pause_frames_sent", "count", "lower"),
    ("net.switch.drop_ratio", "ratio", "lower"),
    ("sim.events", "events", "lower"), ("sim.queue_high_water", "count", "lower"),
    ("sim.no_callback_events_per_req", "events", "lower"),
    ("sim.dispatch_host_ms", "ms", "lower"), ("sim.layer_other_share", "ratio", "lower"),
    ("bench.events_per_req", "events", "lower"), ("bench.host_us_per_req", "us", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"), ("bench.repeat_iqr_pct", "%", "lower"),
]


def _layer_of(name: str) -> str:
    return next(
        layer for layer in sorted(layers.LAYERS + (layers.BENCH,), key=len, reverse=True)
        if name.startswith(layer + ".")
    )


PER_LAYER: List[dict] = [
    {"name": f"{layer}.{suffix}", "unit": unit, "better": "lower", "layer": layer,
     "meaning": meaning, "moves": MOVES[layer]}
    for layer in layers.LAYERS
    for suffix, unit, meaning in _UNIFORM
] + [
    {"name": name, "unit": unit, "better": better, "layer": _layer_of(name),
     "moves": MOVES[_layer_of(name)]}
    for name, unit, better in _EXTRA
]


def units() -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in END_TO_END + PER_LAYER}


def manifest() -> dict:
    """BENCHMARK.json, in exactly the shape the driver prescribes."""
    return {
        "command": ["python3", "bench_e2e/run.py"],
        "paths": ["bench_e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS],
        "end_to_end": [
            {key: m[key] for key in ("name", "unit", "better", "bound")}
            for m in END_TO_END if m.get("manifest", True)
        ],
        "per_layer": [{key: m[key] for key in ("name", "unit", "better")} for m in PER_LAYER],
    }
