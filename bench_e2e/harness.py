"""One repeat of one workload, and the end-to-end numbers it yields.

A repeat is: build a fresh platform (timed as set-up) -> warm-up
requests, untimed -> ``gc.collect()`` -> the timed phase -> output
checks.  *Simulated* numbers (events, simulated ns, GB/s, fairness) are
exact for a seed; *host* numbers are CPU seconds from
``time.process_time()``, kept twice: raw, and brought to the box's
reference speed by the loop run beside each sample (``hostclock``) — per
slice of the timed phase (``Platform.mark``) and per build.  A repeat's
host time is its total over the phase; ``run.py`` takes the median over
repeats.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sim import LatencyStats

from hostclock import SETUP_CLOCKS, at_reference_speed
from workloads import Plan, Platform, Workload

__all__ = [
    "Repeat", "run_repeat", "setup_only", "high_percentile", "quantile", "jain",
]


def quantile(values, q: float) -> float:
    """Linear interpolation between closest ranks (0 for no samples)."""
    return LatencyStats(samples=list(values)).percentile(100 * q)


def high_percentile(count: int) -> int:
    """The tail percentile a sample supports: p99 from 1 000 samples up,
    else the highest whole percentile with ten samples beyond it."""
    if count >= 1_000:
        return 99
    return max(50, int(100 * (1 - 10 / count))) if count > 20 else 50


def jain(values: List[float]) -> float:
    """Jain's fairness index; 1.0 for a single client."""
    total = sum(values)
    squares = sum(v * v for v in values)
    return total * total / (len(values) * squares) if squares else 0.0


@dataclass
class Repeat:
    """What one repeat measured."""

    #: CPU seconds of the build: raw, and at reference speed.
    setup_raw_s: float
    setup_s: float
    #: CPU seconds of the timed phase, the benchmark's own share (output
    #: checks, calibration loops) taken out: raw, and at reference speed
    #: (each slice against the loops run on either side of it, summed).
    cpu_raw_s: float
    cpu_s: float
    events: int
    sim_ns: float
    completed: int
    attempted: int
    failed: int
    sim: Dict[str, float]
    tail_percentile: int
    reference_gbps: Optional[float]
    #: Copied out of the platform, which is dropped with the repeat (a
    #: built card holds ~80 MB; keeping one per repeat would make peak
    #: memory a function of the repeat count).
    records: list
    batches: list
    counters_before: Dict[str, float]
    counters_after: Dict[str, float]
    #: Absolute simulated time and ``perf_counter_ns`` at the phase edges.
    phase: Tuple[float, float, int, int] = (0.0, 0.0, 0, 0)

    @property
    def host_ns_per_event(self) -> float:
        return self.cpu_s / self.events * 1e9

    @property
    def host_us_per_req(self) -> float:
        return self.cpu_s / self.completed * 1e6

    @property
    def host_raw_us_per_req(self) -> float:
        return self.cpu_raw_s / self.completed * 1e6


def _sim_metrics(p: Platform, events: int, sim_ns: float):
    records = p.records
    latencies = [end - start for _c, _k, _n, start, end in records]
    tail = high_percentile(len(latencies))
    by_client: Dict[int, List[float]] = {}
    for client, _kind, nbytes, start, end in records:
        span = by_client.setdefault(client, [0.0, start, end])
        span[0] += nbytes
        span[2] = end
    # Goodput of each client over its own active time: with a fixed
    # request count per client, completed bytes alone are equal by
    # construction and would hide an unfair arbiter.
    rates = [b / (end - start) for b, start, end in by_client.values() if end > start]
    completed = len(records)
    return {
        "events_per_req": events / completed,
        "sim_p50_ns": quantile(latencies, 0.50),
        "sim_p99_ns": quantile(latencies, tail / 100),
        "sim_gbps": sum(n for _c, _k, n, _s, _e in records) / sim_ns,
        "sim_fairness_jain": jain(rates),
        "fail_share": p.failed / p.attempted,
    }, tail


def run_repeat(workload: Workload, plan: Plan, tracer=None, read_counters=None) -> Repeat:
    """Build, warm up, measure and check one repeat.

    With a ``tracer`` the class-level shims are live from before the
    build (so wire attachments made during set-up are wrapped) and the
    ledger is reset at the start of the timed phase.
    """
    if tracer is not None:
        tracer.install()
    try:
        p, setup_raw_s, setup_s = _timed_build(workload, plan)
        if tracer is not None:
            tracer.attach(p.env)
            p.trace_batches = True
            p.sliced = False
        workload.warm_up(p, plan)
        p.records.clear()
        p.batches.clear()
        p.attempted = p.failed = 0
        gc.collect()
        before = read_counters(p) if read_counters else {}
        events0, sim0 = p.env.events_processed, p.env.now
        p.start_segments()
        if tracer is not None:
            tracer.start_phase()
        host0 = time.perf_counter_ns()
        workload.drive(p, plan)
        host1 = time.perf_counter_ns()
        if tracer is not None:
            tracer.end_phase()
        p.mark(final=True)
        events = p.env.events_processed - events0
        sim_ns = p.env.now - sim0
        after = read_counters(p) if read_counters else {}
    finally:
        if tracer is not None:
            tracer.uninstall()
    reference = workload.reference_gbps(p)
    workload.verify(p, plan)
    sim, tail = _sim_metrics(p, events, sim_ns)
    if reference is None:
        reference = sim["sim_gbps"]
    return Repeat(
        setup_raw_s=setup_raw_s, setup_s=setup_s,
        cpu_raw_s=sum(cpu for _e, cpu, _loop in p.segments),
        cpu_s=sum(at_reference_speed(cpu, loop) for _e, cpu, loop in p.segments),
        events=events, sim_ns=sim_ns,
        completed=len(p.records), attempted=p.attempted, failed=p.failed,
        sim=sim, tail_percentile=tail,
        reference_gbps=reference, records=p.records, batches=p.batches,
        counters_before=before, counters_after=after,
        phase=(sim0, sim0 + sim_ns, host0, host1),
    )


def _timed_build(workload: Workload, plan: Plan) -> Tuple[Platform, float, float]:
    """A fresh platform and the CPU seconds its build took: raw, and at
    reference speed by the workload's set-up clock run on either side."""
    calibrate, reference_s = SETUP_CLOCKS[workload.setup_clock]
    gc.collect()
    before = calibrate(2)
    begin = time.process_time()
    p = workload.build(plan)
    cpu_s = time.process_time() - begin
    return p, cpu_s, at_reference_speed(cpu_s, (before + calibrate(2)) / 2, reference_s)


def setup_only(workload: Workload, plan: Plan) -> Tuple[float, float]:
    """(raw, at reference speed) CPU seconds of one platform build that
    is then thrown away."""
    return _timed_build(workload, plan)[1:]
