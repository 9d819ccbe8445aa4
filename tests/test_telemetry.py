"""Tests for repro.telemetry: metrics, spans, profiler and collection."""

import pytest

from repro import CThread, Environment, LocalSg, Oper, SgEntry
from repro.apps import PassThroughApp
from repro.driver import card_report
from repro.sim import Tracer
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SimProfiler,
    SpanRecorder,
    collect_card_metrics,
)

from .platforms import card


# ----------------------------------------------------------------- metrics


def test_counter_monotonic():
    c = Counter("x")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_tracks_high_water():
    g = Gauge("depth")
    g.set(3)
    g.set(10)
    g.set(2)
    assert g.value == 2
    assert g.high_water == 10
    g.add(5)
    assert g.value == 7


def test_histogram_buckets_and_percentiles():
    h = Histogram("lat", bounds=[10, 100, 1000])
    for v in (1, 5, 50, 500, 5000):
        h.observe(v)
    assert h.count == 5
    assert h.buckets == [2, 1, 1, 1]  # <=10, <=100, <=1000, overflow
    assert h.mean == pytest.approx(1111.2)
    assert h.min == 1 and h.max == 5000
    assert 0 < h.percentile(50) <= 100
    assert h.percentile(100) == 5000
    assert Histogram("e", [1]).percentile(50) == 0.0  # empty


def test_histogram_merge_requires_same_bounds():
    a = Histogram("a", [10, 100])
    b = Histogram("b", [10, 100])
    for v in (5, 50):
        a.observe(v)
    b.observe(500)
    a.merge(b)
    assert a.count == 3
    assert a.buckets == [1, 1, 1]
    assert a.max == 500
    with pytest.raises(ValueError):
        a.merge(Histogram("c", [1, 2]))


def test_histogram_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Histogram("x", [])
    with pytest.raises(ValueError):
        Histogram("x", [10, 10])
    with pytest.raises(ValueError):
        Histogram("x", [10, 5])


def test_registry_get_or_create_and_type_guard():
    reg = MetricsRegistry()
    assert reg.counter("net.tx") is reg.counter("net.tx")
    reg.counter("net.tx").inc(3)
    assert reg.counter("net.tx").value == 3
    with pytest.raises(TypeError):
        reg.gauge("net.tx")
    assert "net.tx" in reg
    assert len(reg) == 1


def test_registry_snapshot_nests_dot_paths():
    reg = MetricsRegistry()
    reg.counter("pcie.h2c_bytes").inc(64)
    reg.counter("net.qp.3.ops").inc(2)
    reg.gauge("sim.queue").set(7)
    snap = reg.snapshot()
    assert snap["pcie"]["h2c_bytes"] == 64
    assert snap["net"]["qp"]["3"]["ops"] == 2
    assert snap["sim"]["queue"] == {"value": 7, "high_water": 7}


def test_registry_merge_is_additive_and_isolated():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("merge.c").inc(1)
    b.counter("merge.c").inc(2)
    b.counter("merge.only_b").inc(5)
    b.histogram("merge.h", [10]).observe(3)
    a.merge(b)
    assert a.counter("merge.c").value == 3
    assert a.counter("merge.only_b").value == 5
    assert a.histogram("merge.h", [10]).count == 1
    # Merging copied, not aliased: mutating the merged-into registry must
    # not write through into the source.
    a.counter("merge.only_b").inc(100)
    assert b.counter("merge.only_b").value == 5


# ------------------------------------------------------------------- spans


def test_spans_parent_child_self_time():
    env = Environment()
    recorder = SpanRecorder(env)

    def work():
        outer = recorder.begin("driver", "reconfigure")
        yield env.timeout(10)
        inner = recorder.begin("icap", "program", parent=outer)
        yield env.timeout(30)
        recorder.finish(inner)
        yield env.timeout(5)
        recorder.finish(outer)

    env.run(env.process(work()))
    by = recorder.by_component()
    assert by["icap"]["total_ns"] == 30
    assert by["driver"]["total_ns"] == 45
    assert by["driver"]["self_ns"] == 15  # 45 minus the ICAP child
    assert "driver" in recorder.format()


def test_spans_emit_to_tracer_ring_buffer():
    env = Environment()
    tracer = Tracer(max_records=2)
    recorder = SpanRecorder(env, tracer=tracer)

    def work():
        for i in range(5):
            span = recorder.begin("daemon", f"req{i}")
            yield env.timeout(1)
            recorder.finish(span)

    env.run(env.process(work()))
    assert len(tracer.records) == 2  # ring buffer bounded the span stream
    assert tracer.dropped == 3
    assert all(r.kind == "span" for r in tracer.records)


def test_span_double_finish_rejected():
    env = Environment()
    recorder = SpanRecorder(env)
    span = recorder.begin("x", "y")
    recorder.finish(span)
    with pytest.raises(ValueError):
        recorder.finish(span)


# ------------------------------------------------------------ engine counters


def test_engine_counts_events_and_queue_high_water():
    env = Environment()

    def ticker():
        for _ in range(10):
            yield env.timeout(1)

    env.process(ticker())
    env.run()
    assert env.events_processed > 10
    assert env.queue_high_water >= 1


# ---------------------------------------------------------------- profiler


def test_profiler_attributes_named_processes():
    env = Environment()

    def fast():
        for _ in range(50):
            yield env.timeout(1)

    def slow():
        for _ in range(50):
            yield env.timeout(2)

    env.process(fast(), name="fast-0")
    env.process(slow(), name="slow-0")
    profiler = SimProfiler().attach(env)
    env.run()
    profiler.detach()
    assert env.profiler is None
    rows = {r["component"]: r for r in profiler.report()}
    # Instance suffixes are folded; both processes show up with their
    # events and a wall-time measurement.
    assert rows["fast"]["events"] >= 50
    assert rows["slow"]["events"] >= 50
    assert profiler.total_events == sum(r["events"] for r in profiler.report())
    assert profiler.total_wall_s >= 0.0
    assert "component" in profiler.format()


def test_profiler_does_not_change_results():
    def run(profiled):
        env = Environment()
        out = []

        def worker():
            for i in range(20):
                yield env.timeout(3)
                out.append((env.now, i))

        env.process(worker(), name="w")
        prof = SimProfiler().attach(env) if profiled else None
        env.run()
        if prof:
            prof.detach()
        return out

    assert run(False) == run(True)


def test_profiler_single_attachment():
    env = Environment()
    SimProfiler().attach(env)
    with pytest.raises(RuntimeError):
        SimProfiler().attach(env)


# --------------------------------------------------------------- collection


def run_some_traffic():
    env, shell, driver = card(PassThroughApp())
    ct = CThread(driver, 0, pid=11)

    def main():
        src = yield from ct.get_mem(1 << 16)
        dst = yield from ct.get_mem(1 << 16)
        sg = SgEntry(local=LocalSg(src_addr=src.vaddr, src_len=1 << 16,
                                   dst_addr=dst.vaddr, dst_len=1 << 16))
        yield from ct.invoke(Oper.LOCAL_TRANSFER, sg)

    env.run(env.process(main()))
    env.run()
    return driver


def test_collect_card_metrics_domains():
    driver = run_some_traffic()
    snap = collect_card_metrics(driver).snapshot()
    assert snap["sim"]["events_processed"] > 0
    assert snap["sim"]["event_queue"]["high_water"] >= 1
    assert snap["pcie"]["h2c_bytes"] == 1 << 16
    assert snap["pcie"]["h2c_transfers"] >= 1
    assert snap["pcie"]["h2c_in_flight"]["high_water"] >= 1
    assert snap["mem"]["tlb_hits"] > 0
    assert snap["mem"]["tlb_walks"] >= 0


def test_card_report_has_telemetry_section():
    driver = run_some_traffic()
    report = card_report(driver)
    telemetry = report["telemetry"]
    assert telemetry["pcie"]["h2c_bytes"] == 1 << 16
    assert "mem" in telemetry and "sim" in telemetry


def test_collect_surfaces_stuck_at_drain_gauge():
    from repro.analysis import SimSanitizer

    driver = run_some_traffic()
    env = driver.env
    # Detached, the gauge is absent (it is only knowable while
    # processes are tracked).
    env.sanitizer = None
    assert "stuck_at_drain" not in collect_card_metrics(driver).snapshot()["sim"]
    # A fresh sanitizer tracks processes from here on, so the shell's
    # daemon loops (parked on their feed stores) stay out of the count.
    env.sanitizer = SimSanitizer()

    def orphan():
        yield env.event()  # no producer: parks forever

    env.process(orphan(), name="orphan")
    env.run()
    snap = collect_card_metrics(driver).snapshot()
    assert snap["sim"]["stuck_at_drain"]["value"] == 1


def test_collect_includes_rdma_qp_counters():
    from repro.cluster import FpgaCluster
    from repro.core import ServiceConfig
    from repro import RdmaSg

    env = Environment()
    cluster = FpgaCluster(env, 2, services=ServiceConfig(en_memory=True, en_rdma=True))
    thread_a, thread_b = cluster.connect_qps(0, 1, pid_a=1, pid_b=2, qpn_a=1, qpn_b=2)
    payload = bytes(range(256))

    def main():
        src = yield from thread_a.get_mem(len(payload))
        dst = yield from thread_b.get_mem(len(payload))
        thread_a.write_buffer(src.vaddr, payload)
        yield from thread_a.invoke(
            Oper.REMOTE_RDMA_WRITE,
            SgEntry(rdma=RdmaSg(local_addr=src.vaddr, remote_addr=dst.vaddr,
                                len=len(payload), qpn=1)),
        )

    env.run(env.process(main()))
    snap = collect_card_metrics(cluster[0].driver).snapshot()
    assert snap["net"]["rdma_tx_packets"] > 0
    assert snap["net"]["qp"]["1"]["ops"] == 1
    assert snap["net"]["qp"]["1"]["bytes"] == len(payload)

    from repro.telemetry import collect_cluster_metrics

    fabric = collect_cluster_metrics(cluster).snapshot()
    assert fabric["net"]["switch_forwarded"] > 0
    # Node registries merged additively: both stacks' rx packets counted.
    assert fabric["net"]["rdma_rx_packets"] >= snap["net"]["rdma_rx_packets"]
