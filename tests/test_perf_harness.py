"""Smoke test for benchmarks/perf_harness.py: quick suite + schema."""

import importlib.util
import json
import os
import sys

import pytest

HARNESS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "perf_harness.py",
)


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location("perf_harness", HARNESS)
    module = importlib.util.module_from_spec(spec)
    sys.modules["perf_harness"] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def quick_results(harness):
    return harness.run_suite(quick=True)


def test_quick_suite_has_all_valid_workloads(harness, quick_results):
    assert harness.validate_results(quick_results) == []
    names = [wl["name"] for wl in quick_results["workloads"]]
    assert names == [
        "hbm_scaling",
        "rdma_msgsize",
        "multitenant_aes",
        "scheduler_churn",
        "engine_events",
        "ring_submit",
        "net_incast",
    ]


def test_quick_suite_measures_real_work(harness, quick_results):
    by_name = {wl["name"]: wl for wl in quick_results["workloads"]}
    assert by_name["hbm_scaling"]["throughput_gbps"] > 0
    assert by_name["rdma_msgsize"]["latency_ns"]["p99"] >= \
        by_name["rdma_msgsize"]["latency_ns"]["p50"] > 0
    assert by_name["multitenant_aes"]["detail"]["fairness_min_over_max"] > 0
    churn = by_name["scheduler_churn"]
    assert churn["ops_per_s"] > 0
    assert churn["detail"]["reconfigurations"] >= 2
    assert churn["detail"]["reconfig_failures"] == 0
    # The simulator profiler contributed hot-path rows.
    assert churn["detail"]["profile"]
    assert {"component", "events", "wall_s"} <= set(churn["detail"]["profile"][0])
    # Edge-triggered loop: the whole burst coalesces into few wakeups,
    # and the per-request event overhead stays within the asserted bound.
    assert churn["detail"]["dispatches"] == churn["detail"]["requests"]
    assert churn["detail"]["wakeups"] <= churn["detail"]["dispatches"]
    assert 0 < churn["detail"]["events_per_request"] <= \
        harness.SCHED_EVENTS_PER_REQUEST_BOUND
    engine = by_name["engine_events"]
    assert engine["ops_per_s"] > 0
    assert engine["detail"]["events_per_sec"] > 0
    assert engine["detail"]["events_processed"] > 0
    handoff = engine["detail"]["handoff"]
    assert handoff["events_per_sec"] > 0
    # Every put and get is at least one dispatched event, and the clock
    # never moves: the arm is zero-delay hand-offs only.
    assert handoff["events_processed"] >= 2 * handoff["pairs"] * handoff["items_per_pair"]
    ring = by_name["ring_submit"]["detail"]
    # Batched doorbell submission: fewer total events per request than
    # the per-call ioctl, collapsed client wakeups, and > 1 descriptor
    # fetched per doorbell (with one forced full-ring stall).
    assert 0 < ring["events_ratio"] <= harness.RING_EVENTS_RATIO_BOUND
    assert 0 < ring["submit_events_ratio"] <= \
        harness.RING_SUBMIT_EVENTS_RATIO_BOUND
    assert ring["descriptors_per_doorbell"] > 1.0
    assert ring["full_stalls"] >= 1
    assert ring["batches"] == ring["doorbells"]
    incast = by_name["net_incast"]["detail"]
    # The collapse-avoidance gate: DCQCN-on beats DCQCN-off by the
    # validator-enforced ratio and converges to a fair allocation.
    assert incast["collapse_ratio"] >= harness.NET_COLLAPSE_RATIO_BOUND
    assert incast["jain_on"] >= harness.NET_FAIRNESS_BOUND
    assert incast["tail_drops_on"] < incast["tail_drops_off"]


def test_validator_rejects_malformed_results(harness, quick_results):
    broken = json.loads(json.dumps(quick_results))
    broken["workloads"] = broken["workloads"][:2]
    assert harness.validate_results(broken)
    broken = json.loads(json.dumps(quick_results))
    broken["workloads"][0]["throughput_gbps"] = "fast"
    assert harness.validate_results(broken)
    broken = json.loads(json.dumps(quick_results))
    engine = next(w for w in broken["workloads"] if w["name"] == "engine_events")
    del engine["detail"]["handoff"]
    assert harness.validate_results(broken)
    assert harness.validate_results({"schema_version": 999})


def test_cli_writes_and_validates_file(harness, tmp_path):
    out = tmp_path / "bench.json"
    assert harness.main(["--quick", "--out", str(out)]) == 0
    assert harness.main(["--validate", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["quick"] is True
    out.write_text(json.dumps({"suite": "perf_harness"}))
    assert harness.main(["--validate", str(out)]) == 1
