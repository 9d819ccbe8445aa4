"""Self-test of the benchmark's own machinery (not part of tier-1).

    python3 bench_e2e/selftest.py
    python3 -m pytest bench_e2e/selftest.py

Runs shrunken ``host_small`` and ``rdma_mix`` workloads and checks the
properties the ledger's honesty rests on.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
from harness import run_repeat  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _small(name: str):
    """A copy of a workload cut down to a fraction of a second."""
    workload = type(WORKLOADS[name])()
    workload.requests, workload.warm_requests = {
        "host_small": (256, 64), "rdma_mix": (32, 8),
    }[name]
    return workload


def _measure_small(name: str, seed: int = 11) -> dict:
    full = run.WORKLOADS[name]
    run.WORKLOADS[name] = _small(name)
    try:
        return run.measure(name, seed, repeats=2, seconds=None, trace=True, spans_path=None)
    finally:
        run.WORKLOADS[name] = full


def test_manifest_is_benchmark_json_and_within_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        on_disk = json.load(fh)
    assert on_disk == metrics.manifest()
    assert set(on_disk) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit_ok = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in on_disk[key]]
    assert len(names) == len(set(names)) and all(name_ok.match(n) for n in names)
    assert all(unit_ok.match(m["unit"]) for m in on_disk["end_to_end"] + on_disk["per_layer"])
    assert 2 <= len(on_disk["workloads"]) <= 8
    assert 1 <= len(on_disk["end_to_end"]) <= 16 and 1 <= len(on_disk["per_layer"]) <= 128
    # The issue's caps: 0.15 for set-up, 0.10 for the rest; set-up the largest.
    setup = next(m for m in on_disk["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower" and setup["bound"] == 0.15
    assert all(0 < m["bound"] <= 0.10 for m in on_disk["end_to_end"] if m is not setup)
    assert [w["name"] for w in on_disk["workloads"]] == list(WORKLOADS)
    assert all(w["clients"] == WORKLOADS[w["name"]].clients for w in metrics.WORKLOADS)


def test_report_carries_every_metric_and_the_ledger_adds_up():
    manifest = metrics.manifest()
    for name in ("host_small", "rdma_mix"):
        report = _measure_small(name)
        assert report["problems"] == [] and report["correct"], report["problems"]
        line = json.loads(run.driver_line(report, trace=False))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [m["name"] for m in manifest["end_to_end"]]
        assert all(v["value"] != 0 for v in line["metrics"].values())
        traced = json.loads(run.driver_line(report, trace=True))
        assert list(traced["metrics"]) == [m["name"] for m in manifest["per_layer"]]
        # Every engine event is booked on exactly one bucket.
        per_req = sum(
            report["per_layer"][f"{layer}.events_per_req"]
            for layer in layers.LAYERS + (layers.BENCH,)
        )
        assert report["per_layer"]["sim.layer_other_share"] == 0
        assert abs(per_req * report["requests"] - report["per_layer"]["sim.events"]) < 1e-6


def test_traced_repeat_reproduces_the_untraced_one():
    for name in ("host_small", "rdma_mix"):
        workload = _small(name)
        plan = workload.plan(random.Random(5))
        plain = run_repeat(workload, plan)
        traced = run_repeat(workload, plan, tracer=Tracer())
        assert traced.sim == plain.sim and traced.events == plain.events
        assert plain.failed == 0 and plain.attempted == plain.completed


def test_a_second_seed_changes_the_inputs_not_the_metric_set():
    workload = _small("host_small")
    assert workload.plan(random.Random(11)).requests != workload.plan(random.Random(12)).requests
    a, b = _measure_small("rdma_mix", seed=11), _measure_small("rdma_mix", seed=12)
    assert a["end_to_end"] != b["end_to_end"]
    assert set(a["end_to_end"]) == set(b["end_to_end"])
    assert set(a["per_layer"]) == set(b["per_layer"])
    assert b["failed"] == 0


def test_shims_are_fully_removed():
    targets = [
        (cls, name) for entries in layers.ENTRY_POINTS.values() for cls, name in entries
    ] + [(cls, name) for cls, name, _layer in layers.CALLBACK_BINDERS]
    originals = [cls.__dict__[name] for cls, name in targets]
    workload = _small("host_small")
    tracer = Tracer()
    run_repeat(workload, workload.plan(random.Random(1)), tracer=tracer)
    assert tracer.ledger["events"]["core"] > 0  # the shims were live
    for (cls, name), original in zip(targets, originals):
        assert cls.__dict__[name] is original, f"{cls.__name__}.{name} still wrapped"


def test_without_the_program_it_fails_and_prints_no_result():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "bench_e2e"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench_e2e/run.py", "--workload", "host_small", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
        )
        assert proc.returncode != 0 and proc.stdout.strip() == ""


if __name__ == "__main__":
    for label, test in sorted(globals().items()):
        if label.startswith("test_"):
            test()
            print(f"ok  {label}")
