"""Figure 12: hls4ml NN inference, CoyoteAccelerator vs PYNQ + Vitis.

The intrusion-detection MLP deployed through both backends: identical
predictions, comparable resources, and an order-of-magnitude latency
advantage for the Coyote v2 path (direct host streaming + C++ runtime vs
copy-through-HBM + Python runtime).
"""

import re

import pytest
from conftest import one_shot

from repro.experiments import run_fig12

#: EXPERIMENTS.md's Figure 12 rows at 4096 samples, batch 1024.
RECORDED = {
    "CoyoteAccelerator": {"latency_ms": 0.526, "samples_per_sec": 7.79e6},
    "PYNQ + Vitis": {"latency_ms": 5.396},
}


def test_fig12_nn_inference(benchmark, report):
    result = one_shot(benchmark, run_fig12, samples=4096, batch_size=1024)
    report(result)
    rows = {row["backend"]: row for row in result.rows}
    for backend, recorded in RECORDED.items():
        measured = {key: rows[backend][key] for key in recorded}
        assert measured == pytest.approx(recorded, rel=0.02), backend
    coyote, pynq = rows["CoyoteAccelerator"], rows["PYNQ + Vitis"]
    speedup = pynq["latency_ms"] / coyote["latency_ms"]
    assert speedup > 8.0, f"only {speedup:.1f}x"
    # Comparable resource utilisation (within 2 percentage points).
    assert abs(coyote["lut_pct"] - pynq["lut_pct"]) < 2.0
    assert abs(coyote["dsp_pct"] - pynq["dsp_pct"]) < 2.0


def test_fig12_speedup_grows_with_smaller_batches(report):
    """Python runtime overhead is per call: small batches widen the gap."""
    small = run_fig12(samples=1024, batch_size=256)
    large = run_fig12(samples=4096, batch_size=4096)

    def speedup(result):
        rows = {row["backend"]: row for row in result.rows}
        return rows["PYNQ + Vitis"]["latency_ms"] / rows["CoyoteAccelerator"]["latency_ms"]

    assert speedup(small) > speedup(large)
