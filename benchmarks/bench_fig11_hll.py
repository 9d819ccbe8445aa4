"""Figure 11: HyperLogLog on Coyote v2 vs Coyote v1.

Same HLS kernel on both shells: throughput must be comparable (both are
host-link bound), Coyote v2's utilisation slightly higher (~10% of the
device total), and the on-demand partial reconfiguration of the kernel
must land near the paper's 57 ms.
"""

import re

import pytest
from conftest import one_shot

from repro.experiments import run_fig11

#: EXPERIMENTS.md's Figure 11 throughput (GB/s), the same on both shells.
RECORDED_GBPS = 11.99


def test_fig11_hll(benchmark, report):
    result = one_shot(benchmark, run_fig11, data_mb=4)
    report(result)
    rows = {row["system"]: row for row in result.rows}
    v2, v1 = rows["Coyote v2"], rows["Coyote v1"]
    assert v2["throughput_gbps"] == pytest.approx(RECORDED_GBPS, rel=0.02)
    assert v1["throughput_gbps"] == pytest.approx(RECORDED_GBPS, rel=0.02)
    # Comparable performance (within 5%) — no overhead from the richer
    # interfaces.
    assert v2["throughput_gbps"] == pytest.approx(v1["throughput_gbps"], rel=0.05)
    # Slightly higher utilisation for v2, but total stays around 10%.
    assert v2["lut_pct"] > v1["lut_pct"]
    assert v2["lut_pct"] < 14.0
    # On-demand PR latency close to the paper's 57 ms.
    pr_note = next(n for n in result.notes if "on-demand" in n)
    pr_ms = float(re.search(r"([\d.]+) ms", pr_note).group(1))
    assert pr_ms == pytest.approx(57.0, rel=0.15)
