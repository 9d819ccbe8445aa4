"""Figure 8: AES ECB bandwidth sharing across vFPGAs.

1 to 4 tenants each running a memory-bound AES ECB instance.  The host
bandwidth (~12 GB/s) must be split equally, and the cumulative throughput
must stay constant (no arbiter/packetizer overhead).
"""

import pytest
from conftest import one_shot

from repro.experiments import run_fig8


def test_fig8_fair_sharing(benchmark, report):
    result = one_shot(benchmark, run_fig8, max_tenants=4)
    report(result)
    singles = result.rows[0]["cumulative_gbps"]
    for row in result.rows:
        # Fairness: min/max per-tenant rate within 5%.
        assert row["fairness"] > 0.95
        # Cumulative conserved within 5% of the single-tenant rate.
        assert row["cumulative_gbps"] == pytest.approx(singles, rel=0.05)
        # With a second tenant to fill one's gaps the link is full:
        # EXPERIMENTS.md records 11.97 / 12.00 / 12.00 GB/s.
        if row["vfpgas"] > 1:
            assert row["cumulative_gbps"] == pytest.approx(12.0, rel=0.01)
    # Saturates the ~12 GB/s XDMA host link of the paper.
    assert 11.0 < singles < 12.5
