"""Figure 7(a): data-transfer throughput scaling with HBM channels.

A card-memory pass-through in one vFPGA, swept over the number of
parallel card streams (channels).  The curve must rise linearly at low
channel counts and taper off as the shared MMU translation pipeline (the
memory-virtualization overhead) saturates.
"""

import pytest
from conftest import one_shot

from repro.experiments import run_fig7a

#: EXPERIMENTS.md's Figure 7(a) row (GB/s, read+write).  The model is
#: deterministic, so 2 % is room for a deliberate recalibration to be
#: noticed, not for noise: a card packet that is not one HBM stripe
#: misses every column.
RECORDED_GBPS = {1: 10.8, 2: 21.5, 4: 42.5, 8: 77.0, 16: 111.6, 32: 130.6}


def test_fig7a_hbm_scaling(benchmark, report):
    result = one_shot(benchmark, run_fig7a, channels=tuple(RECORDED_GBPS), transfer_mb=2)
    report(result)
    series = {row["channels"]: row["throughput_gbps"] for row in result.rows}
    assert series == pytest.approx(RECORDED_GBPS, rel=0.02)
    # 8-way striping is worth at least seven channels.
    assert series[8] >= 7 * series[1]
    # Linear regime: 4 channels within 15% of 4x a single channel.
    assert series[4] > 3.4 * series[1]
    # Taper: 32 channels is NOT 32x — virtualization overhead binds.
    assert series[32] < 16 * series[1]
    # ...but still monotonically non-decreasing.
    values = [series[c] for c in (1, 2, 4, 8, 16, 32)]
    assert all(b >= a * 0.98 for a, b in zip(values, values[1:]))


def test_fig7a_mmu_bypass_lifts_the_taper(report):
    """Paper: bypassing the MMU exposes raw channel bandwidth."""
    from repro.experiments import hbm_throughput

    with_mmu = hbm_throughput(16, transfer_mb=1)
    bypassed = hbm_throughput(16, transfer_mb=1, mmu_bypass=True)
    assert bypassed > with_mmu
