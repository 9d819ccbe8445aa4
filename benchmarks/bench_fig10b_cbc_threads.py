"""Figure 10(b): AES CBC throughput scaling with cThreads (32 KB msgs).

Each software thread fills one of the 10 pipeline stages the chained
cipher would otherwise leave idle; throughput must scale ~linearly to the
pipeline depth (the paper's 7x idle-time reduction at 8+ threads).
"""

import pytest
from conftest import one_shot

from repro.experiments import run_fig10b

#: EXPERIMENTS.md's Figure 10(b) row (MB/s).  The model is deterministic,
#: so 2 % is room for a deliberate recalibration to be noticed, not for
#: noise: the shape assertions below let ten threads drift by 4.7 %
#: without a word.
RECORDED_MBPS = {1: 386, 2: 768, 4: 1480, 8: 2927, 10: 3620}


def test_fig10b_linear_scaling(benchmark, report):
    result = one_shot(benchmark, run_fig10b, threads=tuple(RECORDED_MBPS))
    report(result)
    rates = {row["threads"]: row["throughput_mbps"] for row in result.rows}
    assert rates == pytest.approx(RECORDED_MBPS, rel=0.02)
    series = {row["threads"]: row["speedup"] for row in result.rows}
    assert series[2] > 1.85
    assert series[4] > 3.5
    assert series[8] > 6.7  # the paper's "up to 7x idle-time reduction"
    assert series[10] > 8.0
    # No superlinear artifacts.
    assert series[10] <= 10.5
