"""Shared pytest configuration: hypothesis profiles + SimSanitizer.

CI runs with ``HYPOTHESIS_PROFILE=ci``: derandomized so every run of a
given commit explores the same examples, with ``print_blob`` enabled so a
failing example prints the ``@reproduce_failure`` blob needed to replay
it locally.  The default ``dev`` profile keeps hypothesis's normal
randomized exploration (deadlines disabled — simulated workloads have
highly variable wall-clock cost per example).

With ``REPRO_SANITIZE=1`` every test additionally runs under the
process-wide :class:`repro.analysis.SimSanitizer` (each ``Environment``
attaches it automatically) and *fails* if the run accumulated invariant
violations — monotonicity, credit conservation, telemetry type
stability.  CI runs the tier-1 suite once in this mode.  Without it,
a test that leaves a process-wide sanitizer installed fails: that
sanitizer would watch every later test of a plain run, and a test that
meant to run sanitized never asserted anything (``tests/platforms.py``'s
``twice_sanitized`` is the way to run sanitized from a plain session).
"""

import os

import pytest
from hypothesis import settings

from repro.analysis import sanitizer as _sanitizer_mod

settings.register_profile("dev", deadline=None)
settings.register_profile("ci", deadline=None, derandomize=True, print_blob=True)
# The engine-conformance CI job explores far more examples than the
# default suite run: the DES core is the layer every other result sits
# on, so its property tests get a deeper (still derandomized) budget.
settings.register_profile(
    "long", deadline=None, derandomize=True, print_blob=True, max_examples=500
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture(autouse=True)
def _simsanitizer_gate():
    """Fail any test that tripped the sanitizer (REPRO_SANITIZE=1), or
    that left one installed in a plain run.

    State is reset around every test: violations are per-test, and the
    cross-registry metric-kind map must not couple unrelated tests (two
    tests may legitimately reuse a metric name for different kinds).
    """
    if not _sanitizer_mod.enabled():
        yield
        if _sanitizer_mod.current() is not None:
            _sanitizer_mod.deactivate()
            pytest.fail("test left a process-wide SimSanitizer installed in a plain run")
        return
    active = _sanitizer_mod.current()
    active.reset()
    yield
    if active.violations:
        report = active.report()
        active.reset()
        pytest.fail(f"SimSanitizer detected invariant violations:\n{report}")
