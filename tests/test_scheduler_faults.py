"""Scheduler reliability: injected reconfiguration failures and starvation.

Regression coverage for two scheduler bugs found while auditing the
measurement path:

* the scheduler loop used to yield ``driver.reconfigure_app`` *outside*
  its try/except, so a reconfiguration failure (e.g. an injected ICAP CRC
  fault exhausting the driver's retries) killed the scheduler process and
  silently deadlocked every queued and future request;
* ``_pick`` affinity had no bypass bound, so a steady stream of
  resident-kernel requests could starve a pending kernel switch forever.
"""

import pytest

from repro.core import ReconfigError
from repro.driver import card_report
from repro.faults import ICAP_CRC, FaultInjector, FaultPlan, FaultRule
from repro.sim import AllOf

from .platforms import scheduled_card


def simple_body(env, tag, log, duration=1000.0):
    def body(app):
        log.append((tag, type(app).__name__))
        yield env.timeout(duration)
        return tag

    return body


def exhausting_crc_plan():
    """Fail the first reconfiguration permanently: the initial ICAP program
    plus every retry the driver's default policy (max_retries=3) makes."""
    return FaultPlan(seed=7, rules=[FaultRule(site=ICAP_CRC, at_events=(0, 1, 2, 3))])


def test_reconfig_failure_fails_submit_cleanly_and_loop_survives():
    """ISSUE acceptance: the affected submit() fails, later requests for
    other kernels complete, and nothing deadlocks."""
    env, shell, driver, scheduler = scheduled_card()
    FaultInjector(exhausting_crc_plan()).arm(shell=shell)
    log = []
    outcome = {}

    def failing_client():
        try:
            yield from scheduler.submit("hll", simple_body(env, "doomed", log))
        except ReconfigError as exc:
            outcome["error"] = exc

    def surviving_client():
        outcome["ok"] = yield from scheduler.submit(
            "aes", simple_body(env, "survivor", log)
        )

    procs = [env.process(failing_client()), env.process(surviving_client())]
    # A scheduler crash would leave the second submit waiting forever and
    # surface as the engine's deadlock error here.
    env.run(AllOf(env, procs))
    assert isinstance(outcome["error"], ReconfigError)
    assert outcome["ok"] == "survivor"
    assert log == [("survivor", "AesEcbApp")]  # the doomed body never ran
    assert scheduler.reconfig_failures == 1
    assert scheduler.requests_served == 1
    assert scheduler.loaded == "aes"


def test_reconfig_failure_keeps_serving_future_requests():
    """Requests submitted *after* the failure are also served (the loop is
    alive, not just draining the pre-failure queue)."""
    env, shell, driver, scheduler = scheduled_card()
    FaultInjector(exhausting_crc_plan()).arm(shell=shell)
    log = []

    def doomed():
        with pytest.raises(ReconfigError):
            yield from scheduler.submit("hll", simple_body(env, "doomed", log))

    env.run(env.process(doomed()))

    def late_client():
        return (yield from scheduler.submit("aes", simple_body(env, "late", log)))

    assert env.run(env.process(late_client())) == "late"
    assert scheduler.reconfig_failures == 1


def test_reconfig_failure_counted_in_card_report_telemetry():
    env, shell, driver, scheduler = scheduled_card()
    FaultInjector(exhausting_crc_plan()).arm(shell=shell)
    log = []

    def doomed():
        with pytest.raises(ReconfigError):
            yield from scheduler.submit("hll", simple_body(env, "doomed", log))

    env.run(env.process(doomed()))
    telemetry = card_report(driver)["telemetry"]
    assert telemetry["scheduler"]["reconfig_failures"] == 1
    assert telemetry["scheduler"]["requests_served"] == 0
    # The driver's retry ledger shows the recovery attempts that preceded
    # the clean failure.
    assert driver.reconfig_retries == driver.retry_policy.max_retries


def test_affinity_cannot_starve_beyond_window():
    """A queued kernel switch is bypassed at most ``affinity_window`` times
    by resident-kernel requests, then served unconditionally."""
    env, shell, driver, scheduler = scheduled_card(affinity_window=2)
    log = []

    def client(kernel, tag, delay=0.0):
        if delay:
            yield env.timeout(delay)
        yield from scheduler.submit(kernel, simple_body(env, tag, log))

    procs = [env.process(client("hll", "h0"))]
    # While h0 runs, queue a pending switch (a1) behind a stream of
    # resident-kernel requests that all sit inside the affinity window.
    for tag in ("a1", "h1", "h2", "h3", "h4"):
        kernel = "aes" if tag.startswith("a") else "hll"
        procs.append(env.process(client(kernel, tag, delay=1.0)))
    env.run(AllOf(env, procs))
    order = [tag for tag, _ in log]
    # h1 and h2 bypass the pending aes request (2 == affinity_window),
    # then a1 must be served even though h3/h4 are still resident hits.
    assert order == ["h0", "h1", "h2", "a1", "h3", "h4"]
    assert order.index("a1") == 1 + scheduler.affinity_window
    assert scheduler.reconfigurations == 3  # hll, aes, hll again
    assert scheduler.affinity_hits == 3  # h1, h2, h4
    assert scheduler.reconfig_failures == 0


def test_queue_wait_histogram_records_every_pick():
    env, shell, driver, scheduler = scheduled_card()
    log = []

    def client(i):
        yield from scheduler.submit("hll", simple_body(env, f"r{i}", log))

    procs = [env.process(client(i)) for i in range(4)]
    env.run(AllOf(env, procs))
    assert scheduler.queue_wait.count == 4
    # Later requests waited behind earlier bodies: p99 >> p50 floor of 0.
    assert scheduler.queue_wait.max > 0
    assert scheduler.queue_depth_high_water >= 2
