"""Edge-triggered scheduler loop: wakeup coalescing, lost-wakeup safety,
starvation-freedom.

The loop arms a wakeup event only while parked idle with an empty queue;
submitters fire that edge at most once per idle period and the loop
batch-drains every eligible request per wakeup.  These tests pin the
three properties that make the design correct:

* coalescing  — a burst of N submits costs one wakeup, not N;
* no lost wakeup — an edge fired across ``quiesce()`` /
  ``resume_after_recovery()`` (or by the recovery replay path itself)
  always reaches the loop;
* starvation-freedom — the bounded affinity bypass still serves a
  pending kernel switch within ``affinity_window`` bypasses even when
  the whole resident-kernel stream arrived under a single wakeup.
"""

from repro.health.errors import RecoveredError
from repro.sim import AllOf
from repro.telemetry import MetricsRegistry, SimProfiler

from .platforms import scheduled_card


def make_body(env, tag, log, duration=1000.0):
    def body(app):
        log.append(tag)
        yield env.timeout(duration)
        return tag

    return body


# ------------------------------------------------------------- coalescing


def test_burst_submit_coalesces_into_one_wakeup():
    """N simultaneous submits: the first fires the armed edge, the rest
    see it already triggered — one wakeup, N dispatches."""
    env, shell, driver, scheduler = scheduled_card()
    log = []

    def client(i):
        result = yield from scheduler.submit("hll", make_body(env, f"r{i}", log))
        return result

    procs = [env.process(client(i)) for i in range(10)]
    env.run(AllOf(env, procs))
    assert scheduler.wakeups == 1
    assert scheduler.dispatches == 10
    assert scheduler.requests_served == 10
    assert sorted(log) == [f"r{i}" for i in range(10)]


def test_submits_during_drain_need_no_wakeup():
    """Requests arriving while the loop is mid-drain append to the queue
    without any edge: the loop sees them on its next queue check."""
    env, shell, driver, scheduler = scheduled_card()
    log = []

    def client(i, delay=0.0):
        if delay:
            yield env.timeout(delay)
        yield from scheduler.submit("hll", make_body(env, f"r{i}", log))

    procs = [env.process(client(i)) for i in range(5)]
    # These land mid-drain (bodies take 1000 ns each, reconfig far more).
    procs += [env.process(client(i, delay=500.0)) for i in range(5, 10)]
    env.run(AllOf(env, procs))
    assert scheduler.wakeups == 1
    assert scheduler.dispatches == 10
    assert scheduler.requests_served == 10


def test_each_idle_period_costs_one_wakeup():
    """Submits separated by full drains take one wakeup each — the
    coalescing factor (dispatches / wakeups) is exactly 1 here."""
    env, shell, driver, scheduler = scheduled_card()
    log = []

    def client(i, delay):
        yield env.timeout(delay)
        yield from scheduler.submit("hll", make_body(env, f"r{i}", log))

    # Far enough apart (1 sim-second ≫ a reconfiguration) that the loop
    # fully drains and re-parks each time.
    procs = [env.process(client(i, delay=i * 1e9)) for i in range(4)]
    env.run(AllOf(env, procs))
    assert scheduler.wakeups == 4
    assert scheduler.dispatches == 4


# ---------------------------------------------------------- lost wakeups


def test_submit_while_paused_is_not_lost():
    """An edge fired while recovery holds the pause gate must survive:
    the loop wakes, blocks on the gate, and serves after resume."""
    env, shell, driver, scheduler = scheduled_card()
    log = []
    served = []

    def client():
        result = yield from scheduler.submit("hll", make_body(env, "r0", log))
        served.append(result)

    def orchestrator():
        yield env.timeout(10.0)  # loop is parked idle
        scheduler.quiesce(RecoveredError(0, "region reset"))
        env.process(client())
        yield env.timeout(50.0)  # submit lands while paused
        scheduler.resume_after_recovery(quarantined=False)

    env.run(env.process(orchestrator()))
    env.run()
    assert served == ["r0"]
    assert scheduler.requests_served == 1
    assert scheduler.wakeups >= 1


def test_replayed_request_wakes_parked_loop():
    """The recovery replay path re-queues the aborted request and fires
    ``_notify`` itself; a loop parked idle at resume time must wake and
    re-run it (idempotent kernel)."""
    env, shell, driver, scheduler = scheduled_card(idempotent=True)
    log = []
    served = []

    def client():
        result = yield from scheduler.submit(
            "hll", make_body(env, "r0", log, duration=500_000.0)
        )
        served.append(result)

    def orchestrator():
        # Poll until the body is actually running (reconfiguration takes
        # several sim-milliseconds first), then recover mid-body.
        while not log:
            yield env.timeout(10_000.0)
        scheduler.quiesce(RecoveredError(0, "region reset"))
        yield env.timeout(100.0)
        scheduler.resume_after_recovery(quarantined=False)

    env.process(client())
    env.run(env.process(orchestrator()))
    env.run()
    assert scheduler.replayed == 1
    assert served == ["r0"]
    assert log == ["r0", "r0"]  # body ran twice: aborted, then replayed


def test_abort_without_replay_keeps_loop_live():
    """Non-idempotent abort rejects the submitter — and the loop must
    still serve later submits (the park/arm handshake stayed sound)."""
    env, shell, driver, scheduler = scheduled_card(idempotent=False)
    log = []
    outcomes = []

    def client(tag, delay=0.0):
        if delay:
            yield env.timeout(delay)
        try:
            result = yield from scheduler.submit(
                "hll", make_body(env, tag, log, duration=500_000.0)
            )
            outcomes.append(("ok", result))
        except RecoveredError:
            outcomes.append(("recovered", tag))

    def orchestrator():
        while not log:
            yield env.timeout(10_000.0)
        scheduler.quiesce(RecoveredError(0, "region reset"))
        yield env.timeout(100.0)
        scheduler.resume_after_recovery(quarantined=False)

    env.process(client("r0"))
    env.process(orchestrator())
    env.process(client("r1", delay=1e9))
    env.run()
    assert ("recovered", "r0") in outcomes
    assert ("ok", "r1") in outcomes
    assert scheduler.replay_rejected == 1


# ----------------------------------------------------- starvation-freedom


def test_affinity_bypass_bounded_within_single_wakeup_batch():
    """A whole burst arrives under one wakeup; the pending kernel switch
    at the queue head is bypassed at most ``affinity_window`` times
    before being served unconditionally."""
    env, shell, driver, scheduler = scheduled_card(affinity_window=2)
    log = []

    def client(kernel, tag, delay=0.0):
        if delay:
            yield env.timeout(delay)
        yield from scheduler.submit(kernel, make_body(env, tag, log))

    procs = [env.process(client("hll", "h0"))]
    # All queued while h0 runs: one aes switch buried under hll traffic.
    for tag in ("a1", "h1", "h2", "h3", "h4"):
        kernel = "aes" if tag.startswith("a") else "hll"
        procs.append(env.process(client(kernel, tag, delay=1.0)))
    env.run(AllOf(env, procs))
    assert log.index("a1") <= 1 + scheduler.affinity_window
    assert log == ["h0", "h1", "h2", "a1", "h3", "h4"]
    # The entire stream cost two wakeups at most (h0's edge, and possibly
    # the delayed burst's own edge if the loop re-parked in between).
    assert scheduler.wakeups <= 2
    assert scheduler.dispatches == 6


# ------------------------------------------------------------- telemetry


def test_wakeup_and_dispatch_counters_exported():
    env, shell, driver, scheduler = scheduled_card()
    log = []

    def client(i):
        yield from scheduler.submit("hll", make_body(env, f"r{i}", log))

    procs = [env.process(client(i)) for i in range(3)]
    env.run(AllOf(env, procs))
    registry = MetricsRegistry()
    scheduler.export_metrics(registry)
    assert registry.counter("scheduler.wakeups").value == scheduler.wakeups == 1
    assert registry.counter("scheduler.dispatches").value == 3


# ------------------------------------------------------------------ churn


def run_churn(requests, cache_enabled, profiler=None):
    """``requests`` alternating hll/aes submits under ``affinity_window=4``."""
    env, shell, driver, scheduler = scheduled_card(affinity_window=4)
    shell.static.icap.region_cache_enabled = cache_enabled
    log = []

    def client(i):
        kernel = "hll" if i % 3 else "aes"
        yield from scheduler.submit(kernel, make_body(env, i, log, 2_000.0))

    procs = [env.process(client(i)) for i in range(requests)]
    if profiler is not None:
        profiler.attach(env)
    env.run(AllOf(env, procs))
    if profiler is not None:
        profiler.detach()
    return env, scheduler


def test_churn_region_cache_speedup_and_sched_event_bound():
    """Alternating kernels make every reconfiguration after the first two
    an ICAP region-cache hit, so the warm pass finishes in well under the
    cold pass's simulated time (2.31x here).  The edge-triggered loop
    costs one body event per request plus a shared wakeup/reconfig
    budget: at most 1.3 ``sched`` events per request (1.29 here; the
    level-triggered loop sat above 2)."""
    requests = 24
    cold_env, _ = run_churn(requests, cache_enabled=False)
    profiler = SimProfiler()
    env, scheduler = run_churn(requests, cache_enabled=True, profiler=profiler)
    speedup = cold_env.now / env.now
    assert speedup > 1.2, (
        f"region cache must speed up churn: cold {cold_env.now} ns vs warm "
        f"{env.now} ns ({speedup:.2f}x)"
    )
    events_per_request = profiler.events.get("sched", 0) / requests
    assert events_per_request <= 1.3, (
        f"edge-triggered scheduler regressed: {events_per_request:.2f} "
        f"sched events per request (bound 1.3)"
    )
    assert scheduler.dispatches == requests
    assert scheduler.wakeups <= scheduler.dispatches
    assert scheduler.reconfig_failures == 0
    assert scheduler.reconfigurations >= 2
