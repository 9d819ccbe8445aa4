"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.analysis import SimSanitizer
from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Resource,
    SimulationError,
)


def test_timeout_advances_time():
    env = Environment()

    def proc():
        yield env.timeout(10)
        assert env.now == 10
        yield env.timeout(5)
        return env.now

    p = env.process(proc())
    result = env.run(p)
    assert result == 15
    assert env.now == 15


def test_timeout_value_passthrough():
    env = Environment()

    def proc():
        value = yield env.timeout(1, value="hello")
        return value

    assert env.run(env.process(proc())) == "hello"


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)
    with pytest.raises(SimulationError):
        env.sleep(-1)


@pytest.mark.parametrize("arm", ["timeout", "sleep"])
def test_nan_delay_rejected(arm):
    """``nan < 0`` is False: a NaN delay used to be scheduled, after which
    the clock read ``nan`` and heap order was undefined."""
    env = Environment()
    with pytest.raises(SimulationError):
        getattr(env, arm)(float("nan"))
    assert env.pending == 0
    env.run()
    assert env.now == 0.0


def test_flat_constructors_write_every_slot_event_init_writes():
    """``Timeout``, ``timeout_at`` and ``Resource.request()`` do not
    chain ``Event.__init__``; a slot added there must be added to them
    too."""
    env = Environment()
    plain = Event(env)
    resource = Resource(env, capacity=1)
    resource.request()
    queued = resource.request()  # pending, like ``plain``
    written = [slot for slot in Event.__slots__ if hasattr(plain, slot)]
    assert {"callbacks", "_ok", "_abandoned", "_defused", "_recycle"} <= set(written)
    for flat in (queued, env.timeout(1), env.timeout_at(1)):
        for slot in written:
            assert hasattr(flat, slot), (type(flat).__name__, slot)
            if slot not in ("_origin", "_scheduled"):
                assert getattr(flat, slot) == getattr(plain, slot), slot


def _ulp_trap():
    """A ``(now, when)`` pair on which ``now + (when - now) != when``."""
    now, when = 0.4863176738884806, 1.6143811106352264
    assert now + (when - now) != when
    return now, when


@pytest.mark.parametrize("sanitized", [False, True])
def test_timeout_at_lands_on_the_exact_float(sanitized):
    """``timeout(when - now)`` is keyed ``now + (when - now)``, an ulp
    off ``when``; ``timeout_at`` is keyed ``when`` — also with a
    sanitizer attached, whose hooks must still fire."""
    now, when = _ulp_trap()
    env = Environment(now)
    calls = []
    if sanitized:
        env.sanitizer = sanitizer = SimSanitizer()
        sanitizer.on_schedule = lambda env, delay: calls.append(("schedule", delay))
    else:
        env.sanitizer = None

    def proc():
        value = yield env.timeout_at(when, value="done")
        return value, env.now

    assert env.run(env.process(proc())) == ("done", when)
    assert env.now == when
    if sanitized:
        assert ("schedule", when - now) in calls
        timer = env.timeout_at(when)
        assert timer._origin.startswith("tests/test_sim_engine.py:")


def test_timeout_at_now_is_a_normal_lane_entry():
    env = Environment(5.0)
    order = []
    first = env.event()
    first.callbacks.append(lambda _e: order.append("succeed"))
    first.succeed()
    timer = env.timeout_at(5.0)
    timer.callbacks.append(lambda _e: order.append("timeout_at"))
    assert not timer.triggered and env.peek == 5.0 and not env._queue
    env.run()
    assert order == ["succeed", "timeout_at"] and env.now == 5.0


def test_timeout_at_rejects_the_past_and_nan():
    env = Environment(10.0)
    for when in (9.999, -1.0, float("nan")):
        with pytest.raises(SimulationError):
            env.timeout_at(when)
    assert env.pending == 0
    env.run()
    assert env.now == 10.0


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def proc(delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(30, "c"))
    env.process(proc(10, "a"))
    env.process(proc(20, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo_order():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(5)
        order.append(tag)

    for tag in range(8):
        env.process(proc(tag))
    env.run()
    assert order == list(range(8))


def test_process_waits_on_event():
    env = Environment()
    gate = env.event()
    log = []

    def waiter():
        value = yield gate
        log.append((env.now, value))

    def opener():
        yield env.timeout(42)
        gate.succeed("open")

    env.process(waiter())
    env.process(opener())
    env.run()
    assert log == [(42, "open")]


def test_event_failure_propagates_into_process():
    env = Environment()
    gate = env.event()

    def waiter():
        try:
            yield gate
        except ValueError as exc:
            return f"caught {exc}"

    def failer():
        yield env.timeout(1)
        gate.fail(ValueError("boom"))

    p = env.process(waiter())
    env.process(failer())
    assert env.run(p) == "caught boom"


def test_unhandled_process_exception_raises_from_run():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise RuntimeError("kernel panic")

    env.process(bad())
    with pytest.raises(RuntimeError, match="kernel panic"):
        env.run()


def test_run_until_time_stops_exactly():
    env = Environment()
    hits = []

    def ticker():
        while True:
            yield env.timeout(10)
            hits.append(env.now)

    env.process(ticker())
    env.run(until=35)
    assert hits == [10, 20, 30]
    assert env.now == 35


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(3)
        return 99

    assert env.run(env.process(proc())) == 99


def test_run_until_event_deadlock_detected():
    env = Environment()
    never = env.event()

    def proc():
        yield never

    p = env.process(proc())
    with pytest.raises(SimulationError, match="deadlock"):
        env.run(p)


def test_interrupt_delivers_cause():
    env = Environment()
    caught = []

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt as intr:
            caught.append((env.now, intr.cause))

    def attacker(target):
        yield env.timeout(7)
        target.interrupt("preempted")

    v = env.process(victim())
    env.process(attacker(v))
    env.run()
    assert caught == [(7, "preempted")]


def test_interrupted_process_can_wait_again():
    env = Environment()

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt:
            pass
        yield env.timeout(5)
        return env.now

    def attacker(target):
        yield env.timeout(10)
        target.interrupt()

    v = env.process(victim())
    env.process(attacker(v))
    assert env.run(v) == 15


def test_all_of_waits_for_every_event():
    env = Environment()

    def proc():
        t1 = env.timeout(5, value="a")
        t2 = env.timeout(9, value="b")
        results = yield AllOf(env, [t1, t2])
        return (env.now, sorted(results.values()))

    assert env.run(env.process(proc())) == (9, ["a", "b"])


def test_any_of_returns_on_first():
    env = Environment()

    def proc():
        t1 = env.timeout(5, value="fast")
        t2 = env.timeout(9, value="slow")
        results = yield AnyOf(env, [t1, t2])
        return (env.now, list(results.values()))

    assert env.run(env.process(proc())) == (5, ["fast"])


def test_all_of_empty_triggers_immediately():
    env = Environment()

    def proc():
        results = yield AllOf(env, [])
        return results

    assert env.run(env.process(proc())) == {}


def test_process_is_alive_lifecycle():
    env = Environment()

    def proc():
        yield env.timeout(10)

    p = env.process(proc())
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_run_into_past_rejected():
    env = Environment()
    env.run(until=10)
    with pytest.raises(SimulationError):
        env.run(until=5)


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek == float("inf")
    env.timeout(12)
    assert env.peek == 12


# -------------------------------------------------- event/timeout lifecycle


def test_timeout_not_triggered_at_construction():
    """A timeout is *scheduled* at construction but must not report
    ``triggered`` (or ``processed``) until its delay actually elapsed —
    the historical engine preset ``_ok`` in ``Timeout.__init__``."""
    env = Environment()
    t = env.timeout(10)
    assert not t.triggered
    assert not t.processed
    with pytest.raises(SimulationError):
        t.value
    with pytest.raises(SimulationError):
        t.ok


def test_timeout_must_not_fire_early():
    env = Environment()
    t = env.timeout(10, value="late")
    env.run(until=9)
    assert not t.triggered
    assert not t.processed
    env.run(until=11)
    assert t.triggered
    assert t.processed
    assert t.ok
    assert t.value == "late"


def test_timeout_rejects_manual_trigger():
    """Timeouts fire by themselves; user code must not succeed/fail them."""
    env = Environment()
    t = env.timeout(5)
    with pytest.raises(SimulationError):
        t.succeed()
    with pytest.raises(SimulationError):
        t.fail(RuntimeError("no"))


def test_event_lifecycle_pending_triggered_processed():
    from repro.sim import Event

    env = Environment()
    event = Event(env)
    assert not event.triggered and not event.processed
    event.succeed(42)
    assert event.triggered and not event.processed
    assert event.value == 42
    env.run()
    assert event.triggered and event.processed


def test_zero_delay_timeout_triggers_only_after_dispatch():
    env = Environment()
    t = env.timeout(0)
    assert not t.triggered  # scheduled at now, but not yet dispatched
    env.step()
    assert t.triggered and t.processed


def test_condition_over_pending_timeouts():
    """AllOf over fresh timeouts must *wait*: with the construction-time
    ``_ok`` preset bug every branch looked already-triggered."""
    env = Environment()
    log = []

    def proc():
        results = yield AllOf(env, [env.timeout(5, value="a"), env.timeout(9, value="b")])
        log.append((env.now, sorted(results.values())))

    env.process(proc())
    env.run()
    assert log == [(9.0, ["a", "b"])]


def test_event_defuse_suppresses_unhandled_failure():
    """defuse() is the public "failure handled out-of-band" switch: a
    failed event with no waiter must not crash the run once defused."""
    from repro.sim import Event

    env = Environment()
    event = Event(env)
    assert event.defuse() is event  # chainable: event.defuse().fail(exc)
    event.fail(RuntimeError("handled elsewhere"))
    env.run()  # would raise RuntimeError without the defuse
    assert event.triggered and event.processed


def test_undefused_failure_still_propagates():
    from repro.sim import Event

    env = Environment()
    Event(env).fail(RuntimeError("nobody listening"))
    with pytest.raises(RuntimeError, match="nobody listening"):
        env.run()


# ------------------------------------------------- non-event yields


def test_process_that_catches_the_non_event_error_keeps_running():
    """The SimulationError thrown in for a non-event yield is a resume
    like any other: the event the generator yields next is waited on."""
    env = Environment()

    def proc():
        try:
            yield 5
        except SimulationError:
            yield env.timeout(3)
        return env.now

    p = env.process(proc())
    assert env.run(p) == 3
    assert not p.is_alive


def test_uncaught_non_event_yield_fails_the_process():
    env = Environment()
    seen = []

    def bad():
        yield 5

    def joiner(target):
        try:
            yield target
        except SimulationError as exc:
            seen.append(str(exc))

    p = env.process(bad())
    env.process(joiner(p))
    env.run()  # the failure reached the joiner, so it does not escape
    assert not p.is_alive and not p.ok
    assert len(seen) == 1 and "non-event" in seen[0]


# ------------------------------------ a callback on a fresh Timeout


class _Port:
    """An owner whose bound method is the callback — the shape of the
    switch egress's ``_deliver``: the timer's value is its argument."""

    def __init__(self, log):
        self.log = log

    def deliver(self, event):
        self.log.append((event.env.now, event.value))

    def jam(self, event):
        raise RuntimeError(f"jammed on {event.value}")


@pytest.mark.parametrize("sanitized", [False, True])
def test_callback_on_a_fresh_timeout_runs_at_its_key_with_its_value(sanitized):
    """The idiom for a delayed call nothing waits on and that cannot
    block: no process, the ``Timeout`` itself.  It runs in
    ``(time, prio, seq)`` order among process wake-ups due at the same
    instant, and the sanitizer's creation and schedule hooks still fire."""
    env = Environment()
    env.sanitizer = sanitizer = _CountingSanitizer() if sanitized else None
    log = []
    port = _Port(log)

    def sleeper(tag):
        yield env.timeout(5)
        log.append((env.now, tag))

    def starter():
        env.process(sleeper("before"))
        yield env.timeout(0)  # let "before" key its timer first
        timer = env.timeout(5, "frame")
        timer.callbacks.append(port.deliver)
        env.process(sleeper("after"))
        if sanitized:
            assert timer._origin.startswith("tests/test_sim_engine.py:")

    env.process(starter())
    env.run()
    assert log == [(5.0, "before"), (5.0, "frame"), (5.0, "after")]
    if sanitized:
        assert sanitizer.delays.count(5) == 3
        assert sanitizer.violations == []


def test_exception_in_a_timeout_callback_escapes_run_and_loses_nothing_else():
    """As a crashed per-call process's did: out of ``run()``, at the
    timer's instant, with every other timer still due."""
    env = Environment()
    log = []
    port = _Port(log)
    env.timeout(3, "first").callbacks.append(port.jam)
    env.timeout(3, "second").callbacks.append(port.deliver)
    with pytest.raises(RuntimeError, match="jammed on first"):
        env.run()
    assert env.now == 3 and log == []
    env.run()
    assert log == [(3.0, "second")]


# --------------------------------------------- hooks attached mid-run


class _CountingProfiler:
    """The engine's profiler contract: run the callbacks, observed."""

    def __init__(self):
        self.events = 0

    def run_callbacks(self, event, callbacks):
        self.events += 1
        for callback in callbacks:
            callback(event)


class _CountingSanitizer(SimSanitizer):
    def __init__(self):
        super().__init__()
        self.steps = 0
        self.delays = []

    def on_step(self, env, when):
        self.steps += 1
        super().on_step(env, when)

    def on_schedule(self, env, delay):
        self.delays.append(delay)
        super().on_schedule(env, delay)


def _step_until_empty(env, _done):
    while env.pending:
        env.step()


def _batches_until_empty(env, _done):
    while env.run_batch(2):
        pass


RUN_FORMS = {
    "step": _step_until_empty,
    "run_batch": _batches_until_empty,
    "run": lambda env, _done: env.run(),
    "run_until_event": lambda env, done: env.run(done),
    "run_until_time": lambda env, _done: env.run(until=100),
}


@pytest.mark.parametrize("form", sorted(RUN_FORMS))
@pytest.mark.parametrize("slot", ["profiler", "sanitizer"])
def test_hook_attached_inside_a_process_sees_the_next_event(form, slot):
    """``env.profiler``/``env.sanitizer`` set from inside a callback take
    effect from the next dispatched event, and stop after the event that
    cleared them, however the loop is being driven."""
    env = Environment()
    hook = _CountingProfiler() if slot == "profiler" else _CountingSanitizer()
    marks = []

    def proc():
        yield env.timeout(1)
        yield env.timeout(1)
        previous = getattr(env, slot)
        setattr(env, slot, hook)
        marks.append(env.events_processed)
        yield env.timeout(1)  # heap
        yield env.event().succeed()  # lane
        yield env.timeout(1)
        setattr(env, slot, previous)
        marks.append(env.events_processed)
        yield env.timeout(1)
        yield env.event().succeed()

    done = env.process(proc())
    RUN_FORMS[form](env, done)
    assert not done.is_alive
    attached, detached = marks
    assert detached - attached == 3
    if slot == "profiler":
        assert hook.events == 3
    else:
        assert hook.steps == 3
        assert hook.delays == [1, 0.0, 1]  # heap and lane schedules alike
        assert hook.violations == []
