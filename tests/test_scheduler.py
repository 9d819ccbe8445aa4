"""Tests for the on-demand application scheduler."""

import pytest

from repro.api import SchedulerError
from repro.apps import HllApp
from repro.sim import AllOf

from .platforms import scheduled_card


def simple_body(env, tag, log, duration=1000.0):
    def body(app):
        log.append((tag, type(app).__name__))
        yield env.timeout(duration)
        return tag

    return body


def test_register_duplicate_rejected():
    env, shell, driver, scheduler = scheduled_card()
    with pytest.raises(SchedulerError):
        scheduler.register("hll", object(), HllApp)


def test_submit_unknown_kernel_rejected():
    env, shell, driver, scheduler = scheduled_card()

    def main():
        yield from scheduler.submit("nope", lambda app: iter(()))

    env.process(main())
    with pytest.raises(SchedulerError):
        env.run()


def test_first_request_loads_kernel():
    env, shell, driver, scheduler = scheduled_card()
    log = []

    def main():
        result = yield from scheduler.submit("hll", simple_body(env, "r1", log))
        return result

    result = env.run(env.process(main()))
    assert result == "r1"
    assert scheduler.loaded == "hll"
    assert scheduler.reconfigurations == 1
    assert log == [("r1", "HllApp")]
    assert isinstance(shell.vfpgas[0].app, HllApp)


def test_same_kernel_requests_share_one_load():
    env, shell, driver, scheduler = scheduled_card()
    log = []

    def client(i):
        yield from scheduler.submit("hll", simple_body(env, f"r{i}", log))

    procs = [env.process(client(i)) for i in range(5)]
    env.run(AllOf(env, procs))
    assert scheduler.reconfigurations == 1
    assert scheduler.requests_served == 5


def test_kernel_switch_reconfigures():
    env, shell, driver, scheduler = scheduled_card()
    log = []

    def main():
        yield from scheduler.submit("hll", simple_body(env, "a", log))
        yield from scheduler.submit("aes", simple_body(env, "b", log))
        yield from scheduler.submit("hll", simple_body(env, "c", log))

    env.run(env.process(main()))
    assert scheduler.reconfigurations == 3
    assert [entry[1] for entry in log] == ["HllApp", "AesEcbApp", "HllApp"]


def test_affinity_batches_same_kernel_ahead_of_switch():
    """hll, aes, hll submitted together: both hll run before the swap."""
    env, shell, driver, scheduler = scheduled_card(affinity_window=8)
    log = []

    def client(kernel, tag):
        yield from scheduler.submit(kernel, simple_body(env, tag, log))

    procs = [
        env.process(client("hll", "h1")),
        env.process(client("aes", "a1")),
        env.process(client("hll", "h2")),
    ]
    env.run(AllOf(env, procs))
    assert [entry[0] for entry in log] == ["h1", "h2", "a1"]
    assert scheduler.reconfigurations == 2  # hll once, aes once


def test_no_affinity_is_strict_fcfs():
    env, shell, driver, scheduler = scheduled_card(affinity_window=0)
    log = []

    def client(kernel, tag):
        yield from scheduler.submit(kernel, simple_body(env, tag, log))

    procs = [
        env.process(client("hll", "h1")),
        env.process(client("aes", "a1")),
        env.process(client("hll", "h2")),
    ]
    env.run(AllOf(env, procs))
    assert [entry[0] for entry in log] == ["h1", "a1", "h2"]
    assert scheduler.reconfigurations == 3


def test_failing_body_propagates_to_submitter():
    env, shell, driver, scheduler = scheduled_card()

    def bad_body(app):
        yield env.timeout(1)
        raise RuntimeError("kernel blew up")

    def main():
        try:
            yield from scheduler.submit("hll", bad_body)
        except RuntimeError as exc:
            return str(exc)

    assert env.run(env.process(main())) == "kernel blew up"
    # The scheduler keeps serving afterwards.
    log = []

    def follow_up():
        yield from scheduler.submit("hll", simple_body(env, "ok", log))

    env.run(env.process(follow_up()))
    assert log
