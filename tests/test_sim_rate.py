"""Tests for the virtual-time FIFO server as a bandwidth model: a use of
``nbytes`` at ``rate`` books ``nbytes / rate`` and waits with one
``timeout_at`` (how the AES ECB core and CBC issue port are modelled)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.sim.rate import FifoServer


def use(env, server, units, rate, done, tag=None):
    """Occupy ``server`` for ``units`` at ``rate``; log ``(tag, now)``."""
    yield env.timeout_at(server.book(units / rate))
    done.append((tag, env.now))


def test_single_reservation_duration():
    env = Environment()
    done = []
    env.process(use(env, FifoServer(env), 100, 2.0, done))
    env.run()
    assert done == [(None, pytest.approx(50.0))]


def test_back_to_back_reservations_serialize():
    """In FIFO order."""
    env = Environment()
    server = FifoServer(env)
    done = []
    env.process(use(env, server, 10, 1.0, done, "a"))
    env.process(use(env, server, 10, 1.0, done, "b"))
    env.run()
    assert done == [("a", pytest.approx(10)), ("b", pytest.approx(20))]


def test_idle_time_is_not_charged():
    env = Environment()
    server = FifoServer(env)
    done = []

    def late():
        yield env.timeout(100)  # server idle 90 ns
        yield from use(env, server, 10, 1.0, done)

    env.process(use(env, server, 10, 1.0, done))
    env.process(late())
    env.run()
    assert [when for _, when in done] == [pytest.approx(10), pytest.approx(110)]


def test_zero_reservation_is_free():
    env = Environment()
    done = []
    env.process(use(env, FifoServer(env), 0, 1.0, done))
    env.run()
    assert done == [(None, 0)]


def test_invalid_parameters():
    """A server needs a station."""
    with pytest.raises(ValueError):
        FifoServer(Environment(), servers=0)


@settings(max_examples=30, deadline=None)
@given(units=st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=20))
def test_aggregate_rate_never_exceeded(units):
    """N concurrent bookings finish no earlier than sum(units)/rate."""
    env = Environment()
    server = FifoServer(env)
    done = []
    for n in units:
        env.process(use(env, server, n, 2.0, done))
    env.run()
    assert max(when for _, when in done) == pytest.approx(sum(units) / 2.0)
