"""Tests for crediting and round-robin arbitration."""

import pytest

from repro.core import Crediter, RoundRobinArbiter
from repro.sim import Environment


# ------------------------------------------------------------------ credits

def test_crediter_blocks_at_zero():
    env = Environment()
    crediter = Crediter(env, credits=2)
    log = []

    def consumer():
        for i in range(3):
            # repro: allow[RES001] test drives the pool dry on purpose; releaser() below is the pair
            yield from crediter.acquire()
            log.append((i, env.now))

    def releaser():
        yield env.timeout(50)
        crediter.release()

    env.process(consumer())
    env.process(releaser())
    env.run()
    assert log[0][1] == 0
    assert log[1][1] == 0
    assert log[2][1] == 50  # third acquire waited for the release
    assert crediter.stalls == 1


def test_crediter_accounting():
    env = Environment()
    crediter = Crediter(env, credits=4)

    def proc():
        yield from crediter.acquire()  # repro: allow[RES001] test asserts the in-flight count, so the credits stay held
        yield from crediter.acquire()  # repro: allow[RES001] test asserts the in-flight count, so the credits stay held

    env.process(proc())
    env.run()
    assert crediter.available == 2
    assert crediter.in_flight == 2
    assert crediter.acquired_total == 2


def test_crediter_invalid_count():
    with pytest.raises(ValueError):
        Crediter(Environment(), credits=0)


# ------------------------------------------------------------------ arbiter

def test_round_robin_fair_interleaving():
    env = Environment()
    arb = RoundRobinArbiter(env, port_depth=8)
    ports = [arb.add_port() for _ in range(3)]
    order = []

    def producer(port, tag):
        for i in range(3):
            yield port.slot()
            port.put((tag, i))

    def consumer():
        for _ in range(9):
            yield arb.token()
            order.append(arb.get()[0])

    for tag, port in enumerate(ports):
        env.process(producer(port, tag))
    done = env.process(consumer())
    env.run(done)
    # Strict round-robin across the three busy ports.
    assert order == [0, 1, 2, 0, 1, 2, 0, 1, 2]


def test_arbiter_skips_idle_ports():
    env = Environment()
    arb = RoundRobinArbiter(env)
    busy = arb.add_port()
    _idle = arb.add_port()
    got = []

    def producer():
        for item in ("x", "y"):
            yield busy.slot()
            busy.put(item)

    def consumer():
        for _ in range(2):
            yield arb.token()
            got.append(arb.get())

    env.process(producer())
    done = env.process(consumer())
    env.run(done)
    assert got == ["x", "y"]


def test_arbiter_port_depth_backpressure():
    env = Environment()
    arb = RoundRobinArbiter(env, port_depth=1)
    port = arb.add_port()
    times = []

    def producer():
        yield port.slot()
        port.put(1)
        times.append(env.now)
        yield port.slot()  # blocks until consumer drains
        port.put(2)
        times.append(env.now)

    def consumer():
        yield env.timeout(100)
        for _ in range(2):
            yield arb.token()
            arb.get()

    env.process(producer())
    env.process(consumer())
    env.run()
    assert times[0] == 0
    assert times[1] == 100


def test_arbiter_get_blocks_until_work():
    env = Environment()
    arb = RoundRobinArbiter(env)
    port = arb.add_port()
    got = []

    def consumer():
        yield arb.token()
        got.append((arb.get(), env.now))

    def producer():
        yield env.timeout(42)
        yield port.slot()
        port.put("late")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [("late", 42)]
