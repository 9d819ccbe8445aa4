"""Unit tests for Resource, Store and Container primitives."""

from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import Container, Environment, Resource, SimulationError, Store


# ---------------------------------------------------------------- Resource

def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    log = []

    def user(tag, hold):
        req = res.request()
        yield req
        log.append(("acq", tag, env.now))
        yield env.timeout(hold)
        res.release(req)
        log.append(("rel", tag, env.now))

    for tag, hold in [("a", 10), ("b", 10), ("c", 10)]:
        env.process(user(tag, hold))
    env.run()
    # a and b acquire at t=0; c must wait for a release at t=10.
    acquires = {tag: t for op, tag, t in log if op == "acq"}
    assert acquires["a"] == 0
    assert acquires["b"] == 0
    assert acquires["c"] == 10


def test_resource_fifo_fairness():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(tag):
        req = res.request()
        yield req
        order.append(tag)
        yield env.timeout(1)
        res.release(req)

    for tag in range(5):
        env.process(user(tag))
    env.run()
    assert order == list(range(5))


def test_resource_release_unheld_raises():
    env = Environment()
    res = Resource(env, capacity=1)

    def proc():
        req = res.request()
        yield req
        res.release(req)
        res.release(req)

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run()


def test_resource_bad_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


# ------------------------------------------------------------------- Store

def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    received = []

    def producer():
        for i in range(4):
            yield store.put(i)
            yield env.timeout(1)

    def consumer():
        for _ in range(4):
            item = yield store.get()
            received.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert received == [0, 1, 2, 3]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    times = []

    def consumer():
        item = yield store.get()
        times.append((env.now, item))

    def producer():
        yield env.timeout(25)
        yield store.put("x")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert times == [(25, "x")]


def test_store_put_blocks_when_full():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer():
        yield store.put("a")
        log.append(("put-a", env.now))
        yield store.put("b")
        log.append(("put-b", env.now))

    def consumer():
        yield env.timeout(10)
        item = yield store.get()
        log.append(("got", item, env.now))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert ("put-a", 0) in log
    # put-b completes only after the consumer drains "a" at t=10.
    assert ("put-b", 10) in log


def test_store_try_get_nonblocking():
    env = Environment()
    store = Store(env)
    assert store.try_get() is None
    store.put("x")
    env.run()
    assert store.try_get() == "x"
    assert store.try_get() is None


def test_store_len_and_free():
    env = Environment()
    store = Store(env, capacity=3)
    store.put(1)
    store.put(2)
    env.run()
    assert len(store) == 2
    assert store.free == 1


# --------------------------------------------------------------- Container

def test_container_get_blocks_until_level():
    env = Environment()
    tank = Container(env, capacity=100, init=0)
    log = []

    def consumer():
        yield tank.get(30)
        log.append(env.now)

    def producer():
        yield env.timeout(5)
        yield tank.put(10)
        yield env.timeout(5)
        yield tank.put(25)

    env.process(consumer())
    env.process(producer())
    env.run()
    assert log == [10]
    assert tank.level == 5


def test_container_put_blocks_at_capacity():
    env = Environment()
    tank = Container(env, capacity=10, init=10)
    log = []

    def producer():
        yield tank.put(5)
        log.append(env.now)

    def consumer():
        yield env.timeout(7)
        yield tank.get(6)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert log == [7]
    assert tank.level == 9


def test_container_invalid_amounts():
    env = Environment()
    tank = Container(env, capacity=10)
    with pytest.raises(SimulationError):
        tank.get(0)
    with pytest.raises(SimulationError):
        tank.put(-1)
    with pytest.raises(SimulationError):
        tank.get(11)


# ------------------------------------- eventless puts against the put

_STEP = st.one_of(
    st.tuples(st.just("get"), st.integers(1, 3)),
    st.tuples(st.just("put"), st.integers(1, 3)),
    st.tuples(st.just("wait"), st.sampled_from([0, 0, 1, 2, 5])),
)
#: (start delay, steps) per process: same-instant starts and zero waits
#: make ties, and a get larger than the level makes a getter wait.
_SCHEDULE = st.lists(
    st.tuples(st.sampled_from([0, 0, 1, 3]), st.lists(_STEP, max_size=6)),
    min_size=1, max_size=6,
)
#: A Store, bounded or not, or a Container big enough for any one get.
_POOL = st.one_of(
    st.sampled_from([1, 2, float("inf")]).map(lambda cap: partial(Store, capacity=cap)),
    st.integers(3, 6).flatmap(
        lambda cap: st.integers(0, cap).map(
            lambda init: partial(Container, capacity=cap, init=init)
        )
    ),
)


def _resumes(pool_of, schedule, eventless):
    """Run ``schedule`` against the pool ``pool_of(env)`` makes, putting
    with ``put_nowait`` if ``eventless`` else with a ``put`` nobody
    yields.  Returns every resume as ``(time, process, value)``, in
    order, and the pool's final contents."""
    env = Environment()
    pool = pool_of(env)
    store = isinstance(pool, Store)
    put = pool.put_nowait if eventless else pool.put
    log = []

    def proc(name, start, steps):
        yield env.timeout(start)
        for index, (op, arg) in enumerate(steps):
            if op == "put":
                put((name, index) if store else arg)
                continue
            if op == "get":
                value = yield pool.get() if store else pool.get(arg)
            else:
                value = yield env.timeout(arg, arg)
            log.append((env.now, name, value))

    for name, (start, steps) in enumerate(schedule):
        env.process(proc(name, start, steps))
    env.run()
    return log, (list(pool.items) if store else pool.level)


@given(pool_of=_POOL, schedule=_SCHEDULE)
def test_an_eventless_put_resumes_what_a_put_nobody_waits_on_resumes(pool_of, schedule):
    """``Store.put_nowait`` (a received frame) and ``Container.put_nowait``
    (the RDMA window's refund) only drop the event a put nobody waits on
    makes: every getter and timer resumes at the same time, in the same
    order, with the same value, and the pool ends with the same
    contents — a full store, where the item queues as a blocked put's
    would, and a container without room or behind a queued putter,
    where the refund is a put, included."""
    assert _resumes(pool_of, schedule, True) == _resumes(pool_of, schedule, False)
