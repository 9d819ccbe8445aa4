"""Interrupted waiters must not swallow items/grants (regression tests).

The bug class: a process blocked on ``Store.get`` (or a Resource/Container
wait) is interrupted — e.g. user logic wiped by partial reconfiguration —
leaving an orphaned waiter event queued inside the resource.  Without
abandonment handling the next ``put`` delivers the item into the dead
process and it vanishes.
"""

import pytest

from repro.sim import Container, Environment, Interrupt, Resource, Store

from .platforms import bitstream, card


def test_interrupted_store_getter_does_not_swallow_item():
    env = Environment()
    store = Store(env)
    received = []

    def victim():
        try:
            yield store.get()
        except Interrupt:
            return

    def survivor():
        item = yield store.get()
        received.append(item)

    v = env.process(victim())
    env.process(survivor())

    def orchestrate():
        yield env.timeout(10)
        v.interrupt()
        yield env.timeout(10)
        yield store.put("precious")

    env.process(orchestrate())
    env.run()
    assert received == ["precious"]


def test_interrupted_store_putter_item_discarded():
    """A dead producer's queued put must not deliver a ghost item."""
    env = Environment()
    store = Store(env, capacity=1)
    got = []

    def producer_dies():
        yield store.put("a")  # fills the store
        try:
            yield store.put("ghost")  # blocks; will be interrupted
        except Interrupt:
            return

    def consumer():
        yield env.timeout(20)
        first = yield store.get()
        got.append(first)
        # Nothing else should ever arrive.
        second = store.try_get()
        got.append(second)

    p = env.process(producer_dies())

    def killer():
        yield env.timeout(10)
        p.interrupt()

    env.process(killer())
    env.process(consumer())
    env.run()
    assert got == ["a", None]


def test_interrupted_resource_waiter_skipped_on_release():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def holder():
        req = res.request()
        yield req
        yield env.timeout(100)
        res.release(req)

    def victim():
        req = res.request()
        try:
            yield req
        except Interrupt:
            return
        order.append("victim")  # must never run
        res.release(req)

    def survivor():
        req = res.request()
        yield req
        order.append(("survivor", env.now))
        res.release(req)

    env.process(holder())
    v = env.process(victim())
    env.process(survivor())

    def killer():
        yield env.timeout(50)
        v.interrupt()

    env.process(killer())
    env.run()
    assert order == [("survivor", 100)]


@pytest.mark.parametrize("arrives_at", [0, 10])
def test_interrupt_overtaking_an_immediate_grant_gives_the_slot_back(arrives_at):
    """``request()`` on a free resource grants at once, NORMAL; an
    interrupt in that same instant is URGENT and overtakes the grant's
    dispatch.  The requester never sees the grant, so it can never
    release it: the slot has to come back on its own — to a waiter
    already queued behind it (0) or to whoever asks later (10)."""
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def victim():
        req = res.request()  # granted immediately, not yet dispatched
        try:
            yield req
        except Interrupt:
            return
        order.append("victim")  # must never run

    def survivor():
        if arrives_at:
            yield env.timeout(arrives_at)
        req = res.request()
        yield req
        order.append(("survivor", env.now))
        res.release(req)

    def killer(target):
        target.interrupt()
        yield env.timeout(0)

    v = env.process(victim())
    env.process(survivor())
    env.process(killer(v))
    env.run()
    assert order == [("survivor", arrives_at)]
    assert res.count == 0


def test_interrupted_container_getter_skipped():
    env = Environment()
    tank = Container(env, capacity=100, init=0)
    got = []

    def victim():
        try:
            yield tank.get(10)
        except Interrupt:
            return

    def survivor():
        yield tank.get(10)
        got.append(env.now)

    v = env.process(victim())
    env.process(survivor())

    def orchestrate():
        yield env.timeout(5)
        v.interrupt()
        yield env.timeout(5)
        yield tank.put(10)

    env.process(orchestrate())
    env.run()
    assert got == [10]
    assert tank.level == 0


def test_app_reconfig_then_datapath_still_works():
    """End-to-end regression: swap kernels, then run a transfer."""
    from repro import CThread, LocalSg, Oper, ServiceConfig, SgEntry
    from repro.apps import AesEcbApp, HllApp

    env, shell, driver = card(services=ServiceConfig(en_memory=False))
    bs_hll = bitstream(shell, "hll")
    bs_aes = bitstream(shell, "aes_ecb")

    def main():
        ct = CThread(driver, 0, pid=1)
        yield env.process(driver.reconfigure_app(bs_hll, 0, HllApp()))
        buf = yield from ct.get_mem(8192)
        yield from ct.invoke(
            Oper.LOCAL_READ, SgEntry(local=LocalSg(src_addr=buf.vaddr, src_len=8192))
        )
        yield from ct.wait_interrupt()
        # Swap kernels mid-flight: HLL's lanes are blocked on stream reads.
        yield env.process(driver.reconfigure_app(bs_aes, 0, AesEcbApp()))
        src = yield from ct.get_mem(8192)
        dst = yield from ct.get_mem(8192)
        ct.write_buffer(src.vaddr, b"\x11" * 8192)
        yield from ct.invoke(
            Oper.LOCAL_TRANSFER,
            SgEntry(local=LocalSg(src_addr=src.vaddr, src_len=8192,
                                  dst_addr=dst.vaddr, dst_len=8192)),
        )
        return ct.read_buffer(dst.vaddr, 8192)

    ciphertext = env.run(env.process(main()))
    assert len(ciphertext) == 8192
    assert ciphertext != b"\x11" * 8192  # actually encrypted
