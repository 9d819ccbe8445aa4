"""A helper the caller waits on at once runs inline, not as a process.

``yield from helper()`` costs no event; ``yield env.process(helper())``
costs two, a kick-off and a finish, and both resume a generator.  The
request path's helpers run inline: an RDMA verb's local DMA
(``Driver.bind_qp``'s ``read_local``/``write_local``), a page fault's
migration chain (``_walk`` → ``_fault_migrate`` → ``Xdma.migrate``) and
``offload``/``sync``.  The budgets below are exact and each case
checks the processes it starts, so a helper turned back into a process
fails here.

One spawn on that path stays: ``Mmu.translate`` runs the migrating walk
as its own process.  A region quiesce interrupts the card unit that is
waiting on the walk; the walk, and the page migration inside it, must
run to its end, or the page is left half moved.  A second fault on the
page joins that walk rather than migrating the page again.

The data movers' stages are booked, not waited on by a process of
their own: the host path's DMA engines run on their completion timers,
and a card read unit's put, which its kernel always waits for, makes
no event of its own (``AxiStream.hand_over``).  The budgets below pin
both.
"""

from collections import Counter

import pytest

from repro import CThread, LocalSg, Oper, RdmaSg, SgEntry, StreamType
from repro.apps import PassThroughApp
from repro.mem import MemLocation
from repro.net import Cmac, MacAddress, Switch
from repro.sim import Environment
from repro.telemetry import SimProfiler

from .platforms import card, rdma_cluster, twice_sanitized

RDMA_LENGTH = 64 * 1024
PAGE = 2 * 1024 * 1024
PATTERN = bytes(range(256))


def _spawned(env, since):
    """Names of the processes ``env`` started after the sanitizer's
    ``since``-th; with the counts, in creation order."""
    return Counter(p.name for p in env.sanitizer._processes[since:] if p.env is env)


def test_an_rdma_verb_moves_its_local_memory_inline():
    """One 64 KiB WRITE, then one READ of it back, on a two-node
    cluster: 635 events from the WRITE's post to the READ's completion,
    and no ``read_host``/``write_host`` process.  When each 4 KiB
    segment's local DMA (16 read and 16 written at each end) was a
    process of its own, the pair cost 878; 750 while the switch egress
    drained in a process and every MAC transmit waited on its grant;
    701 while each received frame and each window refund made an event."""

    def run():
        env, cluster = rdma_cluster(2)
        a, b = cluster.connect_qps(0, 1, pid_a=1, pid_b=2, qpn_a=1, qpn_b=2)
        out = {}

        def main():
            src = (yield from a.get_mem(RDMA_LENGTH)).vaddr
            back = (yield from a.get_mem(RDMA_LENGTH)).vaddr
            remote = (yield from b.get_mem(RDMA_LENGTH)).vaddr
            a.write_buffer(src, PATTERN * (RDMA_LENGTH // len(PATTERN)))
            since, before = len(env.sanitizer._processes), env.events_processed
            for oper, local in ((Oper.REMOTE_RDMA_WRITE, src), (Oper.REMOTE_RDMA_READ, back)):
                sg = SgEntry(rdma=RdmaSg(local_addr=local, remote_addr=remote, len=RDMA_LENGTH, qpn=1))
                yield from a.invoke(oper, sg)
            out["events"] = env.events_processed - before
            out["spawned"] = _spawned(env, since)
            out["bytes"] = a.read_buffer(back, RDMA_LENGTH) == a.read_buffer(src, RDMA_LENGTH)

        env.run(env.process(main()))
        env.run()
        return out

    first, second = twice_sanitized(run)
    assert first == second
    assert first["bytes"]
    assert first["events"] == 635
    assert not {"read_host", "write_host"} & set(first["spawned"])


@pytest.mark.parametrize("ports", [1, 2, 16])
def test_a_switch_starts_no_process(ports):
    """Each egress port drains on its timers: building a switch and
    attaching its ports schedules nothing, and an idle fabric runs no
    event."""
    env = Environment()
    switch = Switch(env)
    for index in range(ports):
        switch.attach(MacAddress(0x02_0000_0001 + index), Cmac(env, name=f"port{index}"))
    assert env.pending == 0
    env.run()
    assert env.events_processed == 0


def _card_read(quiesce_at=None):
    """A 4 KiB card-stream READ of a host page on a 2 MiB-page card: the
    card unit's translation faults the page to card memory.  With
    ``quiesce_at``, region 0 is quiesced that long after the READ is
    posted (its unit interrupted while it waits on the walk)."""
    env, shell, driver = card(PassThroughApp())
    thread = CThread(driver, 0, pid=1)
    out = {}

    def main():
        buf = out["buf"] = (yield from thread.get_mem(4096)).vaddr
        thread.write_buffer(buf, PATTERN * 16)
        if quiesce_at is not None:
            env.process(quiesce(env.now + quiesce_at))
        since, before = len(env.sanitizer._processes), env.events_processed
        sg = LocalSg(src_addr=buf, src_len=4096, src_stream=StreamType.CARD)
        timeout_ns = None if quiesce_at is None else 1_000_000
        entry = yield from thread.invoke(Oper.LOCAL_READ, SgEntry(local=sg), timeout_ns=timeout_ns)
        out["entry"] = entry.status
        out["events"] = env.events_processed - before
        out["spawned"] = _spawned(env, since)

    def quiesce(when):
        yield env.timeout_at(when)
        yield from driver.quiesce_region(0, RuntimeError("reset"), 0)

    env.run(env.process(main()))
    env.run()
    return env, shell, driver, out


def test_a_page_fault_starts_one_process():
    """The fault costs one process, the walk ``Mmu.translate`` shields,
    and 17 events from post to completion.  As a chain of processes
    (the walk, ``_walk``, ``_fault_migrate``, ``migrate``) it cost four
    and 23 events."""

    def run():
        env, shell, driver, out = _card_read()
        out["faults"] = (driver.page_faults, driver.migrated_bytes)
        return out

    first, second = twice_sanitized(run)
    assert first == second
    assert first == {
        "buf": first["buf"], "entry": "success", "events": 17,
        "spawned": Counter({"_walk": 1}), "faults": (1, PAGE),
    }


def test_a_quiesce_mid_fault_leaves_the_page_whole():
    """Region 0 is quiesced 50 us into the READ, while its card unit
    waits on a 2 MiB page's migration to card memory (which takes
    ~190 us).  The unit stops; the READ times out.  The walk is its own
    process, so the migration still ends: the page is on the card, its
    card frame holds the page's bytes, and the TLB caches the page
    where it now lives, not the host frame it left."""

    def run():
        env, shell, driver, out = _card_read(quiesce_at=50_000)
        entry = driver._ctx(1).page_table.walk(out["buf"])
        cached = shell.dynamic.mmus[0].tlb.probe(out["buf"])
        return {
            "entry": out["entry"],
            "location": entry.location,
            "card_bytes": shell.dynamic.hbm.read_now(entry.card_paddr, 4096) == PATTERN * 16,
            "faults": (driver.page_faults, driver.migrated_bytes),
            "tlb": (cached.location, cached.ppn * PAGE) if cached is not None else None,
            "card_paddr": entry.card_paddr,
        }

    first, second = twice_sanitized(run)
    assert first == second
    assert first["entry"] == "timeout"
    assert first["location"] is MemLocation.CARD
    assert first["card_bytes"]
    assert first["faults"] == (1, PAGE)
    assert first["tlb"] in (None, (MemLocation.CARD, first["card_paddr"]))


def test_a_second_fault_on_a_migrating_page_joins_its_migration():
    """Two 4 KiB card-stream READs, on streams 0 and 1, of the two
    halves of one 2 MiB host page fault it at the same time.  The page
    migrates once, and both READs complete when it has (~190 us).  When
    each fault migrated the page again, it took 2 faults and 4 MiB, and
    the second READ was done at ~365 us."""

    def run():
        env, shell, driver = card(PassThroughApp(num_streams=2, stream=StreamType.CARD))
        thread = CThread(driver, 0, pid=1)
        done = {}

        def read(buf, half):
            sg = LocalSg(
                src_addr=buf + half * PAGE // 2, src_len=4096,
                src_stream=StreamType.CARD, src_dest=half,
            )
            entry = yield from thread.invoke(Oper.LOCAL_READ, SgEntry(local=sg))
            done[half] = (entry.status, round(env.now))

        def main():
            buf = (yield from thread.get_mem(PAGE)).vaddr
            thread.write_buffer(buf, PATTERN * (PAGE // len(PATTERN)))
            yield env.all_of([env.process(read(buf, half)) for half in (0, 1)])

        env.run(env.process(main()))
        env.run()
        return done, (driver.page_faults, driver.migrated_bytes)

    first, second = twice_sanitized(run)
    assert first == second
    done, faults = first
    assert faults == (1, PAGE)
    assert [status for status, _ in done.values()] == ["success", "success"]
    assert max(at for _, at in done.values()) < 200_000


def _one_request(stream, oper, size):
    """One ``oper`` of ``size`` bytes (a packet each way) through a
    pass-through kernel on ``stream``; a card stream's buffers are
    offloaded to HBM first.  Returns the events from post to
    completion, the events the profiler booked by callback owner, the
    names of every process the card started and the destination's
    bytes (synced back to the host for a card stream)."""
    env, shell, driver = card(PassThroughApp(stream=stream))
    thread = CThread(driver, 0, pid=1)
    out = {}

    def main():
        src = (yield from thread.get_mem(size)).vaddr
        dst = (yield from thread.get_mem(size)).vaddr
        thread.write_buffer(src, PATTERN * (size // len(PATTERN)))
        if stream is StreamType.CARD:
            for buf in (src, dst):
                yield from thread.invoke(
                    Oper.LOCAL_OFFLOAD, SgEntry(local=LocalSg(src_addr=buf, src_len=size))
                )
        sg = LocalSg(
            src_addr=src, src_len=size, dst_addr=dst, dst_len=size,
            src_stream=stream, dst_stream=stream,
        )
        before = env.events_processed
        with SimProfiler().attach(env) as profiler:
            entry = yield from thread.invoke(oper, SgEntry(local=sg))
        out["entry"] = entry.status
        out["events"] = env.events_processed - before
        out["booked"] = dict(profiler.events)
        if stream is StreamType.CARD:
            yield from thread.invoke(
                Oper.LOCAL_SYNC, SgEntry(local=LocalSg(src_addr=dst, src_len=size))
            )
        out["dst"] = thread.read_buffer(dst, size)

    env.run(env.process(main()))
    env.run()
    out["processes"] = set(_spawned(env, 0))
    return out


@pytest.mark.parametrize("stream, oper, size, events, booked", [
    (StreamType.HOST, Oper.LOCAL_TRANSFER, 2048, 38,
     {"host-rd-dma": 2, "host-wr-dma": 2, "_deposit": 1}),
    (StreamType.CARD, Oper.LOCAL_READ, 4096, 13, {"v0-card-rd": 6}),
    (StreamType.CARD, Oper.LOCAL_TRANSFER, 4096, 27,
     {"v0-card-rd": 6, "v0-card-wr": 5}),
], ids=["host-pair", "card-read", "card-pair"])
def test_a_packet_moves_on_booked_stations(stream, oper, size, events, booked):
    """Exact budgets, from post to completion, and the callbacks each
    station's owner was booked.

    A 2 KiB host TRANSFER is one read packet and one write packet: 38
    events.  Each idle DMA engine is woken once by its staged packet and
    once by its link timer, which lands the packet; the read's flit
    lands on one more timer, ``_deposit``.  Neither engine is a process
    (each was, with a get and a wake per packet, and the deposit's put
    was an event of its own: 39).

    A 4 KiB card READ is one card read packet: 13 events.  The unit is
    booked six callbacks (its descriptor, credit, translation, HBM read,
    bus timer, and the kernel's wake, which it goes on behind), as when
    the sixth was its put's own event: the READ cost 14 then, and a card
    TRANSFER 28, not 27."""
    first, second = twice_sanitized(lambda: _one_request(stream, oper, size))
    assert first == second
    assert first["entry"] == "success"
    assert first["events"] == events
    assert {owner: first["booked"][owner] for owner in booked} == booked
    assert not {"host-rd-dma", "host-wr-dma"} & first["processes"]
    if oper is Oper.LOCAL_TRANSFER:
        assert first["dst"] == PATTERN * (size // len(PATTERN))

