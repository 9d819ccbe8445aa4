"""The host path's walk-ahead: a request's TLB walk starts when its
descriptor arrives, and the translation joins it.

Covers the latency it saves (a TRANSFER whose source and destination both
miss pays one walk, not two), the miss table (a translation that finds
its page's walk in flight joins it instead of walking again), the install
rule (a ``free_mem``, ``LOCAL_OFFLOAD`` or region recovery that lands
while a walk is in flight leaves no entry in the miss table and nothing
stale in the TLB), and a generated property: random TRANSFER, READ and
WRITE requests, offloads and syncs over a working set far beyond TLB
reach keep the bytes exact and every cached translation true to the page
table, for one tenant and for two.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CThread, LocalSg, Oper, ServiceConfig, SgEntry
from repro.apps import PassThroughApp
from repro.health import HealthConfig
from repro.mem import PAGE_4K, AllocType, MemLocation, MmuConfig, TlbConfig
from repro.mem.mmu import TLB_MISS_WALK_NS

from .platforms import card

_LONG = os.environ.get("HYPOTHESIS_PROFILE") == "long"
MAX_EXAMPLES = 200 if _LONG else 20

#: Eight entries of 4 KiB: a 32 KiB reach, an eighth of the property's
#: 64-page buffer (each tenant has its own MMU).
SMALL_TLB = MmuConfig(tlb=TlbConfig(page_size=PAGE_4K, num_entries=8, associativity=2))


def tenants(count=1, mmu=SMALL_TLB):
    """A card with ``count`` pass-through regions on 4 KiB pages and one
    thread each (pid ``1 + i`` on region ``i``)."""
    apps = [PassThroughApp() for _ in range(count)]
    env, shell, driver = card(*apps, services=ServiceConfig(mmu=mmu))
    threads = [CThread(driver, i, pid=1 + i) for i in range(count)]
    return env, shell, driver, threads


def transfer(src, dst, length):
    return SgEntry(local=LocalSg(src_addr=src, src_len=length, dst_addr=dst, dst_len=length))


def stale_entries(driver, pid):
    """Every translation cached in ``pid``'s TLB that its page table
    contradicts: an unmapped page, another location or another frame."""
    ctx = driver.processes[pid]
    table = ctx.page_table
    tlb = driver.shell.dynamic.mmus[ctx.vfpga_id].tlb
    stale = []
    for entries in tlb._sets:
        for vpn, entry in entries.items():
            pte = table.entries.get(vpn)
            if (
                pte is None
                or entry.location is not pte.location
                or entry.ppn << table.page_shift != pte.paddr_in(pte.location)
            ):
                stale.append(entry)
    return stale


# ------------------------------------------------------------ the latency


def test_both_pages_missing_costs_one_walk_not_two():
    """A 4 KiB TRANSFER whose source and destination both miss costs one
    walk less one station booking more than the same TRANSFER hitting:
    the destination's walk runs while the source's data is in flight,
    and the source's translation waits out the walk its probe began
    instead of booking a station and then walking."""
    env, shell, driver, (thread,) = tenants(mmu=MmuConfig(tlb=TlbConfig(page_size=PAGE_4K)))
    mmu = shell.dynamic.mmus[0]
    elapsed = []

    def main():
        src = yield from thread.get_mem(PAGE_4K, AllocType.REG)
        dst = yield from thread.get_mem(PAGE_4K, AllocType.REG)
        for miss in (False, False, True):
            if miss:
                mmu.shootdown(src.vaddr)
                mmu.shootdown(dst.vaddr)
            began = env.now
            yield from thread.invoke(Oper.LOCAL_TRANSFER, transfer(src.vaddr, dst.vaddr, PAGE_4K))
            elapsed.append(env.now - began)

    env.run(env.process(main()))
    _warm, hit, miss = elapsed
    assert miss - hit == pytest.approx(TLB_MISS_WALK_NS - mmu.config.xlat_service_ns)
    assert driver.tlb_walks == 2


# --------------------------------------------------------- the miss table


def test_a_translation_joins_the_walk_in_flight():
    """Two translations into one uncached page: the second finds the
    first's walk in the miss table, waits for it and looks again, so the
    driver walks once and both get their own offset into the frame."""
    env, shell, driver, (thread,) = tenants()
    mmu = shell.dynamic.mmus[0]

    def main():
        return (yield from thread.get_mem(PAGE_4K, AllocType.REG))

    page = env.run(env.process(main())).vaddr
    mmu.shootdown(page)
    walks = driver.tlb_walks
    began = env.now
    got = {}

    def xlat(offset):
        got[offset] = yield from mmu.translate_any(1, page + offset)
        got[offset, "at"] = env.now - began

    for offset in (0, 2048):
        env.process(xlat(offset))
    env.run()
    assert driver.tlb_walks == walks + 1
    assert got[2048][1] == got[0][1] + 2048
    assert got[0, "at"] == got[2048, "at"] == mmu.config.xlat_service_ns + TLB_MISS_WALK_NS
    assert not mmu._walks


def test_a_probe_starts_the_walk_the_translation_joins():
    """A probe that misses starts the page's walk without counting a
    miss; a translation booked while it runs finishes with it, not one
    walk later, and counts one miss and, on its second look, one hit."""
    env, shell, driver, (thread,) = tenants()
    mmu = shell.dynamic.mmus[0]

    def main():
        return (yield from thread.get_mem(PAGE_4K, AllocType.REG))

    page = env.run(env.process(main())).vaddr
    mmu.shootdown(page)
    walks, hits, misses = driver.tlb_walks, mmu.tlb.hits, mmu.tlb.misses
    began = env.now
    mmu.probe(1, page)
    assert (mmu.tlb.hits, mmu.tlb.misses) == (hits, misses)
    env.run(env.process(mmu.translate_any(1, page)))
    assert env.now - began == TLB_MISS_WALK_NS
    assert driver.tlb_walks == walks + 1
    assert (mmu.tlb.hits, mmu.tlb.misses) == (hits + 1, misses + 1)
    mmu.probe(1, page)  # cached now: nothing to walk
    env.run()
    assert driver.tlb_walks == walks + 1


# ------------------------------------------------------- the install rule


def _walk_cut_off(cut):
    """Start a walk into a fresh page, then ``cut`` it off mid-flight.

    Returns what the miss table held right after the cut, the page's TLB
    entry once the walk has ended, and the stale TLB entries left.
    """
    env, shell, driver, (thread,) = tenants()
    mmu = shell.dynamic.mmus[0]
    seen = {}

    def setup():
        alloc = yield from thread.get_mem(2 * PAGE_4K, AllocType.REG)
        # Time one offload on the other page: the cut's shootdown lands
        # that long after an offload of the walked page starts.
        began = env.now
        yield from driver.offload(1, alloc.vaddr + PAGE_4K, PAGE_4K)
        return alloc, env.now - began

    alloc, offload_ns = env.run(env.process(setup()))
    page = alloc.vaddr
    mmu.shootdown(page)
    cut_at = {
        "free_mem": TLB_MISS_WALK_NS / 2,
        "offload": offload_ns,
        "recovery": HealthConfig().drain_ns,
    }[cut]

    def cutter():
        if cut == "free_mem":
            yield env.timeout(cut_at)
            thread.free_mem(alloc)
        elif cut == "offload":
            yield from driver.offload(1, page, PAGE_4K)
        else:
            yield from driver.recover(0, reason="test")

    def observer():
        # The walk begins half a walk before the cut, so it is in flight
        # when the page is unmapped, migrated or flushed.
        yield env.timeout(cut_at - TLB_MISS_WALK_NS / 2)
        mmu.probe(1, page)
        assert mmu._walks
        yield env.timeout(TLB_MISS_WALK_NS / 4 * 3)  # past the cut
        seen["table"] = dict(mmu._walks)
        yield env.timeout(TLB_MISS_WALK_NS)  # past the walk's end
        seen["cached"] = mmu.tlb.probe(page)

    env.process(cutter())
    env.run(env.process(observer()))
    env.run()
    return seen["table"], seen["cached"], stale_entries(driver, 1)


def test_free_mem_mid_walk_drops_the_walk():
    table, cached, stale = _walk_cut_off("free_mem")
    assert table == {}
    assert cached is None
    assert stale == []


def test_offload_mid_walk_drops_the_walk():
    table, cached, stale = _walk_cut_off("offload")
    assert table == {}
    assert cached is not None and cached.location is MemLocation.CARD
    assert stale == []


def test_recovery_mid_walk_drops_the_walk():
    """The flushed region's TLB stays empty of the page: the walk that
    was in flight at the flush ends without installing."""
    table, cached, stale = _walk_cut_off("recovery")
    assert table == {}
    assert cached is None
    assert stale == []


# ------------------------------------------------------ the page boundary


def test_a_packet_that_straddles_a_page_is_translated_at_both():
    """A 4 KiB TRANSFER at a 1 KiB offset: its second packet straddles
    the pages.  With both buffers' second page offloaded to the card, the
    part past the boundary must be read from and written to where that
    page lives, not to the host frame that follows the first page; after
    the pages are synced back the bytes are exact."""
    env, shell, driver, (thread,) = tenants()
    image = bytes((i * 7 + 3) % 251 for i in range(2 * PAGE_4K))
    offset = 1024

    def main():
        src = yield from thread.get_mem(2 * PAGE_4K, AllocType.REG)
        dst = yield from thread.get_mem(2 * PAGE_4K, AllocType.REG)
        thread.write_buffer(src.vaddr, image)
        pages = [
            SgEntry(local=LocalSg(src_addr=alloc.vaddr + PAGE_4K, src_len=PAGE_4K))
            for alloc in (src, dst)
        ]
        for page in pages:
            yield from thread.invoke(Oper.LOCAL_OFFLOAD, page)
        yield from thread.invoke(
            Oper.LOCAL_TRANSFER, transfer(src.vaddr + offset, dst.vaddr + offset, PAGE_4K)
        )
        for page in pages:
            yield from thread.invoke(Oper.LOCAL_SYNC, page)
        return thread.read_buffer(dst.vaddr + offset, PAGE_4K)

    assert env.run(env.process(main())) == image[offset : offset + PAGE_4K]


# ---------------------------------------------------------- the property

PAGES = 64  # per tenant: 8x its TLB's reach

#: One tenant's requests: (kind, source offset, destination offset,
#: length, which of a READ/WRITE pair is posted first).  Offsets are any
#: byte, so packets straddle pages.
REQUESTS = st.lists(
    st.tuples(
        st.sampled_from(["transfer", "read_write", "offload", "sync"]),
        st.integers(0, PAGES * PAGE_4K - 1),
        st.integers(0, PAGES * PAGE_4K - 1),
        st.integers(1, 2 * PAGE_4K),
        st.booleans(),
    ),
    min_size=1,
    max_size=12,
)


def run_tenants(plans):
    """Run one request list per tenant, the tenants concurrently.

    After every request its tenant's buffer must equal a reference image,
    and its TLB must hold no translation its page table contradicts.
    """
    env, shell, driver, threads = tenants(len(plans))
    size = PAGES * PAGE_4K
    failures = []

    def tenant(thread, requests, salt):
        alloc = yield from thread.get_mem(size, AllocType.REG)
        image = bytearray((salt + i * 7) % 251 for i in range(size))
        thread.write_buffer(alloc.vaddr, bytes(image))
        for kind, src, dst, length, write_first in requests:
            length = min(length, size - max(src, dst))
            page = alloc.vaddr + src - src % PAGE_4K
            if kind == "offload":
                yield from thread.invoke(
                    Oper.LOCAL_OFFLOAD, SgEntry(local=LocalSg(src_addr=page, src_len=PAGE_4K))
                )
            elif kind == "sync":
                yield from thread.invoke(
                    Oper.LOCAL_SYNC, SgEntry(local=LocalSg(src_addr=page, src_len=PAGE_4K))
                )
            elif src < dst + length and dst < src + length:
                continue  # overlapping ranges: the stream has no memmove order
            elif kind == "transfer":
                yield from thread.invoke(
                    Oper.LOCAL_TRANSFER, transfer(alloc.vaddr + src, alloc.vaddr + dst, length)
                )
            else:
                read = SgEntry(local=LocalSg(src_addr=alloc.vaddr + src, src_len=length))
                write = SgEntry(local=LocalSg(dst_addr=alloc.vaddr + dst, dst_len=length))
                pair = [(Oper.LOCAL_READ, read), (Oper.LOCAL_WRITE, write)]
                if write_first:
                    pair.reverse()
                first = thread.invoke_async(*pair[0])
                yield from thread.invoke(*pair[1])
                yield first
            if kind in ("transfer", "read_write"):
                image[dst : dst + length] = image[src : src + length]
            if thread.read_buffer(alloc.vaddr, size) != image:
                failures.append((thread.pid, kind, src, dst, length, "bytes"))
            stale = stale_entries(driver, thread.pid)
            if stale:
                failures.append((thread.pid, kind, src, dst, length, stale))

    procs = [
        env.process(tenant(thread, requests, salt=index))
        for index, (thread, requests) in enumerate(zip(threads, plans))
    ]
    env.run(env.all_of(procs))
    return failures


@settings(max_examples=MAX_EXAMPLES)
@given(REQUESTS)
def test_generated_requests_one_tenant(requests):
    assert run_tenants([requests]) == []


@settings(max_examples=MAX_EXAMPLES)
@given(REQUESTS, REQUESTS)
def test_generated_requests_two_tenants(first, second):
    assert run_tenants([first, second]) == []
