"""Tests for the driver: memory management, faults, migration, isolation."""

import pytest

from repro import AllocType, CThread, LocalSg, MemLocation, Oper, SgEntry, StreamType
from repro.apps import PassThroughApp
from repro.driver import DriverError
from repro.mem import SegmentationFault

from .platforms import card


def test_open_close_lifecycle():
    env, shell, driver = card()
    ctx = driver.open(1, 0)
    assert ctx.pid == 1
    with pytest.raises(DriverError):
        driver.open(1, 0)  # duplicate pid
    driver.close(1)
    with pytest.raises(DriverError):
        driver.close(1)


def test_open_invalid_vfpga():
    env, shell, driver = card()
    with pytest.raises(DriverError):
        driver.open(1, 5)


def test_get_mem_maps_and_prefills_tlb():
    env, shell, driver = card()
    driver.open(1, 0)

    def main():
        alloc = yield from driver.get_mem(1, 4096)
        return alloc

    alloc = env.run(env.process(main()))
    mmu = shell.dynamic.mmus[0]
    # Prefilled: a lookup hits without a walk.
    assert mmu.tlb.lookup(alloc.vaddr) is not None
    # Page table has a host frame.
    entry = driver.processes[1].page_table.walk(alloc.vaddr)
    assert entry.host_paddr is not None
    assert entry.location is MemLocation.HOST


def test_get_mem_page_size_mismatch_rejected():
    env, shell, driver = card()  # shell MMU uses 2 MB pages
    driver.open(1, 0)

    def main():
        yield from driver.get_mem(1, 4096, AllocType.REG)  # 4 KB pages

    env.process(main())
    with pytest.raises(DriverError, match="page size"):
        env.run()


def test_buffer_write_read_via_page_table():
    env, shell, driver = card()
    driver.open(1, 0)

    def main():
        alloc = yield from driver.get_mem(1, 1 << 22)  # spans 2 huge pages
        return alloc

    alloc = env.run(env.process(main()))
    blob = bytes(range(256)) * 32
    # Write across the page boundary.
    boundary = alloc.vaddr + alloc.page_size - 1000
    driver.write_buffer(1, boundary, blob)
    assert driver.read_buffer(1, boundary, len(blob)) == blob


def test_unmapped_access_is_segfault():
    env, shell, driver = card()
    driver.open(1, 0)
    with pytest.raises(SegmentationFault, match="no mapping for vaddr 0xdead000$"):
        driver.read_buffer(1, 0xDEAD000, 16)


def test_unmapped_invoke_faults_in_the_submitter_not_the_card():
    """An invoke naming an unmapped vaddr raises SegmentationFault in the
    submitter's frame before anything is posted.  The card's shared
    translation stage never meets the address, so another tenant's
    transfer still completes and the run ends.  The fault names the
    address asked for, not its page base."""
    env, shell, driver = card(PassThroughApp(), PassThroughApp())
    bad, good = CThread(driver, 0, pid=1), CThread(driver, 1, pid=2)
    posted, outcome = [], {}
    post = driver.post_descriptor

    def spy(desc, write):
        posted.append(desc.pid)
        return post(desc, write)

    driver.post_descriptor = spy

    def faulting():
        dst = yield from bad.get_mem(4096)
        sg = SgEntry(local=LocalSg(src_addr=0xDEAD1234, src_len=4096,
                                   dst_addr=dst.vaddr, dst_len=4096))
        try:
            yield from bad.invoke(Oper.LOCAL_TRANSFER, sg)
        except SegmentationFault as exc:
            outcome["error"] = exc

    def healthy():
        src = yield from good.get_mem(4096)
        dst = yield from good.get_mem(4096)
        good.write_buffer(src.vaddr, b"tenant two" + bytes(4086))
        sg = SgEntry(local=LocalSg(src_addr=src.vaddr, src_len=4096,
                                   dst_addr=dst.vaddr, dst_len=4096))
        yield from good.invoke(Oper.LOCAL_TRANSFER, sg)
        return good.read_buffer(dst.vaddr, 10)

    env.process(faulting())
    tenant_two = env.process(healthy())
    env.run()
    assert isinstance(outcome["error"], SegmentationFault)
    assert str(outcome["error"]).endswith("no mapping for vaddr 0xdead1234")
    assert 1 not in posted and len(driver.processes[1].rings) == 0
    assert tenant_two.value == b"tenant two"


def test_free_mem_invalidates_tlb():
    env, shell, driver = card()
    driver.open(1, 0)

    def main():
        alloc = yield from driver.get_mem(1, 4096)
        return alloc

    alloc = env.run(env.process(main()))
    driver.free_mem(1, alloc)
    assert shell.dynamic.mmus[0].tlb.lookup(alloc.vaddr) is None
    with pytest.raises(SegmentationFault, match=f"no mapping for vaddr {alloc.vaddr:#x}$"):
        driver.read_buffer(1, alloc.vaddr, 4)


def test_offload_and_sync_migrate_data():
    env, shell, driver = card()
    driver.open(1, 0)
    payload = b"migrate me" * 100

    def main():
        alloc = yield from driver.get_mem(1, 4096)
        driver.write_buffer(1, alloc.vaddr, payload)
        yield from driver.offload(1, alloc.vaddr, 4096)
        entry = driver.processes[1].page_table.walk(alloc.vaddr)
        assert entry.location is MemLocation.CARD
        # Data landed in HBM at the card frame.
        card_data = shell.dynamic.hbm.read_now(entry.card_paddr, len(payload))
        assert card_data == payload
        # Mutate on card, then sync back.
        shell.dynamic.hbm.write_now(entry.card_paddr, b"CARD!")
        yield from driver.sync(1, alloc.vaddr, 4096)
        assert entry.location is MemLocation.HOST
        return driver.read_buffer(1, alloc.vaddr, 5)

    assert env.run(env.process(main())) == b"CARD!"
    assert driver.migrated_bytes > 0


def test_card_access_page_faults_and_migrates():
    """A CARD-stream access to a HOST-resident page triggers a migration."""
    env, shell, driver = card(PassThroughApp(num_streams=1, stream=StreamType.CARD))
    ct = CThread(driver, 0, pid=7)
    payload = bytes(range(256)) * 16

    def main():
        src = yield from ct.get_mem(len(payload))
        dst = yield from ct.get_mem(len(payload))
        ct.write_buffer(src.vaddr, payload)
        # No explicit offload: first card access faults + migrates.
        sg = SgEntry(
            local=LocalSg(
                src_addr=src.vaddr, src_len=len(payload),
                dst_addr=dst.vaddr, dst_len=len(payload),
                src_stream=StreamType.CARD, dst_stream=StreamType.CARD,
            )
        )
        yield from ct.invoke(Oper.LOCAL_TRANSFER, sg)
        yield from driver.sync(7, dst.vaddr, len(payload))
        return ct.read_buffer(dst.vaddr, len(payload))

    assert env.run(env.process(main())) == payload
    assert driver.page_faults >= 2  # src and dst pages


def test_page_fault_charges_migration_time():
    env, shell, driver = card()
    driver.open(1, 0)

    def main():
        alloc = yield from driver.get_mem(1, 4096)
        before = env.now
        yield from driver.offload(1, alloc.vaddr, 4096)
        return env.now - before

    elapsed = env.run(env.process(main()))
    # 2 MB page over ~12 GB/s plus fault overhead: at least 100 us.
    assert elapsed > 100_000


def test_memory_isolation_between_processes():
    """Two processes get disjoint physical frames."""
    env, shell, driver = card(num_vfpgas=2)
    driver.open(1, 0)
    driver.open(2, 1)

    def main():
        a = yield from driver.get_mem(1, 4096)
        b = yield from driver.get_mem(2, 4096)
        return a, b

    a, b = env.run(env.process(main()))
    pa = driver.processes[1].page_table.walk(a.vaddr).host_paddr
    pb = driver.processes[2].page_table.walk(b.vaddr).host_paddr
    assert pa != pb
    driver.write_buffer(1, a.vaddr, b"AAAA")
    driver.write_buffer(2, b.vaddr, b"BBBB")
    assert driver.read_buffer(1, a.vaddr, 4) == b"AAAA"
    assert driver.read_buffer(2, b.vaddr, 4) == b"BBBB"


def test_tlb_miss_falls_back_to_driver_walk():
    """Evict the TLB, access again: the driver walk restores it."""
    env, shell, driver = card(PassThroughApp())
    ct = CThread(driver, 0, pid=3)

    def main():
        src = yield from ct.get_mem(4096)
        dst = yield from ct.get_mem(4096)
        ct.write_buffer(src.vaddr, b"walk me" + bytes(4089))
        mmu = shell.dynamic.mmus[0]
        mmu.tlb.invalidate_all()
        walks_before = driver.tlb_walks
        sg = SgEntry(local=LocalSg(src_addr=src.vaddr, src_len=4096,
                                   dst_addr=dst.vaddr, dst_len=4096))
        yield from ct.invoke(Oper.LOCAL_TRANSFER, sg)
        assert driver.tlb_walks > walks_before
        return ct.read_buffer(dst.vaddr, 7)

    assert env.run(env.process(main())) == b"walk me"
