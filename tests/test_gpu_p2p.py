"""Tests for the GPU shared-virtual-memory extension (paper §6.1)."""

import pytest

from repro import CThread, LocalSg, MemLocation, Oper, SgEntry
from repro.apps import PassThroughApp
from repro.driver import DriverError
from repro.mem import GpuConfig, GpuDevice
from repro.mem.tlb import PAGE_4K

from .platforms import card


def gpu_card():
    """A one-region pass-through card with a 1 GiB GPU attached."""
    env, shell, driver = card()
    gpu = GpuDevice(env, GpuConfig(memory_bytes=1 << 30))
    driver.attach_gpu(gpu)
    shell.load_app(0, PassThroughApp())
    return env, shell, driver, gpu


def test_gpu_page_size_must_match_shell():
    env, shell, driver = card()  # 2 MB MMU pages
    with pytest.raises(DriverError, match="page size"):
        driver.attach_gpu(GpuDevice(env, GpuConfig(page_size=PAGE_4K)))


def test_gpu_alloc_without_gpu_rejected():
    env, shell, driver = card()
    driver.open(1, 0)
    env.process(driver.gpu_alloc(1, 4096))
    with pytest.raises(DriverError, match="no GPU"):
        env.run()


def test_gpu_buffer_mapped_as_gpu_location():
    env, shell, driver, gpu = gpu_card()
    ct = CThread(driver, 0, pid=1)

    def main():
        alloc = yield from ct.gpu_alloc(4096)
        return alloc

    alloc = env.run(env.process(main()))
    entry = driver.processes[1].page_table.walk(alloc.vaddr)
    assert entry.location is MemLocation.GPU
    assert entry.gpu_paddr is not None
    assert entry.host_paddr is None


def test_p2p_read_bypasses_host():
    """vFPGA reads a GPU buffer: P2P traffic, zero host H2C bytes."""
    env, shell, driver, gpu = gpu_card()
    ct = CThread(driver, 0, pid=1)
    payload = bytes(range(256)) * 32

    def main():
        src = yield from ct.gpu_alloc(len(payload))
        dst = yield from ct.get_mem(len(payload))
        ct.gpu_write_buffer(src.vaddr, payload)
        h2c_before = shell.static.xdma.link.h2c_bytes
        sg = SgEntry(local=LocalSg(src_addr=src.vaddr, src_len=len(payload),
                                   dst_addr=dst.vaddr, dst_len=len(payload)))
        yield from ct.invoke(Oper.LOCAL_TRANSFER, sg)
        return ct.read_buffer(dst.vaddr, len(payload)), shell.static.xdma.link.h2c_bytes - h2c_before

    data, h2c_delta = env.run(env.process(main()))
    assert data == payload
    assert h2c_delta == 0  # source never crossed the host link
    assert gpu.bytes_read == len(payload)


def test_p2p_write_into_gpu_memory():
    """vFPGA output lands directly in GPU memory."""
    env, shell, driver, gpu = gpu_card()
    ct = CThread(driver, 0, pid=1)
    payload = (b"fpga->gpu direct " * 241)[:4096]

    def main():
        src = yield from ct.get_mem(4096)
        dst = yield from ct.gpu_alloc(4096)
        ct.write_buffer(src.vaddr, payload)
        sg = SgEntry(local=LocalSg(src_addr=src.vaddr, src_len=4096,
                                   dst_addr=dst.vaddr, dst_len=4096))
        yield from ct.invoke(Oper.LOCAL_TRANSFER, sg)
        return ct.gpu_read_buffer(dst.vaddr, len(payload))

    assert env.run(env.process(main())) == payload
    assert gpu.bytes_written >= len(payload)


def test_gpu_to_gpu_through_kernel():
    env, shell, driver, gpu = gpu_card()
    ct = CThread(driver, 0, pid=1)
    payload = bytes(reversed(range(256))) * 16

    def main():
        src = yield from ct.gpu_alloc(4096)
        dst = yield from ct.gpu_alloc(4096)
        ct.gpu_write_buffer(src.vaddr, payload)
        sg = SgEntry(local=LocalSg(src_addr=src.vaddr, src_len=4096,
                                   dst_addr=dst.vaddr, dst_len=4096))
        yield from ct.invoke(Oper.LOCAL_TRANSFER, sg)
        return ct.gpu_read_buffer(dst.vaddr, len(payload))

    assert env.run(env.process(main())) == payload


def test_gpu_migration_to_host():
    """LOCAL_SYNC pulls a GPU page back to a host frame."""
    env, shell, driver, gpu = gpu_card()
    driver.open(1, 0)

    def main():
        alloc = yield from driver.gpu_alloc(1, 4096)
        driver.gpu_write_buffer(1, alloc.vaddr, b"from the gpu")
        entry = driver.processes[1].page_table.walk(alloc.vaddr)
        # Host frame does not exist yet: allocate one by migrating.
        entry.host_paddr = driver._host_frames[alloc.page_size].allocate() + \
            driver._host_base[alloc.page_size]
        yield from driver.sync(1, alloc.vaddr, 4096)
        return driver.read_buffer(1, alloc.vaddr, 12), entry.location

    data, location = env.run(env.process(main()))
    assert data == b"from the gpu"
    assert location is MemLocation.HOST


def test_p2p_bandwidth_below_host_dma():
    cfg = GpuConfig()
    assert cfg.p2p_bandwidth < 12.0
