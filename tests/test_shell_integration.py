"""Integration tests: shell + driver + cThreads + apps, end to end."""

import pytest

from repro import (
    AllocType,
    CThread,
    LocalSg,
    Oper,
    ServiceConfig,
    SgEntry,
    StreamType,
    VFpgaConfig,
)
from repro.apps import (
    AesCbcApp,
    AesEcbApp,
    HllApp,
    PassThroughApp,
    VectorOpApp,
    aes_cbc_encrypt,
    aes_ecb_encrypt,
)
from repro.core import MoverConfig
from repro.sim import AllOf

from .platforms import card


def transfer_sg(src, dst, length, src_dest=0, dst_dest=0, stream=StreamType.HOST):
    return SgEntry(
        local=LocalSg(
            src_addr=src, src_len=length, dst_addr=dst, dst_len=length,
            src_stream=stream, dst_stream=stream,
            src_dest=src_dest, dst_dest=dst_dest,
        )
    )


def test_passthrough_host_roundtrip():
    env, shell, driver = card(PassThroughApp())
    ct = CThread(driver, 0, pid=10)
    payload = bytes(range(256)) * 40

    def main():
        src = yield from ct.get_mem(len(payload))
        dst = yield from ct.get_mem(len(payload))
        ct.write_buffer(src.vaddr, payload)
        yield from ct.invoke(Oper.LOCAL_TRANSFER, transfer_sg(src.vaddr, dst.vaddr, len(payload)))
        return ct.read_buffer(dst.vaddr, len(payload))

    assert env.run(env.process(main())) == payload


def test_aes_ecb_produces_real_ciphertext():
    env, shell, driver = card(AesEcbApp(num_streams=1))
    ct = CThread(driver, 0, pid=10)
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    plain = b"attack at dawn!!" * 16  # 256 bytes, block-aligned

    def main():
        src = yield from ct.get_mem(len(plain))
        dst = yield from ct.get_mem(len(plain))
        ct.write_buffer(src.vaddr, plain)
        yield from ct.set_csr(int.from_bytes(key[:8], "little"), 0)
        yield from ct.set_csr(int.from_bytes(key[8:], "little"), 1)
        yield from ct.invoke(Oper.LOCAL_TRANSFER, transfer_sg(src.vaddr, dst.vaddr, len(plain)))
        return ct.read_buffer(dst.vaddr, len(plain))

    assert env.run(env.process(main())) == aes_ecb_encrypt(plain, key)


def test_aes_cbc_matches_reference_chain():
    env, shell, driver = card(AesCbcApp(num_streams=1))
    ct = CThread(driver, 0, pid=10)
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    plain = bytes(range(64)) * 4  # 256 bytes

    def main():
        src = yield from ct.get_mem(len(plain))
        dst = yield from ct.get_mem(len(plain))
        ct.write_buffer(src.vaddr, plain)
        yield from ct.set_csr(int.from_bytes(key[:8], "little"), 0)
        yield from ct.set_csr(int.from_bytes(key[8:], "little"), 1)
        yield from ct.invoke(Oper.LOCAL_TRANSFER, transfer_sg(src.vaddr, dst.vaddr, len(plain)))
        return ct.read_buffer(dst.vaddr, len(plain))

    # Default IV is all-zero.
    assert env.run(env.process(main())) == aes_cbc_encrypt(plain, key, bytes(16))


def test_vector_add_multiple_streams():
    """The motivating example: two operand streams, one result stream."""
    import numpy as np

    env, shell, driver = card(
        VectorOpApp(op="add", stream=StreamType.HOST),
        vfpga=VFpgaConfig(num_host_streams=4),
    )
    ct = CThread(driver, 0, pid=10)
    a = np.arange(1024, dtype="<u4")
    b = np.arange(1024, dtype="<u4") * 3

    def main():
        buf_a = yield from ct.get_mem(4096)
        buf_b = yield from ct.get_mem(4096)
        buf_c = yield from ct.get_mem(4096)
        ct.write_buffer(buf_a.vaddr, a.tobytes())
        ct.write_buffer(buf_b.vaddr, b.tobytes())
        # Hardware needs both operands; issue reads to streams 0 and 1 and
        # collect the result from stream 2.
        sg_a = SgEntry(local=LocalSg(src_addr=buf_a.vaddr, src_len=4096, src_dest=0))
        sg_b = SgEntry(local=LocalSg(src_addr=buf_b.vaddr, src_len=4096, src_dest=1))
        sg_c = SgEntry(local=LocalSg(dst_addr=buf_c.vaddr, dst_len=4096, dst_dest=2))
        pa = ct.invoke_async(Oper.LOCAL_READ, sg_a)
        pb = ct.invoke_async(Oper.LOCAL_READ, sg_b)
        pc = ct.invoke_async(Oper.LOCAL_WRITE, sg_c)
        yield AllOf(env, [pa, pb, pc])
        return ct.read_buffer(buf_c.vaddr, 4096)

    result = np.frombuffer(env.run(env.process(main())), dtype="<u4")
    assert (result == a + b).all()


def test_hll_estimate_via_interrupt():
    import struct

    app = HllApp(precision=12)
    env, shell, driver = card(app)
    ct = CThread(driver, 0, pid=10)
    values = list(range(5000)) * 2  # 5000 distinct, with duplicates
    payload = struct.pack(f"<{len(values)}I", *values)

    def main():
        src = yield from ct.get_mem(len(payload))
        ct.write_buffer(src.vaddr, payload)
        sg = SgEntry(local=LocalSg(src_addr=src.vaddr, src_len=len(payload)))
        yield from ct.invoke(Oper.LOCAL_READ, sg)
        _ts, estimate = yield from ct.wait_interrupt()
        return estimate

    estimate = env.run(env.process(main()))
    assert estimate == pytest.approx(5000, rel=0.1)


def test_multi_tenant_fair_sharing():
    """Figure 8's property: equal shares, constant cumulative throughput."""
    results = {}
    for ntenants in (1, 4):
        env, shell, driver = card(
            num_vfpgas=ntenants,
            services=ServiceConfig(mover=MoverConfig(carry_data=False)),
        )
        rates = []

        def client(vid):
            ct = CThread(driver, vid, pid=100 + vid)
            shell.load_app(vid, AesEcbApp(num_streams=1))
            size = 1 << 20
            src = yield from ct.get_mem(size)
            dst = yield from ct.get_mem(size)
            start = env.now
            for _ in range(3):
                yield from ct.invoke(
                    Oper.LOCAL_TRANSFER, transfer_sg(src.vaddr, dst.vaddr, size)
                )
            rates.append(3 * size / (env.now - start))

        procs = [env.process(client(v)) for v in range(ntenants)]
        env.run(AllOf(env, procs))
        results[ntenants] = rates
    # Equal shares within 5%.
    four = results[4]
    assert max(four) / min(four) < 1.05
    # Cumulative conserved within 10% of single-tenant throughput.
    assert sum(four) == pytest.approx(sum(results[1]), rel=0.10)


def test_misbehaving_tenant_does_not_stall_others():
    """§7.2: a vFPGA that never consumes its data only stalls itself."""
    env, shell, driver = card(
        PassThroughApp(),  # the good tenant
        num_vfpgas=2,
        services=ServiceConfig(mover=MoverConfig(carry_data=False)),
    )
    # vFPGA 1 gets NO app: deposited data is never consumed -> credits
    # exhaust -> its requests stall, and only its own.
    good = CThread(driver, 0, pid=1)
    bad = CThread(driver, 1, pid=2)
    finished = {}

    def good_client():
        size = 1 << 20
        src = yield from good.get_mem(size)
        dst = yield from good.get_mem(size)
        yield from good.invoke(Oper.LOCAL_TRANSFER, transfer_sg(src.vaddr, dst.vaddr, size))
        finished["good"] = env.now

    def bad_client():
        size = 1 << 20
        src = yield from bad.get_mem(size)
        # A read whose data will never be consumed by user logic.
        sg = SgEntry(local=LocalSg(src_addr=src.vaddr, src_len=size))
        bad.invoke_async(Oper.LOCAL_READ, sg)
        yield env.timeout(0)

    env.process(bad_client())
    proc = env.process(good_client())
    env.run(proc)
    assert "good" in finished
    # The stalled tenant holds exactly its credit allowance, no more.
    stalled = shell.vfpgas[1]
    assert stalled.rd_credits[StreamType.HOST].available == 0


def test_huge_page_allocation_reduces_pages():
    env, shell, driver = card(
        num_vfpgas=1,
        services=ServiceConfig(),
    )
    ct = CThread(driver, 0, pid=10)

    def main():
        alloc = yield from ct.get_mem(3 * 1024 * 1024, AllocType.HPF)
        return alloc

    alloc = env.run(env.process(main()))
    assert alloc.page_size == 2 * 1024 * 1024
    assert alloc.num_pages == 2


def test_user_interrupt_reaches_software():
    class Interrupter(PassThroughApp):
        def run(self, vfpga):
            vfpga.interrupt(value=0x1234)
            yield vfpga.env.event()

    env, shell, driver = card(Interrupter())
    ct = CThread(driver, 0, pid=10)

    def main():
        ts, value = yield from ct.wait_interrupt()
        return (ts, value)

    ts, value = env.run(env.process(main()))
    assert value == 0x1234
    assert ts > 0  # MSI-X latency was charged


def test_completion_polling_mode():
    """Writeback disabled: completions found by MMIO polling, slower."""
    times = {}
    for writeback in (True, False):
        env, shell, driver = card(
            PassThroughApp(),
            services=ServiceConfig(mover=MoverConfig(writeback=writeback)),
        )
        ct = CThread(driver, 0, pid=10)

        def main():
            src = yield from ct.get_mem(4096)
            dst = yield from ct.get_mem(4096)
            start = env.now
            yield from ct.invoke(Oper.LOCAL_TRANSFER, transfer_sg(src.vaddr, dst.vaddr, 4096))
            return env.now - start

        times[writeback] = env.run(env.process(main()))
    assert times[False] > times[True]  # polling costs latency


def test_importing_the_shell_does_not_import_numpy():
    """numpy is 26 of the 34 MiB a bare ``import repro`` used to hold; the
    three reference kernels that use it import it when called."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "import repro, repro.apps, repro.net, repro.cluster; "
        "sys.exit('numpy' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-c", probe], timeout=60).returncode == 0
