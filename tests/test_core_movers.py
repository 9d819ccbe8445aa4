"""Unit tests for the data movers and the flit assembler."""

import pytest

from repro.axi.types import Flit
from repro.core.movers import _FlitAssembler
from repro import CThread, LocalSg, Oper, ServiceConfig, SgEntry, StreamType
from repro.apps import PassThroughApp
from repro.core import MoverConfig

from .platforms import card


# ---------------------------------------------------------- flit assembler

def test_assembler_exact_fit():
    asm = _FlitAssembler()
    asm.push(Flit(length=10, data=b"0123456789"))
    assert asm.available == 10
    assert asm.take(10) == b"0123456789"
    assert asm.available == 0


def test_assembler_split_across_takes():
    asm = _FlitAssembler()
    asm.push(Flit(length=10, data=b"abcdefghij"))
    assert asm.take(4) == b"abcd"
    assert asm.take(6) == b"efghij"


def test_assembler_merges_flits():
    asm = _FlitAssembler()
    asm.push(Flit(length=3, data=b"foo"))
    asm.push(Flit(length=3, data=b"bar"))
    assert asm.take(6) == b"foobar"


def test_assembler_timing_only_returns_none():
    asm = _FlitAssembler()
    asm.push(Flit(length=8))
    assert asm.available == 8
    assert asm.take(8) is None


def test_assembler_mixed_stream_degrades_to_none():
    asm = _FlitAssembler()
    asm.push(Flit(length=4, data=b"real"))
    asm.push(Flit(length=4))  # timing only
    assert asm.take(8) is None


def test_assembler_overtake_rejected():
    asm = _FlitAssembler()
    asm.push(Flit(length=4, data=b"real"))
    with pytest.raises(ValueError):
        asm.take(5)


def test_assembler_resets_after_drain():
    asm = _FlitAssembler()
    asm.push(Flit(length=4))
    assert asm.take(4) is None
    # New all-real run after the stream boundary.
    asm.push(Flit(length=4, data=b"good"))
    assert asm.take(4) == b"good"


# -------------------------------------------------- odd-size kernel output

class ShrinkingApp(PassThroughApp):
    """Echoes half of every input flit: output flits never align with
    4 KB write packets, exercising the reassembly path."""

    name = "shrinker"

    def _lane(self, vfpga, dest):
        while True:
            flit = yield from vfpga.recv(self.stream, dest)
            half = flit.length // 2
            out = Flit(
                length=half,
                data=flit.data[:half] if flit.data is not None else None,
                tid=flit.tid,
                last=flit.last,
            )
            yield from vfpga.send(out, self.stream, dest)


def test_unaligned_kernel_output_reassembled():
    env, shell, driver = card(ShrinkingApp())
    ct = CThread(driver, 0, pid=1)
    payload = bytes(range(256)) * 64  # 16 KB in -> 8 KB out

    def main():
        src = yield from ct.get_mem(len(payload))
        dst = yield from ct.get_mem(len(payload) // 2)
        ct.write_buffer(src.vaddr, payload)
        sg = SgEntry(local=LocalSg(
            src_addr=src.vaddr, src_len=len(payload),
            dst_addr=dst.vaddr, dst_len=len(payload) // 2,
        ))
        yield from ct.invoke(Oper.LOCAL_TRANSFER, sg)
        return ct.read_buffer(dst.vaddr, len(payload) // 2)

    result = env.run(env.process(main()))
    expected = b"".join(
        payload[i : i + 2048] for i in range(0, len(payload), 4096)
    )
    assert result == expected


# --------------------------------------------------------------- accounting

def test_mover_byte_counters():
    env, shell, driver = card(
        PassThroughApp(),
        services=ServiceConfig(mover=MoverConfig(carry_data=False)),
    )
    ct = CThread(driver, 0, pid=1)

    def main():
        src = yield from ct.get_mem(1 << 16)
        dst = yield from ct.get_mem(1 << 16)
        sg = SgEntry(local=LocalSg(src_addr=src.vaddr, src_len=1 << 16,
                                   dst_addr=dst.vaddr, dst_len=1 << 16))
        yield from ct.invoke(Oper.LOCAL_TRANSFER, sg)

    env.run(env.process(main()))
    mover = shell.dynamic.host_mover
    assert mover.bytes_read == 1 << 16
    assert mover.bytes_written == 1 << 16


def test_rr_arbiter_sees_both_tenants():
    env, shell, driver = card(
        PassThroughApp(), PassThroughApp(),
        services=ServiceConfig(mover=MoverConfig(carry_data=False)),
    )
    from repro.sim import AllOf

    def client(v):
        ct = CThread(driver, v, pid=10 + v)
        src = yield from ct.get_mem(1 << 16)
        dst = yield from ct.get_mem(1 << 16)
        sg = SgEntry(local=LocalSg(src_addr=src.vaddr, src_len=1 << 16,
                                   dst_addr=dst.vaddr, dst_len=1 << 16))
        yield from ct.invoke(Oper.LOCAL_TRANSFER, sg)

    procs = [env.process(client(v)) for v in range(2)]
    env.run(AllOf(env, procs))
    packets_each = (1 << 16) // MoverConfig().packet_bytes
    assert shell.dynamic.host_mover.rd_arbiter.grants == 2 * packets_each


def test_assembler_mixed_partial_takes_consume_real_prefix():
    asm = _FlitAssembler()
    asm.push(Flit(length=4, data=b"real"))
    asm.push(Flit(length=4))  # timing only
    # A take smaller than the buffered real bytes still returns None —
    # the run is tainted — and consumes the real prefix.
    assert asm.take(3) is None
    assert asm.available == 5
    # Real bytes pushed mid-run stay tainted until the run drains.
    asm.push(Flit(length=2, data=b"ok"))
    assert asm.take(7) is None
    assert asm.available == 0
    # Boundary reached with nothing left over: the next run is clean.
    asm.push(Flit(length=2, data=b"ok"))
    assert asm.take(2) == b"ok"


def test_assembler_taint_clears_only_at_stream_boundary():
    asm = _FlitAssembler()
    asm.push(Flit(length=4))  # timing-only
    assert asm.take(2) is None
    asm.push(Flit(length=2, data=b"hi"))  # real bytes join a tainted run
    assert asm.take(4) is None
    assert asm.available == 0


# ------------------------------------------------- packets: host vs card

TRANSFER = 256 * 1024


def _passthrough_transfer(stream, offset=0):
    """One ``TRANSFER``-byte pass-through over ``stream``, the buffers
    ``offset`` bytes into their (2 MiB-aligned) allocations; card
    buffers are offloaded to HBM first.  Returns the shell, the bytes
    that landed, the bytes sent, and the HBM channel bookings and MMU
    translations the transfer itself made."""
    env, shell, driver = card(PassThroughApp(stream=stream))
    ct = CThread(driver, 0, pid=1)
    payload = bytes(range(251)) * (TRANSFER // 251 + 1)
    payload = payload[:TRANSFER]
    hbm, tlb = shell.dynamic.hbm, shell.dynamic.mmus[0].tlb
    booked = {}

    def main():
        src = yield from ct.get_mem(2 * TRANSFER)
        dst = yield from ct.get_mem(2 * TRANSFER)
        ct.write_buffer(src.vaddr + offset, payload)
        if stream is StreamType.CARD:
            for buf in (src, dst):
                yield from ct.invoke(Oper.LOCAL_OFFLOAD, SgEntry(
                    local=LocalSg(src_addr=buf.vaddr, src_len=2 * TRANSFER)))
        before = sum(hbm.channel_accesses), tlb.hits + tlb.misses
        sg = SgEntry(local=LocalSg(
            src_addr=src.vaddr + offset, src_len=TRANSFER,
            dst_addr=dst.vaddr + offset, dst_len=TRANSFER,
            src_stream=stream, dst_stream=stream,
        ))
        entry = yield from ct.invoke(Oper.LOCAL_TRANSFER, sg)
        assert entry.status == "success"
        booked["channels"] = sum(hbm.channel_accesses) - before[0]
        booked["translations"] = tlb.hits + tlb.misses - before[1]
        if stream is StreamType.CARD:
            yield from ct.invoke(Oper.LOCAL_SYNC, SgEntry(
                local=LocalSg(src_addr=dst.vaddr, src_len=2 * TRANSFER)))
        return ct.read_buffer(dst.vaddr + offset, TRANSFER)

    landed = env.run(env.process(main()))
    return shell, landed, payload, booked


def test_card_packet_is_one_stripe_one_translation_one_channel_booking():
    shell, landed, payload, booked = _passthrough_transfer(StreamType.CARD)
    stripes = TRANSFER // shell.dynamic.hbm.config.stripe_bytes
    assert stripes == 64
    # Read and write direction each: one translation and one channel
    # booking per stripe (two of each when the mover cut at 2 KiB).
    assert booked == {"translations": 2 * stripes, "channels": 2 * stripes}
    assert landed == payload


def test_card_transfer_off_the_stripe_grid_lands_byte_exact():
    shell, landed, payload, booked = _passthrough_transfer(StreamType.CARD, offset=1024)
    # Still one translation a packet; every packet now straddles two stripes.
    assert booked == {"translations": 128, "channels": 256}
    assert landed == payload


def test_host_transfer_still_cuts_at_the_host_packet_size():
    shell, landed, payload, booked = _passthrough_transfer(StreamType.HOST)
    assert MoverConfig().packet_bytes == 2048
    assert shell.dynamic.host_mover.rd_arbiter.grants == 128
    assert shell.dynamic.host_mover.wr_arbiter.grants == 128
    assert booked["channels"] == 0
    assert landed == payload
