"""Unit tests for the AXI stream and lite models."""

import pytest

from repro.axi import STREAM_WIDTH_BYTES, AxiLite, AxiStream, Flit, RegisterFile
from repro.sim import FABRIC_CLOCK, Environment


def test_flit_rejects_length_mismatch():
    with pytest.raises(ValueError):
        Flit(length=10, data=b"abc")


def test_flit_rejects_nonpositive_length():
    with pytest.raises(ValueError):
        Flit(length=0)


def test_flit_beats_rounds_up():
    assert Flit(length=64).beats() == 1
    assert Flit(length=65).beats() == 2
    assert Flit(length=4096).beats() == 64
    assert Flit(length=1).beats(width_bytes=64) == 1


def test_stream_send_recv_roundtrip():
    env = Environment()
    stream = AxiStream(env)
    got = []

    def producer():
        yield from stream.send(Flit(length=128, data=b"x" * 128, tid=3))

    def consumer():
        flit = yield stream.recv()
        got.append(flit)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert got[0].data == b"x" * 128
    assert got[0].tid == 3


def test_stream_timing_charges_beats():
    env = Environment()
    stream = AxiStream(env, depth_flits=1024)

    def producer():
        # 4096 bytes = 64 beats at 4 ns/beat = 256 ns
        yield from stream.send(Flit(length=4096))
        return env.now

    p = env.process(producer())
    finished = env.run(p)
    assert finished == pytest.approx(FABRIC_CLOCK.cycles_to_ns(4096 // STREAM_WIDTH_BYTES))


def test_stream_backpressure_blocks_producer():
    env = Environment()
    stream = AxiStream(env, depth_flits=2)
    progress = []

    def producer():
        for i in range(4):
            yield from stream.send(Flit(length=64))
            progress.append((i, env.now))

    def consumer():
        yield env.timeout(1000)
        for _ in range(4):
            yield stream.recv()

    env.process(producer())
    env.process(consumer())
    env.run()
    # First two flits enter the FIFO early; the rest wait for the consumer.
    assert progress[0][1] < 1000
    assert progress[1][1] < 1000
    assert progress[2][1] >= 1000
    assert progress[3][1] >= 1000


def test_stream_send_bytes_chunks_and_reassembles():
    env = Environment()
    stream = AxiStream(env, depth_flits=1024)
    payload = bytes(range(256)) * 10
    result = []

    def producer():
        yield from stream.send_bytes(payload, tid=7, chunk=512)

    def consumer():
        msg = yield from stream.recv_message()
        result.append(msg)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert result[0].data == payload
    assert result[0].length == len(payload)
    assert result[0].tid == 7


def test_stream_counters():
    env = Environment()
    stream = AxiStream(env, depth_flits=8)

    def producer():
        yield from stream.send_bytes(b"a" * 300, chunk=100)

    env.process(producer())
    env.run()
    assert stream.bytes_sent == 300
    assert stream.flits_sent == 3


# -------------------------------------------------------------- AXI-Lite

def test_register_file_read_write():
    regs = RegisterFile(size=8)
    regs.write(3, 0xDEADBEEF)
    assert regs.read(3) == 0xDEADBEEF
    assert regs.read(0) == 0


def test_register_file_bounds():
    regs = RegisterFile(size=4)
    with pytest.raises(IndexError):
        regs.read(4)
    with pytest.raises(IndexError):
        regs.write(-1, 0)


def test_register_file_masks_to_64_bits():
    regs = RegisterFile()
    regs.write(0, 1 << 70)
    assert regs.read(0) == 0


def test_register_write_hook_fires():
    regs = RegisterFile()
    seen = []
    regs.on_write(2, seen.append)
    regs.write(2, 42)
    assert seen == [42]


def test_register_read_hook_overrides_value():
    regs = RegisterFile()
    regs.write(1, 5)
    regs.on_read(1, lambda: 99)
    assert regs.read(1) == 99


def test_axilite_timed_access():
    env = Environment()
    bus = AxiLite(env, read_latency_ns=900, write_latency_ns=120)

    def proc():
        yield from bus.write(0, 7)
        value = yield from bus.read(0)
        return (value, env.now)

    value, t = env.run(env.process(proc()))
    assert value == 7
    assert t == pytest.approx(1020)


def test_axilite_untimed_access():
    env = Environment()
    bus = AxiLite(env)
    bus.write_now(5, 123)
    assert bus.read_now(5) == 123
