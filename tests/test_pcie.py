"""Unit tests for the PCIe link and XDMA bridge."""

import pytest

from repro import CThread, LocalSg, Oper, SgEntry
from repro.apps import PassThroughApp
from repro.health import RecoveredError
from repro.pcie import MsiVector, PcieLink, PcieLinkConfig, Xdma, XdmaConfig
from repro.pcie.xdma import WRITEBACK_LATENCY_NS
from repro.sim import Environment
from repro.telemetry import collect_card_metrics

from .platforms import card


def test_link_transfer_time_matches_bandwidth():
    env = Environment()
    link = PcieLink(env, PcieLinkConfig(h2c_bandwidth=12.0, descriptor_overhead_ns=0))

    def proc():
        yield from link.h2c(12_000)  # 12 KB at 12 B/ns = 1000 ns
        return env.now

    assert env.run(env.process(proc())) == pytest.approx(1000)


def test_link_directions_are_independent():
    env = Environment()
    link = PcieLink(env, PcieLinkConfig(descriptor_overhead_ns=0))
    done = {}

    def h2c():
        yield from link.h2c(120_000)
        done["h2c"] = env.now

    def c2h():
        yield from link.c2h(120_000)
        done["c2h"] = env.now

    env.process(h2c())
    env.process(c2h())
    env.run()
    # Full duplex: both finish at the single-transfer time.
    assert done["h2c"] == pytest.approx(done["c2h"])
    assert done["h2c"] == pytest.approx(10_000)


def test_link_same_direction_serialises():
    env = Environment()
    link = PcieLink(env, PcieLinkConfig(descriptor_overhead_ns=0))
    done = []

    def xfer():
        yield from link.h2c(120_000)
        done.append(env.now)

    env.process(xfer())
    env.process(xfer())
    env.run()
    assert done == [pytest.approx(10_000), pytest.approx(20_000)]


def test_descriptor_overhead_added():
    env = Environment()
    link = PcieLink(env, PcieLinkConfig(h2c_bandwidth=12.0, descriptor_overhead_ns=350))

    def proc():
        yield from link.h2c(1200)
        return env.now

    assert env.run(env.process(proc())) == pytest.approx(100 + 350)


def test_xdma_host_memory_roundtrip():
    env = Environment()
    xdma = Xdma(env, XdmaConfig(host_memory_bytes=1 << 20))

    def proc():
        xdma.host_mem.write(0x1000, b"payload")
        data = yield from xdma.read_host(0x1000, 7)
        yield from xdma.write_host(0x2000, data + b"!")
        return xdma.host_mem.read(0x2000, 8)

    assert env.run(env.process(proc())) == b"payload!"


def test_xdma_interrupt_delivery():
    env = Environment()
    xdma = Xdma(env, XdmaConfig(host_memory_bytes=1 << 20))
    seen = []
    xdma.on_interrupt(MsiVector.USER, lambda value: seen.append((env.now, value)))

    def proc():
        yield from xdma.raise_msix(MsiVector.USER, value=42)

    env.run(env.process(proc()))
    assert len(seen) == 1
    assert seen[0][1] == 42
    assert seen[0][0] > 0  # latency charged


def test_xdma_interrupt_vector_isolation():
    env = Environment()
    xdma = Xdma(env, XdmaConfig(host_memory_bytes=1 << 20))
    seen = []
    xdma.on_interrupt(MsiVector.PAGE_FAULT, lambda v: seen.append(("pf", v)))
    xdma.on_interrupt(MsiVector.USER, lambda v: seen.append(("user", v)))

    def proc():
        yield from xdma.raise_msix(MsiVector.PAGE_FAULT, value=1)

    env.run(env.process(proc()))
    assert seen == [("pf", 1)]


def test_xdma_writeback_counters():
    """A writeback is posted: the call returns at once and the counter
    moves ``WRITEBACK_LATENCY_NS`` later, with nobody waiting on it."""
    env = Environment()
    xdma = Xdma(env, XdmaConfig(host_memory_bytes=1 << 20))
    assert xdma.writeback("vfpga0-host-rd") is None
    xdma.writeback("vfpga0-host-rd")
    counter = xdma.writebacks["vfpga0-host-rd"]
    assert env.now == 0.0 and counter.count == 0
    env.run(until=WRITEBACK_LATENCY_NS - 1)
    assert counter.count == 0
    env.run(until=WRITEBACK_LATENCY_NS)
    assert counter.count == 2
    assert env.pending == 0


def test_xdma_byte_counters():
    env = Environment()
    xdma = Xdma(env, XdmaConfig(host_memory_bytes=1 << 20))

    def proc():
        yield from xdma.read_host(0, 100)
        yield from xdma.write_host(0, b"x" * 50)
        yield from xdma.migrate(1000, to_card=True)

    env.run(env.process(proc()))
    assert xdma.link.h2c_bytes == 1100
    assert xdma.link.c2h_bytes == 50


# ------------------------------------------- in-flight count under interrupt


def _holder_and_waiter(env, link):
    def xfer():
        yield from link.h2c(120_000)  # 10 us each

    return env.process(xfer()), env.process(xfer())


def test_in_flight_drops_an_interrupted_waiter_at_once():
    """The count used to read ``Resource._waiting``, which keeps an
    abandoned request until the queue drains past it: a waiter
    interrupted while queued stayed in the gauge until the holder was
    done."""
    env = Environment()
    link = PcieLink(env, PcieLinkConfig(descriptor_overhead_ns=0))
    _holder, waiter = _holder_and_waiter(env, link)
    seen = {}

    def reset():
        yield env.timeout(1_000)
        seen["both"] = link.in_flight("h2c")
        waiter.defuse()
        waiter.interrupt("region reset")
        yield env.timeout(1)
        seen["after interrupt"] = link.in_flight("h2c")

    env.process(reset())
    env.run()
    assert seen == {"both": 2, "after interrupt": 1}
    assert link.in_flight("h2c") == 0
    assert link.in_flight_high_water == {"h2c": 2, "c2h": 0}
    assert link.h2c_transfers == 1  # the interrupted one moved nothing


def test_interrupted_waiter_keeps_its_booked_slot():
    """A slot is booked when the transfer is issued and is not recalled:
    the TLPs are already in the pipeline, so a later transfer queues
    behind the dead one's slot."""
    env = Environment()
    link = PcieLink(env, PcieLinkConfig(descriptor_overhead_ns=0))
    _holder, waiter = _holder_and_waiter(env, link)

    def late():
        yield env.timeout(1_000)
        waiter.defuse()
        waiter.interrupt("region reset")
        yield from link.h2c(120_000)
        return env.now

    assert env.run(env.process(late())) == 30_000.0


def test_in_flight_is_zero_after_a_recovery_that_lands_mid_dma():
    """``quiesce_region`` interrupts a region's units while the shared
    DMA stages hold the link; once everything drained, nothing is left
    in the count or the gauge."""
    env, shell, driver = card(num_vfpgas=2)
    link = shell.static.xdma.link
    for vfpga_id in range(2):
        shell.load_app(vfpga_id, PassThroughApp())
    size = 256 * 1024
    outcome = {}

    def tenant(vfpga_id):
        thread = CThread(driver, vfpga_id, pid=10 + vfpga_id)
        src = yield from thread.get_mem(size)
        dst = yield from thread.get_mem(size)
        thread.write_buffer(src.vaddr, bytes([vfpga_id + 1]) * size)
        sg = SgEntry(local=LocalSg(
            src_addr=src.vaddr, src_len=size, dst_addr=dst.vaddr, dst_len=size,
        ))
        try:
            yield from thread.invoke(Oper.LOCAL_TRANSFER, sg)
            outcome[vfpga_id] = thread.read_buffer(dst.vaddr, size)
        except RecoveredError:
            outcome[vfpga_id] = "recovered"

    def operator():
        while not (link.in_flight("h2c") and link.h2c_bytes > size // 4):
            yield env.timeout(50)
        outcome["in flight at reset"] = link.in_flight("h2c")
        yield env.process(driver.recover(0, reason="operator"))

    for vfpga_id in range(2):
        env.process(tenant(vfpga_id))
    env.process(operator())
    env.run()
    assert outcome[0] == "recovered" and outcome[1] == bytes([2]) * size
    assert outcome["in flight at reset"] >= 1
    assert link.in_flight("h2c") == link.in_flight("c2h") == 0
    gauge = collect_card_metrics(driver).gauge("pcie.h2c_in_flight")
    assert gauge.value == 0
    assert gauge.high_water == link.in_flight_high_water["h2c"] >= 1
