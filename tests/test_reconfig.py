"""Tests for partial reconfiguration: ICAP, flows, safety checks."""

import pytest

from repro import Environment, ServiceConfig, Shell, ShellConfig
from repro.apps import AesEcbApp, HllApp, PassThroughApp
from repro.core import (
    AXI_HWICAP,
    COYOTE_ICAP,
    MCAP,
    PCAP,
    Bitstream,
    BitstreamKind,
    IcapController,
    ReconfigError,
    VivadoHwManager,
)
from repro.mem import MmuConfig, TlbConfig
from repro.mem.tlb import PAGE_1G
from repro.synth import BuildFlow

from .platforms import card


def test_table2_port_throughput_ordering():
    """HWICAP < PCAP < MCAP << Coyote ICAP (Table 2)."""
    assert AXI_HWICAP.throughput_mbps == 19
    assert PCAP.throughput_mbps == 128
    assert MCAP.throughput_mbps == 145
    assert COYOTE_ICAP.throughput_mbps == 800
    # Coyote's controller is >5x the best baseline (order of magnitude vs HWICAP).
    assert COYOTE_ICAP.throughput_mbps / MCAP.throughput_mbps > 5
    assert COYOTE_ICAP.throughput_mbps / AXI_HWICAP.throughput_mbps > 40


def test_program_time_scales_with_size():
    bitstream_ns = COYOTE_ICAP.program_time_ns(800_000_000)
    assert bitstream_ns == pytest.approx(1e9)  # 800 MB at 800 MB/s = 1 s


def test_icap_controller_charges_time():
    env = Environment()
    icap = IcapController(env)
    bs = Bitstream(kind=BitstreamKind.APP, target_region="vfpga0", size_bytes=8_000_000)

    def proc():
        yield env.process(icap.program(bs, from_host=False))
        return env.now

    elapsed = env.run(env.process(proc()))
    assert elapsed == pytest.approx(10e6)  # 8 MB at 800 MB/s = 10 ms
    assert icap.programs == 1
    assert icap.bytes_programmed == 8_000_000


def test_vivado_flow_is_order_of_magnitude_slower():
    env = Environment()
    flow = BuildFlow("u55c")
    services = ServiceConfig()
    shell_bs = flow.shell_flow(services, ["passthrough"]).bitstream
    full_bs = flow.full_flow(services, ["passthrough"]).bitstream
    vivado_ns = VivadoHwManager(env).program_time_ns(full_bs)
    coyote_total_ns = (
        COYOTE_ICAP.program_time_ns(shell_bs.size_bytes)
        + IcapController.host_overhead_ns(shell_bs)
    )
    assert vivado_ns / coyote_total_ns > 10  # "an order of magnitude faster"


def test_vivado_flow_rejects_partial_bitstreams():
    env = Environment()
    bs = Bitstream(kind=BitstreamKind.SHELL, target_region="shell", size_bytes=1000)
    with pytest.raises(ReconfigError):
        VivadoHwManager(env).program_time_ns(bs)


def test_app_reconfig_swaps_user_logic():
    env, shell, driver = card(PassThroughApp())
    flow = BuildFlow("u55c")
    checkpoint = flow.shell_flow(shell.config.services, ["passthrough"]).checkpoint
    # Force the checkpoint identity to this live shell's configuration.
    app_bs = flow.app_flow(checkpoint, ["hll"]).bitstream
    assert app_bs.linked_shell == shell.shell_id

    def main():
        start = env.now
        yield env.process(driver.reconfigure_app(app_bs, 0, HllApp()))
        return env.now - start

    elapsed = env.run(env.process(main()))
    assert isinstance(shell.vfpgas[0].app, HllApp)
    assert shell.app_reconfigs == 1
    assert elapsed > COYOTE_ICAP.program_time_ns(app_bs.size_bytes)


def test_app_linked_against_other_shell_rejected():
    """The fail-safe: apps cannot load into shells missing their services."""
    env, shell, driver = card()  # memory service on
    flow = BuildFlow("u55c")
    other_services = ServiceConfig(
        en_memory=False, mmu=MmuConfig(tlb=TlbConfig(page_size=PAGE_1G))
    )
    checkpoint = flow.shell_flow(other_services, []).checkpoint
    app_bs = flow.app_flow(checkpoint, ["hll"]).bitstream

    def main():
        yield env.process(driver.reconfigure_app(app_bs, 0, HllApp()))

    env.process(main())
    with pytest.raises(ReconfigError, match="linked against a different shell"):
        env.run()


def test_app_requiring_missing_service_rejected_at_load():
    env = Environment()
    shell = Shell(
        env, ShellConfig(num_vfpgas=1, services=ServiceConfig(en_memory=False))
    )
    app = PassThroughApp(stream=__import__("repro").StreamType.CARD)  # needs memory
    with pytest.raises(ReconfigError, match="requires services"):
        shell.load_app(0, app)


def test_shell_reconfig_swaps_services_and_apps():
    env, shell, driver = card(AesEcbApp(), num_vfpgas=2)
    old_id = shell.shell_id
    flow = BuildFlow("u55c")
    new_services = ServiceConfig(
        en_memory=False, mmu=MmuConfig(tlb=TlbConfig(page_size=PAGE_1G))
    )
    result = flow.shell_flow(new_services, ["passthrough"])

    def main():
        start = env.now
        yield env.process(
            driver.reconfigure_shell(result.bitstream, new_services, [PassThroughApp(), None])
        )
        return env.now - start

    elapsed_ns = env.run(env.process(main()))
    assert shell.shell_id != old_id
    assert shell.config.service_names == new_services.service_names
    assert isinstance(shell.vfpgas[0].app, PassThroughApp)
    assert shell.vfpgas[1].app is None
    assert shell.dynamic.hbm is None  # memory service removed
    # Table 3 scale: total latency in the hundreds of ms, far below Vivado.
    assert 200e6 < elapsed_ns < 2e9


def test_shell_reconfig_wrong_kind_rejected():
    env = Environment()
    shell = Shell(env, ShellConfig())
    bs = Bitstream(kind=BitstreamKind.APP, target_region="vfpga0", size_bytes=100)

    def main():
        yield env.process(shell.reconfigure_shell(bs, ServiceConfig()))

    env.process(main())
    with pytest.raises(ReconfigError):
        env.run()


def test_shell_reconfig_wrong_device_rejected():
    env = Environment()
    shell = Shell(env, ShellConfig(device="u55c"))
    bs = Bitstream(
        kind=BitstreamKind.SHELL, target_region="shell", size_bytes=100, device="u250"
    )

    def main():
        yield env.process(shell.reconfigure_shell(bs, ServiceConfig()))

    env.process(main())
    with pytest.raises(ReconfigError, match="u250"):
        env.run()


def test_shell_remains_usable_after_reconfig():
    """End-to-end: reconfigure, then run a transfer on the new shell."""
    from repro import CThread, LocalSg, Oper, SgEntry

    env, shell, driver = card()
    flow = BuildFlow("u55c")
    new_services = ServiceConfig(en_memory=False)
    result = flow.shell_flow(new_services, ["passthrough"])

    def main():
        yield env.process(
            driver.reconfigure_shell(result.bitstream, new_services, [PassThroughApp()])
        )
        ct = CThread(driver, 0, pid=50)
        src = yield from ct.get_mem(4096)
        dst = yield from ct.get_mem(4096)
        ct.write_buffer(src.vaddr, b"post-reconfig" + bytes(4083))
        sg = SgEntry(local=LocalSg(src_addr=src.vaddr, src_len=4096,
                                   dst_addr=dst.vaddr, dst_len=4096))
        yield from ct.invoke(Oper.LOCAL_TRANSFER, sg)
        return ct.read_buffer(dst.vaddr, 13)

    assert env.run(env.process(main())) == b"post-reconfig"


def test_one_user_interrupt_is_delivered_once_after_shell_swaps():
    """The XDMA outlives a shell swap, so the user-interrupt demux is
    wired per driver, not per shell: two swaps later one interrupt is
    still one entry on the cThread's eventfd."""
    from repro import CThread
    from repro.pcie import MsiVector

    env, shell, driver = card()
    ct = CThread(driver, 0, pid=60)
    services = shell.config.services
    bitstream = BuildFlow("u55c").shell_flow(services, ["passthrough"]).bitstream

    def main():
        for _ in range(2):
            yield from driver.reconfigure_shell(bitstream, services, [PassThroughApp()])
        shell.vfpgas[0].interrupt(7)

    env.run(env.process(main()))
    env.run()
    assert [payload for _when, payload in driver.processes[ct.pid].interrupts.items] == [7]
    assert len(shell.static.xdma._irq_handlers[MsiVector.USER]) == 1


# ----------------------------------------------------- bitstream cache


def _bs(region="vfpga0", size=8_000_000, seed=0):
    return Bitstream(
        kind=BitstreamKind.APP, target_region=region, size_bytes=size + seed
    )


def _program(env, icap, bitstream):
    proc = env.process(icap.program(bitstream, from_host=False))
    start = env.now
    env.run(proc)
    return env.now - start


def test_bitstream_cache_warm_replay_streams_a_fraction():
    env = Environment()
    icap = IcapController(env)
    bs = _bs()
    cold = _program(env, icap, bs)
    warm = _program(env, icap, bs)
    assert icap.cache_misses == 1 and icap.cache_hits == 1
    assert icap.is_cached(bs)
    # Warm replay crosses the ICAP with only the compressed delta.
    assert warm == pytest.approx(cold * IcapController.CACHE_REPLAY_FRACTION)
    expected_bytes = bs.size_bytes + int(
        bs.size_bytes * IcapController.CACHE_REPLAY_FRACTION
    )
    assert icap.bytes_programmed == expected_bytes


def test_bitstream_cache_is_keyed_per_region():
    env = Environment()
    icap = IcapController(env)
    bs_a = _bs(region="vfpga0")
    _program(env, icap, bs_a)
    # Same artifact bits, different target region: not a hit there.
    bs_b = Bitstream(
        kind=BitstreamKind.APP, target_region="vfpga1",
        size_bytes=bs_a.size_bytes,
    )
    assert icap.is_cached(bs_a) and not icap.is_cached(bs_b)
    _program(env, icap, bs_b)
    assert icap.cache_hits == 0 and icap.cache_misses == 2


def test_bitstream_cache_can_be_disabled():
    env = Environment()
    icap = IcapController(env, region_cache_enabled=False)
    bs = _bs()
    cold = _program(env, icap, bs)
    assert not icap.is_cached(bs)
    again = _program(env, icap, bs)
    assert again == pytest.approx(cold)  # no fast path
    assert icap.cache_hits == 0 and icap.cache_misses == 0


def test_bitstream_cache_evicts_fifo_per_region():
    env = Environment()
    icap = IcapController(env)
    streams = [
        _bs(seed=i) for i in range(IcapController.CACHE_ENTRIES_PER_REGION + 1)
    ]
    for bitstream in streams:
        _program(env, icap, bitstream)
    assert not icap.is_cached(streams[0])  # the oldest got evicted
    assert all(icap.is_cached(b) for b in streams[1:])


def test_icap_crc_fault_invalidates_the_cached_entry():
    from repro.core import IcapCrcError
    from repro.faults import ICAP_CRC, FaultInjector, FaultPlan, FaultRule

    env = Environment()
    icap = IcapController(env)
    icap.faults = FaultInjector(
        FaultPlan(seed=2, rules=[FaultRule(site=ICAP_CRC, at_events=(1,))])
    )
    bs = _bs()
    _program(env, icap, bs)
    assert icap.is_cached(bs)
    proc = env.process(icap.program(bs, from_host=False))
    proc.defuse()
    with pytest.raises(IcapCrcError):
        env.run(proc)
    # The region is undefined: the cached copy must not be trusted.
    assert icap.crc_failures == 1
    assert not icap.is_cached(bs)
    _program(env, icap, bs)  # re-programs cold, re-populates
    assert icap.is_cached(bs)
    assert icap.cache_misses == 2


def test_lost_msix_polls_and_late_delivery_is_harmless():
    """Satellite audit of the reconfig waiter lifecycle: a dropped
    RECONFIG_DONE interrupt falls back to the status poll and *removes*
    the stale waiter; an MSI-X message that then arrives late (or twice)
    must be a no-op — including against a waiter that is already
    triggered — not a crash or a double-fire."""
    from repro.faults import MSIX_LOSS, FaultInjector, FaultPlan, FaultRule
    from repro.pcie import MsiVector
    from repro.sim import Event

    env, shell, driver = card()
    plan = FaultPlan(
        seed=1,
        rules=[
            FaultRule(
                site=MSIX_LOSS,
                probability=1.0,
                max_fires=1,
                match=lambda vector: vector is MsiVector.RECONFIG_DONE,
            )
        ],
    )
    FaultInjector(plan).arm(shell=shell)
    flow = BuildFlow("u55c")
    checkpoint = flow.shell_flow(shell.config.services, ["passthrough"]).checkpoint
    bitstream = flow.app_flow(checkpoint, ["hll"]).bitstream
    shell.load_app(0, PassThroughApp())

    def first():
        yield env.process(driver.reconfigure_app(bitstream, 0, HllApp()))

    env.run(env.process(first()))
    assert isinstance(shell.vfpgas[0].app, HllApp)  # completed via the poll
    assert driver.irq_timeouts == 1
    assert driver._reconfig_done_waiters == []  # no stale waiter left behind

    # The lost interrupt shows up late, and then a duplicate: idempotent.
    driver._on_reconfig_done(1)
    driver._on_reconfig_done(1)
    # Even a stale *triggered* waiter in the list must not crash the
    # handler (the race the `if not event.triggered` guard closes).
    stale = Event(env)
    stale.succeed(0)
    driver._reconfig_done_waiters.append(stale)
    driver._on_reconfig_done(1)
    assert driver._reconfig_done_waiters == []
    env.run()

    # The plan's one fire is spent: the next PR completes via the
    # interrupt with no further timeouts.
    def second():
        yield env.process(driver.reconfigure_app(bitstream, 0, HllApp(), cached=True))

    env.run(env.process(second()))
    assert driver.irq_timeouts == 1
