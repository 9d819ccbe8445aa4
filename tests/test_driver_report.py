"""Tests for the card status report."""

import re

from repro import CThread, LocalSg, Oper, SgEntry
from repro.apps import PassThroughApp
from repro.driver import card_report, format_report

from .platforms import card


def run_some_traffic():
    env, shell, driver = card(PassThroughApp())
    ct = CThread(driver, 0, pid=11)

    def main():
        src = yield from ct.get_mem(1 << 16)
        dst = yield from ct.get_mem(1 << 16)
        sg = SgEntry(local=LocalSg(src_addr=src.vaddr, src_len=1 << 16,
                                   dst_addr=dst.vaddr, dst_len=1 << 16))
        yield from ct.invoke(Oper.LOCAL_TRANSFER, sg)

    env.run(env.process(main()))
    env.run()  # drain trailing writebacks
    return driver


def test_report_structure():
    driver = run_some_traffic()
    report = card_report(driver)
    assert report["device"] == "u55c"
    assert "host" in report["services"]
    telemetry = report["telemetry"]
    assert telemetry["pcie"]["h2c_bytes"] == 1 << 16
    assert telemetry["pcie"]["c2h_bytes"] == 1 << 16
    assert report["processes"] == [11]
    vfpga = report["vfpgas"][0]
    assert vfpga["app"] == "passthrough"
    assert vfpga["tlb"]["hits"] > 0
    assert "hbm_bytes_read" in telemetry["mem"]  # memory service enabled by default


def test_report_counts_writebacks():
    driver = run_some_traffic()
    report = card_report(driver)
    assert sum(report["telemetry"]["pcie"]["writebacks"].values()) >= 2  # rd + wr


def test_format_report_flattens():
    driver = run_some_traffic()
    text = format_report(card_report(driver))
    assert "telemetry.pcie.h2c_bytes: 65536" in text
    assert "vfpgas[0].app: passthrough" in text


def test_report_fault_section_quiescent():
    """With no injector armed, every fault counter is zero and the faults
    section carries no 'injected' summary."""
    driver = run_some_traffic()
    report = card_report(driver)
    telemetry = report["telemetry"]
    assert telemetry["pcie"]["replays"] == 0
    assert telemetry["pcie"]["interrupts_lost"] == 0
    assert telemetry["reconfig"]["icap_crc_failures"] == 0
    assert telemetry["reconfig"]["icap_rollbacks"] == 0
    assert telemetry["reconfig"]["retries"] == 0
    assert telemetry["reconfig"]["irq_timeouts"] == 0
    assert telemetry["ring"]["invoke_timeouts"] == 0
    assert telemetry["mem"]["hbm_ecc_corrected"] == 0
    assert telemetry["mem"]["hbm_ecc_uncorrected"] == 0
    assert "injected" not in report["faults"]


def run_replayed_traffic():
    """One 4 KiB transfer with every PCIe transfer replayed."""
    from repro.faults import FaultInjector, FaultPlan

    env, shell, driver = card()
    injector = FaultInjector(FaultPlan.build(seed=3, pcie_replay=1.0)).arm(shell=shell)
    shell.load_app(0, PassThroughApp())
    ct = CThread(driver, 0, pid=11)

    def main():
        src = yield from ct.get_mem(4096)
        dst = yield from ct.get_mem(4096)
        sg = SgEntry(local=LocalSg(src_addr=src.vaddr, src_len=4096,
                                   dst_addr=dst.vaddr, dst_len=4096))
        yield from ct.invoke(Oper.LOCAL_TRANSFER, sg)

    env.run(env.process(main()))
    env.run()
    return env, shell, driver, injector


def test_report_fault_section_under_injection():
    env, shell, driver, injector = run_replayed_traffic()
    report = card_report(driver)
    faults = report["faults"]
    replays = report["telemetry"]["pcie"]["replays"]
    assert replays == injector.fire_counts["pcie.replay"] > 0
    # The injected summary mirrors the injector's per-site accounting.
    assert faults["injected"] == injector.summary()
    assert faults["injected"]["pcie.replay"]["fires"] == replays
    # The fault counters surface in the flattened text report too.
    assert "telemetry.pcie.replays" in format_report(report)


def test_report_telemetry_mirrors_fault_counters():
    """The telemetry section reads the models' own counters: injected
    PCIe replays show up there and in the injector's summary."""
    env, shell, driver, _ = run_replayed_traffic()
    report = card_report(driver)
    telemetry = report["telemetry"]
    fires = report["faults"]["injected"]["pcie.replay"]["fires"]
    assert telemetry["pcie"]["replays"] == fires > 0
    assert telemetry["pcie"]["h2c_bytes"] == shell.static.xdma.link.h2c_bytes > 0
    assert telemetry["mem"]["page_faults"] == driver.page_faults
    assert telemetry["sim"]["events_processed"] == env.events_processed
    # Flattened view exposes the dot paths operators would grep for.
    assert "telemetry.pcie.h2c_bytes" in format_report(report)


def test_report_counters_live_only_under_telemetry():
    """One name per counter: besides its identity keys, processes and
    health verdict, the report carries numbers only in ``telemetry``,
    the per-region ``vfpgas`` view and the injector's ``faults.injected``
    summary."""
    env, shell, driver, _ = run_replayed_traffic()
    report = card_report(driver)
    assert set(report) == {
        "device", "services", "shell_id", "processes", "health",
        "telemetry", "vfpgas", "faults",
    }
    assert set(report["faults"]) == {"injected"}
    numeric = [
        line.split(": ", 1)[0]
        for line in format_report(report).splitlines()
        if re.fullmatch(r"-?\d+(\.\d+)?", line.split(": ", 1)[1])
    ]
    assert numeric  # the check is not vacuous
    stray = [
        path for path in numeric
        if not path.startswith(("telemetry.", "vfpgas[", "faults.injected."))
    ]
    assert stray == []
