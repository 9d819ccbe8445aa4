"""Tests for the card status report."""

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
    assert report["pcie"]["h2c_bytes"] == 1 << 16
    assert report["pcie"]["c2h_bytes"] == 1 << 16
    assert report["processes"] == [11]
    vfpga = report["vfpgas"][0]
    assert vfpga["app"] == "passthrough"
    assert vfpga["tlb"]["hits"] > 0
    assert "hbm" in report  # memory service enabled by default


def test_report_counts_writebacks():
    driver = run_some_traffic()
    report = card_report(driver)
    assert sum(report["pcie"]["writebacks"].values()) >= 2  # rd + wr


def test_format_report_flattens():
    driver = run_some_traffic()
    text = format_report(card_report(driver))
    assert "pcie.h2c_bytes: 65536" in text
    assert "vfpgas[0].app: passthrough" in text


def test_report_fault_section_quiescent():
    """With no injector armed, the faults section is all-zero and carries
    no 'injected' summary."""
    driver = run_some_traffic()
    faults = card_report(driver)["faults"]
    assert faults["pcie_replays"] == 0
    assert faults["msix_lost"] == 0
    assert faults["icap_crc_failures"] == 0
    assert faults["icap_rollbacks"] == 0
    assert faults["reconfig_retries"] == 0
    assert faults["irq_timeouts"] == 0
    assert faults["invoke_timeouts"] == 0
    assert faults["hbm_ecc_corrected"] == 0
    assert faults["hbm_ecc_uncorrected"] == 0
    assert "injected" not in faults


def test_report_fault_section_under_injection():
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
    report = card_report(driver)
    faults = report["faults"]
    assert faults["pcie_replays"] == injector.fire_counts["pcie.replay"] > 0
    # The injected summary mirrors the injector's per-site accounting.
    assert faults["injected"] == injector.summary()
    assert faults["injected"]["pcie.replay"]["fires"] == faults["pcie_replays"]
    # The per-section counters surface in the flattened text report too.
    assert "faults.pcie_replays" in format_report(report)


def test_report_telemetry_mirrors_fault_counters():
    """The telemetry section and the legacy sections read the same
    underlying counters: injected PCIe replays show up in both."""
    from repro.faults import FaultInjector, FaultPlan

    env, shell, driver = card()
    FaultInjector(FaultPlan.build(seed=3, pcie_replay=1.0)).arm(shell=shell)
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
    report = card_report(driver)
    telemetry = report["telemetry"]
    assert telemetry["pcie"]["replays"] == report["faults"]["pcie_replays"] > 0
    assert telemetry["pcie"]["h2c_bytes"] == report["pcie"]["h2c_bytes"]
    assert telemetry["mem"]["page_faults"] == report["memory"]["page_faults"]
    assert telemetry["sim"]["events_processed"] == env.events_processed
    # Flattened view exposes the dot paths operators would grep for.
    assert "telemetry.pcie.h2c_bytes" in format_report(report)
