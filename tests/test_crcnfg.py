"""Tests for the CRcnfg reconfiguration handle (paper Code 2)."""

from repro import CRcnfg, ServiceConfig
from repro.apps import HllApp, PassThroughApp
from repro.mem import MmuConfig, TlbConfig
from repro.mem.tlb import PAGE_1G
from repro.synth import BuildFlow

from .platforms import card


def test_reconfigure_shell_through_handle():
    env, shell, driver = card(num_vfpgas=2)
    rcnfg = CRcnfg(driver)
    flow = BuildFlow("u55c")
    new_services = ServiceConfig(
        en_memory=False, mmu=MmuConfig(tlb=TlbConfig(page_size=PAGE_1G))
    )
    result = flow.shell_flow(new_services, ["passthrough"])

    def main():
        yield from rcnfg.reconfigure_shell(
            result.bitstream, new_services, [PassThroughApp(), None]
        )

    env.run(env.process(main()))
    assert shell.config.service_names == new_services.service_names
    assert isinstance(shell.vfpgas[0].app, PassThroughApp)


def test_reconfigure_app_through_handle():
    env, shell, driver = card(num_vfpgas=2)
    rcnfg = CRcnfg(driver)
    flow = BuildFlow("u55c")
    checkpoint = flow.shell_flow(shell.config.services, []).checkpoint

    # The checkpoint's identity matches the live shell (same services).
    app_bitstream = flow.app_flow(checkpoint, ["hll"]).bitstream

    def main():
        yield from rcnfg.reconfigure_app(app_bitstream, 1, HllApp())

    env.run(env.process(main()))
    assert isinstance(shell.vfpgas[1].app, HllApp)
    assert shell.vfpgas[0].app is None  # only vFPGA 1 touched


def test_reconfigure_charges_realistic_latency():
    env, shell, driver = card(num_vfpgas=2)
    rcnfg = CRcnfg(driver)
    flow = BuildFlow("u55c")
    result = flow.shell_flow(ServiceConfig(), [])

    def main():
        start = env.now
        yield from rcnfg.reconfigure_shell(result.bitstream, ServiceConfig())
        return env.now - start

    elapsed_ns = env.run(env.process(main()))
    # Table 3 territory: hundreds of ms, not seconds, not microseconds.
    assert 100e6 < elapsed_ns < 2e9
