"""A state census of one card and of one switch (ROADMAP item 7(a)).

Every test takes the container census (``tests/census.py``) of the
object graph under a ``Driver`` — or a bare ``Switch`` — runs one
lifecycle, and requires every container to be back at its size, except
those ``DECLARED`` names with the reason they may have grown.  No test
names a field of a model: a side table that outlives the thing it
describes fails here whatever it is called and whichever model holds it.
"""

from repro import CThread, Environment, LocalSg, Oper, SgEntry
from repro.apps import PassThroughApp
from repro.driver import RingOp, RingOpcode
from repro.health import HealthConfig, HealthMonitor
from repro.net import (
    BthHeader,
    Cmac,
    MacAddress,
    RoceOpcode,
    RocePacket,
    Switch,
    SwitchConfig,
)
from repro.synth import BuildFlow

from .census import census, undeclared
from .platforms import card

SIZE = 16 << 10

#: The one table of containers a lifecycle may leave larger, each with
#: the reason that is by design.  A test passes the names it expects;
#: one that then matches nothing fails the test as stale.
DECLARED = {
    "free frames": (
        r"^driver\._host_frames\[\d+\]\._free$",
        "the frame allocator keeps handed-back frames for reuse",
    ),
    "host pages": (
        r"^driver\.shell\.static\.xdma\.host_mem\._pages$",
        "sparse host DRAM: a page once written stays materialised",
    ),
    "writebacks": (
        r"^driver\.shell\.static\.xdma\.writebacks$",
        "lifetime completion-writeback counters, one per queue that completed",
    ),
    "completions": (
        r"^driver\.completions_delivered$",
        "lifetime completions per region, the watchdogs' progress signal",
    ),
    "bitstream cache": (
        r"^driver\.shell\.static\.icap\._region_cache(\['(shell|vfpga\d+)'\])?$",
        "the ICAP keeps the last bitstreams programmed into a region resident",
    ),
    "breaker window": (
        r"^driver\.recovery\.\w+\[0\]\.\w+$",
        "the circuit breaker holds the times of the recoveries inside its "
        "window; they are pruned at the next attempt, not by a timer",
    ),
}


def assert_back_to_baseline(before, after, *names):
    assert undeclared(before, after, dict(DECLARED[name] for name in names)) == {}


def transfer(ct, src, dst):
    sg = SgEntry(local=LocalSg(
        src_addr=src.vaddr, src_len=SIZE, dst_addr=dst.vaddr, dst_len=SIZE
    ))
    yield from ct.invoke(Oper.LOCAL_TRANSFER, sg)


def buffers(ct):
    src = yield from ct.get_mem(SIZE)
    dst = yield from ct.get_mem(SIZE)
    ct.write_buffer(src.vaddr, bytes(range(256)) * (SIZE // 256))
    return src, dst


TRAFFIC = ("free frames", "host pages", "writebacks", "completions")


def test_open_traffic_close_returns_the_card_to_baseline():
    env, _shell, driver = card(PassThroughApp(), PassThroughApp())
    env.run()  # every model process started
    before = census(driver, "driver")

    def session(pid, region):
        ct = CThread(driver, region, pid=pid)
        src, dst = yield from buffers(ct)
        for _ in range(3):
            yield from transfer(ct, src, dst)
        ct.setup_rings()
        src_mr = yield from ct.register_mr(src.vaddr, SIZE, writable=False)
        dst_mr = yield from ct.register_mr(dst.vaddr, SIZE)
        yield from ct.post_many([
            RingOp(RingOpcode.TRANSFER, src_mr.key, offset=offset, length=4096,
                   dst_mr_key=dst_mr.key, dst_offset=offset)
            for offset in range(0, SIZE, 4096)
        ])
        assert ct.read_buffer(dst.vaddr, SIZE) == ct.read_buffer(src.vaddr, SIZE)
        ct.close()

    for pid, region in ((1, 0), (2, 1)):
        env.run(env.process(session(pid, region)))
    env.run()
    assert_back_to_baseline(before, census(driver, "driver"), *TRAFFIC)


def test_three_recoveries_return_the_card_to_baseline():
    env, _shell, driver = card(PassThroughApp(), PassThroughApp())
    env.run()  # every model process started
    HealthMonitor(driver, HealthConfig(breaker_threshold=4))
    env.run()
    before = census(driver, "driver")

    def session():
        ct = CThread(driver, 0, pid=1)
        src, dst = yield from buffers(ct)
        for _ in range(3):
            yield from transfer(ct, src, dst)
            yield from driver.recover(0)
        yield from transfer(ct, src, dst)  # the region serves again
        assert ct.read_buffer(dst.vaddr, SIZE) == ct.read_buffer(src.vaddr, SIZE)
        ct.close()

    env.run(env.process(session()))
    env.run()
    assert driver.recovery.total_recoveries() == 3
    assert_back_to_baseline(
        before, census(driver, "driver"), "breaker window", *TRAFFIC
    )


def test_three_shell_swaps_return_the_card_to_baseline():
    env, shell, driver = card(PassThroughApp(), PassThroughApp())
    env.run()  # every model process started
    before = census(driver, "driver")
    services = shell.config.services
    bitstream = BuildFlow("u55c").shell_flow(services, ["passthrough"]).bitstream

    def session():
        ct = CThread(driver, 0, pid=1)
        src, dst = yield from buffers(ct)
        for _ in range(3):
            yield from transfer(ct, src, dst)
            yield from driver.reconfigure_shell(
                bitstream, services, [PassThroughApp(), PassThroughApp()]
            )
        yield from transfer(ct, src, dst)  # the context survived the swaps
        assert ct.read_buffer(dst.vaddr, SIZE) == ct.read_buffer(src.vaddr, SIZE)
        ct.close()

    env.run(env.process(session()))
    env.run()
    assert_back_to_baseline(
        before, census(driver, "driver"), "bitstream cache", *TRAFFIC
    )


def test_replugging_a_port_returns_the_switch_to_baseline():
    env = Environment()
    switch = Switch(env, config=SwitchConfig(
        pfc_enabled=True, xoff_bytes=2048, xon_bytes=1024,
    ))
    macs = [MacAddress(0x02_24_01 + index) for index in range(3)]
    cmacs = [Cmac(env) for _ in macs]
    for mac, cmac in zip(macs, cmacs):
        switch.attach(mac, cmac)

    def blast(source):
        for psn in range(20):
            yield from cmacs[source].tx(RocePacket.build(
                src_mac=macs[source], dst_mac=macs[1], src_ip=1, dst_ip=2,
                bth=BthHeader(opcode=RoceOpcode.SEND_ONLY, dest_qp=1, psn=psn),
                payload=b"x" * 1024,
            ))

    def sink():
        while True:
            yield from cmacs[1].rx()

    before = census(switch, "switch")
    env.process(sink())
    env.process(blast(0))
    env.process(blast(2))
    env.run()
    assert switch.pause_frames_sent > 0 and switch.forwarded == 40
    switch.detach(macs[0])
    cmacs[0] = Cmac(env)
    switch.attach(macs[0], cmacs[0])
    assert undeclared(before, census(switch, "switch"), {}) == {}


def test_three_app_swaps_return_the_card_to_baseline():
    env, shell, driver = card(PassThroughApp(), PassThroughApp())
    env.run()  # every model process started
    before = census(driver, "driver")
    flow = BuildFlow("u55c")
    checkpoint = flow.shell_flow(shell.config.services, ["passthrough"]).checkpoint
    bitstream = flow.app_flow(checkpoint, ["passthrough"]).bitstream

    def session():
        ct = CThread(driver, 0, pid=1)
        src, dst = yield from buffers(ct)
        for _ in range(3):
            yield from transfer(ct, src, dst)
            yield from driver.reconfigure_app(bitstream, 0, PassThroughApp())
        yield from transfer(ct, src, dst)  # the context survived the swaps
        assert ct.read_buffer(dst.vaddr, SIZE) == ct.read_buffer(src.vaddr, SIZE)
        ct.close()

    env.run(env.process(session()))
    env.run()
    assert shell.app_reconfigs == 3
    assert_back_to_baseline(
        before, census(driver, "driver"), "bitstream cache", *TRAFFIC
    )
