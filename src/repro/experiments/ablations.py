"""Ablations of the design choices DESIGN.md calls out.

Not figures from the paper — these quantify *why* the shell is built the
way it is: packetization granularity, TLB page size, credit depth,
striping, and completion writeback.
"""

from __future__ import annotations

from typing import Sequence

from ..api.cthread import CThread
from ..apps.passthrough import PassThroughApp
from ..core.credit import CreditConfig
from ..core.dynamic_layer import ServiceConfig
from ..core.interfaces import LocalSg, Oper, SgEntry, StreamType
from ..core.movers import MoverConfig
from ..core.shell import Shell, ShellConfig
from ..core.vfpga import VFpgaConfig
from ..driver.driver import Driver
from ..mem.hbm import HbmConfig
from ..mem.mmu import MmuConfig
from ..mem.tlb import PAGE_1G, PAGE_2M, TlbConfig
from ..sim.engine import AllOf, Environment
from .common import ExperimentResult
from .macrobench import multitenant_ecb_rates
from .microbench import hbm_throughput

__all__ = [
    "run_ablation_packet_size",
    "run_ablation_page_size",
    "run_ablation_credits",
    "run_ablation_striping",
    "run_ablation_writeback",
    "run_ablation_transport",
]


def _passthrough_rate(services: ServiceConfig, transfer_mb: int = 1, messages: int = 3,
                      vfpga: VFpgaConfig = VFpgaConfig()) -> float:
    """Host pass-through throughput (GB/s) under a given service config."""
    env = Environment()
    shell = Shell(env, ShellConfig(num_vfpgas=1, services=services, vfpga=vfpga))
    driver = Driver(env, shell)
    shell.load_app(0, PassThroughApp())
    rate = [0.0]

    def client():
        ct = CThread(driver, 0, pid=9)
        size = transfer_mb * 1024 * 1024
        src = yield from ct.get_mem(size)
        dst = yield from ct.get_mem(size)
        start = env.now
        for _ in range(messages):
            sg = SgEntry(local=LocalSg(src_addr=src.vaddr, src_len=size,
                                       dst_addr=dst.vaddr, dst_len=size))
            yield from ct.invoke(Oper.LOCAL_TRANSFER, sg)
        rate[0] = messages * size / (env.now - start)

    env.run(env.process(client()))
    return rate[0]


def run_ablation_packet_size(
    sizes: Sequence[int] = (512, 1024, 2048, 4096, 8192, 16384)
) -> ExperimentResult:
    """Packet size vs throughput on each path: host pass-through, and
    card pass-through over 1 and 8 streams against the 4 KiB stripe."""
    result = ExperimentResult(
        "Ablation: packetization", "packet size vs throughput, host path and card path"
    )
    for chunk in sizes:
        services = ServiceConfig(mover=MoverConfig(packet_bytes=chunk, carry_data=False))
        result.add_row(
            packet_bytes=chunk,
            host_gbps=round(_passthrough_rate(services), 2),
            card_1_stream_gbps=round(hbm_throughput(1, card_packet_bytes=chunk), 1),
            card_8_streams_gbps=round(hbm_throughput(8, card_packet_bytes=chunk), 1),
        )
    result.notes.append(
        "host: small packets lose bandwidth to per-packet overheads, huge "
        "ones coarsen round-robin fairness — 2 KiB is the peak and the "
        "host packet (MoverConfig.packet_bytes)"
    )
    result.notes.append(
        "card: below the stripe every stripe is translated more than once; "
        "above it one stream books several channels at once and passes a "
        "channel's 14.4 GB/s nominal, so a "
        "stream is no longer a channel — a card packet is the stripe "
        "(HbmConfig.stripe_bytes), derived by CardDataMover"
    )
    return result


def run_ablation_page_size() -> ExperimentResult:
    """TLB page size vs fault count and effective migration volume."""
    result = ExperimentResult(
        "Ablation: page size", "2 MB vs 1 GB pages for a 64 MB working set"
    )
    for page, label in [(PAGE_2M, "2MB"), (PAGE_1G, "1GB")]:
        env = Environment()
        services = ServiceConfig(
            mmu=MmuConfig(tlb=TlbConfig(page_size=page)),
            hbm=HbmConfig(),
            mover=MoverConfig(carry_data=False),
        )
        shell = Shell(env, ShellConfig(num_vfpgas=1, services=services))
        driver = Driver(env, shell)
        shell.load_app(0, PassThroughApp(stream=StreamType.CARD))
        stats = {}

        def client():
            from ..mem.allocator import AllocType

            alloc_type = AllocType.HPF if page == PAGE_2M else AllocType.HPF1G
            ct = CThread(driver, 0, pid=5)
            size = 64 * 1024 * 1024
            src = yield from ct.get_mem(size, alloc_type)
            start = env.now
            # Touch the whole buffer on the card: faults + migrations.
            yield from ct.invoke(
                Oper.LOCAL_OFFLOAD, SgEntry(local=LocalSg(src_addr=src.vaddr, src_len=size))
            )
            stats["faults"] = driver.page_faults
            stats["migrate_ms"] = (env.now - start) / 1e6

        env.run(env.process(client()))
        result.add_row(
            page_size=label,
            page_faults=stats["faults"],
            migration_ms=round(stats["migrate_ms"], 2),
        )
    result.notes.append(
        "1 GB huge pages minimise page faults for large working sets (§6.1)"
    )
    return result


def run_ablation_credits(
    depths: Sequence[int] = (2, 4, 8, 16, 32)
) -> ExperimentResult:
    """Host credit depth vs throughput."""
    result = ExperimentResult("Ablation: credits", "host credit depth vs throughput")
    for depth in depths:
        services = ServiceConfig(mover=MoverConfig(carry_data=False))
        vfpga = VFpgaConfig(credits=CreditConfig(host_credits=depth))
        gbps = _passthrough_rate(services, vfpga=vfpga)
        result.add_row(credits=depth, throughput_gbps=round(gbps, 2))
    result.notes.append(
        "too few credits cannot cover the request-to-consume round trip; "
        "beyond that, deeper queues buy nothing (they only add on-chip RAM)"
    )
    return result


def run_ablation_striping() -> ExperimentResult:
    """Striping on/off for a multi-channel card access pattern."""
    result = ExperimentResult(
        "Ablation: striping", "HBM striping vs single-channel placement"
    )
    striped = hbm_throughput(num_channels=8, transfer_mb=2)
    # Without striping each buffer sits in one channel: model by running
    # the same workload with 1 effective channel per stream group.
    unstriped = hbm_throughput(num_channels=1, transfer_mb=2) * 1.0
    result.add_row(mode="striped (8 streams)", throughput_gbps=round(striped, 1))
    result.add_row(mode="single channel", throughput_gbps=round(unstriped, 1))
    result.notes.append("striping is what converts channel count into bandwidth")
    return result


def run_ablation_writeback() -> ExperimentResult:
    """Completion writeback vs PCIe polling (the utility-channel feature).

    Two columns: the latency of a 4 KiB transfer with one in flight,
    and the rate at which the host sees 64 back-to-back single-packet
    (2 KiB) WRITEs complete, first completion seen to last — the link's
    rate when completions are posted to it, the polling period's when
    it has to ask.
    """
    writes, write_bytes = 64, 2048
    result = ExperimentResult(
        "Ablation: writeback", "completion tracking: writeback vs MMIO polling"
    )
    for writeback, label in [(True, "writeback"), (False, "MMIO polling")]:
        services = ServiceConfig(mover=MoverConfig(carry_data=False, writeback=writeback))
        # Small transfers stress per-completion overheads.
        env = Environment()
        shell = Shell(env, ShellConfig(num_vfpgas=1, services=services))
        driver = Driver(env, shell)
        shell.load_app(0, PassThroughApp())
        elapsed = [0.0]
        seen = []

        def small_write(ct, vaddr):
            yield from ct.invoke(Oper.LOCAL_WRITE, SgEntry(
                local=LocalSg(dst_addr=vaddr, dst_len=write_bytes)))
            seen.append(env.now)

        def client():
            ct = CThread(driver, 0, pid=3)
            region = writes * write_bytes
            src = yield from ct.get_mem(region)
            dst = yield from ct.get_mem(region)
            start = env.now
            for _ in range(32):
                sg = SgEntry(local=LocalSg(src_addr=src.vaddr, src_len=4096,
                                           dst_addr=dst.vaddr, dst_len=4096))
                yield from ct.invoke(Oper.LOCAL_TRANSFER, sg)
            elapsed[0] = (env.now - start) / 32
            # One READ feeds the pass-through kernel; the WRITEs drain it.
            ct.invoke_async(Oper.LOCAL_READ, SgEntry(
                local=LocalSg(src_addr=src.vaddr, src_len=region)))
            yield AllOf(env, [
                env.process(small_write(ct, dst.vaddr + index * write_bytes))
                for index in range(writes)
            ])

        env.run(env.process(client()))
        result.add_row(
            mode=label,
            latency_per_4k_transfer_us=round(elapsed[0] / 1e3, 2),
            small_writes_gbps=round(
                (writes - 1) * write_bytes / (seen[-1] - seen[0]), 2
            ),
        )
    result.notes.append(
        "writeback frees PCIe bandwidth and cuts per-transfer latency (§5.1); "
        f"small_writes_gbps: {writes} x {write_bytes} B back-to-back WRITEs"
    )
    return result


def run_ablation_transport(transfer_kb: int = 256) -> ExperimentResult:
    """TCP/IP offload vs RoCE v2 RDMA on the same 100G fabric.

    The comparison behind Requirement 1's service swap: the RDMA WRITE is
    one-sided (no receiver CPU, 4 KB MTU, credit-windowed), while the TCP
    byte stream pays per-segment acknowledgements and receive-window
    round trips.  The ``rdma read`` row is the same move pulled instead of
    pushed: the responder's payload generator keeps it beside the WRITE.
    """
    from ..net.headers import MacAddress
    from ..net.switch import Switch
    from ..core.interfaces import RdmaSg
    from ..core.shell import Shell, ShellConfig
    from ..driver.driver import Driver
    from ..api.cthread import CThread

    result = ExperimentResult(
        "Ablation: transport", "TCP offload vs RDMA on the shared fabric"
    )
    nbytes = transfer_kb * 1024

    # -- RDMA path (through the full shell + MMU)
    env = Environment()
    switch = Switch(env)
    services = ServiceConfig(en_memory=True, en_rdma=True)
    shell_a = Shell(env, ShellConfig(num_vfpgas=1, services=services),
                    switch=switch, mac=MacAddress(0x02_AB_01), ip=1)
    shell_b = Shell(env, ShellConfig(num_vfpgas=1, services=services),
                    switch=switch, mac=MacAddress(0x02_AB_02), ip=2)
    driver_a, driver_b = Driver(env, shell_a), Driver(env, shell_b)
    ct_a, ct_b = CThread(driver_a, 0, pid=1), CThread(driver_b, 0, pid=2)
    qa, qb = ct_a.create_qp(1, psn=1), ct_b.create_qp(2, psn=2)
    qa.connect(qb.local)
    qb.connect(qa.local)
    elapsed = {}

    def rdma_flow():
        src = yield from ct_a.get_mem(nbytes)
        dst = yield from ct_b.get_mem(nbytes)
        for name, oper in (("rdma", Oper.REMOTE_RDMA_WRITE), ("rdma read", Oper.REMOTE_RDMA_READ)):
            start = env.now
            yield from ct_a.invoke(
                oper,
                SgEntry(rdma=RdmaSg(local_addr=src.vaddr, remote_addr=dst.vaddr,
                                    len=nbytes, qpn=1)),
            )
            elapsed[name] = env.now - start

    env.run(env.process(rdma_flow()))

    # -- TCP path (same fabric, TCP service)
    env2 = Environment()
    switch2 = Switch(env2)
    tcp_services = ServiceConfig(en_memory=False, en_tcp=True)
    shell_c = Shell(env2, ShellConfig(num_vfpgas=1, services=tcp_services),
                    switch=switch2, mac=MacAddress(0x02_AB_03), ip=3)
    shell_d = Shell(env2, ShellConfig(num_vfpgas=1, services=tcp_services),
                    switch=switch2, mac=MacAddress(0x02_AB_04), ip=4)
    shell_d.dynamic.tcp.listen(80)

    def tcp_server():
        conn = yield from shell_d.dynamic.tcp.accept(80)
        yield from conn.recv(nbytes)

    def tcp_client():
        conn = yield from shell_c.dynamic.tcp.connect(
            MacAddress(0x02_AB_04), 4, 80, 5000
        )
        start = env2.now
        yield from conn.send(bytes(nbytes))
        elapsed["tcp"] = env2.now - start

    server = env2.process(tcp_server())
    client = env2.process(tcp_client())
    env2.run(AllOf(env2, [server, client]))

    for name in ("rdma", "rdma read", "tcp"):
        result.add_row(
            transport=name,
            latency_us=round(elapsed[name] / 1e3, 1),
            goodput_gbps=round(nbytes / elapsed[name], 2),
        )
    result.notes.append(
        "one-sided RDMA wins on the same wire; the gap is per-segment "
        "protocol overhead, not bandwidth"
    )
    return result
