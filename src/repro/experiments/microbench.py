"""Micro-benchmarks: Figure 7(a) HBM scaling and Figure 7(b) build flows."""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..api.cthread import CThread
from ..core.credit import CreditConfig
from ..core.dynamic_layer import ServiceConfig
from ..core.interfaces import LocalSg, Oper, SgEntry, StreamType
from ..core.movers import MoverConfig
from ..core.packetizer import Packetizer
from ..core.shell import Shell, ShellConfig
from ..core.vfpga import VFpgaConfig
from ..apps.passthrough import PassThroughApp
from ..driver.driver import Driver
from ..sim.engine import AllOf, Environment
from ..synth.flow import BuildFlow
from .common import ExperimentResult
from .tables import TABLE3_SCENARIOS

__all__ = ["hbm_throughput", "run_fig7a", "run_fig7b"]


def hbm_throughput(
    num_channels: int,
    transfer_mb: int = 2,
    mmu_bypass: bool = False,
    trials: int = 1,
    warmup: int = 1,
    card_packet_bytes: Optional[int] = None,
) -> float:
    """Throughput (GB/s, read+write) of a card pass-through using
    ``num_channels`` parallel card streams in one vFPGA.

    ``card_packet_bytes`` is the packet-size ablation's handle: it
    replaces the card mover's packetizer (one HBM stripe by
    construction) on the shell built here.
    """
    from ..mem.mmu import MmuConfig

    mmu = MmuConfig(xlat_stations=10_000) if mmu_bypass else MmuConfig()
    env = Environment()
    services = ServiceConfig(mover=MoverConfig(carry_data=False), mmu=mmu)
    shell = Shell(
        env,
        ShellConfig(
            num_vfpgas=1,
            services=services,
            vfpga=VFpgaConfig(num_card_streams=max(num_channels, 3)),
        ),
    )
    if card_packet_bytes is not None:
        shell.dynamic.card_mover.packetizer = Packetizer(card_packet_bytes)
    driver = Driver(env, shell)
    shell.load_app(
        0, PassThroughApp(num_streams=max(num_channels, 1), stream=StreamType.CARD)
    )
    samples: List[float] = []

    def client():
        ct = CThread(driver, 0, pid=1)
        size = transfer_mb * 1024 * 1024
        per_stream = size // num_channels
        src = yield from ct.get_mem(size)
        dst = yield from ct.get_mem(size)
        # Pre-stage both buffers in card memory (as the paper's kernel
        # does: it consumes from and stores back to HBM).
        yield from ct.invoke(
            Oper.LOCAL_OFFLOAD, SgEntry(local=LocalSg(src_addr=src.vaddr, src_len=size))
        )
        yield from ct.invoke(
            Oper.LOCAL_OFFLOAD, SgEntry(local=LocalSg(src_addr=dst.vaddr, src_len=size))
        )
        for trial in range(warmup + trials):
            start = env.now
            procs = []
            for chan in range(num_channels):
                sg = SgEntry(
                    local=LocalSg(
                        src_addr=src.vaddr + chan * per_stream,
                        src_len=per_stream,
                        dst_addr=dst.vaddr + chan * per_stream,
                        dst_len=per_stream,
                        src_stream=StreamType.CARD,
                        dst_stream=StreamType.CARD,
                        src_dest=chan,
                        dst_dest=chan,
                    )
                )
                procs.append(ct.invoke_async(Oper.LOCAL_TRANSFER, sg))
            yield AllOf(env, procs)
            if trial >= warmup:
                samples.append(2 * size / (env.now - start))

    env.run(env.process(client()))
    return sum(samples) / len(samples)


def run_fig7a(
    channels: Sequence[int] = (1, 2, 4, 8, 12, 16, 24, 32),
    transfer_mb: int = 2,
) -> ExperimentResult:
    """Figure 7(a): throughput scaling with HBM channels in one vFPGA."""
    result = ExperimentResult(
        "Figure 7a", "HBM throughput scaling with channels per vFPGA"
    )
    single = None
    for nchan in channels:
        gbps = hbm_throughput(nchan, transfer_mb=transfer_mb)
        if single is None:
            single = gbps
        result.add_row(
            channels=nchan,
            throughput_gbps=round(gbps, 1),
            scaling=round(gbps / single, 2),
            linear_ideal=nchan,
        )
    result.notes.append(
        "linear at low channel counts, tapering off as the shared MMU "
        "translation pipeline (memory-virtualization overhead) saturates"
    )
    return result


def run_fig7b() -> ExperimentResult:
    """Figure 7(b): shell flow vs app flow build times on the 3 configs."""
    result = ExperimentResult(
        "Figure 7b", "Synthesis + implementation time, shell vs app flow (U250)"
    )
    flow = BuildFlow("u250")
    labels = ["pass-through (host only)", "vadd (card memory)", "RDMA + AES"]
    for label, (_, services, apps) in zip(labels, TABLE3_SCENARIOS):
        shell = flow.shell_flow(services, apps)
        app = flow.app_flow(shell.checkpoint, apps)
        result.add_row(
            config=label,
            shell_flow_min=round(shell.seconds / 60, 1),
            app_flow_min=round(app.seconds / 60, 1),
            savings_pct=round(100 * (1 - app.seconds / shell.seconds), 1),
            paper_savings="15-20%",
        )
    return result
