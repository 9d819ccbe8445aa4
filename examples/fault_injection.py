#!/usr/bin/env python3
"""Fault injection: a lossy fabric, a failed reconfiguration, a clean run.

Builds a two-node cluster, arms a seeded :class:`~repro.FaultPlan` that
drops 5% of frames, replays 2% of PCIe transfers and fails the first ICAP
programming with a CRC error — then runs a partial reconfiguration and an
RDMA WRITE through it.  The reliability paths do their job: the driver
rolls back and retries the reconfiguration, RoCE go-back-N retransmits
the lost frames, and the payload arrives byte-exact.  Everything is
reproducible from ``(seed, plan)``; change the seed and the same story
plays out with different casualties.

Run:  python examples/fault_injection.py
"""

from repro import (
    FaultInjector,
    FaultPlan,
    FaultRule,
    Environment,
    Oper,
    RdmaSg,
    SgEntry,
)
from repro.cluster import FpgaCluster
from repro.core import ServiceConfig, UserApp
from repro.driver import card_report, format_report
from repro.net import RdmaConfig
from repro.synth.flow import BuildFlow


class NopApp(UserApp):
    name = "hll"  # one of the synthesizable model kernels

    def run(self, vfpga):
        yield vfpga.env.timeout(0)


def main() -> None:
    env = Environment()
    cluster = FpgaCluster(
        env, 2,
        services=ServiceConfig(
            en_memory=True, en_rdma=True,
            rdma=RdmaConfig(retransmit_timeout_ns=50_000),
        ),
    )

    # The fault plan: every rule draws from its own seeded RNG substream,
    # so the run is deterministic and sites never perturb each other.
    plan = FaultPlan(
        seed=2025,
        rules=[
            FaultRule(site="net.drop", probability=0.05),
            FaultRule(site="pcie.replay", probability=0.02),
            FaultRule(site="icap.crc", at_events=(0,)),  # first program fails
        ],
    )
    print(f"plan: {plan.describe()}\n")
    injector = FaultInjector(plan).arm_cluster(cluster)

    node = cluster[0]
    flow = BuildFlow()
    checkpoint = flow.shell_flow(node.shell.config.services, ["hll"]).checkpoint
    bitstream = flow.app_flow(checkpoint, ["hll"]).bitstream
    app = NopApp()

    thread_a, thread_b = cluster.connect_qps(0, 1, pid_a=1, pid_b=2, qpn_a=1, qpn_b=2)
    payload = bytes(i % 251 for i in range(256_000))

    def scenario():
        # 1. Reconfigure vFPGA 0.  The injected CRC failure aborts the
        #    first ICAP program; the shell rolls the region back and the
        #    driver retries with exponential backoff until it sticks.
        yield env.process(node.driver.reconfigure_app(bitstream, 0, app, cached=True))
        print(f"[{env.now/1e3:10.1f} us] reconfiguration complete "
              f"(crc_failures={node.shell.static.icap.crc_failures}, "
              f"retries={node.driver.reconfig_retries})")

        # 2. Push 256 KB over RDMA through the 5%-lossy switch.  RoCE
        #    go-back-N retransmission makes the loss invisible.
        src = yield from thread_a.get_mem(len(payload))
        dst = yield from thread_b.get_mem(len(payload))
        thread_a.write_buffer(src.vaddr, payload)
        yield from thread_a.invoke(
            Oper.REMOTE_RDMA_WRITE,
            SgEntry(rdma=RdmaSg(local_addr=src.vaddr, remote_addr=dst.vaddr,
                                len=len(payload), qpn=1)),
        )
        received = thread_b.read_buffer(dst.vaddr, len(payload))
        stats = node.shell.dynamic.rdma.stats
        print(f"[{env.now/1e3:10.1f} us] RDMA WRITE done: "
              f"{len(received)} bytes, byte-exact={received == payload}, "
              f"frames dropped={cluster.switch.dropped}, "
              f"retransmissions={stats['retransmissions']}")
        assert received == payload

    env.run(env.process(scenario()))

    print(f"\ninjected faults: {injector.summary()}")
    print("\ncard report (the counters the faults moved, and the injector's sites):")
    report = card_report(node.driver)
    telemetry = report["telemetry"]
    moved = {
        "pcie": {key: telemetry["pcie"][key] for key in ("replays", "interrupts_lost")},
        "reconfig": telemetry["reconfig"],
        "net": {"rdma_retransmissions": telemetry["net"]["rdma_retransmissions"]},
    }
    view = {"telemetry": moved, "faults": report["faults"]}
    for line in format_report(view).splitlines():
        print(f"  {line}")


if __name__ == "__main__":
    main()
