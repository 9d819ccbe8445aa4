"""Hypothesis-driven chaos tests: seeded fault plans against the full shell.

The invariant: under any plan these strategies generate, a workload either
completes byte-exactly or fails with a clean, typed error — never a hang
(a stuck process surfaces as the engine's deadlock error and fails the
test) and never silent corruption.  Every test ``note()``s the plan, so a
failing example prints the exact ``(seed, plan)`` needed to replay it.
"""

from hypothesis import given, note, settings
from hypothesis import strategies as st

from repro import CThread, LocalSg, Oper, RdmaSg, SgEntry, StreamType
from repro.apps import AesCbcApp, PassThroughApp, aes_cbc_encrypt
from repro.core import ReconfigError
from repro.core.vfpga import UserApp
from repro.driver.report import card_report
from repro.faults import (
    HBM_ECC_DOUBLE,
    HBM_ECC_SINGLE,
    ICAP_CRC,
    MSIX_LOSS,
    PCIE_REPLAY,
    FaultInjector,
    FaultPlan,
    FaultRule,
)
from repro.synth.flow import BuildFlow

from .platforms import bitstream, card, rdma_cluster


def transfer_sg(src, dst, length, stream=StreamType.HOST):
    return SgEntry(
        local=LocalSg(
            src_addr=src, src_len=length, dst_addr=dst, dst_len=length,
            src_stream=stream, dst_stream=stream,
        )
    )


# ------------------------------------------------------- RDMA under chaos

@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    drop_pct=st.integers(min_value=0, max_value=8),
    corrupt_pct=st.integers(min_value=0, max_value=4),
    duplicate_pct=st.integers(min_value=0, max_value=5),
    reorder_pct=st.integers(min_value=0, max_value=5),
    nbytes=st.integers(min_value=1, max_value=30_000),
)
def test_rdma_transfer_survives_chaos(
    seed, drop_pct, corrupt_pct, duplicate_pct, reorder_pct, nbytes
):
    """Hardware-path RDMA WRITE through shells + switch, all net faults on."""
    env, cluster = rdma_cluster()
    plan = FaultPlan.build(
        seed=seed,
        net_drop=drop_pct / 100.0,
        net_corrupt=corrupt_pct / 100.0,
        net_duplicate=duplicate_pct / 100.0,
        net_reorder=reorder_pct / 100.0,
    )
    note(f"plan: {plan.describe()}")
    injector = FaultInjector(plan).arm_cluster(cluster)
    thread_a, thread_b = cluster.connect_qps(0, 1, pid_a=1, pid_b=2, qpn_a=1, qpn_b=2)
    payload = bytes((seed + i) % 256 for i in range(nbytes))

    def main():
        src = yield from thread_a.get_mem(len(payload))
        dst = yield from thread_b.get_mem(len(payload))
        thread_a.write_buffer(src.vaddr, payload)
        yield from thread_a.invoke(
            Oper.REMOTE_RDMA_WRITE,
            SgEntry(rdma=RdmaSg(local_addr=src.vaddr, remote_addr=dst.vaddr,
                                len=len(payload), qpn=1)),
        )
        return thread_b.read_buffer(dst.vaddr, len(payload))

    received = env.run(env.process(main()))
    note(f"injected: {injector.summary()}")
    assert received == payload  # byte-exact despite loss/corruption/dup/reorder
    assert cluster.switch.forwarded >= 0  # a duplicate never un-counts twice


# ---------------------------------------------- compute paths under chaos

@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    replay_pct=st.integers(min_value=0, max_value=30),
)
def test_aes_cbc_invoke_correct_under_pcie_replay(seed, replay_pct):
    """Link-layer replay slows DMA but must never corrupt the ciphertext."""
    env, shell, driver = card()
    plan = FaultPlan.build(seed=seed, pcie_replay=replay_pct / 100.0)
    note(f"plan: {plan.describe()}")
    FaultInjector(plan).arm(shell=shell)
    shell.load_app(0, AesCbcApp(num_streams=1))
    ct = CThread(driver, 0, pid=10)
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    plain = bytes((seed + i) % 256 for i in range(512))

    def main():
        src = yield from ct.get_mem(len(plain))
        dst = yield from ct.get_mem(len(plain))
        ct.write_buffer(src.vaddr, plain)
        yield from ct.set_csr(int.from_bytes(key[:8], "little"), 0)
        yield from ct.set_csr(int.from_bytes(key[8:], "little"), 1)
        yield from ct.invoke(Oper.LOCAL_TRANSFER, transfer_sg(src.vaddr, dst.vaddr, len(plain)))
        return ct.read_buffer(dst.vaddr, len(plain))

    assert env.run(env.process(main())) == aes_cbc_encrypt(plain, key, bytes(16))


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    single_pct=st.integers(min_value=0, max_value=40),
    double_pct=st.integers(min_value=0, max_value=20),
)
def test_card_stream_transfer_survives_hbm_ecc(seed, single_pct, double_pct):
    """ECC events on the timed HBM datapath never corrupt data."""
    env, shell, driver = card()
    plan = FaultPlan.build(
        seed=seed,
        hbm_ecc_single=single_pct / 100.0,
        hbm_ecc_double=double_pct / 100.0,
    )
    note(f"plan: {plan.describe()}")
    injector = FaultInjector(plan).arm(shell=shell)
    shell.load_app(0, PassThroughApp(num_streams=1, stream=StreamType.CARD))
    ct = CThread(driver, 0, pid=10)
    payload = bytes((seed + 3 * i) % 256 for i in range(16_384))

    def main():
        src = yield from ct.get_mem(len(payload))
        dst = yield from ct.get_mem(len(payload))
        ct.write_buffer(src.vaddr, payload)
        # First card access faults + migrates; the transfer then runs on
        # the timed HBM datapath where the ECC sites live.
        yield from ct.invoke(
            Oper.LOCAL_TRANSFER, transfer_sg(src.vaddr, dst.vaddr, len(payload), StreamType.CARD)
        )
        yield from ct.invoke(
            Oper.LOCAL_SYNC, SgEntry(local=LocalSg(src_addr=dst.vaddr, src_len=len(payload)))
        )
        return ct.read_buffer(dst.vaddr, len(payload))

    received = env.run(env.process(main()))
    assert received == payload
    hbm = shell.dynamic.hbm
    assert hbm.ecc_corrected == injector.fire_counts.get(HBM_ECC_SINGLE, 0)
    assert hbm.ecc_uncorrected == injector.fire_counts.get(HBM_ECC_DOUBLE, 0)


# ------------------------------------------- reconfiguration under chaos

class _NopApp(UserApp):
    name = "hll"  # a synthesizable model key

    def run(self, vfpga):
        yield vfpga.env.timeout(0)


def _app_bitstream(shell):
    flow = BuildFlow()
    checkpoint = flow.shell_flow(shell.config.services, ["hll"]).checkpoint
    return flow.app_flow(checkpoint, ["hll"]).bitstream


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    crc_events=st.sets(st.integers(min_value=0, max_value=5), max_size=3),
    msix_pct=st.integers(min_value=0, max_value=50),
)
def test_reconfiguration_survives_chaos(seed, crc_events, msix_pct):
    """CRC failures roll back and retry; lost interrupts poll — no hangs."""
    env, shell, driver = card()
    plan = FaultPlan(
        seed=seed,
        rules=[
            FaultRule(site=ICAP_CRC, at_events=tuple(sorted(crc_events))),
            FaultRule(site=MSIX_LOSS, probability=msix_pct / 100.0),
        ],
    )
    note(f"plan: {plan.describe()}")
    FaultInjector(plan).arm(shell=shell)
    bitstream = _app_bitstream(shell)
    app_a, app_b = _NopApp(), _NopApp()
    outcome = {}

    def main():
        try:
            yield env.process(driver.reconfigure_app(bitstream, 0, app_a, cached=True))
            yield env.process(driver.reconfigure_app(bitstream, 0, app_b, cached=True))
        except ReconfigError as exc:
            outcome["error"] = exc
            return
        outcome["ok"] = True

    env.run(env.process(main()))
    note(f"report faults: {card_report(driver)['faults']}")
    if "ok" in outcome:
        # Completed: the second app is live, and any mid-flight CRC failure
        # was repaired by rollback + retry.
        assert shell.vfpgas[0].app is app_b
        assert driver.reconfig_retries >= shell.icap_rollbacks >= 0
    else:
        # Clean, typed failure after exhausting retries: the region holds
        # either the last-good app or nothing — never a half-programmed one.
        assert isinstance(outcome["error"], ReconfigError)
        assert shell.vfpgas[0].app in (None, app_a)


# -------------------------------------------------- the acceptance gauntlet

def test_acceptance_lossy_fabric_and_crc_failure():
    """ISSUE acceptance: >=5% frame loss + one ICAP CRC failure in one run:
    RDMA stays byte-exact, the failed reconfig rolls back then retries to
    success, and card_report shows non-zero per-domain fault counters."""
    env, cluster = rdma_cluster()
    plan = FaultPlan(
        seed=2025,
        rules=[
            FaultRule(site="net.drop", probability=0.05),
            FaultRule(site=ICAP_CRC, at_events=(0,)),
            FaultRule(site=PCIE_REPLAY, probability=0.02),
        ],
    )
    injector = FaultInjector(plan).arm_cluster(cluster)
    node = cluster[0]
    bitstream = _app_bitstream(node.shell)
    app = _NopApp()
    thread_a, thread_b = cluster.connect_qps(0, 1, pid_a=1, pid_b=2, qpn_a=1, qpn_b=2)
    # ~64 data packets: at 5% loss some *data* frame (not just an ACK) is
    # dropped, so go-back-N retransmission demonstrably engages.
    payload = bytes(i % 251 for i in range(256_000))

    def main():
        # The first ICAP program hits the injected CRC failure, rolls back
        # (nothing to restore yet) and the driver retries to success.
        yield env.process(node.driver.reconfigure_app(bitstream, 0, app, cached=True))
        src = yield from thread_a.get_mem(len(payload))
        dst = yield from thread_b.get_mem(len(payload))
        thread_a.write_buffer(src.vaddr, payload)
        yield from thread_a.invoke(
            Oper.REMOTE_RDMA_WRITE,
            SgEntry(rdma=RdmaSg(local_addr=src.vaddr, remote_addr=dst.vaddr,
                                len=len(payload), qpn=1)),
        )
        return thread_b.read_buffer(dst.vaddr, len(payload))

    received = env.run(env.process(main()))
    assert received == payload
    report = card_report(node.driver)
    faults = report["faults"]
    reconfig = report["telemetry"]["reconfig"]
    assert reconfig["icap_crc_failures"] >= 1
    assert reconfig["retries"] >= 1
    assert node.shell.vfpgas[0].app is app
    assert injector.fire_counts["net.drop"] > 0  # the fabric really was lossy
    assert cluster.switch.dropped > 0
    rdma_stats = node.shell.dynamic.rdma.stats
    assert rdma_stats["retransmissions"] >= 1
    assert faults["injected"]["net.drop"]["fires"] == cluster.switch.dropped
