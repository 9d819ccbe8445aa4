"""Determinism regressions: same ``(seed, plan)`` → identical run, twice.

Two properties pin the framework's contract:

1. *Reproducibility* — a seeded workload (multi-tenant AES ECB plus an
   RDMA WRITE between two nodes) produces an identical trace-record
   stream and identical end state across two fresh runs, both without
   and with an active fault plan.
2. *Zero-overhead when fault-free* — arming an injector whose plan never
   fires (or no injector at all) leaves the simulation bit-identical:
   same event interleaving, same finish times, same counters.
"""

from repro import CThread, Oper, RdmaSg, SgEntry
from repro.apps import AesEcbApp
from repro.cluster import FpgaCluster
from repro.core import LocalSg, ServiceConfig
from repro.driver.report import card_report
from repro.faults import FaultInjector, FaultPlan
from repro.net import RdmaConfig
from repro.sim import AllOf, Environment
from repro.sim.tracing import Tracer

from .platforms import twice_sanitized

KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")


def run_workload(plan=None):
    """Multi-tenant ECB on node 0 + RDMA WRITE node 0 → node 1.

    Returns everything observable about the run: the fault trace stream,
    completion time, delivered bytes and the per-layer counters.
    """
    env = Environment()
    cluster = FpgaCluster(
        env, 2, num_vfpgas=2,
        services=ServiceConfig(
            en_memory=True, en_rdma=True,
            rdma=RdmaConfig(retransmit_timeout_ns=50_000),
        ),
    )
    tracer = Tracer()
    injector = None
    if plan is not None:
        injector = FaultInjector(plan, tracer=tracer).arm_cluster(cluster)
    node0 = cluster[0]
    rdma_a, rdma_b = cluster.connect_qps(0, 1, pid_a=1, pid_b=2, qpn_a=1, qpn_b=2)
    payload = bytes(i % 249 for i in range(40_000))
    outputs = {}

    def tenant(vid):
        ct = CThread(node0.driver, vid, pid=100 + vid)
        node0.shell.load_app(vid, AesEcbApp(num_streams=1))
        plain = bytes((vid + i) % 256 for i in range(8_192))
        src = yield from ct.get_mem(len(plain))
        dst = yield from ct.get_mem(len(plain))
        ct.write_buffer(src.vaddr, plain)
        yield from ct.set_csr(int.from_bytes(KEY[:8], "little"), 0)
        yield from ct.set_csr(int.from_bytes(KEY[8:], "little"), 1)
        sg = SgEntry(local=LocalSg(
            src_addr=src.vaddr, src_len=len(plain),
            dst_addr=dst.vaddr, dst_len=len(plain),
        ))
        yield from ct.invoke(Oper.LOCAL_TRANSFER, sg)
        outputs[f"ecb{vid}"] = ct.read_buffer(dst.vaddr, len(plain))

    def writer():
        src = yield from rdma_a.get_mem(len(payload))
        dst = yield from rdma_b.get_mem(len(payload))
        rdma_a.write_buffer(src.vaddr, payload)
        yield from rdma_a.invoke(
            Oper.REMOTE_RDMA_WRITE,
            SgEntry(rdma=RdmaSg(local_addr=src.vaddr, remote_addr=dst.vaddr,
                                len=len(payload), qpn=1)),
        )
        outputs["rdma"] = rdma_b.read_buffer(dst.vaddr, len(payload))

    procs = [env.process(tenant(v)) for v in range(2)] + [env.process(writer())]
    env.run(AllOf(env, procs))
    switch = cluster.switch
    report = card_report(node0.driver)
    return {
        "finished_at": env.now,
        "trace": [(r.time, r.source, r.kind, r.payload) for r in tracer.records],
        "outputs": outputs,
        "switch": (switch.forwarded, switch.dropped, switch.corrupted,
                   switch.duplicated, switch.reordered),
        "rdma_stats": dict(node0.shell.dynamic.rdma.stats),
        # Every fault and recovery counter, plus the injector's sites;
        # the engine's own ``sim.*`` counters differ under the sanitizer.
        "faults_report": {
            "faults": report["faults"],
            **{d: v for d, v in report["telemetry"].items() if d != "sim"},
        },
        "injected": injector.summary() if injector is not None else None,
    }


CHAOS_PLAN = FaultPlan.build(
    seed=77, net_drop=0.04, net_duplicate=0.02, net_reorder=0.02, pcie_replay=0.03
)


def test_fault_free_run_is_reproducible():
    assert run_workload() == run_workload()


def test_chaos_run_is_reproducible():
    first = run_workload(CHAOS_PLAN)
    second = run_workload(CHAOS_PLAN)
    assert first == second
    # And the chaos actually happened — this is not vacuous.
    assert first["injected"]["net.drop"]["fires"] > 0
    assert first["trace"], "no fault trace records emitted"


def test_different_seed_changes_the_run():
    other = FaultPlan.build(
        seed=78, net_drop=0.04, net_duplicate=0.02, net_reorder=0.02, pcie_replay=0.03
    )
    assert run_workload(CHAOS_PLAN)["trace"] != run_workload(other)["trace"]


def test_chaos_soak_digest_stable_under_sanitizer():
    """Chaos soak, instrumented: two runs with the SimSanitizer attached
    produce byte-identical digests over *everything observable* — so the
    sanitizer observes without perturbing, even while faults fire — and
    neither run trips an invariant.
    """
    import hashlib

    first, second = twice_sanitized(lambda: run_workload(CHAOS_PLAN))
    digests = [
        hashlib.sha256(repr(sorted(result.items())).encode()).hexdigest()
        for result in (first, second)
    ]
    assert digests[0] == digests[1]
    # Not vacuous: the digest covers the fault trace, and faults fired.
    assert first["injected"]["net.drop"]["fires"] > 0


def test_sanitized_env_run_matches_unsanitized_run(monkeypatch):
    """REPRO_SANITIZE wiring end-to-end: the env-var path attaches the
    process-wide sanitizer to every Environment, and the sanitized chaos
    run equals the plain one field for field."""
    from repro.analysis.sanitizer import deactivate

    plain = run_workload(CHAOS_PLAN)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    deactivate()  # force a fresh process-wide instance via current()
    try:
        sanitized = run_workload(CHAOS_PLAN)
    finally:
        monkeypatch.delenv("REPRO_SANITIZE")
        deactivate()
    assert sanitized == plain


def test_armed_but_silent_plan_is_bit_identical_to_no_injector():
    """The acceptance bar: fault-free behavior is unchanged by the
    subsystem.  An armed injector with no firing rules must not shift a
    single timestamp relative to a run with no injector at all."""
    bare = run_workload()
    silent = run_workload(FaultPlan(seed=123, rules=()))
    assert silent["finished_at"] == bare["finished_at"]
    assert silent["outputs"] == bare["outputs"]
    assert silent["switch"] == bare["switch"]
    assert silent["rdma_stats"] == bare["rdma_stats"]
