"""Chaos tests for the health subsystem: hangs + network loss together.

The ISSUE scenario: arm ``app.hang`` and ``net.drop`` in the same plan
against a two-node cluster running local compute and RDMA concurrently.
The invariants: the card ends ``degraded`` (never deadlocked), every
submitted request resolves (success or typed error), the RDMA payload is
byte-exact despite the loss, and the whole thing is deterministic — two
runs with the same seed produce identical HealthReports.
"""

from repro import Oper, RdmaSg, SgEntry
from repro.apps import PassThroughApp
from repro.core import LocalSg
from repro.driver.report import card_report
from repro.faults import (
    APP_HANG,
    NET_DROP,
    FaultInjector,
    FaultPlan,
    FaultRule,
)
from repro.health import (
    DecoupledError,
    HealthConfig,
    HealthMonitor,
    QuarantinedError,
    RecoveredError,
)
from repro.sim import AllOf

from .platforms import rdma_cluster

FAST = HealthConfig(
    poll_interval_ns=5_000.0,
    deadline_ns=50_000.0,
    drain_ns=10_000.0,
)


def _chaos_run(seed):
    """One full chaos scenario; returns the bits we assert on."""
    env, cluster = rdma_cluster()
    node = cluster[0]
    HealthMonitor(node.driver, FAST)
    victim_region = node.shell.vfpgas[0]
    plan = FaultPlan(
        seed=seed,
        rules=[
            FaultRule(site=APP_HANG, at_events=(2,),
                      match=lambda v: v is victim_region),
            FaultRule(site=NET_DROP, probability=0.05),
        ],
    )
    FaultInjector(plan).arm_cluster(cluster)
    node.shell.load_app(0, PassThroughApp())

    thread_a, thread_b = cluster.connect_qps(0, 1, pid_a=1, pid_b=2,
                                             qpn_a=1, qpn_b=2)
    payload = bytes((seed + i) % 256 for i in range(20_000))
    attempts = []

    def local_client():
        """Local transfers on the hang-prone region; retry through the
        typed recovery errors until one completes."""
        src = yield from thread_a.get_mem(1 << 13)
        dst = yield from thread_a.get_mem(1 << 13)
        sg = SgEntry(local=LocalSg(src_addr=src.vaddr, src_len=1 << 13,
                                   dst_addr=dst.vaddr, dst_len=1 << 13))
        for _ in range(20):
            try:
                yield from thread_a.invoke(Oper.LOCAL_TRANSFER, sg)
                attempts.append("ok")
            except RecoveredError:
                attempts.append("recovered")
            except DecoupledError:
                attempts.append("decoupled")
            except QuarantinedError:
                attempts.append("quarantined")
                return
            if attempts[-1] == "ok" and attempts.count("ok") >= 3:
                return
            yield env.timeout(50_000.0)

    def rdma_client():
        """Concurrent RDMA WRITE across the lossy switch."""
        src = yield from thread_a.get_mem(len(payload))
        dst = yield from thread_b.get_mem(len(payload))
        thread_a.write_buffer(src.vaddr, payload)
        yield from thread_a.invoke(
            Oper.REMOTE_RDMA_WRITE,
            SgEntry(rdma=RdmaSg(local_addr=src.vaddr, remote_addr=dst.vaddr,
                                len=len(payload), qpn=1)),
        )
        return thread_b.read_buffer(dst.vaddr, len(payload))

    local = env.process(local_client())
    rdma = env.process(rdma_client())
    env.run(AllOf(env, [local, rdma]))
    env.run()  # drain every recovery / retransmit timer to quiescence

    return {
        "env": env,
        "driver": node.driver,
        "attempts": list(attempts),
        "received": rdma.value,
        "payload": payload,
        "health": card_report(node.driver)["health"],
    }


def test_hang_plus_drop_ends_degraded_not_deadlocked():
    run = _chaos_run(seed=42)

    # The hang was detected and recovered — and surfaced as typed errors,
    # never as a stuck simulation (env.run() returning proves no deadlock).
    assert "recovered" in run["attempts"] or "decoupled" in run["attempts"]
    assert run["attempts"].count("ok") >= 3
    assert run["driver"].recovery.total_recoveries() >= 1
    assert run["env"].now < 1e9  # quiesced within a bounded sim-second

    # Card verdict: degraded (one region recovered), not quarantined.
    assert run["health"]["card"] == "degraded"
    states = {r["id"]: r["state"] for r in run["health"]["regions"]}
    assert states[0] == "degraded"

    # Every submitted request resolved: nothing left pending anywhere.
    assert all(not ctx.rings.outstanding
               for ctx in run["driver"].processes.values())
    # Every client attempt reached a terminal outcome.
    assert all(a in ("ok", "recovered", "decoupled", "quarantined")
               for a in run["attempts"])

    # The concurrent RDMA flow still delivered byte-exactly through the
    # 5% loss — recovery next door never touched it.
    assert run["received"] == run["payload"]


def test_chaos_is_deterministic_per_seed():
    """Two runs with the same seed must agree on everything the operator
    sees: the HealthReport, the recovery counters, the attempt log."""
    first = _chaos_run(seed=7)
    second = _chaos_run(seed=7)
    assert first["health"] == second["health"]
    assert first["attempts"] == second["attempts"]
    assert first["env"].now == second["env"].now
    for counter in ("quarantines", "completions_failed",
                    "descriptors_dropped", "tlb_entries_flushed"):
        assert (getattr(first["driver"].recovery, counter)
                == getattr(second["driver"].recovery, counter))
    assert (first["driver"].recovery.total_recoveries()
            == second["driver"].recovery.total_recoveries())


def test_different_seeds_may_diverge_but_all_invariants_hold():
    """Across seeds the schedule differs, but the safety invariants are
    seed-independent."""
    for seed in (1, 99, 12345):
        run = _chaos_run(seed=seed)
        assert run["received"] == run["payload"]
        assert all(not ctx.rings.outstanding
                   for ctx in run["driver"].processes.values())
        assert run["health"]["card"] in ("degraded", "healthy")
        assert run["attempts"].count("ok") >= 3
