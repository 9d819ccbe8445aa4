"""Tests for the card health & recovery subsystem (repro.health).

Covers the full tentpole: progress watchdogs, the quiesce + hot-reset
pipeline, scheduler replay/reject policy, admission control, and the
per-region circuit breaker — including the ISSUE acceptance scenario
(one tenant hangs, the other's throughput is unaffected within 10%).
"""

import pytest

from repro import CThread, LocalSg, Oper, SgEntry
from repro.apps import PassThroughApp
from repro.driver import RingOp, RingOpcode
from repro.driver.report import card_report
from repro.faults import (
    APP_HANG,
    APP_WEDGE_CREDIT,
    FaultInjector,
    FaultPlan,
    FaultRule,
)
from repro.health import (
    AdmissionError,
    DecoupledError,
    HealthConfig,
    HealthMonitor,
    ProgressWatchdog,
    QuarantinedError,
    RecoveredError,
    Verdict,
)
from repro.sim import AllOf

from .platforms import card, scheduled_card

#: Fast-reacting config so tests stay in the microsecond range.
FAST = HealthConfig(
    poll_interval_ns=5_000.0,
    deadline_ns=50_000.0,
    drain_ns=10_000.0,
)


def transfer_sg(src, dst, length):
    return SgEntry(
        local=LocalSg(src_addr=src, src_len=length, dst_addr=dst, dst_len=length)
    )


def submit_transfer(ct, submit, src, dst, length):
    """One src -> dst transfer through either door into the shell."""
    if submit == "invoke":
        return (yield from ct.invoke(
            Oper.LOCAL_TRANSFER, transfer_sg(src.vaddr, dst.vaddr, length)))
    ct.setup_rings()
    src_mr = yield from ct.register_mr(src.vaddr, length, writable=False)
    dst_mr = yield from ct.register_mr(dst.vaddr, length)
    return (yield from ct.post_many([
        RingOp(RingOpcode.TRANSFER, src_mr.key, length=length,
               dst_mr_key=dst_mr.key)
    ]))


SUBMIT_PATHS = pytest.mark.parametrize("submit", ["invoke", "post_many"])


def hang_rule(vfpga_id=0, **kwargs):
    return FaultRule(
        site=APP_HANG, match=lambda v: v.vfpga_id == vfpga_id, **kwargs
    )


# ------------------------------------------------------------ watchdog unit


def test_watchdog_verdict_state_machine():
    progress = {"v": 0}
    busy = {"v": False}
    wd = ProgressWatchdog(
        "wd", lambda: progress["v"], lambda: busy["v"], deadline_ns=100.0
    )
    assert wd.sample(0.0) is Verdict.IDLE  # not busy: nothing to prove
    busy["v"] = True
    assert wd.sample(10.0) is Verdict.OK  # stall clock starts
    progress["v"] = 1
    assert wd.sample(50.0) is Verdict.OK  # progress moved: clock restarts
    assert wd.sample(140.0) is Verdict.OK  # 90 ns stalled < deadline
    assert wd.sample(160.0) is Verdict.HUNG  # 110 ns stalled >= deadline
    assert wd.trips == 1
    assert wd.sample(200.0) is Verdict.OK  # one trip per deadline, not per poll
    busy["v"] = False
    assert wd.sample(210.0) is Verdict.IDLE
    busy["v"] = True
    assert wd.sample(220.0) is Verdict.OK  # idle period cleared the history


def test_watchdog_rejects_bad_deadline():
    with pytest.raises(ValueError):
        ProgressWatchdog("wd", lambda: 0, lambda: True, deadline_ns=0)


# --------------------------------------- hang detection + recovery pipeline


def _two_tenant_run(inject: bool, submit: str = "invoke"):
    """One tenant hangs (or not); the other runs a fixed workload.
    ``submit`` picks the door the victim's transfer goes through.

    Returns (env, driver, outcome) after the simulation fully drains.
    """
    env, shell, driver = card(num_vfpgas=2)
    HealthMonitor(driver, FAST)
    if inject:
        plan = FaultPlan(seed=11, rules=[hang_rule(0, at_events=(0,))])
        FaultInjector(plan).arm(shell=shell)
    for v in range(2):
        shell.load_app(v, PassThroughApp())
    outcome = {}

    def victim():
        ct = CThread(driver, 0, pid=1)
        src = yield from ct.get_mem(1 << 14)
        dst = yield from ct.get_mem(1 << 14)
        try:
            yield from submit_transfer(ct, submit, src, dst, 1 << 14)
            outcome["victim"] = "ok"
        except RecoveredError:
            outcome["victim"] = "recovered"

    def bystander():
        ct = CThread(driver, 1, pid=2)
        src = yield from ct.get_mem(1 << 14)
        dst = yield from ct.get_mem(1 << 14)
        start = env.now
        for _ in range(64):
            yield from ct.invoke(Oper.LOCAL_TRANSFER,
                                 transfer_sg(src.vaddr, dst.vaddr, 1 << 14))
        outcome["bystander_ns"] = env.now - start

    procs = [env.process(victim()), env.process(bystander())]
    env.run(AllOf(env, procs))
    env.run()  # drain: let an in-flight recovery finish and the monitor park
    return env, driver, outcome


def test_hung_tenant_is_recovered_and_isolated():
    """ISSUE acceptance: with ``app.hang`` injected into one of two
    tenants, the hung vFPGA is recovered, ``card_report()["health"]``
    reflects it, no request is left unresolved, and the *other* tenant's
    throughput stays within 10% of the fault-free run."""
    _, _, baseline = _two_tenant_run(inject=False)
    env, driver, outcome = _two_tenant_run(inject=True)

    assert outcome["victim"] == "recovered"  # typed error, not a hang
    assert driver.recovery is not None
    assert driver.recovery.total_recoveries() == 1
    report = card_report(driver)["health"]
    states = {region["id"]: region["state"] for region in report["regions"]}
    assert states[0] == "degraded"
    assert states[1] == "healthy"
    assert report["card"] == "degraded"
    # Nothing unresolved: every pending completion was failed or delivered.
    assert all(not ctx.rings.outstanding for ctx in driver.processes.values())
    # The healthy tenant is isolated from the recovery storm next door.
    assert outcome["bystander_ns"] == pytest.approx(
        baseline["bystander_ns"], rel=0.10
    )
    # Telemetry picked the events up.
    telemetry = card_report(driver)["telemetry"]
    assert telemetry["health"]["recoveries"] == 1
    assert telemetry["health"]["hung_verdicts"] >= 1


@SUBMIT_PATHS
def test_kernel_hang_is_recovered_on_either_submit_path(submit):
    """A hang is a hang whichever API the tenant used: the region
    watchdog sees the in-flight work, trips once, and the waiter gets a
    typed error instead of parking forever."""
    env, driver, outcome = _two_tenant_run(inject=True, submit=submit)
    assert outcome["victim"] == "recovered"
    assert driver.health.hung_verdicts == 1
    assert driver.recovery.total_recoveries() == 1
    # Recovery flushed the table; the wiped work's completions never come.
    assert all(len(ctx.rings) == 0 for ctx in driver.processes.values())


@SUBMIT_PATHS
def test_stuck_lane_trips_the_cthread_watchdog_on_either_submit_path(submit):
    """The per-cThread watchdog ages every in-flight work request by its
    issue time, so one wedged lane is named in ``stuck_pids`` — and
    counted as a verdict — long before the region deadline."""
    env, shell, driver = card()
    config = HealthConfig(
        poll_interval_ns=5_000.0,
        deadline_ns=10_000_000.0,  # the region watchdog stays out of it
        cthread_deadline_ns=40_000.0,
        drain_ns=10_000.0,
        auto_recover=False,
    )
    monitor = HealthMonitor(driver, config)
    plan = FaultPlan(seed=11, rules=[hang_rule(0, at_events=(0,))])
    FaultInjector(plan).arm(shell=shell)
    shell.load_app(0, PassThroughApp())
    ct = CThread(driver, 0, pid=1)
    seen = {}

    def victim():
        src = yield from ct.get_mem(1 << 14)
        dst = yield from ct.get_mem(1 << 14)
        seen["submitted_ns"] = env.now
        try:
            yield from submit_transfer(ct, submit, src, dst, 1 << 14)
        except RecoveredError:
            seen["victim"] = "recovered"

    def operator():
        while "submitted_ns" not in seen:
            yield env.timeout(5_000.0)
        yield env.timeout(20_000.0)
        seen["early"] = monitor.report().regions[0].stuck_pids
        yield env.timeout(60_000.0)
        seen["late"] = monitor.report().regions[0].stuck_pids
        seen["verdicts"] = monitor.hung_verdicts
        yield env.process(driver.recover(0, reason="operator"))

    env.process(victim())
    env.run(env.process(operator()))
    env.run()
    assert seen["early"] == ()  # in flight, but younger than the deadline
    assert seen["late"] == (1,)
    assert seen["verdicts"] >= 1
    assert seen["victim"] == "recovered"
    assert monitor.report().regions[0].stuck_pids == ()


def test_decoupled_region_rejects_new_work():
    env, shell, driver = card(PassThroughApp())
    ct = CThread(driver, 0, pid=1)
    shell.vfpgas[0].decoupled = True

    def main():
        src = yield from ct.get_mem(4096)
        dst = yield from ct.get_mem(4096)
        yield from ct.invoke(Oper.LOCAL_TRANSFER,
                             transfer_sg(src.vaddr, dst.vaddr, 4096))

    env.process(main())
    with pytest.raises(DecoupledError):
        env.run()


def test_wedged_credits_recover_and_retry_succeeds():
    """``app.wedge_credit`` leaks the whole host credit pool; recovery
    refills it and a retried transfer completes byte-exactly."""
    env, shell, driver = card()
    HealthMonitor(driver, FAST)
    plan = FaultPlan(
        seed=5,
        rules=[FaultRule(site=APP_WEDGE_CREDIT, probability=1.0, max_fires=16)],
    )
    FaultInjector(plan).arm(shell=shell)
    shell.load_app(0, PassThroughApp())
    ct = CThread(driver, 0, pid=1)
    payload = bytes(i % 251 for i in range(1 << 16))  # 32 packets > 16 credits
    outcome = {}

    def main():
        src = yield from ct.get_mem(len(payload))
        dst = yield from ct.get_mem(len(payload))
        ct.write_buffer(src.vaddr, payload)
        sg = transfer_sg(src.vaddr, dst.vaddr, len(payload))
        try:
            yield from ct.invoke(Oper.LOCAL_TRANSFER, sg)
        except RecoveredError:
            outcome["first"] = "recovered"
        while shell.vfpgas[0].decoupled:
            yield env.timeout(10_000.0)
        yield from ct.invoke(Oper.LOCAL_TRANSFER, sg)  # retry on reset region
        return ct.read_buffer(dst.vaddr, len(payload))

    received = env.run(env.process(main()))
    env.run()
    assert outcome["first"] == "recovered"
    assert shell.vfpgas[0].credits_wedged == 16
    assert received == payload
    assert driver.recovery.total_recoveries() == 1
    # The reset refilled every pool exactly to capacity.
    for crediter in shell.vfpgas[0].rd_credits.values():
        assert crediter.in_flight == 0


# ------------------------------------------------------------ circuit breaker


def test_circuit_breaker_quarantines_repeat_offender():
    env, shell, driver = card(num_vfpgas=2)
    config = HealthConfig(
        poll_interval_ns=5_000.0,
        deadline_ns=30_000.0,
        drain_ns=5_000.0,
        breaker_threshold=2,
    )
    HealthMonitor(driver, config)
    plan = FaultPlan(seed=3, rules=[hang_rule(0, probability=1.0)])
    FaultInjector(plan).arm(shell=shell)
    for v in range(2):
        shell.load_app(v, PassThroughApp())
    errors = []

    def client():
        ct = CThread(driver, 0, pid=1)
        src = yield from ct.get_mem(4096)
        dst = yield from ct.get_mem(4096)
        sg = transfer_sg(src.vaddr, dst.vaddr, 4096)
        for _ in range(10):
            try:
                yield from ct.invoke(Oper.LOCAL_TRANSFER, sg)
                errors.append("ok")
            except RecoveredError:
                errors.append("recovered")
            except DecoupledError:
                errors.append("decoupled")
            except QuarantinedError:
                errors.append("quarantined")
                break
            yield env.timeout(100_000.0)

    env.run(env.process(client()))
    env.run()
    assert errors[-1] == "quarantined"
    assert shell.vfpgas[0].quarantined
    report = card_report(driver)["health"]
    states = {region["id"]: region["state"] for region in report["regions"]}
    assert states[0] == "quarantined"
    assert states[1] == "healthy"
    assert report["card"] == "degraded"  # one dark region; card still serves
    # Threshold 2: attempt 1 recovered, attempt 2 quarantined instead.
    assert driver.recovery.total_recoveries() == 1
    assert driver.recovery.quarantines == 1


def test_manual_recover_then_quarantine_sheds_scheduler_work():
    env, shell, driver, scheduler = scheduled_card(max_queue_depth=8)

    def main():
        # Default breaker threshold 3: two manual recoveries succeed, the
        # third quarantines instead.
        for _ in range(3):
            yield env.process(driver.recover(0, reason="operator"))
        assert scheduler.quarantined
        with pytest.raises(QuarantinedError):
            yield from scheduler.submit("hll", lambda app: iter(()))

    env.run(env.process(main()))
    assert driver.recovery.total_recoveries() == 2
    assert driver.recovery.quarantines == 1
    assert card_report(driver)["health"]["card"] == "quarantined"


# ------------------------------------------- scheduler: admission + replay


def test_admission_block_mode_backpressures_but_serves_all():
    env, shell, driver, scheduler = scheduled_card(
        max_queue_depth=2, admission="block"
    )
    served = []

    def client(i):
        def body(app):
            yield env.timeout(1_000.0)
            return i

        served.append((yield from scheduler.submit("hll", body)))

    procs = [env.process(client(i)) for i in range(6)]
    env.run(AllOf(env, procs))
    assert sorted(served) == list(range(6))
    assert scheduler.queue_full_stalls > 0
    assert scheduler.queue_depth_high_water <= 2
    assert scheduler.rejected_submits == 0


def test_admission_reject_mode_sheds_excess():
    env, shell, driver, scheduler = scheduled_card(
        max_queue_depth=1, admission="reject"
    )
    results = {"served": 0, "rejected": 0}

    def client(i):
        def body(app):
            yield env.timeout(1_000.0)

        try:
            yield from scheduler.submit("hll", body)
            results["served"] += 1
        except AdmissionError:
            results["rejected"] += 1

    procs = [env.process(client(i)) for i in range(6)]
    env.run(AllOf(env, procs))
    assert results["rejected"] >= 1
    assert results["served"] + results["rejected"] == 6
    assert scheduler.rejected_submits == results["rejected"]


def _run_replay_case(idempotent):
    env, shell, driver, scheduler = scheduled_card(idempotent=idempotent)
    runs = []
    outcome = {}

    def body(app):
        runs.append(env.now)
        yield env.timeout(1_000_000.0)  # 1 ms: plenty of time to interrupt
        return "done"

    def client():
        try:
            outcome["result"] = yield from scheduler.submit("hll", body)
        except RecoveredError:
            outcome["result"] = "recovered-error"

    def orchestrate():
        while not runs:  # wait until the body is actually running
            yield env.timeout(10_000.0)
        yield env.timeout(100_000.0)
        yield env.process(driver.recover(0, reason="test"))

    main = env.process(client())
    env.process(orchestrate())
    env.run(main)
    env.run()
    return scheduler, driver, runs, outcome


def test_idempotent_request_is_replayed_after_recovery():
    scheduler, driver, runs, outcome = _run_replay_case(idempotent=True)
    assert outcome["result"] == "done"
    assert len(runs) == 2  # aborted once, replayed to completion
    assert scheduler.replayed == 1
    assert scheduler.replay_rejected == 0
    assert driver.recovery.total_recoveries() == 1


def test_non_idempotent_request_is_rejected_after_recovery():
    scheduler, driver, runs, outcome = _run_replay_case(idempotent=False)
    assert outcome["result"] == "recovered-error"
    assert len(runs) == 1  # never replayed
    assert scheduler.replayed == 0
    assert scheduler.replay_rejected == 1
    assert driver.recovery.total_recoveries() == 1


def test_scheduler_kernel_is_reprogrammed_by_recovery():
    """Recovery restores the scheduler's resident kernel through the PR
    path, so follow-up requests run without an extra reconfiguration."""
    scheduler, driver, runs, outcome = _run_replay_case(idempotent=True)
    assert scheduler.loaded == "hll"
    assert scheduler.loaded_app is driver.shell.vfpgas[0].app
    assert driver.shell.vfpgas[0].app is not None
