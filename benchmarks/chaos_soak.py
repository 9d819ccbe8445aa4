#!/usr/bin/env python
"""Chaos soak: the health-chaos scenario across many seeds, time-boxed.

CI's ``chaos-soak`` job runs this to catch rare-schedule bugs the fixed
test seeds miss: every seed arms ``app.hang`` + ``net.drop`` against a
two-node cluster (compute on one region, RDMA across the lossy switch)
and checks the safety invariants the unit tests assert for a single
seed.  A per-seed wall-clock alarm converts any simulation livelock into
a loud failure instead of a hung CI job.  With ``REPRO_SANITIZE=1``
every seed also runs under the process-wide SimSanitizer, and a seed
that records any violation fails.

Usage::

    python benchmarks/chaos_soak.py --seeds 25 --timeout 60
"""

from __future__ import annotations

import argparse
import hashlib
import signal
import sys
import time

sys.path.insert(0, "src")

import numpy as np  # noqa: E402

from repro import CThread, Environment, Oper, RdmaSg, SgEntry  # noqa: E402
from repro.analysis import sanitizer as _sanitizer  # noqa: E402
from repro.api import AppScheduler  # noqa: E402
from repro.apps import AesEcbApp, PassThroughApp  # noqa: E402
from repro.cluster import FpgaCluster  # noqa: E402
from repro.core import LocalSg, ServiceConfig  # noqa: E402
from repro.driver.report import card_report  # noqa: E402
from repro.driver.ringbuf import RingOp, RingOpcode  # noqa: E402
from repro.faults import (  # noqa: E402
    APP_HANG,
    LINK_FLAP,
    NET_DROP,
    NET_ECN_SUPPRESS,
    NET_PARTITION,
    NET_PAUSE_DROP,
    NODE_CRASH,
    FaultInjector,
    FaultPlan,
    FaultRule,
)
from repro.faults.plan import MIGRATE_TRANSFER_DROP  # noqa: E402
from repro.health import (  # noqa: E402
    AdmissionError,
    ClusterHealthConfig,
    ClusterMonitor,
    DecoupledError,
    HealthConfig,
    HealthMonitor,
    NodeDownError,
    PfcStormError,
    QuarantinedError,
    RecoveredError,
)
from repro.mem import PAGE_4K, AllocType, MmuConfig, TlbConfig  # noqa: E402
from repro.migrate import LiveMigrator, TransferAbortedError  # noqa: E402
from repro.net import (  # noqa: E402
    Cmac,
    CollectiveAbortError,
    DcqcnConfig,
    MacAddress,
    RdmaConfig,
    RdmaStack,
    Switch,
    SwitchConfig,
    WrFlushError,
)
from repro.sim import AllOf  # noqa: E402
from repro.synth import (  # noqa: E402
    BuildFlow,
    LockedShellCheckpoint,
    modules_for_services,
)


class SoakTimeout(Exception):
    """A single seed blew its wall-clock budget (likely a livelock)."""


def _alarm(signum, frame):
    raise SoakTimeout()


def run_seed(seed: int) -> dict:
    """One chaos scenario; returns a result row or raises on violation."""
    env = Environment()
    cluster = FpgaCluster(
        env, 2,
        services=ServiceConfig(
            en_memory=True, en_rdma=True,
            rdma=RdmaConfig(retransmit_timeout_ns=50_000),
        ),
    )
    node = cluster[0]
    HealthMonitor(node.driver, HealthConfig(
        poll_interval_ns=5_000.0, deadline_ns=50_000.0, drain_ns=10_000.0,
    ))
    victim = node.shell.vfpgas[0]
    plan = FaultPlan(
        seed=seed,
        rules=[
            FaultRule(site=APP_HANG, at_events=(seed % 4,),
                      match=lambda v: v is victim),
            FaultRule(site=NET_DROP, probability=0.02 + (seed % 5) / 100.0),
        ],
    )
    FaultInjector(plan).arm_cluster(cluster)
    node.shell.load_app(0, PassThroughApp())
    thread_a, thread_b = cluster.connect_qps(0, 1, pid_a=1, pid_b=2,
                                             qpn_a=1, qpn_b=2)
    payload = bytes((seed + i) % 256 for i in range(16_384))
    attempts = []

    def local_client():
        src = yield from thread_a.get_mem(1 << 13)
        dst = yield from thread_a.get_mem(1 << 13)
        sg = SgEntry(local=LocalSg(src_addr=src.vaddr, src_len=1 << 13,
                                   dst_addr=dst.vaddr, dst_len=1 << 13))
        for _ in range(20):
            try:
                yield from thread_a.invoke(Oper.LOCAL_TRANSFER, sg)
                attempts.append("ok")
            except (RecoveredError, DecoupledError):
                attempts.append("recovered")
            except QuarantinedError:
                attempts.append("quarantined")
                return
            if attempts.count("ok") >= 3:
                return
            yield env.timeout(50_000.0)

    def rdma_client():
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
    env.run()  # must quiesce: parked monitor + parked retransmit timers

    # --- invariants -----------------------------------------------------
    if rdma.value != payload:
        raise AssertionError(f"seed {seed}: RDMA payload corrupted")
    if attempts.count("ok") < 3 and "quarantined" not in attempts:
        raise AssertionError(f"seed {seed}: local client starved: {attempts}")
    for pid, ctx in node.driver.processes.items():
        if ctx.rings.outstanding:
            raise AssertionError(f"seed {seed}: pid {pid} left pending work")
    health = card_report(node.driver)["health"]
    if health["card"] not in ("healthy", "degraded", "quarantined"):
        raise AssertionError(f"seed {seed}: bad card verdict {health['card']}")
    return {
        "seed": seed,
        "card": health["card"],
        "recoveries": node.driver.recovery.total_recoveries(),
        "attempts": len(attempts),
        "sim_ns": env.now,
    }


def run_cluster_seed(seed: int) -> dict:
    """Cluster soak: 4 nodes, seeded crash/flap/partition chaos, fault-
    tolerant allreduce loop.  Every failed round must abort symmetrically
    (no rank left parked — the final drain would livelock otherwise);
    after healing partitions and rebuilding over the survivors, at least
    one round must complete with the correct element-wise sum."""
    env = Environment()
    cluster = FpgaCluster(
        env, 4,
        services=ServiceConfig(
            en_memory=True, en_rdma=True,
            rdma=RdmaConfig(retransmit_timeout_ns=50_000),
        ),
    )
    plan = FaultPlan(
        seed=seed,
        rules=[
            FaultRule(site=NODE_CRASH, at_events=(120 + seed % 60,)),
            FaultRule(site=NET_PARTITION, at_events=(50 + seed % 25,)),
            FaultRule(site=LINK_FLAP, probability=(seed % 3) / 2000.0),
        ],
    )
    FaultInjector(plan).arm_cluster(cluster)
    monitor = ClusterMonitor(cluster, ClusterHealthConfig(interval_ns=50_000.0))
    group = cluster.collective_group(timeout_ns=5_000_000.0)
    members = list(range(4))  # node index per group rank

    def run_round(grp, count):
        """One allreduce over ``count`` ranks; returns (oks, errors)."""
        chunk = 12  # element count divides 2, 3 and 4 ranks
        results, errors = {}, {}

        def member(rank):
            payload = np.full(chunk, rank + 1, dtype="<u4").tobytes()
            try:
                results[rank] = yield from grp.allreduce(payload, rank=rank)
            except CollectiveAbortError as exc:
                errors[rank] = exc

        procs = [env.process(member(r)) for r in range(count)]
        env.run(AllOf(env, procs))
        return results, errors

    rounds_done = rounds_aborted = 0
    for _ in range(12):
        if rounds_done >= 3:
            break
        n = len(members)
        results, errors = run_round(group, n)
        if not errors:
            expected = np.full(12, n * (n + 1) // 2, dtype="<u4").tobytes()
            if any(results[r] != expected for r in range(n)):
                raise AssertionError(f"seed {seed}: allreduce sum wrong")
            rounds_done += 1
            continue
        # NCCL-style symmetric abort: every rank must have raised.
        if len(errors) != n or results:
            raise AssertionError(
                f"seed {seed}: asymmetric abort ({len(errors)}/{n} raised)"
            )
        rounds_aborted += 1
        cluster.switch.heal_all_partitions()
        survivors = [m for m in members if cluster.nodes[m].alive]
        if len(survivors) < 2:
            break
        ranks = [members.index(m) for m in survivors]
        group = group.rebuild(ranks)
        members = survivors
    if rounds_done < 1:
        raise AssertionError(f"seed {seed}: no allreduce round ever completed")
    monitor.stop()
    env.run()  # must quiesce: no parked rank, no live heartbeat loops
    return {
        "seed": seed,
        "members": len(members),
        "rounds": rounds_done,
        "aborts": rounds_aborted,
        "crashes": cluster.crashes,
        "flaps": cluster.switch.link_flaps,
        "partitions": cluster.switch.partitions_created,
        "sim_ns": env.now,
    }


#: Per-tenant pause budget for a live migration (stop-and-copy window).
MIGRATION_PAUSE_BUDGET_NS = 2_000_000.0


def run_migration_seed(seed: int) -> dict:
    """Migration soak: rolling-upgrade a 4-node cluster under live AES
    traffic with a seeded ``migrate.transfer_drop`` rate.  Invariants:
    every client request completes exactly once, every raw tenant's
    memory survives its forced moves byte-for-byte, every completed
    migration pauses its tenant for less than the stop-and-copy budget,
    and a transfer abort leaves the tenant live on the source."""
    env = Environment()
    cluster = FpgaCluster(
        env, 4,
        services=ServiceConfig(
            en_memory=True, en_rdma=True,
            mmu=MmuConfig(tlb=TlbConfig(page_size=PAGE_4K)),
            rdma=RdmaConfig(retransmit_timeout_ns=50_000),
        ),
    )
    FaultInjector(FaultPlan(
        seed=seed,
        rules=[
            FaultRule(site=MIGRATE_TRANSFER_DROP,
                      probability=(seed % 5) / 25.0),
        ],
    )).arm_cluster(cluster)
    migrator = LiveMigrator(cluster)
    flow = BuildFlow("u55c")
    schedulers = []
    for node in cluster.nodes:
        checkpoint = LockedShellCheckpoint(
            "u55c", node.shell.config.services, node.shell.shell_id,
            sum(m.luts for m in modules_for_services(node.shell.config.services)),
        )
        scheduler = AppScheduler(node.driver)
        scheduler.register(
            "aes", flow.app_flow(checkpoint, ["aes_ecb"]).bitstream,
            AesEcbApp, idempotent=True,
        )
        schedulers.append(scheduler)

    # Raw tenants exercise the checkpoint path: buffers, an MR and an
    # undrained ring descriptor that must survive every forced move.
    tenants = {}

    def seed_tenant(pid, node):
        thread = CThread(cluster[node].driver, 0, pid=pid)
        buf = yield from thread.get_mem(2 * PAGE_4K, alloc_type=AllocType.REG)
        image = bytes((seed + pid + i) % 256 for i in range(2 * PAGE_4K))
        thread.write_buffer(buf.vaddr, image)
        thread.setup_rings(8)
        mr = yield from thread.register_mr(buf.vaddr, 2 * PAGE_4K)
        cluster[node].driver.ring_post(
            pid, RingOp(opcode=RingOpcode.READ, mr_key=mr.key, length=PAGE_4K)
        )
        tenants[pid] = (buf.vaddr, image)

    for pid, node in ((101, 0), (102, 1), (103, 2)):
        env.run(env.process(seed_tenant(pid, node)))

    completed = []

    def body(tag):
        def run(app):
            yield env.timeout(2_000.0)
            return tag
        return run

    def client(cid, count):
        for i in range(count):
            tag = f"s{seed}-c{cid}-r{i}"
            while True:
                live = [s for s in schedulers if not s.driver.node_down]
                target = min(
                    live, key=lambda s: (len(s._queue), s.driver.node_index)
                )
                try:
                    assert (yield from target.submit("aes", body(tag))) == tag
                    completed.append(tag)
                    break
                except (NodeDownError, AdmissionError, QuarantinedError):
                    yield env.timeout(10_000.0)
            # Spread requests past the 40 ms upgrade kickoff so drains
            # and re-programs happen under live load.
            yield env.timeout(4_000_000.0 + (seed % 7) * 250_000.0)

    outcome = {}

    def admin():
        yield env.timeout(40_000_000.0)  # let the first PRs land
        try:
            outcome["summary"] = yield from cluster.rolling_upgrade(
                reason=f"soak-{seed}"
            )
        except TransferAbortedError as exc:
            outcome["aborted"] = exc

    clients = [env.process(client(cid, 10)) for cid in range(4)]
    admin_proc = env.process(admin())
    env.run(AllOf(env, clients + [admin_proc]))
    env.run()  # must quiesce: nothing parked, no live migration channels

    # --- invariants -----------------------------------------------------
    expected = 4 * 10
    if len(completed) != expected or len(set(completed)) != expected:
        raise AssertionError(
            f"seed {seed}: exactly-once violated "
            f"({len(completed)} done, {len(set(completed))} unique)"
        )
    if "aborted" in outcome:
        # Retry exhaustion mid-upgrade is legal under heavy drop rates,
        # but it must leave every tenant live and intact somewhere.
        for pid in tenants:
            home = cluster.placements.get(pid)
            if home is None or pid not in cluster[home].driver.processes:
                raise AssertionError(
                    f"seed {seed}: tenant {pid} wedged after abort"
                )
    else:
        if [row["node"] for row in outcome["summary"]] != [0, 1, 2, 3]:
            raise AssertionError(f"seed {seed}: upgrade order wrong")
        if any(node.shell_version != 1 for node in cluster.nodes):
            raise AssertionError(f"seed {seed}: node missed its upgrade")
    for pid, (vaddr, image) in tenants.items():
        thread = CThread.attach(cluster[cluster.placements[pid]].driver, pid)
        if thread.read_buffer(vaddr, len(image)) != image:
            raise AssertionError(f"seed {seed}: tenant {pid} memory corrupted")
    pauses = [r.pause_ns for r in migrator.records if r.result == "completed"]
    if pauses and max(pauses) > MIGRATION_PAUSE_BUDGET_NS:
        raise AssertionError(
            f"seed {seed}: pause {max(pauses):.0f}ns over budget"
        )
    return {
        "seed": seed,
        "migrations": migrator.completed,
        "aborts": migrator.aborted,
        "drops": migrator.stats["transfer_drops"],
        "transplants": migrator.queue_transplants,
        "max_pause": max(pauses, default=0.0),
        "sim_ns": env.now,
    }


def _congestion_pass(seed: int) -> dict:
    """One deterministic congestion scenario: a DCQCN incast with the
    control-loop fault sites armed, then a PFC pause storm against a
    wedged host.  Returns the stats the digest is computed over."""
    env = Environment()
    switch = Switch(env, config=SwitchConfig(
        egress_capacity_bytes=32 << 10,
        ecn_threshold_bytes=8 << 10,
        pfc_enabled=True,
        xoff_bytes=16 << 10,
        xon_bytes=8 << 10,
        storm_threshold_ns=150_000.0,
    ))
    FaultInjector(FaultPlan(
        seed=seed,
        rules=[
            FaultRule(site=NET_ECN_SUPPRESS, probability=(seed % 4) / 10.0),
            FaultRule(site=NET_PAUSE_DROP, probability=(seed % 3) / 10.0),
        ],
    )).arm(switch=switch)
    config = RdmaConfig(
        mtu=1024,
        retransmit_timeout_ns=100_000.0,
        dcqcn=DcqcnConfig(
            enabled=True,
            min_rate=0.25,
            alpha_update_ns=5_000.0,
            rate_increase_ns=20_000.0,
            additive_increase=0.1,
            hyper_increase=0.5,
            cnp_interval_ns=10_000.0,
        ),
    )

    def attach(mac_value, ip, name):
        mac = MacAddress(mac_value)
        cmac = Cmac(env, name=f"{name}-cmac")
        switch.attach(mac, cmac)
        stack = RdmaStack(env, cmac, mac, ip, name=name, config=config)

        def read_local(vaddr, length):
            yield env.timeout(length / 125.0)
            return None

        def write_local(vaddr, data, length):
            yield env.timeout(length / 125.0)

        stack.bind_memory(read_local, write_local)
        return stack

    nsenders = 4
    receiver = attach(0x02_0000_0100, 0x0A0000FF, "soak-rx")
    senders = [
        attach(0x02_0000_0001 + i, 0x0A000001 + i, f"soak-s{i}")
        for i in range(nsenders)
    ]
    for i, sender in enumerate(senders):
        qp_s = sender.create_qp(1, psn=0)
        qp_r = receiver.create_qp(100 + i, psn=0)
        qp_s.connect(qp_r.local)
        qp_r.connect(qp_s.local)

    completed = [0] * nsenders
    flushed = [0] * nsenders

    def sender_proc(i, sender):
        for _ in range(4):
            try:
                yield from sender.rdma_write(1, 0, 0x1000, 32 << 10)
            except WrFlushError:
                # Retry exhaustion under armed faults is legal — but it
                # must surface as the typed flush error, not a hang.
                flushed[i] += 1
                return
            completed[i] += 1

    incast = [env.process(sender_proc(i, s)) for i, s in enumerate(senders)]
    env.run(AllOf(env, incast))
    env.run()  # quiesce: retransmit timers parked, queues drained

    # --- phase 2: pause storm against a wedged host ---------------------
    blaster_mac = MacAddress(0x02_0000_0200)
    wedged_mac = MacAddress(0x02_0000_0201)
    blaster = Cmac(env, name="storm-blaster")
    wedged = Cmac(env, name="storm-wedged", rx_xoff_frames=4, rx_xon_frames=2)
    switch.attach(blaster_mac, blaster)
    switch.attach(wedged_mac, wedged)
    frames = 200

    def storm_blast():
        from repro.net import BthHeader, RocePacket, RoceOpcode
        for psn in range(frames):
            yield from blaster.tx(RocePacket.build(
                src_mac=blaster_mac, dst_mac=wedged_mac,
                src_ip=0x0B000001, dst_ip=0x0B000002,
                bth=BthHeader(opcode=RoceOpcode.SEND_ONLY, dest_qp=9,
                              psn=psn),
                payload=b"s" * 1024,
            ))

    def wedged_consumer():
        # Drain a handful of frames, then wedge: the rx watermark pause
        # never lifts and must escalate to a storm verdict.
        for _ in range(4 + seed % 4):
            yield from wedged.rx()

    env.process(storm_blast())
    env.process(wedged_consumer())
    env.run()  # must quiesce via storm mitigation, not hang

    # --- invariants -----------------------------------------------------
    for i in range(nsenders):
        if completed[i] + (1 if flushed[i] else 0) == 0:
            raise AssertionError(
                f"seed {seed}: sender {i} neither completed nor flushed"
            )
    if sum(completed) == 0:
        raise AssertionError(f"seed {seed}: incast made no progress")
    if switch.pfc_storms < 1:
        raise AssertionError(f"seed {seed}: pause storm went undetected")
    for err in switch.pfc_storm_errors:
        if not isinstance(err, PfcStormError):
            raise AssertionError(
                f"seed {seed}: storm surfaced as {type(err).__name__}"
            )
    if wedged.rx_frames != frames:
        raise AssertionError(
            f"seed {seed}: storm mitigation stranded "
            f"{frames - wedged.rx_frames} frames"
        )
    return {
        "completed": completed,
        "flushed": flushed,
        "counters": sorted(switch.counters().items()),
        "storms": switch.pfc_storms,
        "cnps": sum(s.stats["cnps_received"] for s in senders),
        "sim_ns": env.now,
    }


def run_congestion_seed(seed: int) -> dict:
    """Congestion soak: the scenario must be deterministic — two runs of
    the same seed digest identically (REPRO_SANITIZE=1 in CI also arms
    the process-wide SimSanitizer over both runs)."""
    first = _congestion_pass(seed)
    second = _congestion_pass(seed)

    def digest(row):
        return hashlib.sha256(repr(row).encode()).hexdigest()

    if digest(first) != digest(second):
        raise AssertionError(
            f"seed {seed}: double-run digest mismatch: "
            f"{digest(first)[:12]} != {digest(second)[:12]}"
        )
    return {
        "seed": seed,
        "completed": sum(first["completed"]),
        "flushed": sum(first["flushed"]),
        "storms": first["storms"],
        "cnps": first["cnps"],
        "digest": digest(first)[:12],
        "sim_ns": first["sim_ns"],
    }


def _soak(name, fn, seeds, timeout, render) -> int:
    """Run ``fn`` for every seed; a seed fails on a broken invariant, a
    wall-clock timeout or — under ``REPRO_SANITIZE=1`` — any violation
    the process-wide sanitizer recorded during it."""
    failures = 0
    sanitizer = _sanitizer.current()
    for seed in range(seeds):
        start = time.monotonic()
        signal.alarm(timeout)
        try:
            row = fn(seed)
            if sanitizer is not None and sanitizer.violations:
                raise AssertionError(sanitizer.report())
        except SoakTimeout:
            failures += 1
            print(f"{name} seed {seed:4d}  TIMEOUT after {timeout}s "
                  "(simulation livelock?)", flush=True)
            continue
        except AssertionError as exc:
            failures += 1
            print(f"{name} seed {seed:4d}  FAIL  {exc}", flush=True)
            continue
        finally:
            signal.alarm(0)
            if sanitizer is not None:
                sanitizer.reset()
        elapsed = time.monotonic() - start
        print(f"{name} seed {seed:4d}  ok  {render(row)} "
              f"sim={row['sim_ns']:.0f}ns wall={elapsed:.1f}s", flush=True)
    print(f"{name}: {seeds - failures}/{seeds} seeds clean", flush=True)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=25,
                        help="number of seeds to soak (default 25)")
    parser.add_argument("--timeout", type=int, default=60,
                        help="wall-clock seconds allowed per seed")
    parser.add_argument("--skip-cluster", action="store_true",
                        help="run only the single-card health scenario")
    parser.add_argument("--skip-migration", action="store_true",
                        help="skip the rolling-upgrade migration scenario")
    parser.add_argument("--only-migration", action="store_true",
                        help="run only the rolling-upgrade migration scenario")
    parser.add_argument("--skip-congestion", action="store_true",
                        help="skip the incast/PFC-storm congestion scenario")
    parser.add_argument("--only-congestion", action="store_true",
                        help="run only the incast/PFC-storm congestion "
                             "scenario")
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, _alarm)
    failures = 0
    if args.only_congestion:
        return 1 if _soak(
            "congestion", run_congestion_seed, args.seeds, args.timeout,
            lambda row: (
                f"completed={row['completed']} flushed={row['flushed']} "
                f"storms={row['storms']} cnps={row['cnps']} "
                f"digest={row['digest']}"
            ),
        ) else 0
    if not args.only_migration:
        failures += _soak(
            "card", run_seed, args.seeds, args.timeout,
            lambda row: f"card={row['card']:10s} recoveries={row['recoveries']}",
        )
        if not args.skip_cluster:
            failures += _soak(
                "cluster", run_cluster_seed, args.seeds, args.timeout,
                lambda row: (
                    f"members={row['members']} rounds={row['rounds']} "
                    f"aborts={row['aborts']} crashes={row['crashes']} "
                    f"flaps={row['flaps']} parts={row['partitions']}"
                ),
            )
    if not args.skip_migration:
        failures += _soak(
            "migration", run_migration_seed, args.seeds, args.timeout,
            lambda row: (
                f"migrations={row['migrations']} aborts={row['aborts']} "
                f"drops={row['drops']} transplants={row['transplants']} "
                f"max_pause={row['max_pause']:.0f}ns"
            ),
        )
    if not args.only_migration and not args.skip_congestion:
        failures += _soak(
            "congestion", run_congestion_seed, args.seeds, args.timeout,
            lambda row: (
                f"completed={row['completed']} flushed={row['flushed']} "
                f"storms={row['storms']} cnps={row['cnps']} "
                f"digest={row['digest']}"
            ),
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
