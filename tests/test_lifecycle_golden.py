"""The region lifecycle's simulated times as a golden digest.

Three runs pin what quiescing, restarting and reprogramming a region do
to the tenants on it, to the nanosecond:

``recovery``   a scheduled card (``scheduled_card``) whose idempotent
               ``hll`` request is wedged on a hung lane and whose
               non-idempotent ``aes`` request is mid-body when
               ``driver.recover`` runs; the breaker's third recovery
               quarantines the region with work queued;
``migration``  two scheduled cards (``scheduled_cluster``): a tenant
               with buffers, an MR, an undrained ring slot and CSR state
               migrates while the source scheduler has a request in
               flight and two queued, warming the destination's kernel;
               a second tenant's migration loses its stop-and-copy delta
               to ``migrate.transfer_drop`` and falls back to its source;
``upgrade``    a three-node ``rolling_upgrade`` under scheduler traffic,
               whose drains transplant queued requests and move a tenant.

Each run's entry in ``golden/lifecycle_digest.json`` holds a SHA-256 over
its ordered ``(time, kind, id, outcome)`` tuples, their count, and in
clear the counters of every scheduler, recovery manager and migrator
involved, so a mismatch says where it moved.  A change that moves
simulated time on purpose edits the file by hand, with a ``reason`` that
says why; the failing test prints the entries to paste.
"""

import hashlib
import json
from pathlib import Path

from repro import CThread, LocalSg, Oper, SgEntry
from repro.apps import HllApp
from repro.driver.ringbuf import RingOp, RingOpcode
from repro.faults import APP_HANG, FaultInjector, FaultPlan, FaultRule
from repro.faults.plan import MIGRATE_TRANSFER_DROP
from repro.health import HealthConfig, HealthMonitor
from repro.mem import PAGE_4K, AllocType
from repro.migrate import LiveMigrator, TransferAbortedError
from repro.sim import Event

from .platforms import bitstream, scheduled_card, scheduled_cluster

GOLDEN = Path(__file__).parent / "golden" / "lifecycle_digest.json"
#: A request body's run time, long enough to be mid-body at a quiesce.
BODY_NS = 1_000_000.0
#: When the first partial reconfigurations have surely landed.
WARM_NS = 40_000_000.0
#: A body still running when a migration that warms its destination
#: (one uncached partial reconfiguration) reaches its quiesce.
LONG_NS = 60_000_000.0

_SCHEDULER_COUNTERS = (
    "reconfigurations", "requests_served", "reconfig_failures", "affinity_hits",
    "wakeups", "dispatches", "rejected_submits", "queue_full_stalls",
    "replayed", "replay_rejected", "transplanted_out", "transplanted_in",
)


class Ledger:
    """Every lifecycle step and request end, in the order they happened."""

    def __init__(self, env):
        self.env = env
        self.rows = []  # (time, kind, id, outcome)
        self.started = {}  # request tag -> Event, set when its body first runs

    def note(self, kind, ident, outcome):
        self.rows.append((self.env.now, kind, ident, outcome))

    def body(self, tag, duration=BODY_NS, work=None):
        """A request body that logs its start, runs ``work`` (a generator
        function of the app) if given, then sleeps ``duration``."""
        started = self.started.setdefault(tag, Event(self.env))

        def run(app):
            self.note("start", tag, type(app).__name__)
            if not started.triggered:
                started.succeed()
            if work is not None:
                yield from work(app)
            yield self.env.timeout(duration)
            return tag

        return run

    def submit(self, scheduler, kernel, tag, **body_kw):
        """A process that submits one request and logs how it ended."""
        body = self.body(tag, **body_kw)

        def proc():
            self.note("submit", tag, kernel)
            try:
                result = yield from scheduler.submit(kernel, body)
                self.note("end", tag, result)
            except Exception as exc:  # the typed error is the outcome
                self.note("end", tag, type(exc).__name__)

        return self.env.process(proc())

    def entry(self, counters):
        return {
            "sha256": hashlib.sha256(repr(self.rows).encode()).hexdigest(),
            "steps": len(self.rows),
            "end_ns": self.env.now,
            "counters": counters,
        }


def scheduler_counters(scheduler):
    return {name: getattr(scheduler, name) for name in _SCHEDULER_COUNTERS}


def recovery():
    """Three manual recoveries of one scheduled region: the first
    replays a wedged idempotent request, the second rejects a
    non-idempotent one, the third trips the breaker with work queued."""
    env, shell, driver, scheduler = scheduled_card(idempotent=True)
    HealthMonitor(driver, HealthConfig(auto_recover=False))
    FaultInjector(FaultPlan(seed=3, rules=[
        FaultRule(site=APP_HANG, at_events=(0,)),
    ])).arm(shell=shell)
    ledger = Ledger(env)
    thread = CThread(driver, 0, pid=1)

    def read_stream(app):
        # 64 KiB into the HLL kernel; the hung lane wedges the first try.
        buf = yield from thread.get_mem(64 << 10)
        yield from thread.invoke(
            Oper.LOCAL_READ, SgEntry(local=LocalSg(src_addr=buf.vaddr, src_len=64 << 10))
        )

    def recover(number, reason):
        yield env.process(driver.recover(0, reason=reason))
        ledger.note("recover", number, driver.recovery.state_of(0).value)

    def admin():
        ledger.submit(scheduler, "hll", "h1", work=read_stream)
        ledger.submit(scheduler, "aes", "a1")
        ledger.submit(scheduler, "hll", "h2")
        yield ledger.started["h1"]
        yield env.timeout(20_000.0)
        yield from recover(1, "wedged lane")
        yield ledger.started["a1"]
        ledger.submit(scheduler, "hll", "h3")
        yield env.timeout(100_000.0)
        yield from recover(2, "operator")
        yield ledger.started["h3"]
        ledger.submit(scheduler, "aes", "a2")
        yield env.timeout(100_000.0)
        yield from recover(3, "operator")
        ledger.submit(scheduler, "hll", "h4")

    env.run(env.process(admin()))
    env.run()
    manager, monitor = driver.recovery, driver.health
    return ledger.entry({
        "scheduler": scheduler_counters(scheduler),
        "recovery": {
            "recoveries": manager.total_recoveries(),
            "quarantines": manager.quarantines,
            "descriptors_dropped": manager.descriptors_dropped,
            "completions_failed": manager.completions_failed,
            "tlb_entries_flushed": manager.tlb_entries_flushed,
        },
        "monitor": {"polls": monitor.polls, "hung_verdicts": monitor.hung_verdicts},
        "shell": {"app_reconfigs": shell.app_reconfigs, "icap_rollbacks": shell.icap_rollbacks},
    })


def seed_tenant(env, node, pid):
    """A cThread on ``node`` with two pages, an MR over them, one
    undrained ring slot and a CSR written."""

    def setup():
        thread = CThread(node.driver, 0, pid=pid)
        buf = yield from thread.get_mem(2 * PAGE_4K, alloc_type=AllocType.REG)
        thread.write_buffer(buf.vaddr, bytes((pid + i) % 256 for i in range(2 * PAGE_4K)))
        thread.setup_rings(8)
        mr = yield from thread.register_mr(buf.vaddr, 2 * PAGE_4K)
        node.driver.ring_post(
            pid, RingOp(opcode=RingOpcode.READ, mr_key=mr.key, length=PAGE_4K)
        )
        yield from thread.set_csr(0xDEAD + pid, 40)

    env.run(env.process(setup()))


def migration():
    """Tenant 7 moves node 0 -> 1 with a request in flight and two
    queued; tenant 8's delta transfer is dropped, so it falls back."""
    plan = FaultPlan(seed=5, rules=[
        FaultRule(site=MIGRATE_TRANSFER_DROP, probability=1.0,
                  match=lambda chunk: str(chunk.get("tag", "")).startswith("delta-8")),
    ])
    env, cluster, schedulers = scheduled_cluster(2, plan=plan)
    source = schedulers[0]
    # A kernel only the source knows: a queued request of it cannot move.
    source.register("hll0", bitstream(cluster[0].shell, "hll"), HllApp)
    migrator = LiveMigrator(cluster)
    for pid in (7, 8):
        seed_tenant(env, cluster[0], pid)
    ledger = Ledger(env)

    def move(pid):
        try:
            record = yield from migrator.migrate(pid, 0, 1)
            ledger.note("migrate", pid, record.result)
        except TransferAbortedError:
            record = migrator.records[-1]
            ledger.note("migrate", pid, f"{record.result} in {record.state}")

    def admin():
        ledger.submit(source, "aes", "a1", duration=1_000.0)
        yield env.timeout(WARM_NS)
        ledger.submit(source, "aes", "a2", duration=LONG_NS)
        ledger.submit(source, "hll", "h1")
        ledger.submit(source, "hll0", "x1")
        yield ledger.started["a2"]
        yield from move(7)
        ledger.submit(source, "aes", "a3", duration=LONG_NS)
        yield ledger.started["a3"]
        yield from move(8)

    env.run(env.process(admin()))
    env.run()
    return ledger.entry({
        "schedulers": [scheduler_counters(s) for s in schedulers],
        "migrator": dict(migrator.stats, started=migrator.started,
                         completed=migrator.completed, aborted=migrator.aborted,
                         queue_transplants=migrator.queue_transplants,
                         replays=migrator.replays, replay_rejects=migrator.replay_rejects),
        "records": [
            [r.pid, r.result, r.state, r.pause_ns, r.dirty_pages, r.total_pages,
             r.checkpoint_sha256]
            for r in migrator.records
        ],
        "placements": {str(pid): node for pid, node in sorted(cluster.placements.items())},
        "loaded": [s.loaded for s in schedulers],
    })


def upgrade():
    """A three-node rolling upgrade while four clients keep submitting
    AES requests to the least-loaded live node until it is over, with
    one tenant on node 0 to drain and rebalance."""
    env, cluster, schedulers = scheduled_cluster(3)
    LiveMigrator(cluster)
    seed_tenant(env, cluster[0], 9)
    ledger = Ledger(env)
    upgraded = []

    def client(cid):
        serial = 0
        while not upgraded:
            tag = f"c{cid}-r{serial}"
            serial += 1
            live = [s for s in schedulers if not s.driver.node_down]
            target = min(live, key=lambda s: (len(s._queue), s.driver.node_index))
            ledger.note("submit", tag, target.driver.node_index)
            try:
                result = yield from target.submit("aes", ledger.body(tag, 300_000.0))
                ledger.note("end", tag, result)
            except Exception as exc:  # typed: node down, shed, ...
                ledger.note("end", tag, type(exc).__name__)
            yield env.timeout(100_000.0)

    def admin():
        yield env.timeout(WARM_NS)
        upgraded.extend((yield from cluster.rolling_upgrade(reason="fw-2.1")))

    procs = [env.process(client(cid)) for cid in range(4)]
    env.run(env.all_of(procs + [env.process(admin())]))
    env.run()
    ledger.rows.extend(cluster.admin_log)
    migrator = cluster.migrator
    return ledger.entry({
        "schedulers": [scheduler_counters(s) for s in schedulers],
        "summary": upgraded,
        "migrator": {"completed": migrator.completed, "aborted": migrator.aborted,
                     "queue_transplants": migrator.queue_transplants,
                     "replays": migrator.replays, "replay_rejects": migrator.replay_rejects},
        "cluster": {"drains": cluster.drains, "upgrades": cluster.upgrades,
                    "migrations": cluster.migrations,
                    "shell_versions": [node.shell_version for node in cluster.nodes]},
        "placements": {str(pid): node for pid, node in sorted(cluster.placements.items())},
    })


RUNS = {"recovery": recovery, "migration": migration, "upgrade": upgrade}


def test_lifecycle_runs_match_the_golden_digest():
    golden = json.loads(GOLDEN.read_text())
    got = {name: json.loads(json.dumps(run())) for name, run in RUNS.items()}
    stale = {
        name: entry for name, entry in got.items()
        if {k: v for k, v in golden.get(name, {}).items() if k != "reason"} != entry
    }
    assert not stale, (
        "simulated lifecycle times moved; if on purpose, paste these entries into "
        f"{GOLDEN.name} with a 'reason':\n" + json.dumps(stale, indent=2, sort_keys=True)
    )
