"""Completions are posted: a mover unit hands over the CQ entry, posts
the counter writeback and goes on to its next packet (DESIGN.md
"Completions are posted").

Pins what that buys — small host writes at the link's rate, no
cross-tenant stall on the one C2H engine — and what it must keep: one
counter bump per completion entry, for host and card movers, with the
writeback off, and across a recovery that lands mid-flight; the landing
timer booked to ``writeback`` by both profilers.
"""

from collections import Counter

import pytest

from repro import (
    CThread,
    Driver,
    Environment,
    LocalSg,
    Oper,
    ServiceConfig,
    SgEntry,
    Shell,
    ShellConfig,
    StreamType,
)
from repro.analysis import SimSanitizer
from repro.apps import PassThroughApp
from repro.core import MoverConfig
from repro.driver import RingOp, RingOpcode
from repro.health import RecoveredError
from repro.pcie.xdma import WRITEBACK_LATENCY_NS
from repro.telemetry import SimProfiler

SLOT = 2048
BATCH = 64
LINK_BYTES_PER_NS = 12.0  # PcieLinkConfig's default, both directions


def _platform(tenants=1, stream=StreamType.HOST, **mover_kw):
    """``tenants`` pass-through vFPGAs with one cThread each, and a tally
    of the completion entries the movers put, keyed like the writeback
    counters (``v0-host-wr``).  Every platform runs sanitized."""
    env = Environment()
    env.sanitizer = SimSanitizer()
    services = ServiceConfig(mover=MoverConfig(**mover_kw))
    shell = Shell(env, ShellConfig(num_vfpgas=tenants, services=services))
    driver = Driver(env, shell)
    threads, entries = [], Counter()
    for vfpga in shell.vfpgas:
        shell.load_app(vfpga.vfpga_id, PassThroughApp(stream=stream))
        threads.append(CThread(driver, vfpga.vfpga_id, pid=10 + vfpga.vfpga_id))
        for queue, direction in ((vfpga.cq_rd, "rd"), (vfpga.cq_wr, "wr")):
            _tally_puts(queue, direction, entries)
    return env, shell, driver, threads, entries


def _tally_puts(queue, direction, entries):
    put = queue.put

    def tallied(entry):
        entries[f"v{entry.vfpga_id}-{entry.stream.value}-{direction}"] += 1
        return put(entry)

    queue.put = tallied


def _transfer_sg(thread, size, stream):
    """Allocate a source and a destination of ``size`` bytes — offloaded
    to HBM for a card stream — and return the pass-through transfer."""
    src = yield from thread.get_mem(size)
    dst = yield from thread.get_mem(size)
    if stream is StreamType.CARD:
        for buf in (src, dst):
            yield from thread.invoke(Oper.LOCAL_OFFLOAD, SgEntry(
                local=LocalSg(src_addr=buf.vaddr, src_len=size)))
    return SgEntry(local=LocalSg(
        src_addr=src.vaddr, src_len=size, dst_addr=dst.vaddr, dst_len=size,
        src_stream=stream, dst_stream=stream,
    ))


def _counters(shell):
    return {name: wb.count for name, wb in shell.static.xdma.writebacks.items()}


def _assert_clean_drain(env):
    """No sanitizer violation, every credit home, and nobody parked on a
    writeback: a posted write in flight is a timer without a waiter."""
    sanitizer = env.sanitizer
    sanitizer.check_drain(env)
    assert sanitizer.violations == []
    assert [e for e in sanitizer.stuck_ledger(env) if "xdma.py" in e.origin] == []


def _ring_batch(env, thread, kinds):
    """Arm ``thread``'s rings over two pinned MRs and post ``kinds`` as
    one doorbell batch of single-packet ops, one slot each.  Returns the
    entries, the time the batch was posted and the time it completed."""
    region = len(kinds) * SLOT

    def main():
        src = yield from thread.get_mem(region)
        dst = yield from thread.get_mem(region)
        thread.write_buffer(src.vaddr, bytes(range(256)) * (region // 256))
        thread.setup_rings(slots=len(kinds))
        src_mr = yield from thread.register_mr(src.vaddr, region, writable=False)
        dst_mr = yield from thread.register_mr(dst.vaddr, region)
        ops = []
        for slot, kind in enumerate(kinds):
            offset = slot * SLOT
            if kind is RingOpcode.TRANSFER:
                ops.append(RingOp(
                    opcode=kind, mr_key=src_mr.key, offset=offset, length=SLOT,
                    dst_mr_key=dst_mr.key, dst_offset=offset,
                ))
            else:
                key = src_mr.key if kind is RingOpcode.READ else dst_mr.key
                ops.append(RingOp(opcode=kind, mr_key=key, offset=offset, length=SLOT))
        posted = env.now
        entries = yield from thread.post_many(ops)
        return entries, posted, env.now

    return env.run(env.process(main()))


#: ``host_small``'s 2:1:1 mix, in a fixed order; every READ precedes the
#: WRITE that drains its bytes from the kernel.
HOST_SMALL_MIX = [
    RingOpcode.TRANSFER, RingOpcode.TRANSFER, RingOpcode.READ, RingOpcode.WRITE,
] * (BATCH // 4)


# ----------------------------------------------------- what the change buys


def test_small_host_writes_complete_at_the_link_rate():
    """Failed at the parent: each write-side completion held the C2H
    engine for the writeback's 400 ns, so they came 570.7 ns apart and
    the batch took 27.7 us."""
    env, _shell, _driver, (thread,), _entries = _platform()
    entries, posted, done = _ring_batch(env, thread, HOST_SMALL_MIX)
    assert [e.status for e in entries] == ["success"] * BATCH
    writes = [
        e.timestamp_ns
        for kind, e in zip(HOST_SMALL_MIX, entries)
        if kind is not RingOpcode.READ
    ]
    assert len(writes) == 3 * BATCH // 4
    gaps = [later - earlier for earlier, later in zip(writes, writes[1:])]
    assert gaps == pytest.approx([SLOT / LINK_BYTES_PER_NS] * len(gaps), abs=1.0)
    assert done - posted < 10_000


def test_a_tenants_small_completions_do_not_stall_another_tenants_write():
    """Failed at the parent: every completion of tenant A's parked the
    shared C2H engine for 400 ns, under tenant B's packets too."""
    big = 256 * 1024

    def b_finish(with_a):
        env, _shell, _driver, (a, b), _entries = _platform(tenants=2)
        out = {}

        def bulk():
            src = yield from b.get_mem(big)
            dst = yield from b.get_mem(big)
            sg = SgEntry(local=LocalSg(
                src_addr=src.vaddr, src_len=big, dst_addr=dst.vaddr, dst_len=big,
            ))
            start = env.now
            entry = yield from b.invoke(Oper.LOCAL_TRANSFER, sg)
            assert entry.status == "success"
            out["b"] = env.now - start

        proc = env.process(bulk())
        if with_a:
            _ring_batch(env, a, [RingOpcode.TRANSFER] * BATCH)
        env.run(proc)
        return out["b"]

    a_link_ns = BATCH * SLOT / LINK_BYTES_PER_NS
    assert b_finish(with_a=True) - b_finish(with_a=False) <= a_link_ns + 1.0


# ----------------------------------------------------- what it has to keep


@pytest.mark.parametrize("stream", [StreamType.HOST, StreamType.CARD])
def test_every_completion_entry_bumps_its_counter_once(stream):
    env, shell, _driver, (thread,), entries = _platform(stream=stream)
    size, count = 16 * 1024, 6
    seen = {}

    def main():
        sg = yield from _transfer_sg(thread, size, stream)
        for _ in range(count):
            entry = yield from thread.invoke(Oper.LOCAL_TRANSFER, sg)
            assert entry.status == "success"
        # The last write's entry is out; its counter update is in flight.
        seen["at completion"] = _counters(shell)
        seen["entries"] = dict(entries)

    env.run(env.process(main()))
    kind = stream.value
    assert seen["entries"][f"v0-{kind}-rd"] == seen["entries"][f"v0-{kind}-wr"] == count
    assert seen["at completion"][f"v0-{kind}-wr"] == count - 1
    # Stopped mid-flight, the trailing writebacks are timers, not waiters.
    _assert_clean_drain(env)
    env.run()  # drain: they land
    assert _counters(shell) == dict(entries)
    _assert_clean_drain(env)


def test_no_writeback_posts_no_counter_update():
    env, shell, _driver, (thread,), entries = _platform(writeback=False)
    _ring_batch(env, thread, HOST_SMALL_MIX)
    env.run()
    assert sum(entries.values()) == BATCH + BATCH // 2  # a TRANSFER completes twice
    assert _counters(shell) == {}
    _assert_clean_drain(env)


def test_recovery_mid_writeback_loses_and_doubles_no_bump():
    """Failed at the parent (1 entry without its bump): the card unit
    waited out the writeback itself, so a quiesce that landed in those
    400 ns dropped the update after the CQ entry had gone out."""
    env, shell, driver, (thread,), entries = _platform(stream=StreamType.CARD)
    vfpga = shell.vfpgas[0]
    size, count = 4096, 8  # one stripe: one packet a direction
    outcomes = []

    put = vfpga.cq_wr.put  # the tallied one

    def put_and_reset_inside_the_third_writeback(entry):
        if entries["v0-card-wr"] == 2:
            env.timeout(WRITEBACK_LATENCY_NS / 4).callbacks.append(
                lambda _event: env.process(driver.recover(0, reason="test"))
            )
        return put(entry)

    vfpga.cq_wr.put = put_and_reset_inside_the_third_writeback

    def main():
        sg = yield from _transfer_sg(thread, size, StreamType.CARD)
        for _ in range(count):
            try:
                entry = yield from thread.invoke(Oper.LOCAL_TRANSFER, sg)
                outcomes.append(entry.status)
            except RecoveredError:
                outcomes.append("recovered")
                while vfpga.decoupled:
                    yield env.timeout(1_000)

    env.run(env.process(main()))
    env.run()
    assert outcomes.count("recovered") == 1
    assert outcomes.count("success") == count - 1
    assert driver.recovery.total_recoveries() == 1
    assert _counters(shell) == dict(entries)
    _assert_clean_drain(env)


# ------------------------------------------------- where the timer is booked


def test_profiler_books_one_writeback_event_per_completion():
    env, shell, _driver, (thread,), entries = _platform()
    with SimProfiler().attach(env) as profiler:
        _ring_batch(env, thread, HOST_SMALL_MIX)
        env.run()
    completions = sum(entries.values())
    assert completions == BATCH + BATCH // 2
    assert profiler.events["writeback"] == completions
    assert sum(_counters(shell).values()) == completions
