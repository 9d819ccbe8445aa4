"""Tests for the ring-buffer command path and MR registration (paper §6).

Covers the cmdReqQ/cmdRespQ mechanics (head/tail CSRs, doorbell batch
drain, one completion event per drained batch), the MTT shadow
(register / resolve / deregister with typed errors, TLB pinning with
rollback), the ``ring.doorbell_drop`` fault site, recovery via
``fail_pending``, the zero-length submit regression, and a sanitized
double-run determinism digest of the whole ring path.
"""

import hashlib

import pytest

from repro import CThread, LocalSg, Oper, ServiceConfig, SgEntry
from repro.apps import PassThroughApp
from repro.core import Descriptor, MoverConfig
from repro.driver import (
    CommandRing,
    DriverError,
    MrAccessError,
    MrBoundsError,
    MrError,
    MrKeyError,
    MrOverlapError,
    MrTable,
    RingError,
    RingFullError,
    RingOp,
    RingOpcode,
    ZeroLengthDescriptorError,
)
from repro.faults import RING_DOORBELL_DROP, FaultInjector, FaultPlan, FaultRule
from repro.mem import PAGE_4K, AllocType, MemLocation, MmuConfig, SegmentationFault, TlbConfig
from repro.telemetry import SimProfiler, collect_card_metrics

from .platforms import card, twice_sanitized


def make_thread(**shell_kw):
    env, shell, driver = card(PassThroughApp(), **shell_kw)
    thread = CThread(driver, 0, pid=1)
    return env, shell, driver, thread


# ------------------------------------------------------------- CommandRing


def test_command_ring_post_drain_head_tail():
    ring = CommandRing(slots=4)
    assert [ring.post(f"op{i}") for i in range(3)] == [0, 1, 2]
    assert ring.occupancy == 3 and ring.free == 1
    assert ring.drain() == ["op0", "op1", "op2"]
    # Head caught up to tail in one step; indices stay monotonic.
    assert ring.head == ring.tail == 3
    assert ring.occupancy == 0
    assert ring.post("op3") == 3
    assert ring.high_water == 3  # deepest occupancy ever reached


def test_command_ring_full_until_drained():
    ring = CommandRing(slots=2)
    ring.post("a")
    ring.post("b")
    with pytest.raises(RingFullError):
        ring.post("c")
    ring.drain()
    assert ring.post("c") == 2  # slots recycle at the doorbell drain


def test_command_ring_rejects_bad_geometry():
    with pytest.raises(RingError):
        CommandRing(slots=0)


# ----------------------------------------------------------------- MrTable


def test_mr_table_register_lookup_deregister():
    mrs = MrTable(pid=7)
    mr = mrs.register(0x1000, 0x2000, writable=False)
    assert mr.key == 1 and mr.pid == 7 and mr.end == 0x3000
    assert mrs.lookup(mr.key) is mr
    assert len(mrs) == 1
    assert mrs.deregister(mr.key) is mr
    with pytest.raises(MrKeyError):
        mrs.lookup(mr.key)
    with pytest.raises(MrKeyError):
        mrs.deregister(mr.key)


def test_mr_table_rejects_overlap_and_bad_args():
    mrs = MrTable(pid=1)
    mrs.register(0x1000, 0x1000)
    with pytest.raises(MrOverlapError):
        mrs.register(0x1800, 0x1000)  # straddles the existing region
    with pytest.raises(MrOverlapError):
        mrs.register(0x0, 0x1001)  # overlaps by one byte
    mrs.register(0x2000, 0x1000)  # adjacent is fine
    with pytest.raises(MrError):
        mrs.register(0x8000, 0)
    with pytest.raises(MrError):
        mrs.register(-1, 0x1000)


def test_mr_resolve_bounds_and_access():
    mrs = MrTable(pid=1)
    ro = mrs.register(0x1000, 0x1000, writable=False)
    assert mrs.resolve(ro.key, 0x100, 0x200, write=False) == 0x1100
    assert mrs.resolve(ro.key, 0, 0x1000, write=False) == 0x1000  # full slice
    with pytest.raises(MrBoundsError):
        mrs.resolve(ro.key, 0x1000, 1, write=False)  # one byte past the end
    with pytest.raises(MrBoundsError):
        mrs.resolve(ro.key, -1, 0x10, write=False)
    with pytest.raises(MrAccessError):
        mrs.resolve(ro.key, 0, 0x10, write=True)  # write via read-only MR
    with pytest.raises(MrKeyError):
        mrs.resolve(99, 0, 1, write=False)


# -------------------------------------------------- driver MR registration


def test_register_mr_pins_tlb_and_deregister_unpins():
    env, shell, driver, thread = make_thread()
    mmu = shell.dynamic.mmus[0]
    page = driver.processes[1].page_table.page_size

    def main():
        alloc = yield from thread.get_mem(2 * page)
        mr = yield from thread.register_mr(alloc.vaddr, 2 * page)
        return alloc, mr

    alloc, mr = env.run(env.process(main()))
    assert mr.num_pages == 2
    assert mmu.tlb.pinned_occupancy == 2
    assert mmu.tlb.lookup(alloc.vaddr).pinned
    assert driver.mrs_registered == 1
    thread.deregister_mr(mr)
    assert mmu.tlb.pinned_occupancy == 0
    assert not mmu.tlb.lookup(alloc.vaddr).pinned  # still resident, unpinned
    assert driver.mrs_deregistered == 1


def test_migrating_an_mr_page_keeps_its_pin():
    """LOCAL_OFFLOAD and LOCAL_SYNC re-map a registered MR's page in the
    TLB without dropping its pin: MR pages never take TLB-miss walks."""
    mmu_config = MmuConfig(tlb=TlbConfig(page_size=PAGE_4K))
    env, shell, driver, thread = make_thread(services=ServiceConfig(mmu=mmu_config))
    mmu = shell.dynamic.mmus[0]
    seen = []

    def main():
        alloc = yield from thread.get_mem(2 * PAGE_4K, AllocType.REG)
        yield from thread.register_mr(alloc.vaddr, 2 * PAGE_4K)
        page = SgEntry(local=LocalSg(src_addr=alloc.vaddr, src_len=PAGE_4K))
        for oper in (Oper.LOCAL_OFFLOAD, Oper.LOCAL_SYNC):
            yield from thread.invoke(oper, page)
            entry = mmu.tlb.lookup(alloc.vaddr)
            seen.append((mmu.tlb.pinned_occupancy, entry.location, entry.pinned))

    env.run(env.process(main()))
    assert seen == [(2, MemLocation.CARD, True), (2, MemLocation.HOST, True)]


def test_register_mr_unmapped_page_rolls_back():
    env, shell, driver, thread = make_thread()
    mmu = shell.dynamic.mmus[0]
    page = driver.processes[1].page_table.page_size
    outcome = {}

    def main():
        alloc = yield from thread.get_mem(page)
        outcome["second"] = alloc.vaddr + page
        try:
            # Second page of the range was never mapped: the walk faults
            # and registration must undo the pins it already took.
            yield from thread.register_mr(alloc.vaddr, 2 * page)
        except SegmentationFault as exc:
            outcome["error"] = exc

    env.run(env.process(main()))
    assert isinstance(outcome["error"], SegmentationFault)
    assert str(outcome["error"]).endswith(f"no mapping for vaddr {outcome['second']:#x}")
    assert len(driver.processes[1].mrs) == 0
    assert mmu.tlb.pinned_occupancy == 0
    assert driver.mrs_registered == 0


def test_register_mr_charges_per_page_latency():
    env, shell, driver, thread = make_thread()
    page = driver.processes[1].page_table.page_size

    def main():
        alloc = yield from thread.get_mem(3 * page)
        before = env.now
        yield from thread.register_mr(alloc.vaddr, 3 * page)
        return env.now - before

    from repro.driver.driver import MR_REGISTER_LATENCY_PER_PAGE_NS

    elapsed = env.run(env.process(main()))
    assert elapsed == pytest.approx(3 * MR_REGISTER_LATENCY_PER_PAGE_NS)


# ------------------------------------------------------- ring submit path


def test_ring_ops_require_armed_rings():
    env, shell, driver, thread = make_thread()
    op = RingOp(opcode=RingOpcode.READ, mr_key=1, length=64)
    with pytest.raises(RingError, match="rings not armed"):
        driver.ring_post(1, op)
    with pytest.raises(RingError, match="rings not armed"):
        driver.ring_doorbell(1)


def run_ring_transfers(requests=4, slots=8, transfer_bytes=512, plan=None):
    """End-to-end TRANSFER batch through PassThroughApp; returns the
    observable state a determinism digest (or assertions) needs."""
    env, shell, driver, thread = make_thread()
    if plan is not None:
        FaultInjector(plan).arm(shell=shell)
    payload = bytes(range(256)) * (transfer_bytes // 256)
    out = {}

    def main():
        src = yield from thread.get_mem(transfer_bytes * requests)
        dst = yield from thread.get_mem(transfer_bytes * requests)
        for i in range(requests):
            thread.write_buffer(src.vaddr + i * transfer_bytes, payload)
        thread.setup_rings(slots=slots)
        src_mr = yield from thread.register_mr(
            src.vaddr, transfer_bytes * requests, writable=False
        )
        dst_mr = yield from thread.register_mr(dst.vaddr, transfer_bytes * requests)
        ops = [
            RingOp(
                opcode=RingOpcode.TRANSFER,
                mr_key=src_mr.key,
                offset=i * transfer_bytes,
                length=transfer_bytes,
                dst_mr_key=dst_mr.key,
                dst_offset=i * transfer_bytes,
            )
            for i in range(requests)
        ]
        entries = yield from thread.post_many(ops)
        out["entries"] = entries
        out["data_ok"] = all(
            thread.read_buffer(dst.vaddr + i * transfer_bytes, transfer_bytes)
            == payload
            for i in range(requests)
        )
        out["finished_ns"] = env.now

    env.run(env.process(main()))
    return env, shell, driver, thread, out


def test_post_many_end_to_end_single_doorbell():
    requests = 4
    env, shell, driver, thread, out = run_ring_transfers(requests=4, slots=8)
    entries = out["entries"]
    assert len(entries) == requests
    assert out["data_ok"]
    # Completions come back in post order, one batch event for all four.
    assert [e.wr_id for e in entries] == sorted(e.wr_id for e in entries)
    assert all(e.status == "success" and e.pid == 1 for e in entries)
    assert driver.ring_doorbells == 1
    assert driver.ring_batches == 1
    assert driver.ring_descriptors == requests
    assert driver.ring_full_stalls == 0
    # Every gate retired and every TRANSFER read half was absorbed: the
    # in-flight table holds nothing.
    rings = driver.processes[1].rings
    assert rings.outstanding == 0 and len(rings) == 0


def test_post_many_full_ring_stalls_and_re_rings():
    requests, slots = 5, 2
    env, shell, driver, thread, out = run_ring_transfers(requests=requests, slots=slots)
    assert len(out["entries"]) == requests and out["data_ok"]
    # 5 requests through a 2-slot ring: 2 forced early doorbells + final.
    assert driver.ring_full_stalls == 2
    assert driver.ring_doorbells == 3
    assert driver.ring_batches == 3
    assert driver.ring_descriptors == requests


@pytest.mark.parametrize("via", ["invoke", "post_many"])
def test_zero_length_submit_rejected(via):
    """An empty READ, or a TRANSFER with an empty destination, raises the
    same typed error through either submit path, in the submitter's
    frame, before any descriptor is built."""
    env, shell, driver, thread = make_thread()

    def main():
        alloc = yield from thread.get_mem(4096)
        thread.setup_rings(slots=4)
        mr = yield from thread.register_mr(alloc.vaddr, 4096)
        for opcode, oper, src_len, dst_len in (
            (RingOpcode.READ, Oper.LOCAL_READ, 0, 0),
            (RingOpcode.TRANSFER, Oper.LOCAL_TRANSFER, 64, 0),
        ):
            with pytest.raises(ZeroLengthDescriptorError, match="nothing to transfer"):
                if via == "invoke":
                    sg = LocalSg(src_addr=alloc.vaddr, src_len=src_len,
                                 dst_addr=alloc.vaddr, dst_len=dst_len)
                    yield from thread.invoke(oper, SgEntry(local=sg))
                else:
                    yield from thread.post_many([RingOp(
                        opcode=opcode, mr_key=mr.key, length=src_len, dst_length=dst_len,
                    )])

    env.run(env.process(main()))
    # Nothing reached the ring or the shell, and nothing is in flight.
    assert driver.processes[1].rings.cmd.occupancy == 0
    assert len(driver.processes[1].rings) == 0
    assert driver.ring_descriptors == 0


def test_post_descriptor_zero_length_rejected():
    """Regression: a zero-length descriptor produces no packets (so no
    completion, so a hang).  The submit path must reject it up front."""
    env, shell, driver, thread = make_thread()
    desc = Descriptor(vfpga_id=0, pid=1, vaddr=0x1000, length=64)
    desc.length = 0  # __post_init__ validates; emulate a corrupted ioctl
    with pytest.raises(ZeroLengthDescriptorError) as excinfo:
        driver.post_descriptor(desc, write=False)
    assert isinstance(excinfo.value, DriverError)  # typed, catchable as both
    assert driver.ring_descriptors == 0  # rejected before the ring


# ------------------------------------- one submit path leaves no residue


def run_invoke_transfers(count, length=1 << 16, timeout_ns=None, **shell_kw):
    """``count`` x ``invoke(LOCAL_TRANSFER)``, then drain the sim."""
    env, shell, driver, thread = make_thread(**shell_kw)
    payload = bytes(i % 251 for i in range(length))
    out = {"entries": []}

    def main():
        src = yield from thread.get_mem(length)
        dst = yield from thread.get_mem(length)
        thread.write_buffer(src.vaddr, payload)
        sg = SgEntry(local=LocalSg(src_addr=src.vaddr, src_len=length,
                                   dst_addr=dst.vaddr, dst_len=length))
        for _ in range(count):
            out["entries"].append((yield from thread.invoke(
                Oper.LOCAL_TRANSFER, sg, timeout_ns=timeout_ns)))
        out["dst"] = dst

    env.run(env.process(main()))
    env.run()  # trailing writebacks and late completions
    out["data_ok"] = thread.read_buffer(out["dst"].vaddr, length) == payload
    return env, shell, driver, out


def assert_no_completion_state(shell, driver):
    rings = driver.processes[1].rings
    assert rings.outstanding == 0 and len(rings) == 0
    vfpga = shell.vfpgas[0]
    assert not vfpga.cq_rd.items and not vfpga.cq_wr.items


def test_invoke_transfers_leave_no_completion_state_behind():
    """A TRANSFER's read-half completion is consumed, not parked: the
    process holds no completion state once its invokes returned."""
    count = 10
    env, shell, driver, out = run_invoke_transfers(count)
    assert [e.status for e in out["entries"]] == ["success"] * count
    assert out["data_ok"]
    assert_no_completion_state(shell, driver)
    # One doorbell and one descriptor per invoke descriptor, as before.
    assert driver.ring_doorbells == driver.ring_descriptors == 2 * count
    assert driver.ring_batches == 0  # no ring was drained


@pytest.mark.parametrize("writeback", [True, False])
def test_timed_out_invoke_absorbs_its_late_completion(writeback):
    """The caller gave up, the hardware did not: the completion that
    still arrives is consumed by the in-flight table, not parked."""
    services = ServiceConfig(mover=MoverConfig(writeback=writeback))
    env, shell, driver, out = run_invoke_transfers(
        1, timeout_ns=500.0, services=services
    )
    (entry,) = out["entries"]
    assert entry.status == "timeout" and entry.pid == 1
    assert driver.invoke_timeouts == 1
    assert out["data_ok"]  # the transfer itself ran to completion
    assert_no_completion_state(shell, driver)


def test_invoke_and_ring_share_one_wr_id_counter():
    env, shell, driver, thread = make_thread()
    seen = []

    def main():
        alloc = yield from thread.get_mem(4096)
        thread.setup_rings(slots=4)
        mr = yield from thread.register_mr(alloc.vaddr, 4096)
        read = SgEntry(local=LocalSg(src_addr=alloc.vaddr, src_len=64))
        seen.append((yield from thread.invoke(Oper.LOCAL_READ, read)).wr_id)
        op = RingOp(opcode=RingOpcode.READ, mr_key=mr.key, length=64)
        seen.extend(e.wr_id for e in (yield from thread.post_many([op, op])))
        seen.append((yield from thread.invoke(Oper.LOCAL_READ, read)).wr_id)

    env.run(env.process(main()))
    assert seen == [1, 2, 3, 4]


def test_setup_rings_refuses_rearm_with_work_in_flight():
    env, shell, driver, thread = make_thread()

    def main():
        alloc = yield from thread.get_mem(4096)
        thread.setup_rings(slots=4)
        mr = yield from thread.register_mr(alloc.vaddr, 4096)
        driver.ring_post(
            1, RingOp(opcode=RingOpcode.READ, mr_key=mr.key, length=64)
        )
        with pytest.raises(RingError, match="work in flight"):
            thread.setup_rings(slots=8)
        batch = driver.ring_doorbell(1)
        yield batch
        # Quiesced: re-arming (even resizing) is allowed again.
        assert thread.setup_rings(slots=8).cmd.slots == 8

    env.run(env.process(main()))


def test_doorbell_drop_fault_recovers_by_re_ringing():
    plan = FaultPlan(
        seed=3, rules=[FaultRule(site=RING_DOORBELL_DROP, at_events=(0,))]
    )
    env, shell, driver, thread, out = run_ring_transfers(
        requests=3, slots=8, plan=plan
    )
    assert len(out["entries"]) == 3 and out["data_ok"]
    # First MMIO write was eaten; the cThread backed off and re-rang.
    assert driver.ring_doorbells_lost == 1
    assert driver.ring_doorbells == 2
    assert driver.ring_batches == 1  # the dropped doorbell opened no batch
    injector = shell.static.xdma.faults
    assert injector.fire_counts[RING_DOORBELL_DROP] == 1


def test_fail_pending_fails_inflight_ring_batches():
    env, shell, driver, thread = make_thread()
    outcome = {}

    def main():
        alloc = yield from thread.get_mem(4096)
        thread.setup_rings(slots=4)
        mr = yield from thread.register_mr(alloc.vaddr, 4096, writable=False)
        for i in range(2):
            driver.ring_post(
                1,
                RingOp(
                    opcode=RingOpcode.READ, mr_key=mr.key, offset=i * 64, length=64
                ),
            )
        batch = driver.ring_doorbell(1)
        # The region dies before the completions come back.
        outcome["failed"] = driver.fail_pending(0, DriverError("hot reset"))
        try:
            yield batch
        except DriverError as exc:
            outcome["error"] = exc

    env.run(env.process(main()))
    assert outcome["failed"] == 2  # both gated work requests counted
    assert isinstance(outcome["error"], DriverError)
    assert driver.processes[1].rings.outstanding == 0


def test_ring_telemetry_metrics():
    env, shell, driver, thread, out = run_ring_transfers(requests=4, slots=8)
    snap = collect_card_metrics(driver).snapshot()
    ring = snap["ring"]
    assert ring["doorbells"] == 1
    assert ring["descriptors"] == 4
    assert ring["batches"] == 1
    assert ring["full_stalls"] == 0
    assert ring["mr_registered"] == 2
    assert ring["descriptors_per_doorbell"]["value"] == pytest.approx(4.0)
    assert snap["mem"]["tlb_pinned"]["value"] >= 1


def test_ring_path_is_deterministic_under_sanitizer():
    """Same config, fresh envs: the full ring path (registration, batched
    doorbells, a full-ring stall, completions) digests identically."""

    def digest():
        env, shell, driver, thread, out = run_ring_transfers(requests=5, slots=2)
        state = {
            "entries": [
                (e.wr_id, e.length, e.status, e.timestamp_ns)
                for e in out["entries"]
            ],
            "data_ok": out["data_ok"],
            "finished_ns": out["finished_ns"],
            "events": env.events_processed,
            "doorbells": driver.ring_doorbells,
            "descriptors": driver.ring_descriptors,
            "stalls": driver.ring_full_stalls,
        }
        return hashlib.sha256(repr(sorted(state.items())).encode()).hexdigest()

    first, second = twice_sanitized(digest)
    assert first == second


# ---------------------------------------------- ring vs per-call ioctl


def run_submit_path(use_ring, requests=32, transfer_bytes=2048, slots=16):
    """``requests`` LOCAL_TRANSFERs through ``post_many`` or one
    ``invoke`` each; returns the driver and the measured events: all of
    them, and those of the submitting process alone."""
    env, shell, driver, thread = make_thread()
    payload = bytes(range(256)) * (transfer_bytes // 256)
    span = transfer_bytes * requests
    profiler = SimProfiler()
    out = {}

    def submit():
        src = yield from thread.get_mem(span)
        dst = yield from thread.get_mem(span)
        for i in range(requests):
            thread.write_buffer(src.vaddr + i * transfer_bytes, payload)
        if use_ring:
            thread.setup_rings(slots=slots)
            src_mr = yield from thread.register_mr(src.vaddr, span, writable=False)
            dst_mr = yield from thread.register_mr(dst.vaddr, span)
        profiler.attach(env)
        events_before = env.events_processed
        if use_ring:
            entries = yield from thread.post_many([
                RingOp(opcode=RingOpcode.TRANSFER, mr_key=src_mr.key,
                       offset=i * transfer_bytes, length=transfer_bytes,
                       dst_mr_key=dst_mr.key, dst_offset=i * transfer_bytes)
                for i in range(requests)
            ])
            assert len(entries) == requests
        else:
            for i in range(requests):
                yield from thread.invoke(Oper.LOCAL_TRANSFER, SgEntry(local=LocalSg(
                    src_addr=src.vaddr + i * transfer_bytes, src_len=transfer_bytes,
                    dst_addr=dst.vaddr + i * transfer_bytes, dst_len=transfer_bytes,
                )))
        out["events"] = env.events_processed - events_before
        profiler.detach()
        out["client_events"] = profiler.events.get("submit", 0)
        out["data_ok"] = thread.read_buffer(
            dst.vaddr + (requests - 1) * transfer_bytes, transfer_bytes
        ) == payload

    env.run(env.process(submit(), name="submit"))
    return driver, out


def test_ring_submit_beats_per_call_ioctl():
    """Same 32 x 2 KiB transfers on a 16-slot ring: an ``invoke`` is a
    batch of one through the same issue routine, so all the ring saves
    in total is the per-request completion event and client wakeup, and
    the host DMA engines' wake for each next packet, which a drained
    batch keeps staged (1193 vs 1278 events here), while the submitting
    process resumes once per drain instead of once per request (3 vs
    31)."""
    _, ioctl = run_submit_path(use_ring=False)
    driver, ring = run_submit_path(use_ring=True)
    ratio = ring["events"] / ioctl["events"]
    assert ratio <= 0.99, (
        f"ring submit must beat the per-call ioctl: {ring['events']} vs "
        f"{ioctl['events']} events (ratio {ratio:.3f}, bound 0.99)"
    )
    client_ratio = ring["client_events"] / ioctl["client_events"]
    assert client_ratio <= 0.5, (
        f"batched doorbells must collapse client wakeups: "
        f"{ring['client_events']} vs {ioctl['client_events']} submit-process "
        f"events (ratio {client_ratio:.3f}, bound 0.5)"
    )
    assert driver.ring_descriptors / driver.ring_doorbells > 1.0
    assert driver.ring_full_stalls >= 1
    assert driver.ring_batches == driver.ring_doorbells
    assert ring["data_ok"]
