"""The cThread's RDMA invoke path (``CThread._rdma``) and the QPs it owns.

Every failure here must reach the submitter as a typed error, or the
verb's own completion, and never escape ``env.run()`` from one of the
stack's shared processes: those serve every tenant on the node.
"""

import pytest

from repro import Environment, Oper, RdmaSg, ServiceConfig, SgEntry, StreamType
from repro.cluster import FpgaCluster
from repro.mem.mmu import SegmentationFault
from repro.net import RdmaConfig, WrFlushError
from repro.net.qp import QpState

from .platforms import twice_sanitized


def _pair(services=None):
    env = Environment()
    cluster = FpgaCluster(env, 2, services=services)
    a, b = cluster.connect_qps(0, 1, pid_a=1, pid_b=2, qpn_a=1, qpn_b=2)
    return env, cluster, a, b


def _sg(local, remote, length, qpn):
    return SgEntry(rdma=RdmaSg(local_addr=local, remote_addr=remote, len=length, qpn=qpn))


def test_close_errors_the_owners_qps_so_a_peer_write_flushes():
    """Pid 1 closes; the peer then WRITEs 16 KiB into pid 1's old QP.
    The closed QP is in ERROR, so the inbound WRITE is never landed
    through pid 1's freed MMU context: the peer's verb ends in a typed
    flush, and ``env.run()`` drains without an error."""
    env, cluster, a, b = _pair()
    stack_a = cluster.nodes[0].shell.dynamic.rdma
    seen = {}

    def main():
        mine = yield from a.get_mem(16384)
        theirs = yield from b.get_mem(16384)
        a.close()
        assert stack_a.qps[1].state is QpState.ERROR
        try:
            yield from b.invoke(Oper.REMOTE_RDMA_WRITE, _sg(theirs.vaddr, mine.vaddr, 16384, 2))
        except WrFlushError as exc:
            seen["flush"] = exc

    env.process(main())
    env.run()
    assert seen["flush"].qpn == 2
    assert stack_a.stats["qp_errors"] == 1


@pytest.mark.parametrize("close_ns, window", [
    (1_700, 64),  # a fetch's read in flight across the close
    (2_000, 64),  # the first packet not yet out
    (20_000, 1),  # packets on the wire, both lanes full behind a credit
])
def test_closing_a_writer_mid_write_stops_its_fetch_lanes(close_ns, window):
    """Pid 1 posts a 1 MiB WRITE at 1.6 us and is closed while most of
    the message is still unfetched.  The submitter's flush names the verb
    (its wr_id and opcode, not the window credit it was parked on), the
    payload generator's lanes stop instead of reading pid 1's freed
    pages, ``env.run()`` drains, and no fetch is left parked on a lane."""

    def run():
        rdma = RdmaConfig(max_outstanding=window)
        env, cluster, a, b = _pair(ServiceConfig(en_memory=True, en_rdma=True, rdma=rdma))
        stack_a = cluster.nodes[0].shell.dynamic.rdma
        seen = {}

        def writer():
            mine = yield from a.get_mem(1 << 20)
            theirs = yield from b.get_mem(1 << 20)
            try:
                yield from a.invoke(Oper.REMOTE_RDMA_WRITE, _sg(mine.vaddr, theirs.vaddr, 1 << 20, 1))
            except WrFlushError as exc:
                seen["flush"] = (exc.qpn, exc.wr_id, exc.opcode, exc.reason)

        def closer():
            yield env.timeout(close_ns)
            seen["on_wire"] = stack_a.stats["tx_packets"] > 0
            a.close()

        env.process(writer())
        env.process(closer())
        env.run()
        seen["parked"] = [
            entry.process for entry in env.sanitizer.stuck_ledger(env) if "fetch" in entry.process
        ]
        return seen

    first, second = twice_sanitized(run)
    assert first == second
    assert first["flush"] == (1, 1, "WRITE", "closed")
    assert first["on_wire"] == (close_ns > 2_000)
    assert first["parked"] == []


@pytest.mark.parametrize("verb", ["READ", "ATOMIC"])
def test_a_flushed_read_or_atomic_names_its_wr_id(verb):
    """A READ posted by ``invoke`` (wr_id 1, from the stack's counter) or
    a FETCH_ADD posted as wr_id 7 is still waiting on its response when
    its QP errors at 2.5 us: the flush names the verb's own wr_id."""
    env, cluster, a, b = _pair()
    stack_a = cluster.nodes[0].shell.dynamic.rdma
    seen = {}

    def main():
        mine = yield from a.get_mem(4096)
        theirs = yield from b.get_mem(4096)
        try:
            if verb == "READ":
                yield from a.invoke(Oper.REMOTE_RDMA_READ, _sg(mine.vaddr, theirs.vaddr, 4096, 1))
            else:
                yield from stack_a.fetch_add(1, theirs.vaddr, 1, wr_id=7)
        except WrFlushError as exc:
            seen["flush"] = (exc.qpn, exc.wr_id, exc.opcode, exc.reason)

    def breaker():
        yield env.timeout(2_500)
        stack_a.qp_error(1, "test")

    env.process(main())
    env.process(breaker())
    env.run()
    assert seen["flush"] == (1, 1 if verb == "READ" else 7, verb, "test")


@pytest.mark.parametrize("oper", [Oper.REMOTE_RDMA_WRITE, Oper.REMOTE_RDMA_READ])
def test_an_unmapped_local_address_faults_in_the_submitter(oper):
    """A WRITE's source and a READ's landing buffer are walked at
    submit: the invoke raises, nothing goes on the wire, and the node's
    stack keeps serving (the same thread's next verb completes)."""
    env, cluster, a, b = _pair()
    stack_a = cluster.nodes[0].shell.dynamic.rdma

    def main():
        mine = yield from a.get_mem(4096)
        theirs = yield from b.get_mem(4096)
        before = env.now
        with pytest.raises(SegmentationFault, match="no mapping for vaddr 0xdead1234$"):
            yield from a.invoke(oper, _sg(0xDEAD1234, theirs.vaddr, 4096, 1))
        assert env.now == before
        assert stack_a.stats["tx_packets"] == 0
        yield from a.invoke(oper, _sg(mine.vaddr, theirs.vaddr, 4096, 1))

    env.run(env.process(main()))
    assert [c.opcode for c in stack_a.cq.items] == [oper.name.rsplit("_", 1)[1]]


def test_rdma_wr_ids_do_not_depend_on_what_ran_before():
    """Two identical clusters built in one interpreter number their
    verbs alike: the ids come from the node's stack, not a process-wide
    counter."""

    def run():
        env, cluster, a, b = _pair()

        def main():
            mine = yield from a.get_mem(4096)
            theirs = yield from b.get_mem(4096)
            for _ in range(3):
                yield from a.invoke(Oper.REMOTE_RDMA_WRITE, _sg(mine.vaddr, theirs.vaddr, 64, 1))

        env.run(env.process(main()))
        return [c.wr_id for c in cluster.nodes[0].shell.dynamic.rdma.cq.items]

    assert run() == run() == [1, 2, 3]


def test_an_rdma_invoke_timeout_returns_an_entry_and_leaves_the_qp_usable():
    """A 256 KiB WRITE given 3 us returns a ``"timeout"`` entry.  The
    invoke abandons the verb, it does not abort it: a posted WRITE cannot
    be recalled, so it runs to its end and completes late, and none of
    its fetch processes is left parked.  Once the simulation drains, the
    stack's window is back at capacity with nothing unacked, and a
    second verb on the same QP completes."""

    def run():
        env, cluster, a, b = _pair()
        stack = cluster.nodes[0].shell.dynamic.rdma
        window = stack._reliability.window
        out = {}

        def main():
            mine = yield from a.get_mem(1 << 18)
            theirs = yield from b.get_mem(1 << 18)
            sg = _sg(mine.vaddr, theirs.vaddr, 1 << 18, 1)
            entry = yield from a.invoke(Oper.REMOTE_RDMA_WRITE, sg, timeout_ns=3000)
            out["timeout"] = (entry.status, env.now)
            out["ids"] = [entry.wr_id]
            yield env.timeout(1_000_000)
            out["drained"] = (window.level, window.capacity, len(stack._contexts[1].unacked))
            yield from a.invoke(Oper.REMOTE_RDMA_WRITE, _sg(mine.vaddr, theirs.vaddr, 4096, 1))
            out["second"] = env.now

        env.process(main())
        env.run()
        out["ids"] += [c.wr_id for c in stack.cq.items]
        out["cq"] = [(c.opcode, c.length) for c in stack.cq.items]
        out["invoke_timeouts"] = cluster.nodes[0].driver.invoke_timeouts
        out["parked"] = [
            entry.process for entry in env.sanitizer.stuck_ledger(env) if "fetch" in entry.process
        ]
        return out

    first, second = twice_sanitized(run)
    timed_out, late, completed = first.pop("ids")
    assert late == timed_out and completed == timed_out + 1
    second.pop("ids")
    assert first == second
    # Two one-page get_mems (800 ns each), then the 3 us deadline.
    assert first["timeout"] == ("timeout", 1600.0 + 3000)
    level, capacity, unacked = first["drained"]
    assert level == capacity and unacked == 0
    assert first["cq"] == [("WRITE", 1 << 18), ("WRITE", 4096)]
    assert first["invoke_timeouts"] == 1
    assert first["parked"] == []


@pytest.mark.parametrize("oper", [Oper.REMOTE_RDMA_WRITE, Oper.REMOTE_RDMA_READ])
@pytest.mark.parametrize("timeout_ns", [None, 1e9])
def test_a_completed_verb_returns_a_success_entry(oper, timeout_ns):
    """A verb that completes returns a ``"success"`` entry, as a host
    invoke does: the verb's wr_id (the one its stack completion
    carries), the message length and the NET stream, stamped when the
    submitter resumed.  A deadline that is never reached changes
    nothing."""
    env, cluster, a, b = _pair()
    stack_a = cluster.nodes[0].shell.dynamic.rdma
    seen = {}

    def main():
        mine = yield from a.get_mem(16384)
        theirs = yield from b.get_mem(16384)
        entry = yield from a.invoke(oper, _sg(mine.vaddr, theirs.vaddr, 16384, 1), timeout_ns=timeout_ns)
        seen["entry"] = (entry.status, entry.wr_id, entry.length, entry.stream, entry.pid)
        seen["stamped"] = entry.timestamp_ns == env.now

    env.run(env.process(main()))
    [completion] = stack_a.cq.items
    assert seen["entry"] == ("success", completion.wr_id, 16384, StreamType.NET, 1)
    assert seen["stamped"]
    assert cluster.nodes[0].driver.invoke_timeouts == 0
