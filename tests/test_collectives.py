"""Tests for RDMA collectives (broadcast, ring allreduce) and their
fault-tolerance contract: leg deadlines, symmetric abort, rebuild."""

import numpy as np
import pytest

from repro.net import (
    CollectiveAbortError,
    CollectiveError,
    CollectiveGroup,
    CollectiveTimeoutError,
    sum_i32,
)
from repro.sim import AllOf

from .platforms import rdma_group


def test_group_needs_two_members():
    env, _, stacks, _ = rdma_group(1)
    with pytest.raises(CollectiveError):
        CollectiveGroup(env, stacks)


def test_sum_i32_wraps():
    a = np.array([1, 0xFFFFFFFF], dtype="<u4").tobytes()
    b = np.array([2, 1], dtype="<u4").tobytes()
    out = np.frombuffer(sum_i32(a, b), dtype="<u4")
    assert out.tolist() == [3, 0]


def test_sum_i32_length_mismatch():
    with pytest.raises(CollectiveError):
        sum_i32(b"\x00" * 4, b"\x00" * 8)


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_broadcast_reaches_every_rank(n):
    env, _, stacks, _ = rdma_group(n)
    group = CollectiveGroup(env, stacks)
    payload = bytes(range(256)) * 8
    results = {}

    def member(rank):
        data = yield from group.broadcast(
            root=0, payload=payload if rank == 0 else None, rank=rank
        )
        results[rank] = data

    procs = [env.process(member(r)) for r in range(n)]
    env.run(AllOf(env, procs))
    assert all(results[r] == payload for r in range(n))


def test_broadcast_nonzero_root():
    env, _, stacks, _ = rdma_group(4)
    group = CollectiveGroup(env, stacks)
    payload = b"root-two!" * 100
    results = {}

    def member(rank):
        data = yield from group.broadcast(
            root=2, payload=payload if rank == 2 else None, rank=rank
        )
        results[rank] = data

    procs = [env.process(member(r)) for r in range(4)]
    env.run(AllOf(env, procs))
    assert all(results[r] == payload for r in range(4))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_allreduce_sums_contributions(n):
    env, _, stacks, _ = rdma_group(n)
    group = CollectiveGroup(env, stacks)
    elements = 64 * n  # divisible into n int32 chunks
    contributions = [
        np.arange(elements, dtype="<u4") * (rank + 1) for rank in range(n)
    ]
    expected = sum(contributions).astype("<u4")
    results = {}

    def member(rank):
        data = yield from group.allreduce(contributions[rank].tobytes(), rank)
        results[rank] = np.frombuffer(data, dtype="<u4")

    procs = [env.process(member(r)) for r in range(n)]
    env.run(AllOf(env, procs))
    for rank in range(n):
        assert (results[rank] == expected).all(), rank


def test_allreduce_rejects_unaligned_payload():
    env, _, stacks, _ = rdma_group(3)
    group = CollectiveGroup(env, stacks)

    def member():
        yield from group.allreduce(b"\x00" * 10, 0)  # not divisible by 12

    env.process(member())
    with pytest.raises(CollectiveError):
        env.run()


def test_allreduce_bandwidth_optimality():
    """Ring allreduce moves ~2(n-1)/n of the buffer per node, far less
    than the naive all-to-all (n-1 copies)."""
    n = 4
    env, _, stacks, _ = rdma_group(n)
    group = CollectiveGroup(env, stacks)
    elements = 256 * n
    payload = np.ones(elements, dtype="<u4").tobytes()
    procs = [
        env.process(group.allreduce(payload, r)) for r in range(n)
    ]
    env.run(AllOf(env, procs))
    sent = stacks[0].stats["tx_packets"]
    # 2(n-1) steps of one chunk (1/n of 4 KB) plus acks: bounded well
    # below what n-1 full-buffer sends would need.
    naive_packets = (n - 1) * (len(payload) // 4096 + 1) * 2
    assert sent < naive_packets * 2


# ------------------------------------------------- deadlines / abort / rebuild


def test_allreduce_leg_timeout_names_the_offending_rank():
    """A rank that never shows up must not park the others forever: the
    leg deadline fires and the error says *who* was waited on."""
    env, _, stacks, _ = rdma_group(2)
    group = CollectiveGroup(env, stacks)
    payload = np.ones(8, dtype="<u4").tobytes()
    outcome = {}

    def member():
        try:
            yield from group.allreduce(payload, rank=0, timeout_ns=200_000.0)
        except CollectiveTimeoutError as exc:
            outcome["exc"] = exc

    proc = env.process(member())  # rank 1 never joins
    env.run(proc)
    env.run()  # the abort left nothing parked
    exc = outcome["exc"]
    assert exc.rank == 0 and exc.peer == 1
    assert "timed out at rank 0 waiting on rank 1" in str(exc)
    assert isinstance(exc, CollectiveAbortError)  # timeouts abort the group
    assert group.stats["timeouts"] == 1
    assert group.aborted


def test_broadcast_leg_timeout_on_missing_root():
    env, _, stacks, _ = rdma_group(2)
    group = CollectiveGroup(env, stacks)
    outcome = {}

    def member():
        try:
            yield from group.broadcast(
                root=0, payload=None, rank=1, timeout_ns=150_000.0
            )
        except CollectiveTimeoutError as exc:
            outcome["exc"] = exc

    proc = env.process(member())  # the root never broadcasts
    env.run(proc)
    env.run()
    assert outcome["exc"].op == "broadcast"
    assert outcome["exc"].peer == 0
    assert group.stats["timeouts"] == 1


def test_aborted_group_is_sticky_until_rebuilt():
    env, _, stacks, _ = rdma_group(2)
    group = CollectiveGroup(env, stacks)
    payload = np.ones(8, dtype="<u4").tobytes()

    def member():
        try:
            yield from group.allreduce(payload, rank=0, timeout_ns=100_000.0)
        except CollectiveTimeoutError:
            pass

    env.run(env.process(member()))
    assert group.aborted
    with pytest.raises(CollectiveAbortError) as exc_info:
        group.allreduce(payload, rank=0).send(None)  # rejected at the door
    assert isinstance(exc_info.value.cause, CollectiveTimeoutError)
    with pytest.raises(CollectiveAbortError):
        group.broadcast(root=0, payload=payload, rank=0).send(None)
    env.run()


@pytest.mark.parametrize("survivors,message", [
    ([0], "at least 2 survivors"),
    ([0, 0, 1], "must be unique"),
])
def test_rebuild_validates_the_survivor_list(survivors, message):
    env, _, stacks, _ = rdma_group(3)
    group = CollectiveGroup(env, stacks)
    with pytest.raises(CollectiveError, match=message):
        group.rebuild(survivors)


def test_rebuild_rejects_halted_survivors():
    env, _, stacks, _ = rdma_group(3)
    group = CollectiveGroup(env, stacks)
    stacks[2].halt(reason="crash")
    with pytest.raises(CollectiveError, match="halted; not a survivor"):
        group.rebuild([0, 1, 2])
    env.run()


def test_rebuild_shares_lifetime_stats_and_retires_the_old_group():
    env, _, stacks, _ = rdma_group(4)
    group = CollectiveGroup(env, stacks)
    rebuilt = group.rebuild([0, 1, 2])  # voluntary shrink
    assert rebuilt is not group
    assert rebuilt.stats is group.stats  # one communicator lineage
    assert rebuilt.stats["rebuilds"] == 1
    assert group.aborted and not rebuilt.aborted
    payload = np.ones(12, dtype="<u4").tobytes()
    results = {}

    def member(rank):
        results[rank] = yield from rebuilt.allreduce(payload, rank=rank)

    procs = [env.process(member(r)) for r in range(3)]
    env.run(AllOf(env, procs))
    env.run()
    expected = np.full(12, 3, dtype="<u4").tobytes()
    assert all(results[r] == expected for r in range(3))
    assert rebuilt.stats["completed"] == 3
