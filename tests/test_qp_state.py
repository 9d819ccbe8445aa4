"""QP state machine: transition ladder, error flush, reset/reconnect.

Covers the IB-style verbs lifecycle (RESET → INIT → RTR → RTS →
SQ_ERROR/ERROR → RESET) plus the RdmaStack integration: arm-time
rejection of errored QPs, WR flushing with credit conservation, the
requester-side retry-exhaustion path, and the recycle-reconnect path.
"""

import pytest

from repro.net import (
    MacAddress,
    QpEndpoint,
    QpState,
    QpStateError,
    QpTransitionError,
    QueuePair,
    RdmaError,
    WrFlushError,
)
from repro.sim import AllOf

from .platforms import connect, rdma_group, rdma_pair


def _endpoint(qpn=5, psn=100):
    return QpEndpoint(mac=MacAddress(0x02_0000_0001), ip=0x0A000101,
                      qpn=qpn, psn=psn)


def _remote(qpn=9, psn=200):
    return QpEndpoint(mac=MacAddress(0x02_0000_0002), ip=0x0A000102,
                      qpn=qpn, psn=psn)


# ------------------------------------------------------- transition ladder


def test_fresh_qp_is_unconnected_init():
    qp = QueuePair(local=_endpoint())
    assert qp.state is QpState.INIT
    assert not qp.connected and not qp.in_error
    assert qp.sq_psn == qp.local.psn


def test_full_ladder_reset_init_rtr_rts():
    qp = QueuePair(local=_endpoint(), state=QpState.RESET)
    qp.to_init()
    assert qp.state is QpState.INIT
    qp.to_rtr(_remote())
    assert qp.state is QpState.RTR
    assert qp.epsn == 200  # expected PSN comes from the remote endpoint
    qp.to_rts()
    assert qp.state is QpState.RTS
    assert qp.connected


@pytest.mark.parametrize("walk", [
    lambda qp: qp.to_rtr(_remote()),       # RESET -> RTR skips INIT
    lambda qp: qp.to_rts(),                # RESET -> RTS skips everything
    lambda qp: (qp.to_init(), qp.to_init()),     # INIT -> INIT
    lambda qp: (qp.to_init(), qp.to_rts()),      # INIT -> RTS skips RTR
])
def test_out_of_order_transitions_raise(walk):
    qp = QueuePair(local=_endpoint(), state=QpState.RESET)
    with pytest.raises(QpTransitionError):
        walk(qp)


def test_connect_from_rts_raises_transition_error():
    qp = QueuePair(local=_endpoint())
    qp.connect(_remote())
    assert qp.state is QpState.RTS
    with pytest.raises(QpTransitionError, match="illegal transition"):
        qp.connect(_remote())


def test_sq_error_only_from_rts():
    qp = QueuePair(local=_endpoint())
    with pytest.raises(QpTransitionError):
        qp.to_sq_error("boom")
    qp.connect(_remote())
    qp.to_sq_error("boom")
    assert qp.state is QpState.SQ_ERROR
    assert qp.in_error and qp.error_reason == "boom"
    qp.to_sq_error("again")  # idempotent from error states
    assert qp.error_reason == "boom"


def test_to_error_from_any_state_and_idempotent():
    for prep in (lambda q: None, lambda q: q.to_init(),
                 lambda q: q.connect(_remote())):
        qp = QueuePair(local=_endpoint(), state=QpState.RESET)
        prep(qp)
        qp.to_error("dead")
        assert qp.state is QpState.ERROR
        assert qp.error_reason == "dead"
        qp.to_error("deader")  # keeps the first reason
        assert qp.error_reason == "dead"


def test_reset_recycles_for_reconnect():
    qp = QueuePair(local=_endpoint())
    qp.connect(_remote())
    qp.next_psn()
    qp.to_error("crash")
    qp.reset()
    assert qp.state is QpState.RESET
    assert qp.remote is None
    assert qp.sq_psn == qp.local.psn
    assert qp.error_reason == ""
    qp.connect(_remote())  # the recycle path must allow a fresh connect
    assert qp.connected


# -------------------------------------------------- stack arm-time checks


def test_send_on_errored_qp_raises_qp_state_error():
    env, _, (a, b), _ = rdma_pair()
    a.qp_error(1, reason="test")
    with pytest.raises(QpStateError) as exc_info:
        a.send(1, b"x").send(None)  # arm the generator
    assert exc_info.value.qpn == 1
    assert "test" in str(exc_info.value)


def test_recv_on_errored_qp_raises_qp_state_error():
    env, _, (a, b), _ = rdma_pair()
    b.qp_error(2, reason="test")
    with pytest.raises(QpStateError):
        b.recv(2).send(None)


def test_rdma_write_on_unconnected_qp_raises():
    env, _, (a, b), _ = rdma_group()
    a.create_qp(1, psn=10)
    with pytest.raises(QpStateError, match="not connected"):
        a.rdma_write(1, 0, 0, 64).send(None)
    # QpStateError stays an RdmaError for legacy callers.
    assert issubclass(QpStateError, RdmaError)


# --------------------------------------------------------- flush machinery


def test_qp_error_flushes_parked_receiver():
    env, _, (a, b), _ = rdma_pair()
    outcome = {}

    def receiver():
        try:
            yield from b.recv(2)
        except WrFlushError as exc:
            outcome["exc"] = exc

    proc = env.process(receiver())
    env.run(until=1_000.0)
    assert "exc" not in outcome  # parked, not failed
    flushed = b.qp_error(2, reason="teardown")
    env.run(proc)
    assert flushed >= 1
    assert outcome["exc"].qpn == 2
    assert b.stats["wr_flushes"] >= 1
    assert b.stats["qp_errors"] == 1


def test_qp_error_refunds_window_credits():
    env, switch, (a, b), _ = rdma_pair()
    switch.kill_port(b.mac)  # black-hole so packets stay unacked

    def sender():
        yield from a.send(1, b"y" * 4096)

    proc = env.process(sender())
    proc.defuse()
    env.run(until=50_000.0)
    assert a._reliability.window.level < a.config.max_outstanding  # credits held
    a.qp_error(1, reason="flush")
    assert a._reliability.window.level == a.config.max_outstanding  # all refunded
    env.run(until=60_000.0)


def test_retry_exhaustion_errors_the_qp_and_flushes_sender():
    env, switch, (a, b), _ = rdma_pair()
    switch.kill_port(b.mac)
    outcome = {}

    def sender():
        try:
            yield from a.send(1, b"z" * 512)
        except WrFlushError as exc:
            outcome["exc"] = exc

    env.run(env.process(sender()))
    assert "retry exhausted" in str(outcome["exc"])
    assert a.qps[1].state is QpState.ERROR
    budget = a.config.max_retries * a.config.retransmit_timeout_ns
    assert env.now <= 4 * budget  # dead peer detected promptly
    env.run()  # timer parks again; the sim must drain


def test_per_qp_progress_isolation():
    """A dead peer must exhaust retries even while another QP on the same
    stack makes steady progress (progress clock is per-QP, not global)."""
    env, switch, (a, b, c), _ = rdma_group(3)
    connect(a, b)                          # a <-> b healthy
    connect(a, c, qpn_a=3, qpn_b=4)
    switch.kill_port(c.mac)                # a -> c dead
    outcome = {}

    def chatty():
        for _ in range(40):
            yield from a.send(1, b"hb")
            yield env.timeout(50_000.0)

    def doomed():
        try:
            yield from a.send(3, b"q" * 256)
        except WrFlushError as exc:
            outcome["exc"] = exc

    chatter = env.process(chatty())
    env.run(env.process(doomed()))
    assert "retry exhausted" in str(outcome["exc"])
    assert a.qps[1].state is QpState.RTS  # the healthy QP is untouched
    env.run(chatter)


def test_reset_qp_allows_traffic_again():
    env, switch, (a, b), _ = rdma_pair()
    a.qp_error(1, reason="glitch")
    b.qp_error(2, reason="glitch")
    a.reset_qp(1)
    b.reset_qp(2)
    a.qps[1].connect(b.qps[2].local)
    b.qps[2].connect(a.qps[1].local)
    received = {}

    def sender():
        yield from a.send(1, b"hello again")

    def receiver():
        received["msg"] = yield from b.recv(2)

    env.run(AllOf(env, [env.process(sender()), env.process(receiver())]))
    assert received["msg"] == b"hello again"


def test_reset_qp_drops_a_half_reassembled_send():
    """A SEND cut by a reset after its first segment must not leak that
    segment into the first message of the next connection."""
    env, switch, (a, b), _ = rdma_pair()
    outcome = {}

    def cut_sender():
        try:
            yield from a.send(1, b"A" * 9000)
        except WrFlushError as exc:
            outcome["cut"] = exc

    def recycle():
        yield env.timeout(1_100)  # one 4096-byte part staged at b
        a.reset_qp(1)
        b.reset_qp(2)
        a.qps[1].connect(b.qps[2].local)
        b.qps[2].connect(a.qps[1].local)
        receiver = env.process(b.recv(2))
        yield from a.send(1, b"fresh")
        outcome["msg"] = yield receiver

    env.process(cut_sender())
    env.run(env.process(recycle()))
    assert outcome["msg"] == b"fresh"
    assert isinstance(outcome["cut"], WrFlushError)
    assert outcome["cut"].opcode == "SEND"


def test_halt_flushes_every_qp_and_drains():
    env, switch, (a, b), _ = rdma_pair()
    a.create_qp(7, psn=70)
    flushed_qps = a.halt(reason="power loss")
    assert a.halted
    for qpn, qp in a.qps.items():
        assert qp.state is QpState.ERROR, qpn
    assert a.stats["qp_errors"] == len(a.qps)
    env.run()  # nothing left alive


def test_destroy_qp_forgets_all_state():
    env, _, (a, b), _ = rdma_pair()
    a.destroy_qp(1)
    assert 1 not in a.qps
    with pytest.raises(RdmaError, match="no such QP"):
        a.destroy_qp(1)
