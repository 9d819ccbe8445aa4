"""A queue pair's state has one home and one lifecycle, checked by
introspection so the checks cannot drift from the code.

``RdmaStack`` keeps everything it knows about a QP in one ``_QpContext``
that ``create_qp`` makes, ``renew`` (called by ``reset_qp``) returns to
its just-created value and ``destroy_qp`` drops.  These tests do not name
the slots: they walk the stack's containers and the context's
``__slots__``, so a slot or table added later is covered the day it lands.
"""

from collections import deque

from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import FpgaCluster
from repro.net import DcqcnConfig, QpState, QueuePair, RdmaConfig, RdmaError
from repro.net.rdma.context import _QpContext
from repro.sim import Environment, Store
from repro.telemetry.collect import collect_card_metrics

from .platforms import connect, local_hooks, rdma_group

#: Short timers: a dead peer is given up on within ~60 µs of simulated time.
CONFIG = RdmaConfig(
    retransmit_timeout_ns=20_000, max_retries=2, dcqcn=DcqcnConfig(enabled=True)
)
#: What a reset keeps: the QP's owner, not its connection.
SURVIVES_RESET = {"ops", "bytes", "memory", "rx_offload"}


def owned_pair(a, b, memories):
    """QP 1 on ``a`` connected to QP 2 on ``b``, each with everything an
    owner gives a QP: its own memory hooks and an rx offload."""
    connect(a, b)
    for stack, qpn, memory in ((a, 1, memories[0]), (b, 2, memories[1])):
        stack.bind_qp_memory(qpn, *local_hooks(stack.env, memory))
        stack.set_rx_offload(qpn, bytes)


def container_sizes(stack):
    """``len`` of every container the stack or one of its seams owns, by
    attribute path (``stats`` is the fixed set of stack-wide counters, not
    per-QP)."""
    owners = [("", stack)] + [
        (f"{name}.", value) for name, value in vars(stack).items()
        if type(value).__module__.startswith("repro.net.rdma.")
    ]
    return {
        prefix + name: len(value)
        for prefix, owner in owners
        for name, value in vars(owner).items()
        if isinstance(value, (dict, list, deque, set)) and name != "stats"
    }


def guarded(verb):
    """Run a verb to its end: ``"ok"`` or the typed error it raised."""
    try:
        yield from verb
    except RdmaError as exc:
        return exc
    return "ok"


def comparable(value, peer):
    """A slot's value in a form ``==`` can judge."""
    if isinstance(value, Store):
        return (list(value.items), len(value._getters), len(value._putters))
    if isinstance(value, QueuePair):
        # A reset QP is in RESET and a new one in INIT; what must match
        # is the connection each makes with the same peer.
        twin = QueuePair(local=value.local)
        for field in ("sq_psn", "acked_psn", "msn", "error_reason"):
            setattr(twin, field, getattr(value, field))
        twin.connect(peer)
        return twin
    return value


def slots_unlike_a_new_qp(stack, qpn, peer):
    """Names of the context slots that differ from a just-created QP's."""
    ctx = stack._contexts[qpn]
    fresh = _QpContext(QueuePair(local=ctx.qp.local), stack.env, stack.config.dcqcn)
    return {
        slot for slot in _QpContext.__slots__
        if comparable(getattr(ctx, slot), peer) != comparable(getattr(fresh, slot), peer)
    }


# ----------------------------------------------------------------- no leaks


def test_destroy_qp_returns_every_container_to_its_size():
    env, _, (a, b), memories = rdma_group(config=CONFIG)
    before = [container_sizes(stack) for stack in (a, b)]
    owned_pair(a, b, memories)

    def traffic():
        receiver = env.process(b.recv(2))
        yield from a.rdma_write(1, 0, 0x8000, 10_000)
        yield from a.rdma_read(1, 0x4000, 0x8000, 10_000)
        yield from a.send(1, b"m" * 9_000)
        yield receiver
        yield from a.fetch_add(1, 0x100, 5)

    env.run(env.process(traffic()))
    assert a.qp_stats[1]["ops"] == 4
    a.destroy_qp(1)
    b.destroy_qp(2)
    env.run()
    assert [container_sizes(stack) for stack in (a, b)] == before
    for stack in (a, b):
        assert stack.qp_stats == {} and stack.qp_rates == {}
    # A qpn made again starts from nothing: no inherited memory binding.
    a.create_qp(1)
    assert a._contexts[1].memory is None and a._contexts[1].rx_offload is None
    assert a.qp_stats[1] == {"ops": 0, "bytes": 0}


def test_card_report_series_end_with_the_qp():
    """``net.qp.<qpn>.*`` is exported for live QPs only: a rebuilt
    collective mesh does not leave its old QPs' series behind."""
    env = Environment()
    cluster = FpgaCluster(env, 3)
    group = cluster.collective_group()
    rebuilt = group.rebuild([0, 1, 2])
    assert rebuilt.qpn_base != group.qpn_base
    for node in cluster.nodes:
        names = collect_card_metrics(node.driver).names()
        exported = {int(n.split(".")[2]) for n in names if n.startswith("net.qp.")}
        assert exported == set(node.shell.dynamic.rdma.qps)
        assert len(exported) == 2


# ------------------------------------------------------- reset == fresh QP


def test_reset_qp_leaves_every_connection_slot_as_new():
    env, _, (a, b), memories = rdma_group(config=CONFIG)
    owned_pair(a, b, memories)

    def warm_up():
        for sender, receiver in ((a, b), (b, a)):  # both sides count an op
            posted = env.process(receiver.recv(2 if receiver is b else 1))
            yield from sender.send(1 if sender is a else 2, b"first")
            yield posted
        yield from a.rdma_write(1, 0, 0x8000, 5_000)

    env.run(env.process(warm_up()))
    # Cut a three-segment SEND while it is on the wire: a holds unacked
    # packets and a pending message, b a half-reassembled one.
    cut = env.process(guarded(a.send(1, b"A" * 9_000)))
    env.run(until=env.now + 1_100)
    sides = ((a, 1, b.qps[2].local), (b, 2, a.qps[1].local))
    for stack, qpn, peer in sides:
        assert slots_unlike_a_new_qp(stack, qpn, peer) - SURVIVES_RESET, "nothing to reset"
    a.reset_qp(1)
    b.reset_qp(2)
    for stack, qpn, peer in sides:
        assert slots_unlike_a_new_qp(stack, qpn, peer) == SURVIVES_RESET
    env.run()
    assert cut.value.opcode == "SEND"
    for stack in (a, b):
        assert stack._reliability.window.level == CONFIG.max_outstanding


# --------------------------------------------------- generated lifecycles

#: (requester qpn on ``a``, responder qpn on ``b``) of the two pairs the
#: sequences work on, and where each pair's buffers live.
PAIRS = ((1, 2), (3, 4))
pair = st.integers(0, len(PAIRS) - 1)
STEPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(
            ["create", "connect", "send", "read", "error", "peer_error", "reset", "destroy"]
        ), pair),
        st.tuples(st.just("write"), pair, st.integers(1, 3)),
        # (side, action): end one side's connection while the responder
        # is part-way through a four-segment READ.
        st.tuples(
            st.just("cut_read"), pair,
            st.sampled_from(["requester", "responder"]),
            st.sampled_from(["error", "reset", "destroy"]),
        ),
        st.tuples(st.just("run"), st.integers(0, 4_000)),
    ),
    max_size=14,
)


@given(STEPS)
def test_generated_lifecycles_leak_nothing(steps):
    """Verbs, errors, resets and destroys in any order end with every
    window credit home, every verb finished (done or a typed error) and
    per-QP telemetry for exactly the QPs that still exist.

    A re-connect waits for the fabric to drain first: PSNs restart with
    the connection, so frames of the old one still in flight would be
    taken for the new one's (IB's answer is a fresh starting PSN)."""
    env, _, (a, b), _ = rdma_group(config=CONFIG)
    verbs, receivers = [], []
    mtu = CONFIG.mtu

    def alive(index):
        return PAIRS[index][0] in a.qps

    def create(index):
        qpn_a, qpn_b = PAIRS[index]
        a.create_qp(qpn_a, psn=10 * qpn_a)
        b.create_qp(qpn_b, psn=10 * qpn_b)

    def reconnect(index, reset=False):
        qpn_a, qpn_b = PAIRS[index]
        env.run()
        if reset:
            a.reset_qp(qpn_a)
            b.reset_qp(qpn_b)
        if {a.qps[qpn_a].state, b.qps[qpn_b].state} <= {QpState.INIT, QpState.RESET}:
            a.qps[qpn_a].connect(b.qps[qpn_b].local)
            b.qps[qpn_b].connect(a.qps[qpn_a].local)

    # The first pair starts out connected, so most sequences carry traffic.
    create(0)
    reconnect(0)
    for step in steps:
        kind = step[0]
        if kind == "run":
            env.run(until=env.now + step[1])
            continue
        qpn_a, qpn_b = PAIRS[step[1]]
        base = 0x10000 * (step[1] + 1)
        if kind == "create":
            if not alive(step[1]):
                create(step[1])
        elif kind == "connect":
            if alive(step[1]):
                reconnect(step[1])
        elif kind == "write":
            verbs.append(env.process(guarded(
                a.rdma_write(qpn_a, base, base, step[2] * mtu - 100)
            )))
        elif kind == "send":
            receivers.append(env.process(guarded(b.recv(qpn_b))))
            verbs.append(env.process(guarded(a.send(qpn_a, b"s" * (2 * mtu + 100)))))
        elif kind == "read":
            verbs.append(env.process(guarded(
                a.rdma_read(qpn_a, base + 0x8000, base, 2 * mtu)
            )))
        elif kind == "cut_read":
            # Alone in flight: a WRITE or SEND parked mid-message across a
            # one-sided reset is still open (DESIGN.md "Known, not fixed").
            env.run()
            verbs.append(env.process(guarded(
                a.rdma_read(qpn_a, base + 0x8000, base, 4 * mtu)
            )))
            env.run(until=env.now + 1_500)
            if not alive(step[1]):
                continue
            ends = [(a, qpn_a), (b, qpn_b)]
            (stack, qpn), (other, other_qpn) = ends if step[2] == "requester" else ends[::-1]
            if step[3] == "error":
                stack.qp_error(qpn, reason="generated")
            elif step[3] == "reset":
                stack.reset_qp(qpn)  # stays unconnected until a later "reset"
            else:
                stack.destroy_qp(qpn)
                env.run()  # the survivor gives up on its peer, or finishes
                other.destroy_qp(other_qpn)
        elif not alive(step[1]):
            continue
        elif kind == "error":
            a.qp_error(qpn_a, reason="generated")
        elif kind == "peer_error":
            b.qp_error(qpn_b, reason="generated")
        elif kind == "reset":
            reconnect(step[1], reset=True)
        elif kind == "destroy":
            a.destroy_qp(qpn_a)
            b.destroy_qp(qpn_b)

    env.run()
    for verb in verbs:
        assert verb.triggered
        assert verb.value == "ok" or isinstance(verb.value, RdmaError)
    for stack in (a, b):
        assert stack._reliability.window.level == CONFIG.max_outstanding
        assert set(stack.qp_stats) == set(stack.qp_rates) == set(stack.qps)
        for ctx in stack._contexts.values():
            assert not (ctx.unacked or ctx.pending or ctx.reads or ctx.atomics)
    # Receives nobody sent to stay posted until their QP goes away.
    for stack in (a, b):
        for qpn in list(stack.qps):
            stack.destroy_qp(qpn)
    env.run()
    assert all(receiver.triggered for receiver in receivers)
    for stack in (a, b):
        assert container_sizes(stack) == {"qps": 0, "_contexts": 0, "_responder.owed": 0}
