"""Property-based reliability tests: random loss, intact delivery.

The invariant both reliable transports must uphold: under arbitrary
packet-loss patterns (below livelock rates), the receiver ends up with
exactly the bytes the sender submitted — no loss, no duplication, no
reordering visible to the application.
"""

import os
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import NET_DROP, FaultInjector, FaultPlan, FaultRule
from repro.net import Cmac, MacAddress, RdmaConfig, Switch
from repro.net.tcp import TcpPacket, TcpStack
from repro.sim import Environment

from .platforms import rdma_pair

#: Example budgets scale with the profile: the CI ``engine-conformance``
#: job runs ``HYPOTHESIS_PROFILE=long`` for a deeper derandomized sweep
#: (an explicit ``@settings`` would otherwise override the profile's
#: ``max_examples``).
_LONG = os.environ.get("HYPOTHESIS_PROFILE") == "long"
RDMA_EXAMPLES = 200 if _LONG else 12

#: The loss patterns every RDMA verb must survive: a seeded drop of up to
#: a fifth of the frames, over messages of one byte to ten MTUs.
LOSS = given(
    seed=st.integers(min_value=0, max_value=10_000),
    drop_pct=st.integers(min_value=0, max_value=20),
    nbytes=st.integers(min_value=1, max_value=40_000),
)


def lossy_pair(seed, drop_pct, nbytes):
    """A connected RDMA pair behind a switch that drops ``drop_pct`` % of
    frames, and a seeded ``nbytes`` payload."""
    env, switch, stacks, memories = rdma_pair(RdmaConfig(retransmit_timeout_ns=50_000))
    rng = random.Random(seed)
    FaultInjector(FaultPlan.build(seed=seed, net_drop=drop_pct / 100.0)).arm(switch=switch)
    payload = bytes(rng.randrange(256) for _ in range(min(nbytes, 4096))) * (
        max(1, nbytes // 4096)
    )
    return env, stacks, memories, payload[:nbytes]


@settings(max_examples=RDMA_EXAMPLES, deadline=None)
@LOSS
def test_rdma_write_survives_random_loss(seed, drop_pct, nbytes):
    env, stacks, memories, payload = lossy_pair(seed, drop_pct, nbytes)
    memories[0].write(0, payload)
    env.run(env.process(stacks[0].rdma_write(1, 0, 0x1000, len(payload))))
    assert memories[1].read(0x1000, len(payload)) == payload


@settings(max_examples=RDMA_EXAMPLES, deadline=None)
@LOSS
def test_rdma_read_survives_random_loss(seed, drop_pct, nbytes):
    env, stacks, memories, payload = lossy_pair(seed, drop_pct, nbytes)
    memories[1].write(0x1000, payload)
    env.run(env.process(stacks[0].rdma_read(1, 0, 0x1000, len(payload))))
    assert memories[0].read(0, len(payload)) == payload


@settings(max_examples=RDMA_EXAMPLES, deadline=None)
@LOSS
def test_rdma_send_survives_random_loss(seed, drop_pct, nbytes):
    env, stacks, _, payload = lossy_pair(seed, drop_pct, nbytes)
    received = env.process(stacks[1].recv(2))
    env.run(env.process(stacks[0].send(1, payload)))
    env.run(received)
    assert received.value == payload


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    drop_pct=st.integers(min_value=0, max_value=15),
    nbytes=st.integers(min_value=1, max_value=30_000),
)
def test_tcp_stream_survives_random_loss(seed, drop_pct, nbytes):
    env = Environment()
    switch = Switch(env)
    mac_a, mac_b = MacAddress(0x02_00_0E01), MacAddress(0x02_00_0E02)
    cmac_a, cmac_b = Cmac(env, "a"), Cmac(env, "b")
    switch.attach(mac_a, cmac_a)
    switch.attach(mac_b, cmac_b)
    a = TcpStack(env, cmac_a, mac_a, 0xA000001, retransmit_timeout_ns=80_000)
    b = TcpStack(env, cmac_b, mac_b, 0xA000002, retransmit_timeout_ns=80_000)
    rng = random.Random(seed)
    # Never drop handshake segments (a lost SYN just retries forever in
    # this offload stack; the property under test is the data path).
    plan = FaultPlan(
        seed=seed,
        rules=[
            FaultRule(
                site=NET_DROP,
                probability=drop_pct / 100.0,
                match=lambda pkt: isinstance(pkt, TcpPacket) and bool(pkt.payload),
            )
        ],
    )
    FaultInjector(plan).arm(switch=switch)
    payload = bytes(rng.randrange(256) for _ in range(nbytes))
    b.listen(80)
    received = {}

    def client():
        conn = yield from a.connect(mac_b, 0xA000002, 80, 5000)
        yield from conn.send(payload)

    def server():
        conn = yield from b.accept(80)
        received["data"] = yield from conn.recv(len(payload))

    env.process(client())
    server_proc = env.process(server())
    env.run(server_proc)
    assert received["data"] == payload
