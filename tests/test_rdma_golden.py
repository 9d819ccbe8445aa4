"""The RDMA stack's simulated times as a golden digest.

Two runs pin what the RoCE v2 stack does, to the nanosecond:

``cluster_mix``   a driver-backed two-card cluster (``rdma_cluster``)
                  with one QP each way, WRITE, READ, SEND and FETCH_ADD
                  posted on a fixed schedule so that verbs overlap;
``incast_dcqcn``  four bare stacks (``rdma_group``) streaming WRITEs into
                  a fifth through a shallow switch queue with DCQCN on,
                  so marks, CNPs, pacing and drops all take part.

Each run's entry in ``golden/rdma_digest.json`` holds a SHA-256 over its
ordered ``(completion time, wr_id, opcode, status)`` tuples, and in clear
each verb's median latency and every stack's ``stats`` counters, so a
mismatch says where it moved.  A change that moves simulated time on
purpose edits the file by hand, with a ``reason`` that says why; the
failing test prints the entries to paste.
"""

import hashlib
import json
from pathlib import Path
from statistics import median

from repro.mem import AllocType
from repro.net import DcqcnConfig, RdmaConfig, RdmaError, Switch, SwitchConfig
from repro.sim import Environment

from .platforms import connect, rdma_cluster, rdma_group

GOLDEN = Path(__file__).parent / "golden" / "rdma_digest.json"
KIB = 1024
#: Each run's buffers, and the slot one verb of it touches at most.
SPAN, SLOT = 256 * KIB, 24 * KIB


class Ledger:
    """Every verb's end, in the order the verbs ended."""

    def __init__(self, env):
        self.env = env
        self.ends = []  # (completion time, wr_id, opcode, status)
        self.latency = {}  # opcode -> [ns]

    def post(self, verb, wr_id, opcode, at=None):
        """A process that starts ``verb`` (at ``at`` if given) and logs
        its end."""

        def proc():
            if at is not None:
                yield self.env.timeout(at - self.env.now)
            began = self.env.now
            try:
                yield from verb
                status = "success"
            except RdmaError as exc:
                status = type(exc).__name__
            self.ends.append((self.env.now, wr_id, opcode, status))
            self.latency.setdefault(opcode, []).append(self.env.now - began)

        return self.env.process(proc())

    def entry(self, stacks):
        return {
            "sha256": hashlib.sha256(repr(self.ends).encode()).hexdigest(),
            "completions": len(self.ends),
            "p50_ns": {op: median(ns) for op, ns in sorted(self.latency.items())},
            "stats": [dict(stack.stats) for stack in stacks],
        }


def cluster_mix():
    """WRITE, READ, SEND and FETCH_ADD both ways between two cards on
    4 KiB pages, a verb posted every 700 ns per direction, sizes from
    1 B to 5 MTUs."""
    env, cluster = rdma_cluster(page_size=4 * KIB)
    pairs = [
        cluster.connect_qps(0, 1, pid_a=1, pid_b=2, qpn_a=1, qpn_b=2),
        cluster.connect_qps(1, 0, pid_a=3, pid_b=4, qpn_a=3, qpn_b=4),
    ]
    stacks = [node.shell.dynamic.rdma for node in cluster.nodes]
    sizes = [64, 4 * KIB, 9_000, 1, 20 * KIB, 12 * KIB + 5, 2 * KIB, 16_000]
    image = bytes(i % 253 for i in range(SPAN))
    buffers = {}

    def setup():
        for local, remote in pairs:
            for name, thread in (("out", local), ("land", local), ("far", remote)):
                alloc = yield from thread.get_mem(SPAN, AllocType.REG)
                thread.write_buffer(alloc.vaddr, image)
                buffers[name, local.pid] = alloc.vaddr

    env.run(env.process(setup()))
    began = env.now
    ledger = Ledger(env)
    for (local, _), (requester, responder), (qpn, peer) in zip(
        pairs, (stacks, stacks[::-1]), ((1, 2), (3, 4))
    ):
        out, land, far = (buffers[name, local.pid] for name in ("out", "land", "far"))
        for index in range(24):
            length = sizes[(index + qpn) % len(sizes)]
            slot = (index % 8) * SLOT
            wr_id = 100 * qpn + index
            kind = ("WRITE", "READ", "SEND", "FETCH_ADD")[(index * 3 + qpn) % 4]
            if kind == "WRITE":
                verb = requester.rdma_write(qpn, out + slot, far + slot, length, wr_id)
            elif kind == "READ":
                verb = requester.rdma_read(qpn, land + slot, far + slot, length, wr_id)
            elif kind == "SEND":
                env.process(responder.recv(peer))
                verb = requester.send(qpn, image[slot : slot + length], wr_id)
            else:
                verb = requester.fetch_add(qpn, far + 8 * SLOT, wr_id, wr_id)
            ledger.post(verb, wr_id, kind, at=began + 700.0 * index)
    env.run()
    return ledger.entry(stacks)


def incast_dcqcn():
    """4-to-1 WRITE incast, 1 KiB MTU, through a 32 KiB receiver-facing
    queue marking above 8 KiB, DCQCN on: six 24 KiB WRITEs per sender,
    each posted when the last one completed."""
    switch = Switch(Environment(), config=SwitchConfig(
        egress_capacity_bytes=32 << 10, ecn_threshold_bytes=8 << 10,
    ))
    config = RdmaConfig(mtu=1024, retransmit_timeout_ns=50_000.0, dcqcn=DcqcnConfig(
        enabled=True, min_rate=0.25, alpha_update_ns=5_000.0,
        rate_increase_ns=20_000.0, additive_increase=0.1, hyper_increase=0.5,
        cnp_interval_ns=10_000.0,
    ))
    env, _, stacks, _ = rdma_group(5, config, switch, bytes_per_ns=125.0)
    receiver, senders = stacks[0], stacks[1:]
    ledger = Ledger(env)

    def stream(i, sender):
        for n in range(6):
            wr_id = 10 * i + n
            verb = sender.rdma_write(1, n * SLOT, (6 * i + n) * SLOT, SLOT, wr_id)
            yield ledger.post(verb, wr_id, "WRITE")

    for i, sender in enumerate(senders):
        connect(sender, receiver, 1, 100 + i)
        env.process(stream(i, sender))
    env.run()
    return ledger.entry(stacks)


RUNS = {"cluster_mix": cluster_mix, "incast_dcqcn": incast_dcqcn}


def test_rdma_runs_match_the_golden_digest():
    golden = json.loads(GOLDEN.read_text())
    got = {name: run() for name, run in RUNS.items()}
    stale = {
        name: entry for name, entry in got.items()
        if {k: v for k, v in golden.get(name, {}).items() if k != "reason"} != entry
    }
    assert not stale, (
        "simulated RDMA times moved; if on purpose, paste these entries into "
        f"{GOLDEN.name} with a 'reason':\n" + json.dumps(stale, indent=2, sort_keys=True)
    )
