"""The six workloads of ``bench_e2e``.

Every workload is one class with the same five steps, called by
``harness.run_repeat`` in this order:

``plan(rng)``      seeded inputs as plain data — the program under test
                   never sees the seed, only what was generated from it;
``build(plan)``    a fresh ``Environment`` plus platform, up to "first
                   request ready" (timed as set-up);
``warm_up(p)``     untimed requests that fill the TLB, MR pins and the
                   engine's relay free-list;
``drive(p)``       the timed phase: a fixed number of closed-loop
                   requests, each recorded as
                   ``(client, kind, nbytes, sim_start, sim_end)``;
``verify(p)``      byte-exact output checks that could not run inline.

Only the public package surface of ``repro`` is imported.  Output checks
that run inside the timed phase stop the CPU stopwatch around themselves
(``Platform.checking``), so the benchmark's own compare loops are not
billed to the program; neither is the calibration loop run between the
slices of a timed phase (``hostclock``).

Why sizes are jittered: a single closed-loop client on an idle card sees
the same latency for the same request, so with fixed sizes every seed
would report bit-identical simulated times.  Each request therefore
shrinks by up to 1/16 of its nominal size (``_lengths``); the coarse
part of the shrink is stratified and only its order comes from the
seed, which keeps totals — and so ``events_per_req`` and ``sim_gbps`` —
within a fraction of a percent across seeds.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro import CThread, Driver, Environment, LocalSg, Oper, RdmaSg, SgEntry
from repro import Shell, ShellConfig, StreamType
from repro.apps import PassThroughApp
from repro.cluster import FpgaCluster
from repro.core import ServiceConfig, VFpgaConfig
from repro.driver import RingOp, RingOpcode
from repro.mem import PAGE_4K, AllocType, MmuConfig, TlbConfig
from repro.net import (
    CMAC_BANDWIDTH,
    Cmac,
    DcqcnConfig,
    MacAddress,
    RdmaConfig,
    RdmaError,
    RdmaStack,
    Switch,
    SwitchConfig,
)
from repro.sim import AllOf

from hostclock import calibrate

__all__ = ["WORKLOADS", "Platform", "Plan", "Workload"]

KIB = 1024
#: Engine events per slice of a timed phase (about 20 ms of CPU here, 25
#: times the calibration loop run between slices): short enough that the
#: box's speed hardly changes between a slice and the loops around it.
SEGMENT_EVENTS = 5_000
#: Runs of the loop on either side of a phase that is not sliced.
EDGE_RUNS = 8

#: One record per completed request: (client, kind, nbytes, sim_start, sim_end).
Record = Tuple[int, str, int, float, float]


@dataclass
class Plan:
    """Seed-derived inputs of one workload (pure data).

    The warm-up's and the timed phase's requests are drawn separately,
    each stratified on its own: cutting the warm-up off one shuffled list
    would change what is left for the timed phase from seed to seed.
    """

    requests: list
    warm: list = field(default_factory=list)
    payload: bytes = b""


@dataclass
class Platform:
    """What ``build`` hands back: the environment, the public objects the
    counters are read from, and the timed phase's bookkeeping."""

    env: Environment
    drivers: List[Driver] = field(default_factory=list)
    switch: Optional[Switch] = None
    stacks: List[RdmaStack] = field(default_factory=list)
    cmacs: List[Cmac] = field(default_factory=list)
    state: dict = field(default_factory=dict)
    records: List[Record] = field(default_factory=list)
    #: (first request id, sim_start, sim_end, host_start_ns, host_end_ns)
    #: per ring batch; filled only when ``trace_batches`` is set.
    batches: List[tuple] = field(default_factory=list)
    trace_batches: bool = False
    attempted: int = 0
    failed: int = 0
    #: CPU seconds the benchmark spent on itself inside the timed phase
    #: (inline output checks, calibration loops): not billed to the run.
    own_cpu_s: float = 0.0
    #: (engine events, CPU seconds, CPU seconds of the calibration loop:
    #: mean of the runs just before and just after) of consecutive slices
    #: of the timed phase, cut by ``mark`` — what host time is summed from.
    segments: List[Tuple[int, float, float]] = field(default_factory=list)
    #: False in the traced repeat: no loops inside the phase, so none in
    #: the ledger; the whole phase is one slice (``harness.run_repeat``).
    sliced: bool = True
    _cut: Tuple[int, float] = (0, 0.0)
    _loop_before: float = 0.0

    @contextmanager
    def checking(self) -> Iterator[None]:
        begin = time.process_time()
        try:
            yield
        finally:
            self.own_cpu_s += time.process_time() - begin

    def start_segments(self) -> None:
        self.segments = []
        self.own_cpu_s = 0.0
        self._loop_before = calibrate(EDGE_RUNS)
        self._cut = (self.env.events_processed, time.process_time())

    def mark(self, final: bool = False) -> None:
        """Called by a client after each request or batch: closes a slice
        once ``SEGMENT_EVENTS`` engine events went by (and, with
        ``final``, whatever is left when the phase ends)."""
        events = self.env.events_processed - self._cut[0]
        if not events or not (final or (self.sliced and events >= SEGMENT_EVENTS)):
            return
        cpu = time.process_time() - self.own_cpu_s
        # A client that marks rarely (a round of ``card_hbm``) gets long
        # slices: one loop for every SEGMENT_EVENTS gone by.
        runs = max(1, events // SEGMENT_EVENTS) if self.sliced else EDGE_RUNS
        loop = calibrate(runs)
        self.own_cpu_s += loop * runs
        self.segments.append((events, cpu - self._cut[1], (self._loop_before + loop) / 2))
        self._loop_before = loop
        self._cut = (self._cut[0] + events, cpu)


def _lengths(rng, nominal: int, count: int) -> List[int]:
    """``count`` request lengths just under ``nominal`` bytes.

    Each shrinks by a coarse step (0..15 units of ``nominal/256``; the
    multiset is fixed and only its order is seeded, so totals barely
    move) plus a few seeded bytes (under one unit and under 64, so no
    two seeds see the same set of latencies).
    """
    unit = nominal // 256
    steps = [i % 16 for i in range(count)]
    rng.shuffle(steps)
    return [nominal - unit * step - rng.randrange(min(unit, 64)) for step in steps]


class Workload:
    """Base class: names the run shape every workload shares."""

    name = ""
    #: Concurrent closed-loop clients.
    clients = 1
    #: Requests in the timed phase / in the warm-up.
    requests = 0
    warm_requests = 0
    #: What ``sim_gbps`` counts (documented per workload in README.md).
    gbps_counts = "payload bytes"
    #: The program ``setup_s`` is scaled by (``hostclock.SETUP_CLOCKS``):
    #: a build that takes tens of MB of fresh memory follows the fixed
    #: allocation.  A constant of the workload, so that a later change to
    #: the build cannot switch the yardstick.
    setup_clock = "allocation"

    def plan(self, rng) -> Plan:
        raise NotImplementedError

    def build(self, plan: Plan) -> Platform:
        raise NotImplementedError

    def run_requests(self, p: Platform, plan: Plan, requests: list) -> None:
        """Drive ``requests`` closed-loop to completion (runs the engine)."""
        raise NotImplementedError

    def warm_up(self, p: Platform, plan: Plan) -> None:
        self.run_requests(p, plan, plan.warm)

    def drive(self, p: Platform, plan: Plan) -> None:
        self.run_requests(p, plan, plan.requests)

    def verify(self, p: Platform, plan: Plan) -> None:
        """Post-phase output checks; adds to ``p.failed``."""

    def reference_gbps(self, p: Platform) -> Optional[float]:
        """The throughput compared with ``references.json`` (``sim_gbps``
        unless a workload overrides it)."""
        return None


# ---------------------------------------------------------------- host_small


class HostSmall(Workload):
    """One-packet ring ops in 64-deep doorbell batches over pinned MRs."""

    name = "host_small"
    requests = 12_032  # 188 batches of 64
    warm_requests = 128
    batch = 64
    slot_bytes = 2 * KIB

    def _batches(self, rng, count: int) -> list:
        per_batch = (
            [RingOpcode.TRANSFER] * (self.batch // 2)
            + [RingOpcode.READ] * (self.batch // 4)
            + [RingOpcode.WRITE] * (self.batch // 4)
        )
        batches = []
        for _ in range(count // self.batch):
            kinds = list(per_batch)
            rng.shuffle(kinds)
            # Lone READs feed lone WRITEs through the kernel's byte
            # stream, so within a batch their lengths must add up: the
            # WRITEs take the READs' lengths in a seeded order.
            lengths = _lengths(rng, self.slot_bytes, self.batch)
            read_lens = [n for k, n in zip(kinds, lengths) if k is RingOpcode.READ]
            rng.shuffle(read_lens)
            spare = iter(read_lens)
            batches.append([
                (k, next(spare) if k is RingOpcode.WRITE else n)
                for k, n in zip(kinds, lengths)
            ])
        return batches

    def plan(self, rng) -> Plan:
        return Plan(
            requests=self._batches(rng, self.requests),
            warm=self._batches(rng, self.warm_requests),
            payload=rng.randbytes(self.batch * self.slot_bytes),
        )

    def build(self, plan: Plan) -> Platform:
        env = Environment()
        shell = Shell(env, ShellConfig(num_vfpgas=1))
        driver = Driver(env, shell)
        shell.load_app(0, PassThroughApp())
        thread = CThread(driver, 0, pid=1)
        region = self.batch * self.slot_bytes
        p = Platform(env, drivers=[driver])

        def setup():
            src = yield from thread.get_mem(region)
            dst = yield from thread.get_mem(region)
            thread.write_buffer(src.vaddr, plan.payload)
            thread.setup_rings(slots=self.batch)
            src_mr = yield from thread.register_mr(src.vaddr, region, writable=False)
            dst_mr = yield from thread.register_mr(dst.vaddr, region)
            p.state.update(thread=thread, src=src, dst=dst, src_mr=src_mr, dst_mr=dst_mr)

        env.run(env.process(setup(), name="bench-setup"))
        return p

    def _ring_ops(self, p: Platform, ops) -> List[RingOp]:
        src_key = p.state["src_mr"].key
        dst_key = p.state["dst_mr"].key
        out = []
        for slot, (kind, length) in enumerate(ops):
            offset = slot * self.slot_bytes
            if kind is RingOpcode.TRANSFER:
                out.append(RingOp(
                    opcode=kind, mr_key=src_key, offset=offset, length=length,
                    dst_mr_key=dst_key, dst_offset=offset,
                ))
            elif kind is RingOpcode.READ:
                out.append(RingOp(opcode=kind, mr_key=src_key, offset=offset, length=length))
            else:
                out.append(RingOp(opcode=kind, mr_key=dst_key, offset=offset, length=length))
        return out

    def _check_batch(self, p: Platform, plan: Plan, ops, entries) -> int:
        """Byte-exact compare of every slice the batch wrote.

        All ops share host stream 0, so the kernel sees one byte stream:
        the source slices in read order, cut into the destination slices
        in write order.
        """
        failed = max(0, len(ops) - len(entries))
        stream = b"".join(
            plan.payload[slot * self.slot_bytes : slot * self.slot_bytes + n]
            for slot, (kind, n) in enumerate(ops)
            if kind is not RingOpcode.WRITE
        )
        image = p.state["thread"].read_buffer(
            p.state["dst"].vaddr, self.batch * self.slot_bytes
        )
        taken = 0
        for slot, (kind, n) in enumerate(ops):
            if kind is RingOpcode.READ:
                continue
            offset = slot * self.slot_bytes
            if image[offset : offset + n] != stream[taken : taken + n]:
                failed += 1
            taken += n
        return failed

    def _client(self, p: Platform, plan: Plan, batches, first_id: int):
        env = p.env
        thread = p.state["thread"]
        for index, ops in enumerate(batches):
            ring_ops = self._ring_ops(p, ops)
            submit = env.now
            host_start = time.perf_counter_ns() if p.trace_batches else 0
            p.attempted += len(ops)
            entries = yield from thread.post_many(ring_ops)
            if p.trace_batches:
                p.batches.append((
                    first_id + index * self.batch, submit, env.now,
                    host_start, time.perf_counter_ns(),
                ))
            for (kind, n), entry in zip(ops, entries):
                # Each op's own completion timestamp against the time its
                # batch was submitted — not the batch latency over its size.
                p.records.append((0, kind.value, n, submit, entry.timestamp_ns))
            with p.checking():
                p.failed += self._check_batch(p, plan, ops, entries)
            p.mark()

    def run_requests(self, p: Platform, plan: Plan, requests: list) -> None:
        p.env.run(p.env.process(self._client(p, plan, requests, 0), name="bench-client-0"))


# ----------------------------------------------------------------- host_bulk


class HostBulk(Workload):
    """Four tenants contending for the host link with 256 KiB invokes."""

    name = "host_bulk"
    clients = 4
    per_client = 30
    requests = clients * per_client
    warm_requests = clients
    nominal = 256 * KIB

    def plan(self, rng) -> Plan:
        # Per client: (source offset in the 2x-sized source buffer, length).
        per_client = [
            [
                (rng.randrange(0, self.nominal, 4 * KIB), n)
                for n in _lengths(rng, self.nominal, self.per_client)
            ]
            for _ in range(self.clients)
        ]
        return Plan(
            requests=per_client,
            warm=[[(0, self.nominal)] for _ in range(self.clients)],
            payload=rng.randbytes(2 * self.nominal),
        )

    def build(self, plan: Plan) -> Platform:
        env = Environment()
        shell = Shell(env, ShellConfig(num_vfpgas=self.clients))
        driver = Driver(env, shell)
        p = Platform(env, drivers=[driver])
        threads = []
        for vfpga_id in range(self.clients):
            shell.load_app(vfpga_id, PassThroughApp())
            threads.append(CThread(driver, vfpga_id, pid=100 + vfpga_id))
        buffers = []

        def setup():
            for thread in threads:
                src = yield from thread.get_mem(2 * self.nominal)
                dst = yield from thread.get_mem(self.nominal)
                thread.write_buffer(src.vaddr, plan.payload)
                buffers.append((src, dst))

        env.run(env.process(setup(), name="bench-setup"))
        p.state.update(threads=threads, buffers=buffers)
        return p

    def _client(self, p: Platform, plan: Plan, client: int, requests):
        env = p.env
        thread = p.state["threads"][client]
        src, dst = p.state["buffers"][client]
        for offset, length in requests:
            sg = SgEntry(local=LocalSg(
                src_addr=src.vaddr + offset, src_len=length,
                dst_addr=dst.vaddr, dst_len=length,
            ))
            start = env.now
            p.attempted += 1
            entry = yield from thread.invoke(Oper.LOCAL_TRANSFER, sg)
            p.records.append((client, "transfer", length, start, env.now))
            with p.checking():
                out = thread.read_buffer(dst.vaddr, length)
                if entry.status != "success" or out != plan.payload[offset : offset + length]:
                    p.failed += 1
            p.mark()

    def run_requests(self, p: Platform, plan: Plan, requests: list) -> None:
        procs = [
            p.env.process(self._client(p, plan, client, reqs), name=f"bench-client-{client}")
            for client, reqs in enumerate(requests)
        ]
        p.env.run(AllOf(p.env, procs))


# ------------------------------------------------------------------ card_hbm


class CardHbm(Workload):
    """Eight concurrent card-stream transfers per round out of HBM."""

    name = "card_hbm"
    streams = 8
    rounds = 16
    requests = streams * rounds
    warm_requests = streams
    nominal = 256 * KIB
    #: Figure 7a reports read+write GB/s, so both directions count.
    gbps_counts = "bytes read from HBM plus bytes written to it"

    def plan(self, rng) -> Plan:
        return Plan(
            requests=[_lengths(rng, self.nominal, self.streams) for _ in range(self.rounds)],
            warm=[[self.nominal] * self.streams],
            payload=rng.randbytes(self.streams * self.nominal),
        )

    def build(self, plan: Plan) -> Platform:
        env = Environment()
        shell = Shell(env, ShellConfig(
            num_vfpgas=1, vfpga=VFpgaConfig(num_card_streams=self.streams),
        ))
        driver = Driver(env, shell)
        shell.load_app(0, PassThroughApp(num_streams=self.streams, stream=StreamType.CARD))
        thread = CThread(driver, 0, pid=1)
        size = self.streams * self.nominal
        p = Platform(env, drivers=[driver])

        def setup():
            src = yield from thread.get_mem(size)
            dst = yield from thread.get_mem(size)
            thread.write_buffer(src.vaddr, plan.payload)
            for buf in (src, dst):
                yield from thread.invoke(
                    Oper.LOCAL_OFFLOAD,
                    SgEntry(local=LocalSg(src_addr=buf.vaddr, src_len=size)),
                )
            p.state.update(thread=thread, src=src, dst=dst)

        env.run(env.process(setup(), name="bench-setup"))
        return p

    def _stream(self, p: Platform, stream: int, length: int):
        env = p.env
        thread = p.state["thread"]
        offset = stream * self.nominal
        sg = SgEntry(local=LocalSg(
            src_addr=p.state["src"].vaddr + offset, src_len=length,
            dst_addr=p.state["dst"].vaddr + offset, dst_len=length,
            src_stream=StreamType.CARD, dst_stream=StreamType.CARD,
            src_dest=stream, dst_dest=stream,
        ))
        start = env.now
        p.attempted += 1
        entry = yield from thread.invoke(Oper.LOCAL_TRANSFER, sg)
        if entry.status != "success":
            p.failed += 1
        # Read from and written back to HBM: both directions are payload.
        p.records.append((stream, "transfer", 2 * length, start, env.now))
        p.mark()

    def _client(self, p: Platform, rounds):
        for lengths in rounds:
            yield AllOf(p.env, [
                p.env.process(self._stream(p, s, n), name=f"bench-client-{s}")
                for s, n in enumerate(lengths)
            ])

    def run_requests(self, p: Platform, plan: Plan, requests: list) -> None:
        p.env.run(p.env.process(self._client(p, requests), name="bench-rounds"))

    def verify(self, p: Platform, plan: Plan) -> None:
        thread, dst = p.state["thread"], p.state["dst"]
        size = self.streams * self.nominal

        def sync():
            yield from thread.invoke(
                Oper.LOCAL_SYNC, SgEntry(local=LocalSg(src_addr=dst.vaddr, src_len=size))
            )

        p.env.run(p.env.process(sync(), name="bench-verify"))
        image = thread.read_buffer(dst.vaddr, size)
        for stream in range(self.streams):
            # Every round rewrote a prefix of the same slice, so the
            # longest one written must match the source.
            longest = max(lengths[stream] for lengths in plan.warm + plan.requests)
            offset = stream * self.nominal
            if image[offset : offset + longest] != plan.payload[offset : offset + longest]:
                p.failed += self.rounds


# ------------------------------------------------------------------ rdma_mix


class RdmaMix(Workload):
    """Alternating RDMA WRITE / READ verbs between two nodes, no congestion."""

    name = "rdma_mix"
    requests = 608  # 2 verbs x 38 x the eight-entry size mix
    warm_requests = 16
    #: 4 KiB : 64 KiB : 256 KiB = 3:3:2 for each verb.  (Not 2:1:1: with
    #: half the verbs at 4 KiB the median sits on the edge between two
    #: size classes and jumps by 60 % from seed to seed.)
    sizes = (4 * KIB,) * 3 + (64 * KIB,) * 3 + (256 * KIB,) * 2
    buffer_bytes = 256 * KIB

    def _verbs(self, rng, count: int) -> list:
        per_verb = count // 2
        columns = []
        for kind in ("rdma_write", "rdma_read"):
            # Stratified per verb, so a seed changes the order and the
            # pairing of size with shrink step, never the totals.
            lengths = [
                n
                for size in sorted(set(self.sizes))
                for n in _lengths(rng, size, per_verb * self.sizes.count(size) // len(self.sizes))
            ]
            rng.shuffle(lengths)
            columns.append([
                (kind, n, rng.randrange(0, self.buffer_bytes - n + 1, 64)) for n in lengths
            ])
        return [verb for pair in zip(*columns) for verb in pair]

    def plan(self, rng) -> Plan:
        return Plan(
            requests=self._verbs(rng, self.requests),
            warm=self._verbs(rng, self.warm_requests),
            payload=rng.randbytes(2 * self.buffer_bytes),
        )

    def build(self, plan: Plan) -> Platform:
        env = Environment()
        cluster = FpgaCluster(env, 2, services=ServiceConfig(en_memory=True, en_rdma=True))
        local, remote = cluster.connect_qps(0, 1, pid_a=1, pid_b=2, qpn_a=1, qpn_b=2)
        p = Platform(
            env,
            drivers=[node.driver for node in cluster.nodes],
            switch=cluster.switch,
            stacks=[node.shell.dynamic.rdma for node in cluster.nodes],
            cmacs=[node.shell.dynamic.cmac for node in cluster.nodes],
        )

        def setup():
            out = yield from local.get_mem(self.buffer_bytes)
            landing = yield from local.get_mem(self.buffer_bytes)
            far = yield from remote.get_mem(self.buffer_bytes)
            local.write_buffer(out.vaddr, plan.payload[: self.buffer_bytes])
            remote.write_buffer(far.vaddr, plan.payload[self.buffer_bytes :])
            p.state.update(
                local=local, remote=remote, out=out, landing=landing, far=far,
                # What the remote buffer must hold, maintained by the checks.
                far_image=bytearray(plan.payload[self.buffer_bytes :]),
            )

        env.run(env.process(setup(), name="bench-setup"))
        return p

    def _client(self, p: Platform, plan: Plan, verbs):
        env = p.env
        s = p.state
        local, remote = s["local"], s["remote"]
        for kind, length, offset in verbs:
            start = env.now
            p.attempted += 1
            if kind == "rdma_write":
                sg = SgEntry(rdma=RdmaSg(
                    local_addr=s["out"].vaddr + offset, remote_addr=s["far"].vaddr,
                    len=length, qpn=1,
                ))
                yield from local.invoke(Oper.REMOTE_RDMA_WRITE, sg)
            else:
                sg = SgEntry(rdma=RdmaSg(
                    local_addr=s["landing"].vaddr, remote_addr=s["far"].vaddr + offset,
                    len=length, qpn=1,
                ))
                yield from local.invoke(Oper.REMOTE_RDMA_READ, sg)
            p.records.append((0, kind, length, start, env.now))
            with p.checking():
                if kind == "rdma_write":
                    expect = plan.payload[offset : offset + length]
                    s["far_image"][:length] = expect
                    got = remote.read_buffer(s["far"].vaddr, length)
                else:
                    expect = bytes(s["far_image"][offset : offset + length])
                    got = local.read_buffer(s["landing"].vaddr, length)
                if got != expect:
                    p.failed += 1
            p.mark()

    def run_requests(self, p: Platform, plan: Plan, requests: list) -> None:
        p.env.run(p.env.process(self._client(p, plan, requests), name="bench-client-0"))

    def reference_gbps(self, p: Platform) -> Optional[float]:
        """The transport ablation's figure is one 256 KiB WRITE."""
        big = [
            n / (end - start)
            for _c, kind, n, start, end in p.records
            if kind == "rdma_write" and n > 128 * KIB
        ]
        return sum(big) / len(big) if big else None


# -------------------------------------------------------------- incast_dcqcn


class IncastDcqcn(Workload):
    """16-to-1 incast on bare RDMA stacks with DCQCN on: the net layers
    alone, with the parameters ``perf_harness.bench_net_incast`` uses."""

    name = "incast_dcqcn"
    clients = 16
    horizon_ns = 2_000_000.0
    msg_bytes = 64 * KIB
    #: Not a count fixed in advance: a fixed simulated horizon.
    requests = 0
    warm_requests = 0
    #: 0.6 ms of object construction, no fresh memory: follows the loop.
    setup_clock = "loop"

    def plan(self, rng) -> Plan:
        # The only seeded input: each sender's start phase, inside the
        # first hundredth of a nanosecond.  The run is chaotic: staggers
        # of a few ns move goodput between 6.0 and 8.5 GB/s (README.md),
        # so anything larger would measure the seed, not the program.
        return Plan(requests=[rng.uniform(0.0, 0.01) for _ in range(self.clients)])

    def build(self, plan: Plan) -> Platform:
        env = Environment()
        switch = Switch(env, config=SwitchConfig(
            egress_capacity_bytes=32 * KIB, ecn_threshold_bytes=8 * KIB,
        ))
        config = RdmaConfig(
            mtu=1024,
            retransmit_timeout_ns=100_000.0,
            dcqcn=DcqcnConfig(
                enabled=True, min_rate=0.25, alpha_update_ns=5_000.0,
                rate_increase_ns=20_000.0, additive_increase=0.1,
                hyper_increase=0.5, cnp_interval_ns=10_000.0,
                initial_rate=CMAC_BANDWIDTH / 8.0,
            ),
        )
        p = Platform(env, switch=switch)
        delivered = [0] * self.clients

        def attach(mac_value: int, ip: int, name: str) -> RdmaStack:
            mac = MacAddress(mac_value)
            cmac = Cmac(env, name=f"{name}-cmac")
            switch.attach(mac, cmac)
            stack = RdmaStack(env, cmac, mac, ip, name=name, config=config)
            p.cmacs.append(cmac)
            p.stacks.append(stack)
            return stack

        # Timing-only memory behind every stack (125 B/ns), as in
        # ``bench_net_incast``; the receiver's also counts what it stored,
        # by the 1 MiB window each flow writes into.
        def bench_mem_read(vaddr, length):
            yield env.timeout(length / 125.0)
            return None

        def bench_mem_write(vaddr, data, length):
            yield env.timeout(length / 125.0)
            delivered[vaddr >> 20] += length

        receiver = attach(0x02_0000_0100, 0x0A0000FF, "rdma-rx")
        receiver.bind_memory(bench_mem_read, bench_mem_write)
        senders = []
        for i in range(self.clients):
            sender = attach(0x02_0000_0001 + i, 0x0A000001 + i, f"rdma-s{i}")
            sender.bind_memory(bench_mem_read, bench_mem_write)
            qp_s = sender.create_qp(1, psn=0)
            qp_r = receiver.create_qp(100 + i, psn=0)
            qp_s.connect(qp_r.local)
            qp_r.connect(qp_s.local)
            senders.append(sender)
        p.state.update(senders=senders, delivered=delivered)
        return p

    def _sender(self, p: Platform, flow: int, sender: RdmaStack, delay: float):
        env = p.env
        yield env.timeout(delay)
        while env.now < self.horizon_ns:
            start = env.now
            p.attempted += 1
            try:
                yield from sender.rdma_write(1, 0, flow << 20, self.msg_bytes)
            except RdmaError:  # retry exhaustion flushed the QP: the flow is dead
                p.failed += 1
                return
            p.records.append((flow, "rdma_write", self.msg_bytes, start, env.now))
            p.mark()

    def warm_up(self, p: Platform, plan: Plan) -> None:
        """No warm-up: the run measures the convergence from a cold start,
        as ``bench_net_incast`` does."""

    def drive(self, p: Platform, plan: Plan) -> None:
        env = p.env
        for flow, (sender, delay) in enumerate(zip(p.state["senders"], plan.requests)):
            env.process(self._sender(p, flow, sender, delay), name=f"bench-client-{flow}")
        env.run(until=self.horizon_ns)
        # Messages still on the wire at the horizon were neither completed
        # nor failed; they are not part of the attempted count.
        p.attempted = len(p.records) + p.failed

    def verify(self, p: Platform, plan: Plan) -> None:
        done = [0] * self.clients
        for flow, _kind, nbytes, _s, _e in p.records:
            done[flow] += nbytes
        for flow in range(self.clients):
            # A sender may not count bytes the receiver never stored.
            if done[flow] > p.state["delivered"][flow]:
                p.failed += 1


# ---------------------------------------------------------------- svm_thrash


class SvmThrash(Workload):
    """4 KiB pages far beyond TLB reach, a quarter of them faulted back
    from card memory: the MMU's miss, walk and migrate paths."""

    name = "svm_thrash"
    requests = 6_000
    warm_requests = 64
    pages = 512
    tlb_entries = 64

    def _transfers(self, rng, count: int) -> list:
        offload = [i % 4 == 0 for i in range(count)]
        rng.shuffle(offload)
        return [
            (rng.randrange(self.pages), rng.randrange(self.pages), off, n)
            for off, n in zip(offload, _lengths(rng, PAGE_4K, count))
        ]

    def plan(self, rng) -> Plan:
        return Plan(
            requests=self._transfers(rng, self.requests),
            warm=self._transfers(rng, self.warm_requests),
            payload=rng.randbytes(self.pages * PAGE_4K),
        )

    def build(self, plan: Plan) -> Platform:
        env = Environment()
        services = ServiceConfig(mmu=MmuConfig(tlb=TlbConfig(
            page_size=PAGE_4K, num_entries=self.tlb_entries, associativity=4,
        )))
        shell = Shell(env, ShellConfig(num_vfpgas=1, services=services))
        driver = Driver(env, shell)
        shell.load_app(0, PassThroughApp())
        thread = CThread(driver, 0, pid=1)
        size = self.pages * PAGE_4K
        p = Platform(env, drivers=[driver])

        def setup():
            src = yield from thread.get_mem(size, AllocType.REG)
            dst = yield from thread.get_mem(size, AllocType.REG)
            thread.write_buffer(src.vaddr, plan.payload)
            p.state.update(thread=thread, src=src, dst=dst)

        env.run(env.process(setup(), name="bench-setup"))
        return p

    def _client(self, p: Platform, plan: Plan, reqs):
        env = p.env
        thread = p.state["thread"]
        src, dst = p.state["src"], p.state["dst"]
        for src_page, dst_page, offload, length in reqs:
            src_addr = src.vaddr + src_page * PAGE_4K
            dst_addr = dst.vaddr + dst_page * PAGE_4K
            if offload:
                yield from thread.invoke(
                    Oper.LOCAL_OFFLOAD,
                    SgEntry(local=LocalSg(src_addr=src_addr, src_len=PAGE_4K)),
                )
            sg = SgEntry(local=LocalSg(
                src_addr=src_addr, src_len=length, dst_addr=dst_addr, dst_len=length,
            ))
            start = env.now
            p.attempted += 1
            entry = yield from thread.invoke(Oper.LOCAL_TRANSFER, sg)
            p.records.append((0, "transfer", length, start, env.now))
            with p.checking():
                out = thread.read_buffer(dst_addr, length)
                offset = src_page * PAGE_4K
                if entry.status != "success" or out != plan.payload[offset : offset + length]:
                    p.failed += 1
            p.mark()

    def run_requests(self, p: Platform, plan: Plan, requests: list) -> None:
        p.env.run(p.env.process(self._client(p, plan, requests), name="bench-client-0"))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (HostSmall(), HostBulk(), CardHbm(), RdmaMix(), IncastDcqcn(), SvmThrash())
}
