"""Booked stations against the queued station they replaced.

A fixed-service FIFO station — a PCIe link direction, an HBM channel,
the MMU's translation pipeline — used to be ``Resource.request()`` →
grant → ``Timeout(duration)`` → ``release()``.  It is now one booking on
a :class:`repro.sim.rate.FifoServer` and one ``timeout_at``.  The queued
form stays here as the oracle: under generated arrival schedules both
must finish every client at the **bit-equal** float, in the same order.
Two end-to-end pins hold the whole shell to the simulated times the
queued stations gave (recorded at 754b2e6, the last commit with them).

An :class:`~repro.axi.AxiStream`'s bus is the same kind of station with
a FIFO put behind it: it was a ``Resource`` held across the beats *and*
the put.  While the FIFO has room — which the shell's credits guarantee
— the booked bus lands every flit at the bit-equal time, in the same
order, whether a sender waits on ``send`` or a host read deposits by
timer; a full FIFO is where the two part, and that is pinned too.
"""

import os

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import CThread, Driver, Environment, Shell, ShellConfig
from repro.apps import PassThroughApp
from repro.axi import AxiStream, Flit
from repro.core import LocalSg, Oper, SgEntry
from repro.experiments.microbench import hbm_throughput
from repro.sim import FABRIC_CLOCK, AllOf, Resource, Store
from repro.sim.rate import FifoServer

#: The CI ``engine-conformance`` job runs this file under the long profile.
MAX_EXAMPLES = 500 if os.environ.get("HYPOTHESIS_PROFILE") == "long" else 60


def _queued_station(env, servers):
    """The reference: what every station's body looked like."""
    resource = Resource(env, capacity=servers)

    def use(duration):
        grant = resource.request()
        yield grant
        try:
            yield env.timeout(duration)
        finally:
            resource.release(grant)

    return use


def _booked_station(env, servers):
    server = FifoServer(env, servers=servers)

    def use(duration):
        yield env.timeout_at(server.book(duration))

    return use


def _finishes(station, servers, arrivals):
    """Run ``arrivals`` — ``(gap since the previous arrival, duration)``
    — through one station; ``(client, finish time)`` in completion order."""
    env = Environment()
    use = station(env, servers)
    done = []

    def client(index, duration):
        yield from use(duration)
        done.append((index, env.now))

    def source():
        for index, (gap, duration) in enumerate(arrivals):
            if gap:
                yield env.timeout(gap)
            env.process(client(index, duration))

    env.process(source())
    env.run()
    assert len(done) == len(arrivals)
    return done


#: Gaps are mostly zero (same-instant bursts) or shorter than a service
#: time (a standing queue); one is a service time, which puts ``now`` a
#: binade or two under a booked finish — where ``now + (finish - now)``
#: rounds off ``finish``; a long one lets the station fall idle.
_gap = st.sampled_from(
    [0.0, 0.0, 0.0, 1 / 3, 7.3, 100 / 3, 1000 / 12 + 350, 1_000.7]
)
#: Service times the models use: bytes over 12 B/ns plus 350 ns (PCIe),
#: 120 ns plus cycles at 450 MHz (HBM), the MMU's constant 100 ns.
_pcie = st.integers(min_value=0, max_value=4096).map(lambda n: n / 12.0 + 350.0)
_hbm = st.integers(min_value=1, max_value=128).map(lambda c: 120.0 + c * (1e3 / 450.0))
_variable = st.one_of(_pcie, _hbm, st.sampled_from([0.0, 240.0]))
_constant = st.just(100.0)


def _schedules(duration):
    return st.lists(st.tuples(_gap, duration), min_size=1, max_size=40)


#: Waiting with ``timeout(finish - now)`` finishes the third client of
#: this schedule at 1457.6666666666667, an ulp past the queue's time.
_ULP_TRAP = [(1 / 3, 350.0), (1000 / 12 + 350, 673.8333333333333), (0.0, 2 / 12 + 350)]


@settings(max_examples=MAX_EXAMPLES)
@given(arrivals=_schedules(_variable))
@example(arrivals=_ULP_TRAP)
def test_one_server_variable_durations_is_bit_equal_to_the_queue(arrivals):
    """PCIe link direction, HBM channel, GPU P2P port, the AES ports."""
    assert _finishes(_booked_station, 1, arrivals) == _finishes(
        _queued_station, 1, arrivals
    )


@settings(max_examples=MAX_EXAMPLES)
@given(
    arrivals=st.one_of(_schedules(_constant), _schedules(_variable)),
    servers=st.sampled_from([2, 4]),
)
def test_k_servers_are_bit_equal_to_the_queue(arrivals, servers):
    """The MMU's ``xlat_stations``: constant service, and variable too."""
    assert _finishes(_booked_station, servers, arrivals) == _finishes(
        _queued_station, servers, arrivals
    )


def test_same_instant_burst_on_four_servers():
    """Nine arrivals at t=0 on four 100 ns servers: waves of four."""
    done = _finishes(_booked_station, 4, [(0.0, 100.0)] * 9)
    assert done == _finishes(_queued_station, 4, [(0.0, 100.0)] * 9)
    assert [when for _index, when in done] == [100.0] * 4 + [200.0] * 4 + [300.0]


# ------------------------------------------------- the AXI stream's bus


def _queued_bus(env, depth):
    """The reference: ``AxiStream.send`` as it was, the bus a
    ``Resource`` held across the flit's beats and its FIFO put.
    Returns ``(send, deposit, recv)``; a deposit was a process a flit."""
    fifo = Store(env, capacity=depth)
    bus = Resource(env, capacity=1)

    def send(flit):
        grant = bus.request()
        yield grant
        try:
            yield env.timeout(FABRIC_CLOCK.cycles_to_ns(flit.beats()))
            yield fifo.put(flit)
        finally:
            bus.release(grant)

    def recv():
        return (yield fifo.get())

    return send, lambda flit: env.process(send(flit)), recv


def _booked_bus(env, depth):
    """The model: ``AxiStream.send``, and the host mover's deposit — a
    booking and one timer whose callback lands the flit."""
    stream = AxiStream(env, depth_flits=depth)

    def deposit(flit):
        env.timeout_at(stream.book(flit), flit).callbacks.append(
            lambda event: stream.deposit(event.value)
        )

    return stream.send, deposit, stream.recv


def _landings(bus, senders, depth=None, deposit=False, consume_at=0.0):
    """Run ``senders`` — each a list of ``(gap, flit length)`` — through
    one stream, each sender in its own process.  The consumer starts at
    ``consume_at`` and drains as fast as flits land; ``depth`` defaults
    to every flit (room guaranteed).  With ``deposit`` a sender hands
    each flit over without waiting (the host read's shape).  Returns
    ``(sender, index, time)`` in the order the consumer got them, and
    each sender's ``(sender, time)`` when its last hand-over returned."""
    env = Environment()
    total = sum(len(flits) for flits in senders)
    send, post, recv = bus(env, depth or total)
    landed, finished = [], []

    def sender(tag, flits):
        for index, (gap, length) in enumerate(flits):
            if gap:
                yield env.timeout(gap)
            flit = Flit(length=length, tid=tag, tdest=index)
            if deposit:
                post(flit)
            else:
                yield from send(flit)
        finished.append((tag, env.now))

    def consumer():
        if consume_at:
            yield env.timeout(consume_at)
        for _ in range(total):
            flit = yield from recv()
            landed.append((flit.tid, flit.tdest, env.now))

    for tag, flits in enumerate(senders):
        env.process(sender(tag, flits))
    env.process(consumer())
    env.run()
    assert len(landed) == total
    return landed, finished


#: Zero (same-instant), under a beat, a beat, fractions that land a
#: booked finish between binades, a 2 KiB flit's 128 ns, and idle gaps.
_flit_gap = st.sampled_from([0.0, 0.0, 0.0, 1 / 3, 4.0, 7.3, 100 / 3, 128.0, 1_000.7])
#: Mixed flit sizes: one beat, one byte past it, odd tails, the host
#: packet (2 KiB) and the card packet (4 KiB).
_flit_length = st.sampled_from([1, 64, 65, 100, 1000, 2048, 4000, 4096])
_flits = st.lists(st.tuples(_flit_gap, _flit_length), min_size=1, max_size=12)


@settings(max_examples=MAX_EXAMPLES)
@given(flits=_flits, consume_at=st.sampled_from([0.0, 500.0]))
def test_axi_one_sender_is_bit_equal_to_the_queued_bus(flits, consume_at):
    assert _landings(_booked_bus, [flits], consume_at=consume_at) == _landings(
        _queued_bus, [flits], consume_at=consume_at
    )


#: Waiting with ``timeout(finish - now)`` lands sender 1's second flit at
#: 208.33333333333337, an ulp past the queued bus's 208.33333333333334.
_AXI_ULP_TRAP = [[(1 / 3, 100), (4.0, 2048)], [(4.0, 100), (100 / 3, 1000)]]


@settings(max_examples=MAX_EXAMPLES)
@given(senders=st.lists(_flits, min_size=2, max_size=4), deposit=st.booleans())
@example(senders=_AXI_ULP_TRAP, deposit=False)
def test_axi_contended_senders_with_room_are_bit_equal_to_the_queued_bus(senders, deposit):
    """k senders, or k deposit sources, on one bus; the FIFO has room."""
    assert _landings(_booked_bus, senders, deposit=deposit) == _landings(
        _queued_bus, senders, deposit=deposit
    )


def test_axi_same_instant_burst_takes_turns_on_the_bus():
    """Four senders offer three 2 KiB flits each at t=0: one flit per
    128 ns, round robin, on both buses."""
    senders = [[(0.0, 2048)] * 3 for _ in range(4)]
    landed, finished = _landings(_booked_bus, senders)
    assert (landed, finished) == _landings(_queued_bus, senders)
    assert [(tag, index) for tag, index, _t in landed] == [
        (tag, index) for index in range(3) for tag in range(4)
    ]
    assert [when for _tag, _index, when in landed] == [128.0 * n for n in range(1, 13)]


def test_axi_mixed_sizes_deposited_at_one_instant_land_in_booking_order():
    """The host DMA's shape: one source deposits flits of every size in
    one instant; each lands when its own beats are across."""
    flits = [(0.0, n) for n in (4096, 1, 65, 2048, 100, 64)]
    landed, _finished = _landings(_booked_bus, [flits], deposit=True)
    assert landed == _landings(_queued_bus, [flits], deposit=True)[0]
    beats = [-(-n // 64) for _gap, n in flits]
    assert [when for _tag, _index, when in landed] == [
        4.0 * sum(beats[: i + 1]) for i in range(len(beats))
    ]


def test_axi_full_fifo_no_longer_stalls_the_bus():
    """The one declared divergence.  Two senders into a one-flit FIFO
    that nobody drains before t=1000: A's first flit fills it, B's flit
    and then A's second both find it full.  The queued bus stayed held
    by B's blocked put, so A's second flit only got the bus — and 4 ns
    of beats — after B's flit went in at 1000.  The booked bus carried
    A's second flit at 8-12 ns; it waits at the FIFO and goes in at 1000
    beside B's.  Same order; the shell's credits keep every FIFO it
    deposits into from filling, so no run of the shell sees the
    difference."""
    senders = [[(0.0, 64), (0.0, 64)], [(0.0, 64)]]
    booked = _landings(_booked_bus, senders, depth=1, consume_at=1_000.0)
    queued = _landings(_queued_bus, senders, depth=1, consume_at=1_000.0)
    assert queued == ([(0, 0, 1_000.0), (1, 0, 1_000.0), (0, 1, 1_004.0)],
                      [(1, 1_000.0), (0, 1_004.0)])
    assert booked == ([(0, 0, 1_000.0), (1, 0, 1_000.0), (0, 1, 1_000.0)],
                      [(1, 1_000.0), (0, 1_000.0)])


# ------------------------------------------------------- end-to-end pins


def test_hbm_throughput_is_the_queued_stations_to_the_bit():
    """Fig 7(a) at 8 channels: HBM channels and MMU stations carry it."""
    assert repr(hbm_throughput(num_channels=8)) == HBM_8_CHANNELS_GBPS


def _host_bulk_finish_times():
    """``host_bulk``'s shape, small: four tenants, each on its own vFPGA,
    pushing 64 KiB pass-through invokes over the one host link."""
    env = Environment()
    tenants = 4
    shell = Shell(env, ShellConfig(num_vfpgas=tenants))
    driver = Driver(env, shell)
    threads = []
    for vfpga_id in range(tenants):
        shell.load_app(vfpga_id, PassThroughApp())
        threads.append(CThread(driver, vfpga_id, pid=100 + vfpga_id))
    size = 64 * 1024
    finishes = []

    def client(index, thread):
        src = yield from thread.get_mem(size)
        dst = yield from thread.get_mem(size)
        thread.write_buffer(src.vaddr, bytes([index + 1]) * size)
        for request in range(3):
            length = size - 4096 * (index + request)
            sg = SgEntry(local=LocalSg(
                src_addr=src.vaddr, src_len=length, dst_addr=dst.vaddr, dst_len=length,
            ))
            entry = yield from thread.invoke(Oper.LOCAL_TRANSFER, sg)
            assert entry.status == "success"
            assert thread.read_buffer(dst.vaddr, length) == bytes([index + 1]) * length
            finishes.append((index, request, env.now))

    env.run(AllOf(env, [env.process(client(i, t)) for i, t in enumerate(threads)]))
    link = shell.static.xdma.link
    assert link.in_flight("h2c") == link.in_flight("c2h") == 0
    return finishes, dict(link.in_flight_high_water), env.events_processed


def test_four_tenant_host_bulk_is_the_queued_stations_to_the_bit():
    finishes, high_water, events = _host_bulk_finish_times()
    assert [(i, r, repr(t)) for i, r, t in finishes] == HOST_BULK_FINISHES
    assert high_water == HOST_BULK_HIGH_WATER
    # One event a use instead of grant + timeout: fewer, never more.
    assert events < HOST_BULK_EVENTS_QUEUED


# Re-pinned when the card mover began cutting at the HBM stripe (4 KiB)
# instead of the host link's 2 KiB (was 56.21420189540835): half the
# translations per byte.  The host pins below still cut at 2 KiB.
HBM_8_CHANNELS_GBPS = "76.98481869723119"
# Re-pinned when completion writebacks left the DMA engines: the one
# C2H engine no longer idles 400 ns after each tenant's last packet, so
# every finish behind the first moves earlier by the writebacks that
# used to precede it (first difference (2, 0): 21400.00000000001, one
# writeback).  High water and the event bound did not move.
HOST_BULK_FINISHES = [
    (3, 0, "19976.000000000004"), (2, 0, "21000.00000000001"),
    (1, 0, "21682.666666666682"), (0, 0, "22365.333333333354"),
    (3, 1, "35848.00000000006"), (2, 1, "38749.33333333335"),
    (1, 1, "40967.999999999985"), (0, 1, "43186.66666666662"),
    (3, 2, "50866.66666666651"), (2, 2, "54450.66666666646"),
    (1, 2, "56498.66666666643"), (0, 2, "57522.66666666642"),
]
HOST_BULK_HIGH_WATER = {"h2c": 1, "c2h": 1}
HOST_BULK_EVENTS_QUEUED = 11608
