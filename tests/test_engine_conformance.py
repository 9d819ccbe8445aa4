"""Engine conformance & property suite: the contract for DES-core rewrites.

The event engine is the hottest loop in the repository, and every speedup
to it (slots-based heap entries, relay free-lists, inlined fast paths) is
only safe if the *exact* semantics are pinned down first.  This suite is
that pin:

* A deterministic scenario generator builds random process trees —
  timeouts, interrupts, AllOf/AnyOf compositions, succeed/fail races on
  shared events — from a single seeded ``random.Random``.  Because the
  RNG is drawn *inside* the processes as they resume, the full dispatch
  interleaving (not just final results) feeds back into the scenario:
  any reordering of simultaneous events produces a visibly different
  trace.
* Every engine step is recorded as a ``(time, priority, seq, kind)``
  tuple straight off the heap.  The recorder understands both heap-entry
  shapes — pre-refactor ``(time, prio, seq, event)`` tuples and
  slots-based events carrying their own key — so the same recorder
  produced the golden fixtures *before* the rewrite and verifies them
  after.
* ``tests/fixtures/engine_golden_traces.json`` stores, per seed, the
  sha256 digest of ``repr((trace, log))`` plus summary fields.  The
  fixtures were recorded against the pre-refactor engine; a digest
  mismatch means the rewrite changed observable semantics, not just
  speed.  Regenerate (only when a semantic change is *intended* and
  reviewed) with::

      PYTHONPATH=src python -m tests.test_engine_conformance --regenerate

* Hypothesis property tests check double-run determinism, time
  monotonicity and seq uniqueness over fresh random seeds, and one test
  repeats the double-run digest check with the SimSanitizer active.
* A **reference-model order test** drives random schedules through the
  engine (zero-delay lanes + timed heap) and through a single
  ``(time, prio, seq)`` heap a few lines long, and requires identical
  dispatch sequences in every run form; a second one holds
  ``Container``'s no-waiter fast paths to its generic settle loop.
"""

import hashlib
import heapq
import itertools
import json
import os
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

#: Example budgets scale with the profile: the CI ``engine-conformance``
#: job runs ``HYPOTHESIS_PROFILE=long`` for a much deeper derandomized
#: sweep of the property tests (explicit ``@settings`` would otherwise
#: override the profile's ``max_examples``).
_LONG = os.environ.get("HYPOTHESIS_PROFILE") == "long"
MAX_EXAMPLES = 500 if _LONG else 60
MAX_EXAMPLES_SANITIZED = 150 if _LONG else 25

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.analysis import SimSanitizer
from repro.analysis import sanitizer as sanitizer_mod
from repro.core.credit import Crediter
from repro.sim import (
    AllOf,
    AnyOf,
    Container,
    Environment,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
)
from repro.sim.engine import NORMAL, URGENT

from .platforms import twice_sanitized

FIXTURE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "engine_golden_traces.json"
)

#: Seeds recorded in the golden fixture file.  Chosen arbitrarily; the
#: spread matters more than the values (each seed exercises a different
#: mix of interrupts, races and condition shapes).
GOLDEN_SEEDS = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 1009, 4242, 90210]


# ------------------------------------------------------------- scenario


def _build_scenario(env, rng, log):
    """Spawn a random process tree over pure engine primitives.

    Guaranteed to terminate: every wait is on a timeout, a process, or a
    shared gate event that exactly two racers are certain to trigger.
    """

    gates = [Event(env) for _ in range(3)]

    def racer(idx, delay, fail_roll):
        yield env.timeout(delay)
        gate = gates[idx]
        if not gate.triggered:
            if fail_roll < 0.3:
                gate.fail(RuntimeError(f"race-{idx}"))
            else:
                gate.succeed(("win", idx))

    def gate_waiter(idx):
        try:
            value = yield gates[idx]
            log.append(("gate", env.now, idx, list(value)))
        except RuntimeError as exc:
            log.append(("gate_fail", env.now, idx, str(exc)))

    def sleeper(wid):
        try:
            yield env.timeout(rng.randint(5, 40))
            return ("slept", wid)
        except Interrupt as intr:
            log.append(("intr", env.now, wid, str(intr.cause)))
            yield env.timeout(rng.randint(0, 5))
            return ("resumed", wid)

    def attacker(target, delay, cause):
        yield env.timeout(delay)
        target.interrupt(cause)

    def worker(depth, wid):
        for step_no in range(rng.randint(1, 3)):
            choice = rng.randint(0, 4)
            if choice == 0:
                value = yield env.timeout(rng.randint(0, 30), value=(wid, step_no))
                log.append(("t", env.now, list(value)))
            elif choice == 1 and depth < 2:
                child = env.process(
                    worker(depth + 1, wid * 7 + step_no + 1), name=f"w{depth + 1}"
                )
                result = yield child
                log.append(("join", env.now, list(result)))
            elif choice == 2:
                waits = [
                    env.timeout(rng.randint(0, 20), value=k)
                    for k in range(rng.randint(1, 3))
                ]
                cond = (
                    AllOf(env, waits) if rng.random() < 0.5 else AnyOf(env, waits)
                )
                results = yield cond
                log.append(("cond", env.now, sorted(results.items())))
            elif choice == 3:
                victim = env.process(sleeper(wid), name="victim")
                if rng.random() < 0.7:
                    env.process(
                        attacker(victim, rng.randint(0, 25), f"a{wid}"),
                        name="attacker",
                    )
                result = yield victim
                log.append(("victim", env.now, list(result)))
            else:
                yield env.timeout(rng.randint(0, 10))
        return ("done", wid, env.now)

    for idx in range(len(gates)):
        env.process(gate_waiter(idx), name=f"gw{idx}")
        for _ in range(2):
            env.process(
                racer(idx, rng.randint(0, 40), rng.random()), name=f"racer{idx}"
            )
    for root in range(rng.randint(2, 4)):
        env.process(worker(0, root), name=f"root{root}")


# ------------------------------------------------------------- recorder


def _heap_key(entry):
    """(time, prio, seq, kind) for either heap-entry shape.

    Pre-refactor the heap held ``(time, prio, seq, event)`` tuples;
    post-refactor it holds slots-based events carrying their own key.
    """
    if isinstance(entry, tuple):
        when, prio, seq, event = entry
    else:
        event = entry
        when, prio, seq = entry._time, entry._prio, entry._seq
    return float(when), int(prio), int(seq), type(event).__name__


def record_trace(seed, env=None):
    """Run the seeded scenario to exhaustion, recording every dispatch."""
    env = env or Environment()
    rng = random.Random(seed)
    log = []
    _build_scenario(env, rng, log)
    trace = []
    while env.pending:
        trace.append(_heap_key(env.peek_event()))
        env.step()
    return trace, log, env


def trace_digest(trace, log):
    return hashlib.sha256(repr((trace, log)).encode()).hexdigest()


def _load_fixtures():
    with open(FIXTURE_PATH) as fh:
        return json.load(fh)


# ------------------------------------------------------- golden fixtures


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
def test_golden_trace_matches_pre_refactor_recording(seed):
    fixtures = _load_fixtures()
    golden = fixtures["seeds"][str(seed)]
    trace, log, env = record_trace(seed)
    assert len(trace) == golden["events"], (
        f"seed {seed}: engine dispatched {len(trace)} events, golden recorded "
        f"{golden['events']}"
    )
    assert env.now == golden["final_time"]
    head = [list(row) for row in trace[: len(golden["head"])]]
    assert head == golden["head"], f"seed {seed}: first dispatches diverged"
    assert trace_digest(trace, log) == golden["digest"], (
        f"seed {seed}: (time, seq, kind) trace or process-visible results "
        "diverged from the pre-refactor engine"
    )


def test_fixture_file_covers_all_golden_seeds():
    fixtures = _load_fixtures()
    assert sorted(fixtures["seeds"]) == sorted(str(s) for s in GOLDEN_SEEDS)
    for record in fixtures["seeds"].values():
        assert record["events"] > 0
        assert len(record["digest"]) == 64


# ------------------------------------------------------ property checks


@settings(max_examples=MAX_EXAMPLES)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_double_run_is_trace_identical(seed):
    trace_a, log_a, _ = record_trace(seed)
    trace_b, log_b, _ = record_trace(seed)
    assert trace_a == trace_b
    assert log_a == log_b
    assert trace_digest(trace_a, log_a) == trace_digest(trace_b, log_b)


@settings(max_examples=MAX_EXAMPLES)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_dispatch_times_monotone_and_seqs_unique(seed):
    trace, _log, env = record_trace(seed)
    times = [row[0] for row in trace]
    assert times == sorted(times), "dispatch times must be non-decreasing"
    seqs = [row[2] for row in trace]
    assert len(seqs) == len(set(seqs)), "every heap entry owns a unique seq"
    # Note: among *simultaneous* events there is no global (priority,
    # seq) dispatch order — a callback at time T may schedule fresh
    # URGENT work at T that rightly overtakes older NORMAL entries.
    # The golden traces pin the exact interleaving instead.
    assert env.events_processed == len(trace)


@settings(max_examples=MAX_EXAMPLES_SANITIZED)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_double_run_digest_equal_under_sanitizer(seed):
    """The rewritten fast paths must stay observable-identical *and*
    violation-free with the SimSanitizer attached (REPRO_SANITIZE=1
    equivalent: every new Environment picks up the process-wide
    instance)."""
    (trace_a, log_a, _), (trace_b, log_b, _) = twice_sanitized(lambda: record_trace(seed))
    assert trace_digest(trace_a, log_a) == trace_digest(trace_b, log_b)


def test_sanitized_run_observes_every_step():
    """The sanitizer hooks must sit on the fast path too (a rewrite that
    skips them under ``run()`` would silently disable REPRO_SANITIZE)."""

    def run():
        env = Environment()
        assert env.sanitizer is not None
        assert env.sanitizer is sanitizer_mod.current()

        def proc():
            yield env.timeout(5)
            yield env.timeout(7)

        env.process(proc())
        env.run()

    twice_sanitized(run)


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
def test_sanitized_trace_equals_the_plain_trace(seed):
    """Detached, ``succeed``/``Timeout``/``_relay`` push themselves;
    attached, they go through ``_schedule`` so the hooks fire.  Both must produce the golden order — whatever
    ``REPRO_SANITIZE`` says, hence the explicit attach and detach."""
    plain = Environment()
    plain.sanitizer = None
    checked = Environment()
    checked.sanitizer = SimSanitizer()
    trace, log, _ = record_trace(seed, plain)
    checked_trace, checked_log, _ = record_trace(seed, checked)
    assert checked_trace == trace
    assert checked_log == log
    assert trace_digest(trace, log) == _load_fixtures()["seeds"][str(seed)]["digest"]
    assert not checked.sanitizer.violations, checked.sanitizer.report()


def test_scheduled_and_peek_event_yield_events_not_heap_entries():
    """The heap holds ``(time, prio, seq, event)`` entries; the views of
    "what is scheduled" must keep handing out the events themselves."""
    env = Environment()
    timer = env.timeout(5)
    tied = env.timeout(5)
    env.sleep(7)
    assert env.peek_event() is timer and env.peek == 5.0  # lanes empty

    def at_five(_event):
        Event(env).succeed()  # a lane entry younger than ``tied``
        assert env.peek_event() is tied  # the heap top wins the tie at now
        assert {type(e) for e in env.scheduled()} == {Event, Timeout}
        assert sum(1 for _ in env.scheduled()) == env.pending == 3

    timer.callbacks.append(at_five)
    env.run()
    assert env.pending == 0 and env.peek_event() is None


# ------------------------------------------------ reference-model order


class _HeapModel:
    """The whole scheduling contract: one heap keyed (time, prio, seq)."""

    def __init__(self, now):
        self.now = now
        self.heap = []
        self.seq = itertools.count()
        self.high_water = 0
        self.past_dispatches = 0
        #: Every key dispatched, the silent process plumbing included.
        self.popped = []

    def schedule(self, kind, prio, delay, fire):
        if kind == "process":
            # A process wake-up is three entries: the URGENT start relay,
            # the timer the generator then yields, and — once the body
            # ran — the end event nobody joins.
            def wake(key):
                fire(key)
                self._push(0.0, NORMAL, lambda _key: None)

            self._push(0.0, URGENT, lambda _key: self._push(delay, NORMAL, wake))
        else:
            self._push(delay, prio, fire)

    def _push(self, delay, prio, fire):
        heapq.heappush(self.heap, (self.now + delay, prio, next(self.seq), fire))
        self.high_water = max(self.high_water, len(self.heap))

    def run(self):
        while self.heap:
            when, prio, seq, fire = heapq.heappop(self.heap)
            if when + 1e-9 < self.now:
                self.past_dispatches += 1
            self.now = when
            self.popped.append((when, prio, seq))
            fire((when, prio, seq))


class _EngineBackend:
    """The model's ``schedule``, through the engine's own entry points."""

    def __init__(self, now):
        self.env = Environment(now)
        # Private instance: negative delays are violations by design here.
        self.env.sanitizer = SimSanitizer()

    def _fire_value(self, event):
        """A frame in flight: the timer's value is all the callback gets."""
        event.value((self.env.now, event._prio, event._seq))

    def _timer_then_fire(self, delay, fire):
        timer = self.env.timeout(delay)
        yield timer
        fire((self.env.now, timer._prio, timer._seq))

    def schedule(self, kind, prio, delay, fire):
        env = self.env

        def callback(event):
            fire((env.now, event._prio, event._seq))

        if kind == "relay":
            env._relay(True, None, callback, prio)
            return
        if kind == "callback":
            # The idiom, as the switch egress spells it: a bound method
            # on a fresh Timeout, no closure per timer.
            env.timeout(delay, fire).callbacks.append(self._fire_value)
            return
        if kind == "process":
            env.process(self._timer_then_fire(delay, fire))
            return
        if kind == "timeout":
            event = Timeout(env, delay)
        elif kind == "sleep":
            event = env.sleep(delay)
        elif kind == "timeout_at":
            # An absolute key time; ``now + 0.0`` is a NORMAL lane entry.
            event = env.timeout_at(env.now + delay)
        else:
            event = Event(env)
        event.callbacks.append(callback)
        if kind == "succeed":
            event.succeed(priority=prio)
        elif kind == "raw":
            event._ok = True
            env._schedule(event, delay, prio)


#: Delays a node may ask for.  ``1e-9`` is a true delay at t=0 and is
#: absorbed by float rounding at t=1e9 (the event is due "now").
_DELAYS = [0.0, 1e-9, 0.5, 1.0, 2.0, 3.5]
_MAX_SCHEDULED = 120

_KINDS = [
    "succeed", "relay", "timeout", "timeout_at", "sleep", "raw", "callback", "process",
]
_node = st.tuples(
    st.sampled_from(_KINDS),
    st.sampled_from([URGENT, NORMAL]),
    st.sampled_from(_DELAYS + [-1.0, -2.5]),
    st.lists(st.integers(min_value=0, max_value=9), max_size=3),
)


def _play(backend, nodes, roots):
    """Schedule ``roots``; each dispatched node schedules its children.
    Returns the dispatch sequence and how many delays were negative."""
    dispatched = []
    counts = {"scheduled": 0, "negative": 0}

    def spawn(index):
        if counts["scheduled"] == _MAX_SCHEDULED:
            return
        counts["scheduled"] += 1
        kind, prio, delay, children = nodes[index % len(nodes)]
        if kind in ("succeed", "relay"):
            delay = 0.0
        elif kind in ("timeout", "timeout_at", "sleep", "callback", "process"):
            # Always NORMAL, and the constructors reject negative delays.
            prio, delay = NORMAL, abs(delay)
        elif delay < 0:
            counts["negative"] += 1

        def fire(key):
            dispatched.append(key + (index,))
            for child in children:
                spawn(child)

        backend.schedule(kind, prio, delay, fire)

    for root in roots:
        spawn(root)
    return dispatched, counts


def _drive_step(env):
    while env.pending:
        head = env.peek_event()
        key = (head._time, head._prio, head._seq)
        before = env.events_processed
        env.step()
        assert env.events_processed == before + 1
        yield key


def _drive(env, form):
    if form == "run":
        env.run()
    elif form == "run_batch":
        while env.run_batch(3):
            pass
    elif form == "run_until_time":
        horizon = env.now
        while env.pending:
            horizon = max(horizon, env.now) + 0.75
            env.run(until=horizon)
    else:
        # Nothing triggers the awaited event: the loop drains everything
        # and then reports the deadlock.
        with pytest.raises(SimulationError, match="deadlock"):
            env.run(until=Event(env))


@settings(max_examples=MAX_EXAMPLES)
@given(
    nodes=st.lists(_node, min_size=1, max_size=10),
    roots=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6),
    start=st.sampled_from([0.0, 1e9]),
    form=st.sampled_from(
        ["step", "run", "run_batch", "run_until_time", "run_until_event"]
    ),
)
def test_dispatch_order_matches_single_heap_model(nodes, roots, start, form):
    _check_against_heap_model(nodes, roots, start, form)


#: Every non-zero delay is one tick, so timers pile up on shared instants.
_tie_node = st.tuples(
    st.sampled_from(_KINDS),
    st.sampled_from([URGENT, NORMAL]),
    st.sampled_from([0.0, 1.0, 1.0, -1.0]),
    st.lists(st.integers(min_value=0, max_value=11), max_size=3),
)


@settings(max_examples=MAX_EXAMPLES)
@given(
    nodes=st.lists(_tie_node, max_size=7),
    roots=st.lists(st.integers(min_value=0, max_value=11), max_size=4),
    raw_prio=st.sampled_from([URGENT, NORMAL]),
    form=st.sampled_from(
        ["step", "run", "run_batch", "run_until_time", "run_until_event"]
    ),
)
def test_heap_ties_lane_entries_and_a_spill_match_the_heap_model(
    nodes, roots, raw_prio, form
):
    """Every example holds the three-way mix: two timers fall due at
    t=1; the first one's dispatch fills both lanes and schedules an
    event one tick in the past, so the second timer (heap, older seq)
    ties with the lane heads and the past event spills the lanes to the
    heap before either runs.  Hypothesis grows the tree from there."""
    prelude = [
        ("timeout", NORMAL, 1.0, [2, 3, 4, 5]),
        ("timeout", NORMAL, 1.0, [6]),
        ("succeed", URGENT, 0.0, [7]),
        ("succeed", NORMAL, 0.0, [8]),
        ("raw", raw_prio, -1.0, [9, 2]),
    ]
    _check_against_heap_model(prelude + nodes, [0, 1] + roots, 0.0, form)


def _check_against_heap_model(nodes, roots, start, form):
    model = _HeapModel(start)
    expected, _ = _play(model, nodes, roots)
    model.run()

    engine = _EngineBackend(start)
    env = engine.env
    got, counts = _play(engine, nodes, roots)
    if form == "step":
        peeked = list(_drive_step(env))
        assert peeked == model.popped, "peek_event() lied"
    else:
        _drive(env, form)

    assert got == expected
    assert env.pending == 0 and env.peek_event() is None
    assert env.events_processed == len(model.popped) >= len(expected)
    assert env.queue_high_water == model.high_water
    kinds = [v.kind for v in env.sanitizer.violations]
    assert kinds == ["monotonicity"] * (counts["negative"] + model.past_dispatches)


# ------------------------------------------- Container fast-path guard


class _SettleOnlyContainer(Container):
    """Reference: every get/put queues and runs the generic settle loop."""

    def put(self, amount):
        event = Event(self.env)
        self._putters.append((event, amount))
        self._settle()
        return event

    def get(self, amount):
        event = Event(self.env)
        self._getters.append((event, amount))
        self._settle()
        return event


_container_op = st.one_of(
    st.tuples(st.sampled_from(["get", "put"]), st.integers(1, 4)),
    st.tuples(st.just("abandon"), st.integers(0, 30)),
    st.tuples(st.just("refill"), st.just(0)),
)


@settings(max_examples=MAX_EXAMPLES)
@given(ops=st.lists(_container_op, max_size=30), init=st.integers(0, 4))
def test_container_fast_paths_match_the_settle_loop(ops, init):
    """With no waiter queued ``get``/``put`` skip ``_settle``; with one
    queued — live, abandoned, or stranded by a level reset — they must
    not.  Same grants, same level, same events scheduled, op by op."""
    envs = [Environment(), Environment()]
    pools = [
        Container(envs[0], capacity=4, init=init),
        _SettleOnlyContainer(envs[1], capacity=4, init=init),
    ]
    issued = [[], []]
    for name, arg in ops:
        for pool, events in zip(pools, issued):
            if name == "abandon":
                if events:
                    events[arg % len(events)]._abandoned = True
            elif name == "refill":
                pool.level = float(pool.capacity)  # what Crediter.reset() does
            else:
                events.append(getattr(pool, name)(arg))
        assert pools[0].level == pools[1].level
        assert [e.triggered for e in issued[0]] == [e.triggered for e in issued[1]]
        assert envs[0].pending == envs[1].pending


def test_crediter_reset_keeps_queued_acquirers_ahead_of_new_ones():
    """reset() refills the pool behind the back of queued acquirers; the
    next pool operation must settle them first, not jump the queue."""
    env = Environment()
    crediter = Crediter(env, credits=1, name="guarded")
    order = []

    def taker(tag):
        # repro: allow[RES001] the credits are deliberately never returned
        yield from crediter.acquire()
        order.append(tag)

    env.process(taker("first"))
    env.process(taker("queued"))
    env.run()
    assert order == ["first"] and crediter.stalls == 1
    assert crediter.reset() == 1
    env.process(taker("late"))
    env.run()
    assert order == ["first", "queued"]
    crediter.release()
    env.run()
    assert order == ["first", "queued", "late"]


# ------------------------------------------------------- regeneration


def regenerate(path=FIXTURE_PATH):  # pragma: no cover - maintenance entry
    records = {}
    for seed in GOLDEN_SEEDS:
        trace, log, env = record_trace(seed)
        records[str(seed)] = {
            "digest": trace_digest(trace, log),
            "events": len(trace),
            "final_time": env.now,
            "head": [list(row) for row in trace[:4]],
        }
    payload = {
        "comment": (
            "Golden (time, priority, seq, kind) dispatch traces recorded "
            "against the pre-refactor engine; see tests/test_engine_conformance.py"
        ),
        "seeds": records,
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(records)} golden traces to {path}")


if __name__ == "__main__":  # pragma: no cover - maintenance entry
    if "--regenerate" in sys.argv:
        regenerate()
    else:
        print(__doc__)
