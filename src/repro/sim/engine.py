"""Deterministic discrete-event simulation engine.

This is the substrate every hardware model in the reproduction runs on.  It
follows the classic generator-based design (as popularised by SimPy, which is
not available offline): simulated entities are Python generators that yield
:class:`Event` objects to suspend themselves, and an :class:`Environment`
advances a priority queue of scheduled events.

Simulated time is a float in **nanoseconds**.  All hardware models in
``repro`` agree on this unit; see :mod:`repro.sim.clock` for cycle helpers.

Fast-path design (pinned by ``tests/test_engine_conformance.py``; the
full account is DESIGN.md "Event engine internals"):

* Every scheduled event carries its ``(time, priority, seq)`` key in
  ``__slots__``; dispatch order is ascending in that key, always.
* Most events are **zero-delay hand-offs** (``succeed``/``fail``, relays,
  process kick-off, ``sleep(0)``): their time is ``env.now``.  They are
  appended, bare, to one of two FIFO **lanes** (URGENT, NORMAL) and
  never touch the heap.  ``seq`` is monotone, so a lane is already
  sorted by key.
* The heap holds only events whose time differs from ``now`` — future
  timeouts — as ``(time, priority, seq, event)`` entries, so ``heapq``
  orders them by C tuple comparison (``seq`` is unique: the event is
  never compared) and makes no call back into Python.
* The hot ways of arming or triggering an event — ``Event.succeed``,
  ``Timeout``, ``timeout``, ``timeout_at``, ``sleep``, ``_relay``,
  ``_succeeded`` (the immediate outcome of a ``Store``/``Container``
  operation) — write the key and push themselves: one engine frame
  between model code and the container.
  Each is a copy of :meth:`Environment._schedule`, which stays the one
  general door (``fail``, forced delays, an event already scheduled)
  and the one used while a sanitizer is attached, so its hooks fire on
  every path (``timeout_at``, whose key time is given rather than
  ``now + delay``, fires them itself).
* **One dispatch loop** (:meth:`Environment._dispatch`) takes the least
  of (lane head, heap top) and runs its callbacks.  ``step``,
  ``run_batch`` and all three forms of ``run`` are thin callers of it;
  the ``env.profiler``/``env.sanitizer`` hooks are re-read on every
  event, so attaching one mid-run takes effect from the next event in
  every form.
* Internal one-shot relays (process kick-off, resume-after-processed,
  interrupts, :meth:`Environment.sleep`) come from a per-environment
  **free list** and are recycled right after dispatch.  Only events that
  are never exposed to user code are pooled; anything a process can hold
  a reference to (timeouts it composed into conditions, completion
  events, processes) is never recycled.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush
from typing import (
    Any,
    Callable,
    Deque,
    Generator,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation engine."""


def _default_sanitizer():
    """The process-wide SimSanitizer when ``REPRO_SANITIZE`` is set.

    Lazy import: :mod:`repro.analysis` depends only on the stdlib, so
    this cannot cycle back into the engine; when sanitizing is off the
    import is skipped entirely and construction stays allocation-free.
    """
    import os

    if not os.environ.get("REPRO_SANITIZE"):
        return None
    from ..analysis.sanitizer import current

    return current()


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Priorities ensure deterministic ordering of simultaneous events.
URGENT = 0
NORMAL = 1

#: Free-list ceiling: enough to cover the relay burst of a deep process
#: tree without pinning unbounded memory on pathological workloads.
_POOL_LIMIT = 128


class Event:
    """A condition that may happen at some point in simulated time.

    Events start *pending*; once :meth:`succeed` or :meth:`fail` is called
    they become *triggered* and are scheduled for processing, after which all
    registered callbacks run and the event is *processed*.

    Lifecycle states (see DESIGN.md "Event engine internals"):
    pending (``_ok is None``, callbacks is a list) → triggered (``_ok``
    set; for a :class:`Timeout`, only once its delay elapsed) →
    processed (callbacks is ``None``; value/exception delivered).
    """

    __slots__ = (
        "env",
        "callbacks",
        "_value",
        "_ok",
        "_scheduled",
        "_abandoned",
        "_defused",
        "_recycle",
        "_origin",
        "_time",
        "_prio",
        "_seq",
    )

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._scheduled = False
        # Creation-site stamp for the stuck-at-drain ledger: written only
        # while sanitizing, so the detached cost is one branch.  The
        # ``_origin`` slot stays unset otherwise (readers getattr it).
        if env.sanitizer is not None:
            env.sanitizer.on_event_created(self)
        #: Set when the only waiter was interrupted away; resources skip
        #: abandoned waiters rather than handing them items/grants.
        self._abandoned = False
        #: A failure whose exception was delivered somewhere (thrown into
        #: a process, or deliberately discarded) must not also escape
        #: ``step()``.
        self._defused = False
        #: Internal one-shot relays return to the environment free list
        #: right after dispatch; never set on user-visible events.
        self._recycle = False

    @property
    def triggered(self) -> bool:
        return self._ok is not None

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._value

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        env = self.env
        if self._scheduled or env.sanitizer is not None:
            env._schedule(self, 0.0, priority)
            return self
        # ``_schedule`` for a zero delay, flat: straight to a lane.
        self._scheduled = True
        self._time = env.now
        self._prio = priority
        self._seq = seq = next(env._seq)
        if priority == URGENT:
            env._urgent.append(self)
        else:
            env._normal.append(self)
        pending = seq + 1 - env.events_processed
        if pending > env.queue_high_water:
            env.queue_high_water = pending
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() needs an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self, 0.0, priority)
        return self

    def _abandon(self) -> None:
        """The only waiter was interrupted away (see ``_abandoned``)."""
        self._abandoned = True

    def defuse(self) -> "Event":
        """Declare this event's failure handled out-of-band.

        A failed event whose exception was delivered somewhere else (a
        typed error handed to every waiter during recovery, an interrupt
        thrown into an abandoned verb) must not *also* escape
        :meth:`Environment.step` as an unhandled simulation failure.
        Call this before or after :meth:`fail`/:meth:`Process.interrupt`;
        it is idempotent and safe on events that end up succeeding.
        Returns the event so ``event.defuse().fail(exc)`` chains.
        """
        self._defused = True
        return self

    # Generator protocol so a bare event can be awaited from process code
    # via ``value = yield event``.


class Timeout(Event):
    """An event that triggers after a fixed delay.

    A timeout is scheduled at construction but — unlike the historical
    behaviour of presetting ``_ok`` — it does not report ``triggered``
    until its delay actually elapsed: the engine flips it to triggered
    at dispatch time (the ``_ok is None`` branch in the dispatch loop).
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"delay must be >= 0, got {delay!r}")
        # Flat: the slots ``Event.__init__`` writes, then the push
        # ``_schedule`` makes.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = None
        self._abandoned = False
        self._defused = False
        self._recycle = False
        self.delay = delay
        if env.sanitizer is not None:
            self._scheduled = False
            env.sanitizer.on_event_created(self)
            env._schedule(self, delay, NORMAL)
            return
        self._scheduled = True
        now = env.now
        self._time = when = now + delay
        self._prio = NORMAL
        self._seq = seq = next(env._seq)
        if when == now:
            env._normal.append(self)
        else:
            heappush(env._queue, (when, NORMAL, seq, self))
        pending = seq + 1 - env.events_processed
        if pending > env.queue_high_water:
            env.queue_high_water = pending

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        raise SimulationError("a Timeout triggers by itself when its delay elapses")

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        raise SimulationError("a Timeout triggers by itself when its delay elapses")


class Process(Event):
    """Wraps a generator; the process event triggers when it returns.

    The generator yields :class:`Event` instances.  When a yielded event is
    processed the generator is resumed with the event's value (or the event's
    exception is thrown into it).
    """

    __slots__ = ("_generator", "name", "_target")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise SimulationError("Process() needs a generator")
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        if env.sanitizer is not None:
            env.sanitizer.on_process_created(self)
        # Kick off on the next event-loop iteration (pooled relay).
        env._relay(True, None, self._resume, URGENT)

    @property
    def is_alive(self) -> bool:
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            return
        self.env._relay(
            False, Interrupt(cause), self._resume, URGENT, defused=True
        )

    def _resume(self, event: Event) -> None:
        if self._ok is not None:
            return  # finished while this wakeup was in flight
        # Detach from the event we were waiting for (interrupt case) and
        # mark it abandoned so queue-like resources (Store, Resource,
        # Container) skip it instead of delivering into a dead process.
        waited = self._target
        if waited is not None and waited is not event:
            if waited.callbacks is not None:
                try:
                    waited.callbacks.remove(self._resume)
                except ValueError:
                    pass
                if not waited.callbacks:
                    waited._abandon()
        self._target = None
        generator = self._generator
        ok, value = event._ok, event._value
        if not ok:
            event._defused = True
        while True:
            try:
                if ok:
                    target = generator.send(value)
                else:
                    target = generator.throw(value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self.fail(exc)
                return
            if isinstance(target, Event):
                break
            # Not an event: tell the generator, and treat whatever it
            # does next (yield again, return, let it propagate) like any
            # other resume.
            ok = False
            value = SimulationError(f"process yielded non-event {target!r}")
        if target.env is not self.env:
            raise SimulationError("event belongs to a different environment")
        self._target = target
        callbacks = target.callbacks
        if callbacks is None:
            # Already processed: resume immediately (next loop iteration).
            self.env._relay(target._ok, target._value, self._resume, URGENT)
        else:
            callbacks.append(self._resume)


class _Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("_events", "_done")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._done = 0
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect(self):
        # Only processed-and-ok children contribute results (a failed
        # child's exception travels via fail(), not the result dict).
        return {
            i: e._value
            for i, e in enumerate(self._events)
            if e.callbacks is None and e._ok
        }

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers once every child event has triggered successfully."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._ok is not None:
            return
        if event._ok is False:
            self.fail(event._value)
            return
        self._done += 1
        if self._done == len(self._events):
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Triggers as soon as any child event triggers successfully."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._ok is not None:
            return
        if event._ok is False:
            self.fail(event._value)
            return
        self.succeed(self._collect())


_INF = float("inf")


class Environment:
    """The event loop: events dispatch in ``(time, priority, seq)`` order.

    Pending events live in three containers, each already sorted by that
    key: two FIFO lanes for events due at ``now`` (URGENT, NORMAL) and a
    heap for everything else.  ``pending``, ``scheduled()`` and
    ``peek_event()`` are the only supported views of "what is
    scheduled"; nothing outside this module indexes the containers.
    """

    def __init__(self, initial_time: float = 0.0):
        self.now = float(initial_time)
        #: Events whose time differs from ``now`` (future timeouts), as
        #: ``(time, priority, seq, event)`` heap entries.
        self._queue: List[Tuple[float, int, int, Event]] = []
        #: Zero-delay lanes.  Invariant: every entry's ``_time`` equals
        #: ``now``, so URGENT entries precede NORMAL ones and, ``seq``
        #: being monotone, each lane is in key order.
        self._urgent: Deque[Event] = deque()
        self._normal: Deque[Event] = deque()
        self._seq = itertools.count()
        self._active = True
        #: Free list of recyclable internal relay events (see Event).
        self._relay_pool: List[Event] = []
        #: Telemetry: events dispatched and most events pending at once.
        #: Plain ints so the hot loop pays one increment / one compare.
        self.events_processed = 0
        self.queue_high_water = 0
        #: Optional :class:`repro.telemetry.SimProfiler`; when attached it
        #: runs the callback loop under a per-component stopwatch.
        self.profiler = None
        #: Optional :class:`repro.analysis.SimSanitizer`.  Auto-attached
        #: process-wide under ``REPRO_SANITIZE=1``; observes only (never
        #: perturbs event order), and costs one ``is None`` branch per
        #: event when detached — same pattern as ``profiler``.
        self.sanitizer = _default_sanitizer()

    # -- scheduling ------------------------------------------------------

    def _schedule(self, event: Event, delay: float, priority: int) -> None:
        """Key ``event`` and put it in its container.  ``Event.succeed``,
        ``Timeout``, ``timeout``, ``timeout_at``, ``sleep`` and ``_relay``
        carry flat copies of this body for the no-sanitizer case
        (``timeout_at`` always: its key time is given, not ``now +
        delay``), as does ``_succeeded``; change them together."""
        if event._scheduled:
            return
        if self.sanitizer is not None:
            self.sanitizer.on_schedule(self, delay)
        event._scheduled = True
        now = self.now
        event._time = when = now + delay
        event._prio = priority
        event._seq = seq = next(self._seq)
        if when == now:
            if priority == URGENT:
                self._urgent.append(event)
            else:
                self._normal.append(event)
        else:
            heappush(self._queue, (when, priority, seq, event))
        # Every scheduled event is dispatched exactly once, so the
        # number pending is (scheduled so far) - (dispatched so far).
        pending = seq + 1 - self.events_processed
        if pending > self.queue_high_water:
            self.queue_high_water = pending

    def _relay(
        self,
        ok: bool,
        value: Any,
        callback: Callable[["Event"], None],
        priority: int = URGENT,
        defused: bool = False,
    ) -> Event:
        """Schedule a pooled one-shot internal event at the current time.

        The event is pre-triggered with ``(ok, value)``, carries exactly
        one callback, and returns to the free list right after dispatch —
        callers must never hand it to user code or keep a reference past
        the callback.
        """
        pool = self._relay_pool
        event = pool.pop() if pool else Event(self)
        event._ok = ok
        event._value = value
        event._defused = defused
        event._recycle = True
        event.callbacks.append(callback)
        if self.sanitizer is not None:
            self._schedule(event, 0.0, priority)
            return event
        event._scheduled = True
        event._time = self.now
        event._prio = priority
        event._seq = seq = next(self._seq)
        if priority == URGENT:
            self._urgent.append(event)
        else:
            self._normal.append(event)
        pending = seq + 1 - self.events_processed
        if pending > self.queue_high_water:
            self.queue_high_water = pending
        return event

    def _succeeded(self, value: Any = None) -> Event:
        """``Event(self).succeed(value)``, flat: a new event, already
        triggered, in the NORMAL lane.  The immediate outcome of a
        ``Store``/``Container`` put or get that did not have to wait."""
        if self.sanitizer is not None:
            return Event(self).succeed(value)
        event = Event.__new__(Event)
        event.env = self
        event.callbacks = []
        event._value = value
        event._ok = True
        event._abandoned = False
        event._defused = False
        event._recycle = False
        event._scheduled = True
        event._time = self.now
        event._prio = NORMAL
        event._seq = seq = next(self._seq)
        self._normal.append(event)
        pending = seq + 1 - self.events_processed
        if pending > self.queue_high_water:
            self.queue_high_water = pending
        return event

    def _behind(self, event: Event) -> Optional[Event]:
        """For a process that waits on ``event`` in place of an event
        triggered right after it (``AxiStream.hand_over``: a put that hands
        its flit to a waiting receiver makes no event of its own, and the
        sender goes on behind the receiver's wake).  Call it on resuming,
        as ``event``'s last callback.  The dispatcher would take that
        event next, so None: go on now.  Unless ``event``'s callbacks
        made URGENT events, which run first: then the event is made,
        triggered, at the head of the NORMAL lane and keyed at
        ``event``'s place, where it would sit; wait on it."""
        if not self._urgent:
            return None
        follower = Event(self)
        follower._ok = True
        follower._scheduled = True
        follower._time = self.now
        follower._prio = NORMAL
        # A number is drawn all the same, so the pending count (drawn
        # minus dispatched) stays true.
        next(self._seq)
        follower._seq = event._seq
        self._normal.appendleft(follower)
        return follower

    # -- what is scheduled -------------------------------------------------

    @property
    def pending(self) -> int:
        """How many events are scheduled and not yet dispatched."""
        return len(self._urgent) + len(self._normal) + len(self._queue)

    def scheduled(self) -> Iterator[Event]:
        """Every pending event, lanes and heap, in no particular order."""
        return itertools.chain(
            self._urgent, self._normal, (entry[3] for entry in self._queue)
        )

    def peek_event(self) -> Optional[Event]:
        """The event the next :meth:`step` dispatches, or ``None``."""
        lane = self._urgent or self._normal
        queue = self._queue
        if not lane:
            return queue[0][3] if queue else None
        head = lane[0]
        if queue and queue[0] < (head._time, head._prio, head._seq):
            return queue[0][3]
        return head

    @property
    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        event = self.peek_event()
        return event._time if event is not None else _INF

    # -- public factory helpers -----------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        if self.sanitizer is not None or not delay >= 0:
            return Timeout(self, delay, value)
        # Flat, like ``Timeout.__init__``: one frame fewer per timer.
        event = Timeout.__new__(Timeout)
        event.env = self
        event.callbacks = []
        event._value = value
        event._ok = None
        event._abandoned = False
        event._defused = False
        event._recycle = False
        event.delay = delay
        event._scheduled = True
        now = self.now
        event._time = when = now + delay
        event._prio = NORMAL
        event._seq = seq = next(self._seq)
        if when == now:
            self._normal.append(event)
        else:
            heappush(self._queue, (when, NORMAL, seq, event))
        pending = seq + 1 - self.events_processed
        if pending > self.queue_high_water:
            self.queue_high_water = pending
        return event

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """A :class:`Timeout` due at the absolute time ``when``, keyed
        with exactly that float.

        For a caller that already knows its finish time (a booked slot
        on a :class:`repro.sim.rate.FifoServer`): ``timeout(when - now)``
        would land on ``now + (when - now)``, which is an ulp off
        ``when`` often enough to break bit-identical simulated times.
        """
        now = self.now
        if not when >= now:  # also rejects NaN
            raise SimulationError(f"when must be >= now ({now!r}), got {when!r}")
        # Flat, like ``Timeout.__init__``: the slots it writes, then the
        # push ``_schedule`` makes, with ``when`` as the key time.
        event = Timeout.__new__(Timeout)
        event.env = self
        event.callbacks = []
        event._value = value
        event._ok = None
        event._abandoned = False
        event._defused = False
        event._recycle = False
        event.delay = when - now
        sanitizer = self.sanitizer
        if sanitizer is not None:
            sanitizer.on_event_created(event)
            sanitizer.on_schedule(self, event.delay)
        event._scheduled = True
        event._time = when
        event._prio = NORMAL
        event._seq = seq = next(self._seq)
        if when == now:
            self._normal.append(event)
        else:
            heappush(self._queue, (when, NORMAL, seq, event))
        pending = seq + 1 - self.events_processed
        if pending > self.queue_high_water:
            self.queue_high_water = pending
        return event

    def sleep(
        self, delay: float, callback: Optional[Callable[[Event], None]] = None,
        value: Any = None,
    ) -> Event:
        """A pooled, recyclable delay for the plain ``yield env.sleep(d)``
        idiom in hot loops (movers, packetizer feeds, retransmit timers).

        Contract: the caller must yield it immediately from exactly one
        process and must not store it, compose it into ``AllOf``/``AnyOf``
        or read it after resuming — the event is recycled the moment its
        dispatch completes.  Use :meth:`timeout` anywhere those rules
        cannot be guaranteed.

        With ``callback``, nobody yields it: it is ``timeout(delay,
        value)`` with ``callback`` appended, pooled — a delayed call that
        nothing waits on.  ``callback`` reads ``event.value`` and must
        not keep the event.
        """
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"delay must be >= 0, got {delay!r}")
        pool = self._relay_pool
        event = pool.pop() if pool else Event(self)
        event._recycle = True
        if callback is not None:
            event._value = value
            event.callbacks.append(callback)
        # _ok stays None: like a Timeout, it triggers at dispatch.
        if self.sanitizer is not None:
            self._schedule(event, delay, NORMAL)
            return event
        # ``_schedule``, flat.
        event._scheduled = True
        now = self.now
        event._time = when = now + delay
        event._prio = NORMAL
        event._seq = seq = next(self._seq)
        if when == now:
            self._normal.append(event)
        else:
            heappush(self._queue, (when, NORMAL, seq, event))
        pending = seq + 1 - self.events_processed
        if pending > self.queue_high_water:
            self.queue_high_water = pending
        return event

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- execution -------------------------------------------------------

    def _dispatch(
        self, budget: int, sentinel: Optional[Event], horizon: float
    ) -> int:
        """The one dispatch loop; returns the number of events processed.

        Runs until ``budget`` events were dispatched (negative: no
        limit), ``sentinel`` was dispatched, the next event lies beyond
        ``horizon``, or nothing is pending.  Each turn takes the least
        ``(time, priority, seq)`` among the lane heads and the heap top.
        """
        urgent = self._urgent
        normal = self._normal
        queue = self._queue
        pool = self._relay_pool
        processed = 0
        while processed != budget:
            lane = urgent or normal
            if lane:
                event = lane.popleft()
                when = event._time
                # The heap top precedes a lane head only when it fell due
                # at this very instant with an older key (or was forced
                # into the past by a negative ``_schedule`` delay).
                if (
                    queue
                    and queue[0][0] <= when
                    and queue[0] < (when, event._prio, event._seq)
                ):
                    lane.appendleft(event)
                    when, _, _, event = heappop(queue)
            elif queue:
                when = queue[0][0]
                if when > horizon:
                    break
                event = heappop(queue)[3]
            else:
                break
            sanitizer = self.sanitizer
            if sanitizer is not None:
                sanitizer.on_step(self, when)
            now = self.now
            if when != now:
                if when < now:
                    self._spill_lanes()
                self.now = when
            # Kept per-event (not batched at the end) so callbacks that
            # read the counter mid-drain — card_report from inside a
            # process, watchdog fingerprints — never see a stale value.
            self.events_processed += 1
            processed += 1
            if event._ok is None:
                event._ok = True  # a Timeout/sleep triggers as it dispatches
            callbacks, event.callbacks = event.callbacks, None
            profiler = self.profiler
            if profiler is not None:
                profiler.run_callbacks(event, callbacks)
            else:
                for callback in callbacks:
                    callback(event)
            if event._ok is False and not event._defused:
                # An unhandled failure propagates out of the simulation.
                raise event._value
            if event._recycle:
                # Reset the dispatched relay and return it to the free list,
                # with its emptied callback list (nothing else holds it).
                callbacks.clear()
                event.callbacks = callbacks
                event._value = None
                event._ok = None
                event._scheduled = False
                event._abandoned = False
                event._defused = False
                event._recycle = False
                if len(pool) < _POOL_LIMIT:
                    pool.append(event)
            if event is sentinel:
                break
        return processed

    def _spill_lanes(self) -> None:
        """Move the lane entries to the heap: the clock is being forced
        backwards (a negative ``_schedule`` delay, which the sanitizer
        reports), so they are no longer due "now" and events scheduled
        at the earlier time must be able to overtake them."""
        for lane in (self._urgent, self._normal):
            while lane:
                event = lane.popleft()
                heappush(
                    self._queue, (event._time, event._prio, event._seq, event)
                )

    def step(self) -> None:
        """Process the next scheduled event."""
        if not self._dispatch(1, None, _INF):
            raise SimulationError("no more events")

    def run_batch(self, max_events: Optional[int] = None) -> int:
        """Drain up to ``max_events`` events (all, when ``None``).

        Returns the number of events processed.  Step-for-step identical
        to calling :meth:`step` in a loop (the conformance suite pins
        this).
        """
        return self._dispatch(-1 if max_events is None else max_events, None, _INF)

    def run(self, until: Optional[Any] = None) -> Any:
        """Run until the given time, event, or queue exhaustion.

        ``until`` may be ``None`` (drain all events), a number (absolute
        simulated time), or an :class:`Event` (run until it is processed and
        return its value).
        """
        if until is None:
            self._dispatch(-1, None, _INF)
            return None
        if isinstance(until, Event):
            sentinel = until
            if sentinel.callbacks is not None:
                self._dispatch(-1, sentinel, _INF)
                if sentinel.callbacks is not None:
                    raise SimulationError(
                        "simulation ran out of events before the awaited "
                        f"event triggered ({sentinel!r}); likely deadlock"
                    )
            if sentinel._ok is False:
                raise sentinel._value
            return sentinel._value
        horizon = float(until)
        if horizon < self.now:
            raise SimulationError("cannot run into the past")
        self._dispatch(-1, None, horizon)
        self.now = horizon
        return None
