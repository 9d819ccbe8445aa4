"""Shared-resource primitives built on the event engine.

These model the contended hardware resources in the shell: link ports,
queue slots, memory-channel grants, credit pools.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .engine import Environment, Event, SimulationError

__all__ = ["Resource", "Store", "Container"]


class _Request(Event):
    """Pending acquisition of a resource slot; usable as a context token."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        # Flat: the slots ``Event.__init__`` writes (one per packet on
        # every bus, link and translation station).
        self.env = env = resource.env
        self.callbacks = []
        self._value = None
        self._ok = None
        self._scheduled = False
        if env.sanitizer is not None:
            env.sanitizer.on_event_created(self)
        self._abandoned = False
        self._defused = False
        self._recycle = False
        self.resource = resource

    def _abandon(self) -> None:
        self._abandoned = True
        if self._ok is not None:
            # Granted, but the interrupt overtook the grant's dispatch:
            # the requester never saw it and will never release it.
            self.resource.release(self)


class Resource:
    """A counted resource with FIFO queuing (e.g. a bus grant)."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.users: list = []
        self._waiting: Deque[_Request] = deque()

    @property
    def count(self) -> int:
        return len(self.users)

    def request(self) -> _Request:
        req = _Request(self)
        if len(self.users) < self.capacity:
            self.users.append(req)
            req.succeed(req)
        else:
            self._waiting.append(req)
        return req

    def take(self) -> Optional[_Request]:
        """:meth:`request` with no event, for a requester that goes on
        the moment its grant is dispatched, when that grant would be the
        next event dispatched anyway: a slot is free, nobody waits, and
        nothing else is due at this instant (both lanes empty, the
        heap's top later than now).  Then the holder is recorded and its
        request returned, granted and processed; otherwise None, doing
        nothing — :meth:`request` it.  Release it as any grant."""
        env = self.env
        if len(self.users) >= self.capacity or self._waiting or env._urgent or env._normal:
            return None
        queue = env._queue
        if queue and queue[0][0] <= env.now:
            return None
        req = _Request(self)
        req._ok = True
        req._value = req
        req.callbacks = None
        self.users.append(req)
        return req

    def release(self, req: _Request) -> None:
        try:
            self.users.remove(req)
        except ValueError:
            raise SimulationError("releasing a request that does not hold the resource")
        while self._waiting and len(self.users) < self.capacity:
            nxt = self._waiting.popleft()
            if nxt._abandoned:
                continue  # requester was interrupted while queued
            self.users.append(nxt)
            nxt.succeed(nxt)


class Store:
    """A FIFO buffer of Python objects with optional bounded capacity.

    ``put`` blocks when full; ``get`` blocks when empty.  This is the
    channel primitive under every AXI stream and descriptor queue.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def free(self) -> float:
        return self.capacity - len(self.items)

    def _next_getter(self) -> Optional[Event]:
        while self._getters:
            getter = self._getters.popleft()
            if not getter._abandoned:
                return getter
        return None

    def _next_putter(self) -> Optional[tuple]:
        while self._putters:
            entry = self._putters.popleft()
            if not entry[0]._abandoned:
                return entry
        return None

    def put(self, item: Any) -> Event:
        getter = self._next_getter() if self._getters else None
        if getter is not None:
            # Hand the item straight to the oldest waiting getter.
            getter.succeed(item)
            return self.env._succeeded()
        if len(self.items) < self.capacity:
            self.items.append(item)
            return self.env._succeeded()
        event = Event(self.env)
        self._putters.append((event, item))
        return event

    def put_nowait(self, item: Any) -> None:
        """:meth:`put` for a producer that never waits on it — one whose
        credit guarantees room, or one feeding an unbounded store — with
        no event of its own.  Should the store be full after all, the
        item queues as a blocked put would."""
        if self.hand_off(item) is not None:
            return
        if len(self.items) < self.capacity:
            self.items.append(item)
        else:
            self._putters.append((Event(self.env), item))

    def hand_off(self, item: Any) -> Optional[Event]:
        """Give ``item`` to the oldest waiting getter, as :meth:`put`
        would, and return that getter's wake; None, doing nothing, when
        no getter waits."""
        getter = self._next_getter() if self._getters else None
        if getter is not None:
            getter.succeed(item)
        return getter

    def get(self) -> Event:
        if self.items:
            event = self.env._succeeded(self.items.popleft())
            # A slot freed up: admit a blocked putter, if any.
            entry = self._next_putter() if self._putters else None
            if entry is not None:
                put_event, item = entry
                self.items.append(item)
                put_event.succeed()
            return event
        entry = self._next_putter() if self._putters else None
        if entry is not None:
            put_event, item = entry
            put_event.succeed()
            return self.env._succeeded(item)
        event = Event(self.env)
        self._getters.append(event)
        return event

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; returns None when empty."""
        if not self.items:
            return None
        item = self.items.popleft()
        entry = self._next_putter()
        if entry is not None:
            put_event, pending = entry
            self.items.append(pending)
            put_event.succeed()
        return item

    def clear(self) -> int:
        """Drop every buffered item and unblock every waiting putter.

        Models a hardware FIFO reset: the contents (including items that
        blocked putters were still trying to push) are gone, but the
        producers themselves proceed as if their write landed.  Returns
        the number of items discarded.
        """
        dropped = len(self.items)
        self.items.clear()
        while True:
            entry = self._next_putter()
            if entry is None:
                break
            put_event, _item = entry
            put_event.succeed()
            dropped += 1
        return dropped


class Container:
    """A continuous quantity (e.g. a credit pool measured in bytes)."""

    def __init__(self, env: Environment, capacity: float, init: float = 0.0):
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise SimulationError("init outside [0, capacity]")
        self.env = env
        self.capacity = capacity
        self.level = float(init)
        self._getters: Deque[tuple] = deque()
        self._putters: Deque[tuple] = deque()

    def put(self, amount: float) -> Event:
        if amount <= 0:
            raise SimulationError("put amount must be positive")
        queued = self._putters or self._getters
        if not queued and self.level + amount <= self.capacity:
            # Nobody queued: the outcome _settle() would reach, directly.
            self.level += amount
            return self.env._succeeded()
        event = Event(self.env)
        self._putters.append((event, amount))
        if queued:
            self._settle()
        return event

    def put_nowait(self, amount: float) -> None:
        """:meth:`put` for a producer that never waits on it — one that
        returns what it took, so the level cannot pass the capacity —
        with no event of its own: the amount is added and the waiting
        getters it covers are served, in the order :meth:`put` would
        serve them.  With a putter queued or no room after all, it is a
        :meth:`put`."""
        if amount <= 0 or self._putters or self.level + amount > self.capacity:
            self.put(amount)
            return
        self.level += amount
        if self._getters:
            self._settle()

    def get(self, amount: float) -> Event:
        if amount <= 0:
            raise SimulationError("get amount must be positive")
        if amount > self.capacity:
            raise SimulationError("get amount exceeds capacity")
        queued = self._putters or self._getters
        if not queued and self.level >= amount:
            self.level -= amount
            return self.env._succeeded()
        event = Event(self.env)
        self._getters.append((event, amount))
        if queued:
            self._settle()
        return event

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._putters and self._putters[0][0]._abandoned:
                self._putters.popleft()
                progressed = True
            if self._putters:
                event, amount = self._putters[0]
                if self.level + amount <= self.capacity:
                    self._putters.popleft()
                    self.level += amount
                    event.succeed()
                    progressed = True
            while self._getters and self._getters[0][0]._abandoned:
                self._getters.popleft()
                progressed = True
            if self._getters:
                event, amount = self._getters[0]
                if self.level >= amount:
                    self._getters.popleft()
                    self.level -= amount
                    event.succeed()
                    progressed = True
