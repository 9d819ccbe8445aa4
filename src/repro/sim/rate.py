"""Virtual-time FIFO servers: one event per use of a fixed-service station.

A station whose service time is known when work arrives (a link
direction, a memory channel, a translation pipeline, a pipeline issuing
one block per cycle) needs no queue: each use *books* its slot on a
clock of free times that never runs ahead of demand, and the caller
sleeps once, until the finish time the booking returned.  FIFO order;
work-conserving.
"""

from __future__ import annotations

from heapq import heapreplace

from .engine import Environment

__all__ = ["FifoServer"]


class FifoServer:
    """``servers`` identical stations behind one FIFO queue.

    ``book(duration)`` takes the station that frees up first and returns
    the absolute time the work finishes: ``max(now, free) + duration`` —
    the float a ``Resource`` grant followed by ``Timeout(duration)``
    lands on.  Wait for it with ``env.timeout_at(finish)``, never
    ``timeout(finish - now)``.  A booking is not recalled when its
    waiter is interrupted: the slot was already issued.
    """

    __slots__ = ("env", "_free")

    def __init__(self, env: Environment, servers: int = 1):
        if servers < 1:
            raise ValueError("servers must be >= 1")
        self.env = env
        #: When each station next falls idle; a heap (least first).
        self._free = [0.0] * servers

    def book(self, duration: float) -> float:
        free = self._free
        now = self.env.now
        start = free[0]
        if start < now:
            start = now
        finish = start + duration
        heapreplace(free, finish)
        return finish

    @property
    def free_at(self) -> float:
        """When a station next falls idle (in the past: one is idle now)."""
        return self._free[0]

