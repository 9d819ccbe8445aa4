"""Round-robin interleaving over bandwidth-constrained links (paper §6.3).

"Interleaving distributes limited bandwidth links using round-robin
arbitration, guaranteeing equal resource allocation while preserving
in-order packet handling.  However, interleaving is unnecessary for FPGA
HBM requests, as the significantly higher local bandwidth allows each
vFPGA to utilize dedicated interfaces efficiently."

The PCIe and network data movers each own one
:class:`RoundRobinArbiter`; every vFPGA gets a bounded input port and the
arbiter hands the mover one packet per grant, cycling fairly across ports
that have work.

Both sides are an event plus a plain call, not a generator: a producer
yields :meth:`ArbiterPort.slot`, then enqueues its item with
:meth:`ArbiterPort.put`; a consumer yields :meth:`RoundRobinArbiter.token`,
then takes the item with :meth:`RoundRobinArbiter.get`.  A packet's hop
through the interleaver costs its two waits and no generator frame.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List

from ..sim.engine import Environment, Event
from ..sim.resources import Container, Store

__all__ = ["RoundRobinArbiter", "ArbiterPort"]


class ArbiterPort:
    """A bounded FIFO input into the arbiter."""

    def __init__(self, arbiter: "RoundRobinArbiter", index: int, depth: int):
        self.arbiter = arbiter
        self.index = index
        self.depth = depth
        self.queue: Deque[Any] = deque()
        self._slots = Container(arbiter.env, capacity=depth, init=depth)
        self._tokens = arbiter._tokens
        self.items_in = 0

    def slot(self) -> Event:
        """The event that fires once the port has room for one more
        item: yield it, then :meth:`put` the item."""
        return self._slots.get(1)

    def put(self, item: Any) -> None:
        """Enqueue one item into the room a yielded :meth:`slot` made."""
        self.queue.append(item)
        self.items_in += 1
        self._tokens.put(object())

    def _pop(self) -> Any:
        item = self.queue.popleft()
        self._slots.put(1)
        return item

    def __len__(self) -> int:
        return len(self.queue)


class RoundRobinArbiter:
    """Fair, work-conserving round-robin over any number of input ports."""

    def __init__(self, env: Environment, name: str = "rr-arb", port_depth: int = 2):
        self.env = env
        self.name = name
        self.port_depth = port_depth
        self.ports: List[ArbiterPort] = []
        self._tokens = Store(env)  # one token per enqueued item
        self._next = 0
        self.grants = 0

    def add_port(self) -> ArbiterPort:
        port = ArbiterPort(self, index=len(self.ports), depth=self.port_depth)
        self.ports.append(port)
        return port

    def token(self) -> Event:
        """The event that fires once some port holds an item: yield it,
        then take the item with :meth:`get`."""
        return self._tokens.get()

    def get(self) -> Any:
        """The next item, round-robin across non-empty ports; one call
        per yielded :meth:`token`."""
        nports = len(self.ports)
        for step in range(nports):
            port = self.ports[(self._next + step) % nports]
            if port.queue:
                self._next = (self._next + step + 1) % nports
                self.grants += 1
                return port._pop()
        raise RuntimeError(f"{self.name}: token with no queued item")
