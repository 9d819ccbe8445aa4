"""PCIe link bandwidth model.

The evaluated platform attaches the Alveo U55C over PCIe Gen3 x16.  The
paper reports ~12 GB/s of achievable host-memory bandwidth through the XDMA
core (§9.4), which is what the multi-tenant AES experiment saturates and
fairly shares.  The link is full duplex: host-to-card (H2C) and
card-to-host (C2H) directions are independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from ..faults.plan import PCIE_REPLAY
from ..sim.engine import Environment
from ..sim.rate import FifoServer

__all__ = ["PcieLinkConfig", "PcieLink"]


@dataclass(frozen=True)
class PcieLinkConfig:
    """Link speeds and per-descriptor overheads."""

    h2c_bandwidth: float = 12.0  # bytes/ns == GB/s (paper §9.4)
    c2h_bandwidth: float = 12.0
    descriptor_overhead_ns: float = 350.0  # DMA descriptor fetch + setup
    mmio_latency_ns: float = 900.0
    #: Data-link-layer replay penalty: a TLP that fails its LCRC is
    #: retransmitted from the replay buffer (ACK timeout + resend).
    replay_latency_ns: float = 1_000.0


class PcieLink:
    """Serialises DMA transfers per direction at the configured bandwidth.

    Transfers are admitted FIFO per direction; fairness between tenants is
    achieved above this layer by the shell's packetizer and round-robin
    interleaver, which keep individual occupancies to one packet.
    """

    def __init__(self, env: Environment, config: PcieLinkConfig = PcieLinkConfig()):
        self.env = env
        self.config = config
        self._directions = {"h2c": FifoServer(env), "c2h": FifoServer(env)}
        self._in_flight = {"h2c": 0, "c2h": 0}
        self.h2c_bytes = 0
        self.c2h_bytes = 0
        self.h2c_transfers = 0
        self.c2h_transfers = 0
        #: Deepest occupancy seen per direction (holder + queued DMA
        #: descriptors) — the link-level analogue of credit telemetry.
        self.in_flight_high_water = {"h2c": 0, "c2h": 0}
        #: Armed :class:`repro.faults.FaultInjector`, or ``None``.
        self.faults = None
        self.replays = 0

    def in_flight(self, direction: str) -> int:
        """Transfers currently holding or queued for one direction."""
        return self._in_flight[direction]

    def book(self, direction: str, nbytes: int, overhead: bool = True) -> float:
        """Book one transfer of ``nbytes`` on ``direction`` (``"h2c"`` or
        ``"c2h"``) now, behind every transfer booked before it; returns
        when it finishes.  It counts in flight until :meth:`land`."""
        config = self.config
        if direction == "h2c":
            duration = nbytes / config.h2c_bandwidth
        else:
            duration = nbytes / config.c2h_bandwidth
        if overhead:
            duration += config.descriptor_overhead_ns
        faults = self.faults
        if faults is not None and faults.fires(PCIE_REPLAY, direction):
            # A TLP failed its LCRC and is replayed: extra latency, but
            # the transfer still delivers intact data.
            self.replays += 1
            duration += config.replay_latency_ns
        finish = self._directions[direction].book(duration)
        self._in_flight[direction] = depth = self._in_flight[direction] + 1
        if depth > self.in_flight_high_water[direction]:
            self.in_flight_high_water[direction] = depth
        return finish

    def land(self, direction: str, nbytes: int) -> None:
        """A booked transfer finished: it leaves the in-flight count and
        its bytes are counted."""
        self._in_flight[direction] -= 1
        if direction == "h2c":
            self.h2c_bytes += nbytes
            self.h2c_transfers += 1
        else:
            self.c2h_bytes += nbytes
            self.c2h_transfers += 1

    def _transfer(self, direction: str, nbytes: int, overhead: bool) -> Generator:
        finish = self.book(direction, nbytes, overhead)
        try:
            yield self.env.timeout_at(finish)
        except BaseException:
            # An interrupted waiter leaves the count at once and moves
            # nothing; its booked slot on the link stays (the TLPs were
            # already issued).
            self._in_flight[direction] -= 1
            raise
        self.land(direction, nbytes)

    def h2c(self, nbytes: int, overhead: bool = True) -> Generator:
        """Move ``nbytes`` from host memory to the card: the transfer's
        generator, handed back rather than wrapped
        (``yield from link.h2c(n)``)."""
        return self._transfer("h2c", nbytes, overhead)

    def c2h(self, nbytes: int, overhead: bool = True) -> Generator:
        """Move ``nbytes`` from the card to host memory, as :meth:`h2c`."""
        return self._transfer("c2h", nbytes, overhead)
