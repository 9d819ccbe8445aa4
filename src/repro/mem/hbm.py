"""Card-memory (HBM/DDR) controller model with striping.

Models the Alveo U55C's HBM2: 16 GB behind 32 pseudo-channels clocked at
450 MHz with 256-bit AXI ports (14.4 GB/s nominal per channel).  The
dynamic layer stripes buffers across channels (paper §6.1) so a single
vFPGA can aggregate bandwidth; all card accesses are translated by the MMU
whose shared translation pipeline is what tapers the scaling curve in
Figure 7(a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..faults.plan import HBM_ECC_DOUBLE, HBM_ECC_SINGLE
from ..sim.clock import HBM_CLOCK, Clock
from ..sim.engine import Environment, Timeout
from ..sim.rate import FifoServer
from .sparse import SparseMemory

__all__ = ["HbmConfig", "HbmController"]


@dataclass(frozen=True)
class HbmConfig:
    """Geometry and speeds of the card memory."""

    num_channels: int = 32
    channel_bytes: int = 512 * 1024 * 1024  # 16 GB / 32 channels
    port_width_bytes: int = 32  # 256-bit AXI port per channel
    clock: Clock = HBM_CLOCK
    access_latency_ns: float = 120.0  # closed-page HBM access
    stripe_bytes: int = 4096

    def __post_init__(self) -> None:
        if self.num_channels <= 0:
            raise ValueError("num_channels must be positive")
        if self.stripe_bytes <= 0 or self.stripe_bytes & (self.stripe_bytes - 1):
            raise ValueError("stripe_bytes must be a positive power of two")

    @property
    def total_bytes(self) -> int:
        return self.num_channels * self.channel_bytes

    @property
    def channel_bandwidth(self) -> float:
        """Nominal per-channel bandwidth in bytes/ns (== GB/s)."""
        return self.clock.bytes_per_ns(self.port_width_bytes)


class HbmController:
    """Timed, functional multi-channel card memory.

    Physical addresses are striped: consecutive ``stripe_bytes`` blocks map
    to consecutive channels.  ``read``/``write`` split a request into its
    stripes and issue them to their channels concurrently, which is exactly
    what gives the striping speed-up.
    """

    def __init__(self, env: Environment, config: HbmConfig = HbmConfig()):
        self.env = env
        self.config = config
        self._mem = SparseMemory(config.total_bytes, name="hbm")
        self._channels = [FifoServer(env) for _ in range(config.num_channels)]
        self.bytes_read = 0
        self.bytes_written = 0
        #: Per-pseudo-channel access counts: striping skew shows up here
        #: long before it shows up as a throughput regression.
        self.channel_accesses = [0] * config.num_channels
        #: Armed :class:`repro.faults.FaultInjector`, or ``None``.
        self.faults = None
        self.ecc_corrected = 0
        self.ecc_uncorrected = 0

    # -- address mapping ---------------------------------------------------

    def channel_of(self, addr: int) -> int:
        return (addr // self.config.stripe_bytes) % self.config.num_channels

    def _stripes(self, addr: int, length: int):
        """Split [addr, addr+length) into (channel, addr, length) stripes."""
        stripe = self.config.stripe_bytes
        offset = 0
        while offset < length:
            cur = addr + offset
            take = min(length - offset, stripe - cur % stripe)
            yield self.channel_of(cur), cur, take
            offset += take

    # -- timed access --------------------------------------------------------

    def _access(self, addr: int, length: int) -> Timeout:
        """Book every stripe on its channel, now; the event that fires
        when the last of them finishes."""
        config = self.config
        faults = self.faults
        stripe = config.stripe_bytes
        if 0 < length <= stripe - addr % stripe:
            # Inside one stripe (every stripe-aligned card packet).
            stripes = (((addr // stripe) % config.num_channels, addr, length),)
        else:
            stripes = self._stripes(addr, length)
        done = self.env.now
        for channel, _addr, nbytes in stripes:
            self.channel_accesses[channel] += 1
            cycles = -(-nbytes // config.port_width_bytes)
            delay = config.access_latency_ns + config.clock.cycles_to_ns(cycles)
            if faults is not None:
                if faults.fires(HBM_ECC_SINGLE, channel):
                    # SECDED corrects single-bit flips inline: data intact,
                    # only the event is counted (scrubber telemetry).
                    self.ecc_corrected += 1
                if faults.fires(HBM_ECC_DOUBLE, channel):
                    # Double-bit error: the controller re-reads the burst
                    # (doubling the access time) and succeeds — modeled as
                    # a transient; the event is surfaced via card_report().
                    self.ecc_uncorrected += 1
                    delay *= 2.0
            finish = self._channels[channel].book(delay)
            if finish > done:
                done = finish
        return self.env.timeout_at(done)

    def read(self, addr: int, length: int) -> Generator:
        """Timed read returning the stored bytes."""
        yield self._access(addr, length)
        self.bytes_read += length
        return self._mem.read(addr, length)

    def write(self, addr: int, data: bytes) -> Generator:
        """Timed write of a byte payload."""
        yield self._access(addr, len(data))
        self._mem.write(addr, data)
        self.bytes_written += len(data)

    # -- untimed (functional) access ----------------------------------------

    def read_now(self, addr: int, length: int) -> bytes:
        return self._mem.read(addr, length)

    def write_now(self, addr: int, data: bytes) -> None:
        self._mem.write(addr, data)

    def channel_utilization(self) -> list:
        now = self.env.now
        return [int(c.free_at > now) for c in self._channels]
