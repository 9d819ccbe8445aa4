"""Partial reconfiguration: ICAP controller and the baselines of Table 2.

Coyote v2 drives the Internal Configuration Access Port through an
optimised AXI4-Stream controller fed from host memory over a dedicated
XDMA channel, sustaining the full ~800 MB/s the ICAP offers on
UltraScale+ parts.  The standard alternatives are an order of magnitude
slower because they issue single-word writes:

===============  ==========  ============
controller       throughput  interface
===============  ==========  ============
AXI HWICAP       19 MB/s     AXI4-Lite
PCAP             128 MB/s    AXI
MCAP             145 MB/s    AXI
Coyote v2 ICAP   800 MB/s    AXI4-Stream
===============  ==========  ============

The reconfiguration *latency* experiment (Table 3) additionally charges
reading the bitstream from disk and copying it into kernel space (the
"total" column), and compares against a full device reprogramming through
Vivado Hardware Manager including PCIe hot-plug and driver re-insertion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..faults.plan import ICAP_CRC
from ..pcie.xdma import MsiVector, Xdma
from ..sim.engine import Environment
from ..sim.resources import Resource
from .bitstream import Bitstream, BitstreamKind

__all__ = [
    "IcapController",
    "ReconfigPort",
    "AXI_HWICAP",
    "PCAP",
    "MCAP",
    "COYOTE_ICAP",
    "VivadoHwManager",
    "ReconfigError",
    "IcapCrcError",
]


class ReconfigError(Exception):
    """Invalid reconfiguration request (e.g. app linked to another shell)."""


class IcapCrcError(ReconfigError):
    """The ICAP rejected a partial bitstream: per-frame CRC mismatch.

    The fabric region is left in an undefined state; the shell must roll
    back to the last-good bitstream before the vFPGA can be used again.
    """


@dataclass(frozen=True)
class ReconfigPort:
    """A configuration port's performance envelope."""

    name: str
    throughput_mbps: float  # MB/s of bitstream data
    interface: str

    @property
    def bytes_per_ns(self) -> float:
        return self.throughput_mbps / 1000.0

    def program_time_ns(self, size_bytes: int) -> float:
        return size_bytes / self.bytes_per_ns


#: Table 2's rows.
AXI_HWICAP = ReconfigPort("AXI HWICAP", 19.0, "AXI Lite")
PCAP = ReconfigPort("PCAP", 128.0, "AXI")
MCAP = ReconfigPort("MCAP", 145.0, "AXI")
COYOTE_ICAP = ReconfigPort("Coyote v2 ICAP", 800.0, "AXI Stream")

#: Host-side costs for the "total" latency column (calibrated to Table 3:
#: total - kernel ~= 11.7 ms per MB of bitstream).
DISK_READ_MBPS = 120.0
KERNEL_COPY_MBPS = 300.0


class IcapController:
    """The centralised reconfiguration block in the static layer (§5.3)."""

    #: Warm replays stream from the on-card cache as a compressed delta:
    #: only this fraction of the bitstream crosses the ICAP again.
    CACHE_REPLAY_FRACTION = 0.1
    #: Per-region cache capacity, in distinct bitstreams (FIFO eviction).
    CACHE_ENTRIES_PER_REGION = 8

    def __init__(
        self,
        env: Environment,
        xdma: Optional[Xdma] = None,
        port: ReconfigPort = COYOTE_ICAP,
        region_cache_enabled: bool = True,
    ):
        self.env = env
        self.xdma = xdma
        self.port = port
        self._icap = Resource(env, capacity=1)  # one configuration port
        self.programs = 0
        self.bytes_programmed = 0
        #: Armed :class:`repro.faults.FaultInjector`, or ``None``.
        self.faults = None
        self.crc_failures = 0
        #: Bitstream cache (daemon mode, paper §9.6): recently programmed
        #: bitstreams stay resident near the ICAP, keyed by checksum per
        #: target region, so repeated A↔B churn pays the host staging and
        #: the full ICAP stream only on the first encounter of each.
        self.region_cache_enabled = region_cache_enabled
        self._region_cache: dict = {}  # region -> {checksum: True}
        self.cache_hits = 0
        self.cache_misses = 0

    def is_cached(self, bitstream: Bitstream) -> bool:
        """Is this exact artifact resident in its region's cache?  The
        driver consults this to skip disk read + copy_to_kernel."""
        if not self.region_cache_enabled:
            return False
        entries = self._region_cache.get(bitstream.target_region)
        return bool(entries) and bitstream.checksum in entries

    def _cache_insert(self, bitstream: Bitstream) -> None:
        if not self.region_cache_enabled:
            return
        entries = self._region_cache.setdefault(bitstream.target_region, {})
        if bitstream.checksum in entries:
            return
        while len(entries) >= self.CACHE_ENTRIES_PER_REGION:
            del entries[next(iter(entries))]  # FIFO: dicts keep insert order
        entries[bitstream.checksum] = True

    def _cache_invalidate(self, bitstream: Bitstream) -> None:
        entries = self._region_cache.get(bitstream.target_region)
        if entries:
            entries.pop(bitstream.checksum, None)

    def program(self, bitstream: Bitstream, from_host: bool = True) -> Generator:
        """Stream a partial bitstream into the fabric.

        With ``from_host`` the data is pulled from host memory over the
        utility XDMA channel concurrently with ICAP writes; the ICAP is
        the bottleneck (PCIe is ~15x faster), so only its time is charged
        on top of a one-descriptor pipeline fill.

        A cache hit (this exact artifact recently programmed into the same
        region) replays from on-card memory instead: no host pipeline
        fill, and only :data:`CACHE_REPLAY_FRACTION` of the bits cross the
        ICAP again.
        """
        warm = self.is_cached(bitstream)
        grant = self._icap.request()
        yield grant
        try:
            if warm:
                self.cache_hits += 1
                stream_bytes = max(4096, int(bitstream.size_bytes * self.CACHE_REPLAY_FRACTION))
            else:
                if self.region_cache_enabled:
                    self.cache_misses += 1
                stream_bytes = bitstream.size_bytes
                if from_host and self.xdma is not None:
                    # Pipeline fill: first 4 KB must arrive before ICAP starts.
                    yield self.env.process(self.xdma.read_host(0, 4096, overhead=True))
            yield self.env.timeout(self.port.program_time_ns(stream_bytes))
            if self.faults is not None and self.faults.fires(ICAP_CRC, bitstream):
                # Frame CRC mismatch detected while streaming: the region
                # is now undefined.  No RECONFIG_DONE interrupt fires, and
                # the cached copy is no longer trusted.
                self.crc_failures += 1
                self._cache_invalidate(bitstream)
                raise IcapCrcError(
                    f"CRC mismatch programming {bitstream.kind} bitstream for "
                    f"{bitstream.target_region!r} ({bitstream.size_bytes} bytes)"
                )
        finally:
            self._icap.release(grant)
        self.programs += 1
        self.bytes_programmed += stream_bytes
        self._cache_insert(bitstream)
        if self.xdma is not None:
            yield self.env.process(
                self.xdma.raise_msix(MsiVector.RECONFIG_DONE, value=self.programs)
            )

    @staticmethod
    def host_overhead_ns(bitstream: Bitstream) -> float:
        """Disk read + copy_to_kernel for the "Coyote total latency"."""
        mb = bitstream.size_bytes / 1e6
        return (mb / DISK_READ_MBPS + mb / KERNEL_COPY_MBPS) * 1e9


class VivadoHwManager:
    """Full-device reprogramming baseline (Table 3's "Vivado flow").

    Programs the complete bitstream over JTAG, then performs a PCIe
    hot-plug rescan and reloads the device driver — the FPGA is offline
    throughout.
    """

    JTAG_MBPS = 1.6
    PCIE_HOTPLUG_NS = 3.2e9
    DRIVER_RELOAD_NS = 1.9e9

    def __init__(self, env: Environment):
        self.env = env
        self.programs = 0

    def program_time_ns(self, full_bitstream: Bitstream) -> float:
        if full_bitstream.kind != BitstreamKind.FULL:
            raise ReconfigError("Vivado flow programs full-device bitstreams")
        jtag = full_bitstream.size_bytes / (self.JTAG_MBPS / 1000.0)
        return jtag + self.PCIE_HOTPLUG_NS + self.DRIVER_RELOAD_NS

    def program(self, full_bitstream: Bitstream) -> Generator:
        yield self.env.timeout(self.program_time_ns(full_bitstream))
        self.programs += 1
