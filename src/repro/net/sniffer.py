"""The traffic-sniffer service (paper §8, Figure 6).

A reconfigurable shell service that inserts a filter between the network
stacks and the 100G CMAC.  RX and TX traffic matching a host-configured
filter is timestamped and stored to a pre-allocated HBM buffer by the
vFPGA-backed application logic; the host later syncs the buffer and a
software parser converts the raw recordings into a standard PCAP file
(see :mod:`repro.net.pcap`), "similar to ibdump or tcpdump".

Control registers (AXI4-Lite, exposed through the shell control BAR):

====  =============================================================
reg   function
====  =============================================================
0     bit 0: capture enable (start/stop recording)
1     direction mask — bit 0: capture RX, bit 1: capture TX
2     QP filter — capture only this destination QP (0 = capture all)
3     mode — 0: full frames, 1: headers only (partial sniffing)
4     (RO) captured frame count
5     (RO) dropped frame count (HBM buffer exhausted)
====  =============================================================
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..axi.lite import RegisterFile
from ..mem.hbm import HbmController
from ..sim.engine import Environment
from ..sim.resources import Store
from .cmac import Cmac
from .headers import BthHeader, EthernetHeader, Ipv4Header, UdpHeader
from .packet import RocePacket
from .pcap import PcapWriter

__all__ = ["TrafficSniffer", "parse_capture_buffer"]

#: On-card record layout: u64 timestamp_ns | u32 length | u32 reserved | frame
_RECORD_HEADER = struct.Struct("<QII")
#: Captured headers-only length: Ethernet + IPv4 + UDP + BTH.
HEADERS_ONLY_BYTES = (
    EthernetHeader.SIZE + Ipv4Header.SIZE + UdpHeader.SIZE + BthHeader.SIZE
)

REG_CTRL = 0
REG_DIRECTION = 1
REG_QP_FILTER = 2
REG_MODE = 3
REG_CAPTURED = 4
REG_DROPPED = 5

DIR_RX = 0x1
DIR_TX = 0x2


class TrafficSniffer:
    """Filterable RX/TX capture into an HBM ring, host-controlled."""

    service_name = "sniffer"

    def __init__(
        self,
        env: Environment,
        cmac: Cmac,
        hbm: HbmController,
        buffer_addr: int,
        buffer_len: int,
        regs: Optional[RegisterFile] = None,
    ):
        self.env = env
        self.cmac = cmac
        self.hbm = hbm
        self.buffer_addr = buffer_addr
        self.buffer_len = buffer_len
        self.regs = regs if regs is not None else RegisterFile("sniffer", size=8)
        self._write_ptr = 0
        self.captured = 0
        self.dropped = 0
        self._queue: Store = Store(env, capacity=256)
        self.regs.on_read(REG_CAPTURED, lambda: self.captured)
        self.regs.on_read(REG_DROPPED, lambda: self.dropped)
        # Default filter: both directions, all QPs, full frames, disabled.
        self.regs.write(REG_DIRECTION, DIR_RX | DIR_TX)
        cmac.rx_taps.append(self._tap_rx)
        cmac.tx_taps.append(self._tap_tx)
        env.process(self._writer(), name="sniffer-writer")

    # ------------------------------------------------------------- control

    def start(self) -> None:
        self.regs.write(REG_CTRL, 1)

    def stop(self) -> None:
        self.regs.write(REG_CTRL, 0)

    @property
    def enabled(self) -> bool:
        return bool(self.regs.read(REG_CTRL) & 1)

    def set_filter(
        self,
        rx: bool = True,
        tx: bool = True,
        qp: int = 0,
        headers_only: bool = False,
    ) -> None:
        self.regs.write(REG_DIRECTION, (DIR_RX if rx else 0) | (DIR_TX if tx else 0))
        self.regs.write(REG_QP_FILTER, qp)
        self.regs.write(REG_MODE, 1 if headers_only else 0)

    # ----------------------------------------------------------- data path

    def _matches(self, direction: int, packet: RocePacket) -> bool:
        if not self.enabled:
            return False
        if not self.regs.read(REG_DIRECTION) & direction:
            return False
        qp_filter = self.regs.read(REG_QP_FILTER)
        if qp_filter:
            bth = getattr(packet, "bth", None)  # non-RoCE frames never match
            if bth is None or bth.dest_qp != qp_filter:
                return False
        return True

    def _tap_rx(self, time_ns: float, packet: RocePacket) -> None:
        if self._matches(DIR_RX, packet):
            self._capture(time_ns, packet)

    def _tap_tx(self, time_ns: float, packet: RocePacket) -> None:
        if self._matches(DIR_TX, packet):
            self._capture(time_ns, packet)

    def _capture(self, time_ns: float, packet: RocePacket) -> None:
        frame = packet.to_bytes()
        if self.regs.read(REG_MODE) == 1:
            frame = frame[:HEADERS_ONLY_BYTES]
        record = _RECORD_HEADER.pack(int(time_ns), len(frame), 0) + frame
        # Pad records to the 64-byte stream width, as the hardware would.
        pad = (-len(record)) % 64
        record += bytes(pad)
        if self._write_ptr + len(record) > self.buffer_len:
            self.dropped += 1
            return
        if self._queue.free < 1:
            self.dropped += 1
            return
        offset = self._write_ptr
        self._write_ptr += len(record)
        self.captured += 1
        self._queue.put((offset, record))

    def _writer(self):
        """Background vFPGA logic draining capture records into HBM."""
        while True:
            offset, record = yield self._queue.get()
            yield from self.hbm.write(self.buffer_addr + offset, record)

    # ------------------------------------------------------------ host side

    def sync_to_host(self) -> bytes:
        """Return the raw capture buffer (the shell DMAs this to the host)."""
        return self.hbm.read_now(self.buffer_addr, self._write_ptr)

    def drain(self):
        """Wait until every queued record landed in HBM."""
        while len(self._queue) > 0:
            yield self.env.timeout(100.0)

    def to_pcap(self) -> bytes:
        """Software parser: raw capture buffer -> standard PCAP bytes."""
        writer = PcapWriter()
        for timestamp_ns, frame in parse_capture_buffer(self.sync_to_host()):
            writer.add(timestamp_ns, frame)
        return writer.to_bytes()


def parse_capture_buffer(raw: bytes) -> List[Tuple[float, bytes]]:
    """Decode the on-card record stream into (timestamp, frame) pairs."""
    records = []
    offset = 0
    while offset + _RECORD_HEADER.size <= len(raw):
        timestamp, length, _reserved = _RECORD_HEADER.unpack_from(raw, offset)
        if length == 0:
            break
        frame_start = offset + _RECORD_HEADER.size
        records.append((float(timestamp), raw[frame_start : frame_start + length]))
        offset = frame_start + length
        offset += (-offset) % 64  # skip stream-width padding
    return records
