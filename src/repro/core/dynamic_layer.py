"""The dynamic (services) layer (paper §6).

Services — memory controllers, the MMU, the RDMA stack, the traffic
sniffer — live here rather than in the static layer, which is the key
architectural change over Coyote v1: the whole layer is part of the
reconfigurable shell, so services can be swapped at run time without
taking the device offline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..mem.hbm import HbmConfig, HbmController
from ..mem.mmu import Mmu, MmuConfig
from ..net.cmac import Cmac
from ..net.headers import MacAddress
from ..net.rdma import RdmaConfig, RdmaStack
from ..net.sniffer import TrafficSniffer
from ..net.switch import Switch
from ..sim.engine import Environment
from .interfaces import StreamType
from .movers import CardDataMover, HostDataMover, MoverConfig
from .static_layer import StaticLayer

__all__ = ["DynamicLayer", "ServiceConfig"]

#: Reserved HBM region for the sniffer's capture buffer (last 64 MB).
SNIFFER_BUFFER_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class ServiceConfig:
    """Which services this shell configuration includes, and their knobs."""

    en_memory: bool = True
    en_rdma: bool = False
    en_tcp: bool = False
    en_sniffer: bool = False
    mmu: MmuConfig = MmuConfig()
    hbm: HbmConfig = HbmConfig()
    mover: MoverConfig = MoverConfig()
    rdma: RdmaConfig = RdmaConfig()

    @property
    def service_names(self) -> frozenset:
        names = {"host"}
        page = self.mmu.tlb.page_size
        names.add(f"mmu-{page // (1024 * 1024)}m" if page < (1 << 30) else "mmu-1g")
        if self.en_memory:
            names.add("memory")
        if self.en_rdma:
            names.add("rdma")
        if self.en_tcp:
            names.add("tcp")
        if self.en_sniffer:
            names.add("sniffer")
        return frozenset(names)


class DynamicLayer:
    """Instantiates the services of one shell configuration."""

    def __init__(
        self,
        env: Environment,
        static: StaticLayer,
        config: ServiceConfig = ServiceConfig(),
        switch: Optional[Switch] = None,
        mac: Optional[MacAddress] = None,
        ip: int = 0x0A000001,
    ):
        self.env = env
        self.static = static
        self.config = config
        # Per-vFPGA MMUs are created lazily as vFPGAs register.
        self.mmus: Dict[int, Mmu] = {}
        # Memory service.
        self.hbm: Optional[HbmController] = None
        self.card_mover: Optional[CardDataMover] = None
        if config.en_memory:
            self.hbm = HbmController(env, config.hbm)
            self.card_mover = CardDataMover(env, static.xdma, self.hbm, config.mover)
        # Host path is always present (it is what the static layer links).
        self.host_mover = HostDataMover(env, static.xdma, config.mover)
        #: The datapath behind each stream kind this shell serves, host
        #: first; a kind with no entry has no service to carry it.
        self.movers = {StreamType.HOST: self.host_mover}
        if self.card_mover is not None:
            self.movers[StreamType.CARD] = self.card_mover
        # Networking services: RDMA (BALBOA) and/or the TCP/IP offload
        # stack, sharing one CMAC through a protocol demux.
        self.cmac: Optional[Cmac] = None
        self.rdma: Optional[RdmaStack] = None
        self.tcp = None
        if config.en_rdma or config.en_tcp:
            if switch is None or mac is None:
                raise ValueError("networking services need a switch and a MAC address")
            self.cmac = Cmac(env, name=f"cmac-{mac!r}")
            switch.attach(mac, self.cmac)
        if config.en_rdma and config.en_tcp:
            from ..net.packet import RocePacket
            from ..net.tcp import TcpPacket, TcpStack
            from ..sim.resources import Store

            roce_q: Store = Store(env)
            tcp_q: Store = Store(env)

            def _demux():
                while True:
                    packet = yield self.cmac.rx_queue.get()
                    if isinstance(packet, RocePacket):
                        yield roce_q.put(packet)
                    elif isinstance(packet, TcpPacket):
                        yield tcp_q.put(packet)

            env.process(_demux(), name="net-demux")
            self.rdma = RdmaStack(env, self.cmac, mac, ip, config.rdma, rx_queue=roce_q)
            self.tcp = TcpStack(env, self.cmac, mac, ip, rx_queue=tcp_q)
        elif config.en_rdma:
            self.rdma = RdmaStack(env, self.cmac, mac, ip, config.rdma)
        elif config.en_tcp:
            from ..net.tcp import TcpStack

            self.tcp = TcpStack(env, self.cmac, mac, ip)
        # Sniffer service (requires both networking and card memory).
        self.sniffer: Optional[TrafficSniffer] = None
        if config.en_sniffer:
            if self.cmac is None:
                raise ValueError("sniffer service requires the RDMA/network service")
            if self.hbm is None:
                raise ValueError("sniffer service requires the memory service")
            buffer_addr = self.hbm.config.total_bytes - SNIFFER_BUFFER_BYTES
            self.sniffer = TrafficSniffer(
                env, self.cmac, self.hbm, buffer_addr, SNIFFER_BUFFER_BYTES
            )

    def mmu_for(self, vfpga_id: int) -> Mmu:
        mmu = self.mmus.get(vfpga_id)
        if mmu is None:
            mmu = Mmu(self.env, self.config.mmu, name=f"mmu-v{vfpga_id}")
            self.mmus[vfpga_id] = mmu
        return mmu

    @property
    def service_names(self) -> frozenset:
        return self.config.service_names
