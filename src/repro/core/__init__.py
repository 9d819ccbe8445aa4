"""Coyote v2 core: the three-layer shell, vFPGAs and reconfiguration."""

from .arbiter import ArbiterPort, RoundRobinArbiter
from .bitstream import Bitstream, BitstreamKind
from .credit import CreditConfig, Crediter
from .dynamic_layer import DynamicLayer, ServiceConfig
from .floorplan import DEVICES, Device, Floorplan, PrRegion
from .interfaces import (
    CompletionEntry,
    Descriptor,
    DescriptorError,
    LocalSg,
    Oper,
    RdmaSg,
    SgEntry,
    StreamType,
)
from .movers import CardDataMover, HostDataMover, MoverConfig
from .packetizer import Packet, Packetizer
from .reconfig import (
    AXI_HWICAP,
    COYOTE_ICAP,
    MCAP,
    PCAP,
    IcapController,
    IcapCrcError,
    ReconfigError,
    ReconfigPort,
    VivadoHwManager,
)
from .shell import Shell, ShellConfig
from .static_layer import StaticLayer
from .vfpga import UserApp, VFpga, VFpgaConfig

__all__ = [
    "Shell",
    "ShellConfig",
    "StaticLayer",
    "DynamicLayer",
    "ServiceConfig",
    "VFpga",
    "VFpgaConfig",
    "UserApp",
    "StreamType",
    "Oper",
    "Descriptor",
    "DescriptorError",
    "CompletionEntry",
    "SgEntry",
    "LocalSg",
    "RdmaSg",
    "Packetizer",
    "Packet",
    "Crediter",
    "CreditConfig",
    "RoundRobinArbiter",
    "ArbiterPort",
    "HostDataMover",
    "CardDataMover",
    "MoverConfig",
    "Bitstream",
    "BitstreamKind",
    "Floorplan",
    "PrRegion",
    "Device",
    "DEVICES",
    "IcapController",
    "IcapCrcError",
    "ReconfigPort",
    "ReconfigError",
    "VivadoHwManager",
    "AXI_HWICAP",
    "PCAP",
    "MCAP",
    "COYOTE_ICAP",
]
