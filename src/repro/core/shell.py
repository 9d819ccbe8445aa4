"""The Coyote v2 shell: static + dynamic + application layers (paper §3).

:class:`Shell` is the top-level hardware object: it wires the XDMA link,
the service layer, and the vFPGAs together, hands each checked
descriptor straight to its data mover, and implements shell/app run-time
reconfiguration with the linked-shell safety check.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Generator, List, Optional

from ..net.headers import MacAddress
from ..net.switch import Switch
from ..sim.engine import Environment, Event
from .bitstream import Bitstream, BitstreamKind
from .dynamic_layer import DynamicLayer, ServiceConfig
from .floorplan import DEVICES, Floorplan
from .interfaces import Descriptor, DescriptorError, StreamType
from .movers import _DataMover
from .reconfig import IcapCrcError, ReconfigError
from .static_layer import StaticLayer
from .vfpga import UserApp, VFpga, VFpgaConfig

__all__ = ["Shell", "ShellConfig"]

#: Why a stream kind with no mover behind it cannot be served.
_NO_DATAPATH = {
    StreamType.CARD: "card-memory request but the shell has no memory service",
    StreamType.NET: (
        "NET streams are not driven through the send queues: RDMA verbs "
        "move network data, and inbound data lands in virtual memory via "
        "the MMU"
    ),
}


@dataclass(frozen=True)
class ShellConfig:
    """Compile-time parameters of a shell build (paper §4: "a shell is
    fully parametrized by its services and the user applications")."""

    device: str = "u55c"
    num_vfpgas: int = 1
    vfpga: VFpgaConfig = VFpgaConfig()
    services: ServiceConfig = ServiceConfig()

    def __post_init__(self) -> None:
        if self.device not in DEVICES:
            raise ValueError(f"unknown device {self.device!r}")
        if self.num_vfpgas < 1:
            raise ValueError("need at least one vFPGA")

    @property
    def service_names(self) -> frozenset:
        return self.services.service_names


class Shell:
    """One card running one shell configuration."""

    def __init__(
        self,
        env: Environment,
        config: ShellConfig = ShellConfig(),
        switch: Optional[Switch] = None,
        mac: Optional[MacAddress] = None,
        ip: int = 0x0A000001,
    ):
        self.env = env
        self.config = config
        self.floorplan = Floorplan(
            DEVICES[config.device], app_regions=config.num_vfpgas
        )
        self.static = StaticLayer(env)
        self._switch = switch
        self._mac = mac
        self._ip = ip
        self.dynamic = DynamicLayer(
            env, self.static, config.services, switch=switch, mac=mac, ip=ip
        )
        self.vfpgas: List[VFpga] = []
        for index in range(config.num_vfpgas):
            self._make_vfpga(index)
        self.shell_reconfigs = 0
        self.app_reconfigs = 0
        #: Armed :class:`repro.faults.FaultInjector`, or ``None``.
        self.fault_injector = None
        self.icap_rollbacks = 0

    # -------------------------------------------------------------- wiring

    def bind_faults(self, injector) -> None:
        """Arm a :class:`repro.faults.FaultInjector` on every hardware
        block of this shell (re-applied automatically after shell swaps)."""
        self.fault_injector = injector
        self.static.xdma.faults = injector
        self.static.xdma.link.faults = injector
        self.static.icap.faults = injector
        if self.dynamic.hbm is not None:
            self.dynamic.hbm.faults = injector
        for vfpga in self.vfpgas:
            vfpga.faults = injector  # the app.* misbehaving-tenant sites

    def _make_vfpga(self, index: int) -> VFpga:
        vfpga = VFpga(self.env, index, self.config.vfpga)
        vfpga.bind_shell(self.static.raise_user_interrupt, self.post_descriptor)
        mmu = self.dynamic.mmu_for(index)
        for mover in self.dynamic.movers.values():
            mover.register(vfpga, mmu)
        self.vfpgas.append(vfpga)
        return vfpga

    # ------------------------------------------------------- identification

    @property
    def shell_id(self) -> str:
        """Identity used by the app-linking fail-safe."""
        probe = Bitstream(
            kind=BitstreamKind.SHELL,
            target_region="shell",
            size_bytes=1,
            services=self.config.service_names,
            device=self.config.device,
        )
        return probe.shell_id

    # ------------------------------------------------------ reconfiguration

    def reconfigure_app(
        self, bitstream: Bitstream, vfpga_id: int, app: UserApp
    ) -> Generator:
        """Swap one vFPGA's user logic at run time (paper §4)."""
        if bitstream.kind != BitstreamKind.APP:
            raise ReconfigError(f"expected an app bitstream, got {bitstream.kind}")
        if bitstream.device != self.config.device:
            raise ReconfigError(
                f"bitstream built for {bitstream.device}, card is {self.config.device}"
            )
        if bitstream.linked_shell != self.shell_id:
            raise ReconfigError(
                "app bitstream was linked against a different shell "
                "configuration; the services it requires may be missing"
            )
        missing = app.required_services - self.config.service_names
        if missing:
            raise ReconfigError(f"shell lacks services {sorted(missing)}")
        if not 0 <= vfpga_id < len(self.vfpgas):
            raise ReconfigError(f"no vFPGA {vfpga_id}")
        try:
            yield self.env.process(self.static.icap.program(bitstream))
        except IcapCrcError:
            # The region is now undefined: restore the last-good bitstream
            # before surfacing the error (the driver may then retry).
            yield self.env.process(self._rollback_app(vfpga_id))
            raise
        self.vfpgas[vfpga_id].load_app(app)
        self.vfpgas[vfpga_id].last_good = (bitstream, app)
        self.app_reconfigs += 1

    #: Bound on back-to-back CRC failures while restoring a region.
    _MAX_ROLLBACK_ATTEMPTS = 8

    def _rollback_app(self, vfpga_id: int) -> Generator:
        """Re-program the last-good bitstream after a CRC failure."""
        last = self.vfpgas[vfpga_id].last_good
        if last is None:
            # Nothing to roll back to: leave the region empty.
            self.vfpgas[vfpga_id].unload_app()
            return
        bitstream, app = last
        if bitstream is None:
            # Last-good was loaded at initial configuration: restoring it
            # is a plain reload, no bitstream to re-program.
            self.vfpgas[vfpga_id].load_app(app)
            self.icap_rollbacks += 1
            return
        for _attempt in range(self._MAX_ROLLBACK_ATTEMPTS):
            try:
                yield self.env.process(self.static.icap.program(bitstream))
            except IcapCrcError:
                continue
            self.vfpgas[vfpga_id].load_app(app)
            self.icap_rollbacks += 1
            return
        raise ReconfigError(
            f"vFPGA {vfpga_id}: rollback failed "
            f"{self._MAX_ROLLBACK_ATTEMPTS} times; region is offline"
        )

    def reconfigure_shell(
        self,
        bitstream: Bitstream,
        services: ServiceConfig,
        apps: Optional[List[Optional[UserApp]]] = None,
    ) -> Generator:
        """Swap the entire shell — services *and* applications — at run
        time, without taking the card offline (the headline capability)."""
        if bitstream.kind != BitstreamKind.SHELL:
            raise ReconfigError(f"expected a shell bitstream, got {bitstream.kind}")
        if bitstream.device != self.config.device:
            raise ReconfigError(
                f"bitstream built for {bitstream.device}, card is {self.config.device}"
            )
        yield self.env.process(self.static.icap.program(bitstream))
        self._apply_shell_swap(services, apps)

    def _apply_shell_swap(
        self,
        services: ServiceConfig,
        apps: Optional[List[Optional[UserApp]]] = None,
    ) -> None:
        """Tear out the old shell contents and instantiate the new ones.

        The old dynamic layer and vFPGAs are removed from the fabric; any
        processes still blocked inside them never resume (their queues
        are unreachable), matching hardware where the region is wiped.
        """
        for vfpga in self.vfpgas:
            vfpga.unload_app()
        # A reconfigured shell re-instantiates its CMAC: unplug the old one.
        if self.dynamic.cmac is not None and self._switch is not None:
            self._switch.detach(self._mac)
        self.config = replace(self.config, services=services)
        self.dynamic = DynamicLayer(
            self.env, self.static, services,
            switch=self._switch, mac=self._mac, ip=self._ip,
        )
        self.vfpgas = []
        for index in range(self.config.num_vfpgas):
            self._make_vfpga(index)
        if self.fault_injector is not None:
            # The new dynamic layer instantiated fresh hardware (HBM, …):
            # re-arm the injector on it.
            self.bind_faults(self.fault_injector)
        if apps is not None:
            for index, app in enumerate(apps):
                if app is not None:
                    self.load_app(index, app)
        self.shell_reconfigs += 1

    # ------------------------------------------------------------- app mgmt

    def load_app(self, vfpga_id: int, app: UserApp) -> VFpga:
        """Directly load user logic (initial configuration, no PR charge)."""
        missing = app.required_services - self.config.service_names
        if missing:
            raise ReconfigError(
                f"app {app.name!r} requires services {sorted(missing)} "
                f"not present in this shell"
            )
        vfpga = self.vfpgas[vfpga_id]
        vfpga.load_app(app)
        vfpga.last_good = (None, app)
        return vfpga

    # ----------------------------------------------------------- host entry

    def check_descriptor(self, desc: Descriptor, write: bool) -> _DataMover:
        """Raise :class:`DescriptorError` unless this shell can serve
        ``desc``: a datapath exists for its stream kind, and ``dest``
        names one of the region's parallel streams.  Returns that
        datapath's mover."""
        mover = self.dynamic.movers.get(desc.stream)
        if mover is None:
            raise DescriptorError(_NO_DATAPATH[desc.stream])
        streams = mover.num_streams(desc.vfpga_id, write)
        if not 0 <= desc.dest < streams:
            raise DescriptorError(
                f"descriptor targets {desc.stream.value} stream {desc.dest}, "
                f"but vFPGA {desc.vfpga_id} has only {streams}"
            )
        return mover

    def post_descriptor(self, desc: Descriptor, write: bool) -> Event:
        """The one checked entry to the datapath, for software-issued
        work (the driver) and hardware-issued work (``VFpga.read`` /
        ``VFpga.write``) alike.

        An unservable descriptor raises :class:`DescriptorError` here,
        synchronously, in the submitter's own frame — nothing is queued,
        so nothing behind the door can die on it.  A served descriptor
        goes straight onto its mover's dispatch queue; returns that put
        event.
        """
        mover = self.check_descriptor(desc, write)
        return mover.dispatch_queue(desc.vfpga_id, write).put(desc)
