"""vFPGAs: the application layer's isolation unit (paper §7).

A vFPGA hosts arbitrary user logic behind the unified interface of
Figure 5: an AXI4-Lite control bus, an interrupt channel, parallel
host/card/network AXI4 streams, and read/write send + completion queues
through which the hardware can source its own DMA.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Tuple

from ..axi.lite import RegisterFile
from ..axi.stream import AxiStream
from ..axi.types import Flit
from ..faults.plan import APP_HANG, APP_WEDGE_CREDIT
from ..sim.engine import Environment, Event, Process
from ..sim.resources import Store
from .bitstream import Bitstream
from .credit import CreditConfig, Crediter
from .interfaces import CompletionEntry, Descriptor, StreamType

__all__ = ["VFpga", "UserApp", "VFpgaConfig"]


@dataclass(frozen=True)
class VFpgaConfig:
    """Per-vFPGA interface geometry."""

    num_host_streams: int = 4
    num_card_streams: int = 32
    num_net_streams: int = 2
    credits: CreditConfig = CreditConfig()


class UserApp:
    """Base class for hardware user applications.

    Subclasses implement :meth:`run` as a simulation process using the
    vFPGA interface, and declare which shell services they require (used
    by the linker check in :mod:`repro.core.reconfig`) plus the synthesis
    netlist name (used by :mod:`repro.synth`).
    """

    #: Human-readable application name, also the synth-model module key.
    name = "user_app"
    #: Shell services this app needs; linking verifies availability.
    required_services: frozenset = frozenset()

    def run(self, vfpga: "VFpga") -> Generator:
        """The application's hardware process; must be a generator."""
        raise NotImplementedError
        yield  # pragma: no cover

    def on_csr_write(self, index: int, value: int) -> None:
        """Optional hook invoked when software writes a control register."""


class VFpga:
    """One virtual FPGA region with the generic application interface."""

    def __init__(
        self,
        env: Environment,
        vfpga_id: int,
        config: VFpgaConfig = VFpgaConfig(),
    ):
        self.env = env
        self.vfpga_id = vfpga_id
        self.config = config
        # Control bus + interrupts.
        self.ctrl = RegisterFile(f"vfpga{vfpga_id}-csr", size=64)
        self._irq_fn: Optional[Callable[[int, int], None]] = None
        self._post_fn: Optional[Callable[[Descriptor, bool], Event]] = None
        # Parallel data streams.  FIFO depths equal the credit capacity so
        # a held credit always guarantees deposit space (see credit.py).
        credits = config.credits
        self.host_in = self._streams("h2v", config.num_host_streams, credits.host_credits)
        self.host_out = self._streams("v2h", config.num_host_streams, credits.host_credits)
        self.card_in = self._streams("c2v", config.num_card_streams, credits.card_credits)
        self.card_out = self._streams("v2c", config.num_card_streams, credits.card_credits)
        self.net_in = self._streams("n2v", config.num_net_streams, credits.net_credits)
        self.net_out = self._streams("v2n", config.num_net_streams, credits.net_credits)
        self._by_kind = {
            StreamType.HOST: (self.host_in, self.host_out),
            StreamType.CARD: (self.card_in, self.card_out),
            StreamType.NET: (self.net_in, self.net_out),
        }
        # Completion queues; requests go through the shell's door.
        self.cq_rd: Store = Store(env)
        self.cq_wr: Store = Store(env)
        # Per-stream-kind crediters (independent, paper §7.2).
        self.rd_credits: Dict[StreamType, Crediter] = {
            StreamType.HOST: Crediter(env, credits.host_credits, f"v{vfpga_id}-host-rd"),
            StreamType.CARD: Crediter(env, credits.card_credits, f"v{vfpga_id}-card-rd"),
            StreamType.NET: Crediter(env, credits.net_credits, f"v{vfpga_id}-net-rd"),
        }
        self.wr_credits: Dict[StreamType, Crediter] = {
            StreamType.HOST: Crediter(env, credits.host_credits, f"v{vfpga_id}-host-wr"),
            StreamType.CARD: Crediter(env, credits.card_credits, f"v{vfpga_id}-card-wr"),
            StreamType.NET: Crediter(env, credits.net_credits, f"v{vfpga_id}-net-wr"),
        }
        self.app: Optional[UserApp] = None
        #: ``(bitstream, app)`` last programmed successfully, the rollback
        #: and recovery target; a ``None`` bitstream marks an app loaded at
        #: initial configuration (restoring it charges no PR).
        self.last_good: Optional[Tuple[Optional[Bitstream], UserApp]] = None
        self._app_proc: Optional[Process] = None
        self._children: List[Process] = []
        self.interrupts_sent = 0
        self.reconfigurations = 0
        #: Armed :class:`repro.faults.FaultInjector` (``None`` = fault-free;
        #: the ``app.*`` misbehaving-tenant sites hook ``recv``).
        self.faults = None
        #: Decoupled from the shell interconnect (recovery in progress):
        #: the driver rejects new software work for this region.
        self.decoupled = False
        #: Circuit breaker open: tenant evicted, region dark.
        self.quarantined = False
        self.hangs_injected = 0
        self.credits_wedged = 0

    def _streams(self, tag: str, count: int, depth: int) -> List[AxiStream]:
        return [
            AxiStream(self.env, name=f"v{self.vfpga_id}-{tag}{i}", depth_flits=depth)
            for i in range(count)
        ]

    # ------------------------------------------------------------ app mgmt

    def _supervised(self, generator) -> Generator:
        """Run app logic; a reconfiguration interrupt is a clean stop."""
        from ..sim.engine import Interrupt

        try:
            yield from generator
        except Interrupt:
            pass

    def spawn(self, generator, name: str = "") -> Process:
        """Start a child process of the current app (e.g. one per lane).

        Children are interrupted when the app is unloaded, modelling the
        PR region being wiped.
        """
        proc = self.env.process(self._supervised(generator), name=name)
        self._children.append(proc)
        return proc

    def load_app(self, app: UserApp) -> None:
        """(Re)load user logic into this region and start its process."""
        self.unload_app()
        self.app = app
        for index in range(self.ctrl.size):
            self.ctrl._values.pop(index, None)
        self._app_proc = self.env.process(
            self._supervised(app.run(self)), name=f"v{self.vfpga_id}-{app.name}"
        )
        self.reconfigurations += 1

    def unload_app(self) -> None:
        for child in self._children:
            if child.is_alive:
                child.interrupt("unloaded")
        self._children = []
        if self._app_proc is not None and self._app_proc.is_alive:
            self._app_proc.interrupt("unloaded")
        self.app = None
        self._app_proc = None

    def reset_datapath(self) -> int:
        """Hot-reset the region's datapath state (health recovery).

        Wipes every stream FIFO, drains the completion queues, and
        refills all credit pools to capacity — the simulation equivalent
        of asserting the PR region's reset while it is decoupled.  Call
        after :meth:`unload_app` (the app processes must be gone first).
        Returns the number of queued items discarded.
        """
        dropped = 0
        for group in (self.host_in, self.host_out, self.card_in,
                      self.card_out, self.net_in, self.net_out):
            for stream in group:
                dropped += stream.reset()
        for queue in (self.cq_rd, self.cq_wr):
            dropped += queue.clear()
        for crediters in (self.rd_credits, self.wr_credits):
            for crediter in crediters.values():
                crediter.reset()
        return dropped

    # ------------------------------------------- hardware-facing interface

    def bind_shell(
        self,
        irq_fn: Callable[[int, int], None],
        post_fn: Callable[[Descriptor, bool], Event],
    ) -> None:
        """Wire the region to its shell: the interrupt line and the
        checked door its requests pass (``Shell.post_descriptor``)."""
        self._irq_fn = irq_fn
        self._post_fn = post_fn

    def interrupt(self, value: int = 0) -> None:
        """Raise a user interrupt towards the host (paper §7.1)."""
        if self._irq_fn is None:
            raise RuntimeError(f"vFPGA {self.vfpga_id}: interrupt channel unbound")
        self.interrupts_sent += 1
        self._irq_fn(self.vfpga_id, value)

    def read(
        self,
        pid: int,
        vaddr: int,
        length: int,
        stream: StreamType = StreamType.HOST,
        dest: int = 0,
        wr_id: int = 0,
    ) -> Event:
        """Issue a hardware-side read request (memory -> stream ``dest``).

        Goes through the same checked door as software-issued work: a
        request the shell cannot serve raises
        :class:`~repro.core.interfaces.DescriptorError` here, in the
        kernel's own frame.  Returns the put event of the data mover's
        dispatch queue.
        """
        return self._request(False, pid, vaddr, length, stream, dest, wr_id)

    def write(
        self,
        pid: int,
        vaddr: int,
        length: int,
        stream: StreamType = StreamType.HOST,
        dest: int = 0,
        wr_id: int = 0,
    ) -> Event:
        """Issue a hardware-side write request (stream ``dest`` -> memory);
        checked like :meth:`read`."""
        return self._request(True, pid, vaddr, length, stream, dest, wr_id)

    def _request(self, write, pid, vaddr, length, stream, dest, wr_id) -> Event:
        desc = Descriptor(
            vfpga_id=self.vfpga_id, pid=pid, vaddr=vaddr, length=length,
            stream=stream, dest=dest, wr_id=wr_id,
        )
        return self._post_fn(desc, write)

    def streams(self, stream: StreamType, write: bool) -> List[AxiStream]:
        """The parallel streams of one kind in one direction: the
        kernel's outputs for a write (stream -> memory), its inputs for
        a read (memory -> stream)."""
        return self._by_kind[stream][write]

    def recv(self, stream: StreamType = StreamType.HOST, dest: int = 0) -> Generator:
        """Consume one inbound flit; releases the read credit it held.

        The two misbehaving-tenant fault sites live here, on the user
        side of the interface: ``app.wedge_credit`` leaks the credit this
        flit held (eventually exhausting the pool and wedging the
        region's datapath), ``app.hang`` parks the consuming lane forever
        (until recovery wipes the region).  Both are invisible unless a
        :class:`repro.faults.FaultInjector` is armed.
        """
        flit = yield self._by_kind[stream][False][dest].recv()
        faults = self.faults
        if faults is not None and faults.fires(APP_WEDGE_CREDIT, self):
            self.credits_wedged += 1
            # Leaked, never released — but *accounted*, so the sanitizer's
            # conservation check can tell injected sabotage from real leaks.
            self.rd_credits[stream].wedge()
        else:
            self.rd_credits[stream].release()
        if faults is not None and faults.fires(APP_HANG, self):
            self.hangs_injected += 1
            # Wedge this lane on an event nothing ever triggers; only an
            # unload interrupt (region wipe) gets it out.
            yield Event(self.env)
        return flit

    def send(self, flit: Flit, stream: StreamType = StreamType.HOST, dest: int = 0) -> Generator:
        """Produce one outbound flit onto stream ``dest``: the stream's
        own ``send``, handed back rather than wrapped, so a kernel's
        ``yield from vfpga.send(...)`` resumes through no extra frame."""
        return self._by_kind[stream][True][dest].send(flit)

    # ---------------------------------------------- software-facing helpers

    def csr_write(self, index: int, value: int) -> None:
        self.ctrl.write(index, value)
        if self.app is not None:
            self.app.on_csr_write(index, value)

    def csr_read(self, index: int) -> int:
        return self.ctrl.read(index)
