"""The layer tables of the traced repeat.

Two tables say where a unit of work belongs; layer names are the
repo's modules.

``ENTRY_POINTS``   the public functions through which one layer is
                   called by another.  In the traced repeat a class-level
                   shim wraps each of them (``tracer.Tracer``).
``PROCESS_LAYERS`` simulation-process name -> layer, for the processes a
                   layer owns.  It decides where an engine event goes
                   when the resumed process is not waiting inside a
                   wrapped call.

A name that matches nothing lands in ``other``; the run fails if more
than 2 % of the events do, so a renamed process or entry point cannot
silently drop out of the ledger.
"""

from __future__ import annotations

import re

from repro import CThread, Driver, Environment, Shell
from repro.core import ArbiterPort, Crediter, Packetizer, RoundRobinArbiter, VFpga
from repro.mem import HbmController, Mmu
from repro.net import Cmac, RdmaStack
from repro.pcie import PcieLink, Xdma

__all__ = [
    "LAYERS", "BENCH", "OTHER", "BUCKETS", "ENTRY_POINTS", "CALLBACK_BINDERS",
    "PROCESS_LAYERS", "PROCESS_GROUPS",
]

#: The eleven layers of the ledger.
LAYERS = (
    "api", "driver", "pcie", "mem.mmu", "mem.hbm", "core", "apps",
    "net.rdma", "net.cmac", "net.switch", "sim",
)
#: The benchmark's own client and memory-stub processes.
BENCH = "bench"
#: Whatever the tables do not know.
OTHER = "other"
BUCKETS = LAYERS + (BENCH, OTHER)

#: layer -> [(class, method name)]: calls *into* the layer.
ENTRY_POINTS = {
    "api": [
        (CThread, "invoke"), (CThread, "post_many"),
        (CThread, "get_mem"), (CThread, "register_mr"),
    ],
    "driver": [
        (Driver, "ring_post"), (Driver, "ring_doorbell"), (Driver, "post_descriptor"),
        (Driver, "get_mem"), (Driver, "register_mr"), (Driver, "offload"), (Driver, "sync"),
    ],
    "pcie": [
        (Xdma, "read_host"), (Xdma, "write_host"), (Xdma, "migrate"),
        (Xdma, "writeback"), (Xdma, "raise_msix"),
        (PcieLink, "h2c"), (PcieLink, "c2h"),
    ],
    "mem.mmu": [
        (Mmu, "translate"), (Mmu, "translate_any"), (Mmu, "prefill"), (Mmu, "shootdown"),
    ],
    "mem.hbm": [
        (HbmController, "read"), (HbmController, "write"),
        # The migration engine's side door into card memory.
        (HbmController, "read_now"), (HbmController, "write_now"),
    ],
    "core": [
        (Shell, "post_descriptor"),
        (Crediter, "acquire"), (Crediter, "release"),
        (Packetizer, "split"),
        (RoundRobinArbiter, "get"), (ArbiterPort, "put"),
        # The kernel's side of the stream interface.
        (VFpga, "recv"), (VFpga, "send"),
    ],
    "apps": [],
    "net.rdma": [(RdmaStack, "rdma_write"), (RdmaStack, "rdma_read")],
    "net.cmac": [(Cmac, "tx"), (Cmac, "deliver"), (Cmac, "rx")],
    "net.switch": [],
    "sim": [(Environment, "run")],
}

#: Public binders through which one layer hands another a callback:
#: (class, method, layer the callbacks belong to).  The shim wraps every
#: callable argument, so the callee's work is billed to its own layer —
#: the switch's ingress behind ``Cmac.attach_wire``, the driver's walk
#: service behind ``Mmu.bind_driver``, its RDMA memory hooks behind
#: ``RdmaStack.bind_qp_memory``.
CALLBACK_BINDERS = [
    (Cmac, "attach_wire", "net.switch"),
    (Mmu, "bind_driver", "driver"),
    (RdmaStack, "bind_qp_memory", "driver"),
]

#: (pattern, layer, group).  First match wins.  ``group`` tags the three
#: by-process event counts the ledger reports by name.
PROCESS_LAYERS = [(re.compile(pattern), layer, group) for pattern, layer, group in [
    (r"^drv-cq-(rd|wr)-\d+$", "driver", "cq"),
    (r"^(_walk|walk|walk_any|_fault_migrate|_migrate_range|offload|sync|get_mem"
     r"|register_mr|read_local|write_local)$", "driver", None),
    (r"^host-(rd|wr)-(xlat|dma)$", "core", "mover"),
    (r"^v\d+-(host|card)-(rd|wr)(-disp|-req\d+|\d+)$", "core", "mover"),
    (r"^v\d+-sq-(rd|wr)-dispatch$", "core", "mover"),
    (r"^(_deposit|_net_write|_send_staged)$", "core", "mover"),
    (r"^v\d+-(pt\d+|passthrough)$", "apps", "kernel"),
    (r"^(migrate|read_host|write_host|raise_msix|writeback)$", "pcie", None),
    (r"^(translate|translate_any)$", "mem.mmu", None),
    (r"^_channel_access$", "mem.hbm", None),
    (r"^invoke$", "api", None),
    (r"-pfc-hold$", "net.cmac", None),
    (r"^(rdma|rdma_write|rdma_read|_go_back_n|_send_packet)($|-)", "net.rdma", None),
    (r"^(sw-egress-|_deliver_later$)", "net.switch", None),
    (r"^bench[-_]", BENCH, None),
]]
PROCESS_GROUPS = ("cq", "mover", "kernel")
