"""The platforms the tests run on, each built once.

The same designs the benchmarks and the paper figures run, scaled down
to where checking them exactly is cheap (ZynqParrot's scale-down idea,
PAPERS.md): a bare RDMA group on one switch, a card, a card with the HLL
and AES kernels under an :class:`~repro.api.AppScheduler`, and an
RDMA-enabled cluster, bare or with a scheduler per node.  A test file asks for one here instead of wiring
its own, so a model's constructor changes in one place.

:func:`twice_sanitized` is the double run under a fresh
:class:`~repro.analysis.SimSanitizer` that the determinism tests share.
"""

import os

from repro import Driver, Environment, ServiceConfig, Shell, ShellConfig
from repro.analysis import SimSanitizer
from repro.analysis import sanitizer as _sanitizer
from repro.api import AppScheduler
from repro.apps import AesEcbApp, HllApp
from repro.cluster import FpgaCluster
from repro.faults import FaultInjector
from repro.mem import MmuConfig, SparseMemory, TlbConfig
from repro.net import Cmac, MacAddress, RdmaConfig, RdmaStack, Switch
from repro.synth import BuildFlow, LockedShellCheckpoint, modules_for_services

# ------------------------------------------------------------ bare RDMA


def local_hooks(env, memory, bytes_per_ns=12.0):
    """``(read_local, write_local)`` over ``memory`` at ``bytes_per_ns``,
    the pair :meth:`RdmaStack.bind_memory` takes (~PCIe-ish by default)."""

    def read_local(vaddr, length):
        yield env.timeout(length / bytes_per_ns)
        return memory.read(vaddr, length)

    def write_local(vaddr, data, length):
        yield env.timeout(length / bytes_per_ns)
        if data is not None:
            memory.write(vaddr, data)

    return read_local, write_local


def rdma_group(n=2, config=None, fabric=None, bytes_per_ns=12.0):
    """``n`` bare RDMA stacks on ``fabric`` (a fresh :class:`Switch` by
    default), each over its own 16 MiB :class:`SparseMemory`.  No QP
    exists yet.  Returns ``(env, fabric, stacks, memories)``."""
    fabric = Switch(Environment()) if fabric is None else fabric
    env = fabric.env
    stacks, memories = [], []
    for i in range(n):
        mac = MacAddress(0x02_0000_0001 + i)
        cmac = Cmac(env, name=f"n{i}-cmac")
        fabric.attach(mac, cmac)
        stack = RdmaStack(env, cmac, mac, 0x0A000001 + i, config or RdmaConfig(), name=f"n{i}")
        memory = SparseMemory(1 << 24, name=f"n{i}-mem")
        stack.bind_memory(*local_hooks(env, memory, bytes_per_ns))
        stacks.append(stack)
        memories.append(memory)
    return env, fabric, stacks, memories


def connect(a, b, qpn_a=1, qpn_b=2):
    """Create QP ``qpn_a`` on stack ``a`` and ``qpn_b`` on ``b`` and
    connect them to each other; returns the two queue pairs."""
    qp_a = a.create_qp(qpn_a, psn=10)
    qp_b = b.create_qp(qpn_b, psn=20)
    qp_a.connect(qp_b.local)
    qp_b.connect(qp_a.local)
    return qp_a, qp_b


def rdma_pair(config=None, fabric=None):
    """:func:`rdma_group` of two with QP 1 on the first connected to QP 2
    on the second."""
    env, fabric, stacks, memories = rdma_group(2, config, fabric)
    connect(*stacks)
    return env, fabric, stacks, memories


# ----------------------------------------------------------------- cards


def card(*apps, **shell_kw):
    """A card: a :class:`Shell` built from ``ShellConfig(**shell_kw)`` and
    its :class:`Driver`, with ``apps[i]`` loaded into region ``i``.  The
    shell has one region per app unless ``num_vfpgas`` says otherwise.
    Returns ``(env, shell, driver)``."""
    env = Environment()
    shell_kw.setdefault("num_vfpgas", max(1, len(apps)))
    shell = Shell(env, ShellConfig(**shell_kw))
    driver = Driver(env, shell)
    for index, app in enumerate(apps):
        shell.load_app(index, app)
    return env, shell, driver


def bitstream(shell, module):
    """The partial bitstream of app ``module`` linked against ``shell``'s
    locked checkpoint."""
    services = shell.config.services
    checkpoint = LockedShellCheckpoint(
        "u55c", services, shell.shell_id,
        sum(m.luts for m in modules_for_services(services)),
    )
    return BuildFlow("u55c").app_flow(checkpoint, [module]).bitstream


def scheduled_card(idempotent=False, **scheduler_kw):
    """A one-region card without card memory whose scheduler serves the
    kernels ``"hll"`` (idempotent if asked) and ``"aes"`` (AES-ECB).
    Returns ``(env, shell, driver, scheduler)``."""
    env, shell, driver = card(services=ServiceConfig(en_memory=False))
    scheduler = AppScheduler(driver, **scheduler_kw)
    scheduler.register("hll", bitstream(shell, "hll"), HllApp, idempotent=idempotent)
    scheduler.register("aes", bitstream(shell, "aes_ecb"), AesEcbApp)
    return env, shell, driver, scheduler


# --------------------------------------------------------------- cluster


def rdma_cluster(nodes=2, plan=None, page_size=None, retransmit_timeout_ns=50_000):
    """An RDMA-enabled :class:`FpgaCluster` with fast RC retry, MMU pages
    of ``page_size`` if given, and ``plan`` armed on every node if given.
    Returns ``(env, cluster)``."""
    env = Environment()
    pages = {} if page_size is None else {"mmu": MmuConfig(tlb=TlbConfig(page_size=page_size))}
    built = FpgaCluster(env, nodes, services=ServiceConfig(
        en_memory=True, en_rdma=True,
        rdma=RdmaConfig(retransmit_timeout_ns=retransmit_timeout_ns), **pages,
    ))
    if plan is not None:
        FaultInjector(plan).arm_cluster(built)
    return env, built


def scheduled_cluster(nodes=2, plan=None):
    """:func:`rdma_cluster` on 4 KiB pages whose every node has a
    scheduler on region 0 serving ``"aes"`` (idempotent) and ``"hll"``
    (not).  Returns ``(env, cluster, schedulers)``, one per node."""
    env, built = rdma_cluster(nodes, plan=plan, page_size=4096)
    schedulers = []
    for node in built.nodes:
        scheduler = AppScheduler(node.driver)
        scheduler.register("aes", bitstream(node.shell, "aes_ecb"), AesEcbApp, idempotent=True)
        scheduler.register("hll", bitstream(node.shell, "hll"), HllApp)
        schedulers.append(scheduler)
    return env, built, schedulers


# ------------------------------------------------------------- sanitizer


def twice_sanitized(run):
    """``[run(), run()]``, each under a fresh process-wide
    :class:`SimSanitizer` that every new ``Environment`` attaches, and
    each asserted violation-free.  The sanitizer and ``REPRO_SANITIZE``
    are put back as they were found, in plain and sanitized sessions
    alike."""
    previous = _sanitizer.current()
    previous_var = os.environ.get("REPRO_SANITIZE")
    os.environ["REPRO_SANITIZE"] = "1"
    try:
        results = []
        for _ in range(2):
            sanitizer = _sanitizer.activate(SimSanitizer())
            results.append(run())
            assert sanitizer.violations == [], sanitizer.report()
        return results
    finally:
        if previous_var is None:
            del os.environ["REPRO_SANITIZE"]
        else:
            os.environ["REPRO_SANITIZE"] = previous_var
        if previous is None:
            _sanitizer.deactivate()
        else:
            _sanitizer.activate(previous)
