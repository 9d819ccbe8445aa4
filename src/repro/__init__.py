"""Coyote v2 reproduction: a simulated data-center FPGA shell.

A discrete-event, functionally-faithful reproduction of *Coyote v2:
Raising the Level of Abstraction for Data Center FPGAs* (SOSP 2025):
three-layer shell architecture, shared virtual memory, RoCE v2 RDMA,
run-time partial reconfiguration, multi-tenant fair sharing and hardware
multi-threading -- all running on a pure-Python simulation substrate.

Quick start::

    from repro import Environment, Shell, ShellConfig, Driver, CThread

    env = Environment()
    shell = Shell(env, ShellConfig())
    driver = Driver(env, shell)
    # ... load an app, create a CThread, invoke kernels; see examples/.
"""

import importlib

__version__ = "2.0.0"

# The subpackage that defines each export.  They load on first use
# (PEP 562), so ``import repro.analysis`` or ``import repro.sim`` does not
# pull in the whole simulator.
_EXPORTS = {
    name: module
    for module, names in {
        "api": ("AppScheduler", "CRcnfg", "CThread"),
        "cluster": ("FpgaCluster", "FpgaNode"),
        "core": (
            "Bitstream", "BitstreamKind", "Descriptor", "LocalSg", "Oper", "RdmaSg",
            "ServiceConfig", "SgEntry", "Shell", "ShellConfig", "StreamType",
            "UserApp", "VFpga", "VFpgaConfig",
        ),
        "driver": ("Driver",),
        "faults": ("FaultInjector", "FaultPlan", "FaultRule", "RetryPolicy"),
        "health": (
            "AdmissionError", "DecoupledError", "HealthConfig", "HealthMonitor",
            "HealthReport", "QuarantinedError", "RecoveredError",
        ),
        "mem": ("AllocType", "MemLocation", "TlbConfig"),
        "sim": ("Environment",),
        "telemetry": (
            "MetricsRegistry", "SimProfiler", "SpanRecorder",
            "collect_card_metrics", "collect_cluster_metrics",
        ),
    }.items()
    for name in names
}


__all__ = [
    "Environment",
    "Shell",
    "ShellConfig",
    "ServiceConfig",
    "VFpga",
    "VFpgaConfig",
    "UserApp",
    "Driver",
    "CThread",
    "CRcnfg",
    "AppScheduler",
    "FpgaCluster",
    "FpgaNode",
    "Oper",
    "SgEntry",
    "LocalSg",
    "RdmaSg",
    "Descriptor",
    "StreamType",
    "AllocType",
    "MemLocation",
    "TlbConfig",
    "Bitstream",
    "BitstreamKind",
    "FaultPlan",
    "FaultRule",
    "FaultInjector",
    "RetryPolicy",
    "HealthMonitor",
    "HealthConfig",
    "HealthReport",
    "RecoveredError",
    "QuarantinedError",
    "DecoupledError",
    "AdmissionError",
    "MetricsRegistry",
    "SimProfiler",
    "SpanRecorder",
    "collect_card_metrics",
    "collect_cluster_metrics",
    "__version__",
]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
