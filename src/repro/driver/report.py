"""Observability: a /proc-style status report for a card.

The real driver exposes per-vFPGA state through sysfs/debugfs; operators
read it to see which tenant is saturating the link or stalling on
credits.  ``card_report`` is that view: the card's identity, its
processes and health verdict, the per-region credit and TLB state, and
every counter under its one ``domain.metric`` name in ``telemetry``.
"""

from __future__ import annotations

from typing import Any, Dict

from ..core.interfaces import StreamType
from ..health.monitor import health_section
from ..telemetry.collect import collect_card_metrics
from .driver import Driver

__all__ = ["card_report", "format_report"]


def card_report(driver: Driver) -> Dict[str, Any]:
    """Collect a structured snapshot of one card's state."""
    shell = driver.shell
    injector = shell.fault_injector
    report: Dict[str, Any] = {
        "device": shell.config.device,
        "services": sorted(shell.config.service_names),
        "shell_id": shell.shell_id,
        # The armed injector's per-site {events, fires}; what those faults
        # did to the card is counted under telemetry.
        "faults": {} if injector is None else {"injected": injector.summary()},
        # Card health verdict + per-region recovery state (repro.health).
        "health": health_section(driver),
        # The statistics-register view: every domain's live counters under
        # canonical dot-path names (see repro.telemetry).
        "telemetry": collect_card_metrics(driver).snapshot(),
        "processes": sorted(driver.processes),
        "vfpgas": [],
    }
    for vfpga in shell.vfpgas:
        mmu = shell.dynamic.mmus.get(vfpga.vfpga_id)
        entry = {
            "id": vfpga.vfpga_id,
            "app": vfpga.app.name if vfpga.app else None,
            "interrupts_sent": vfpga.interrupts_sent,
            "credits": {
                kind.value: {
                    "rd_in_flight": vfpga.rd_credits[kind].in_flight,
                    "rd_stalls": vfpga.rd_credits[kind].stalls,
                    "wr_in_flight": vfpga.wr_credits[kind].in_flight,
                    "wr_stalls": vfpga.wr_credits[kind].stalls,
                }
                for kind in StreamType
            },
        }
        if mmu is not None:
            entry["tlb"] = {
                "hits": mmu.tlb.hits,
                "misses": mmu.tlb.misses,
                "hit_rate": round(mmu.tlb.hit_rate, 4),
                "occupancy": mmu.tlb.occupancy,
            }
        report["vfpgas"].append(entry)
    return report


def _lines(prefix: str, value: Any):
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _lines(f"{prefix}.{key}" if prefix else str(key), sub)
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        for i, sub in enumerate(value):
            yield from _lines(f"{prefix}[{i}]", sub)
    else:
        yield f"{prefix}: {value}"


def format_report(report: Dict[str, Any]) -> str:
    """Flatten the snapshot into sysfs-style `key: value` lines."""
    return "\n".join(_lines("", report))
