"""Typed errors raised at the driver's ioctl and ring ABI surfaces.

Kept in their own module so :mod:`repro.driver.driver` and
:mod:`repro.driver.ringbuf` can both raise them without importing each
other.  All ring/MR errors derive from :class:`DriverError`, so existing
``except DriverError`` call sites keep working unchanged.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "DriverError",
    "ProcessClosedError",
    "ZeroLengthDescriptorError",
    "RingError",
    "RingFullError",
    "MrError",
    "MrKeyError",
    "MrBoundsError",
    "MrAccessError",
    "MrOverlapError",
    "QpOwnerError",
]


class DriverError(Exception):
    """Invalid request at the driver's ioctl surface."""


class ProcessClosedError(DriverError):
    """The process's driver context was torn down (``close``/migration)
    while work was still in flight; every parked waiter — pending
    completions and ring batches alike — is failed with this instead of
    hanging forever."""

    def __init__(self, pid: int, reason: str = "closed"):
        super().__init__(f"pid {pid} was closed with work in flight ({reason})")
        self.pid = pid
        self.reason = reason


class ZeroLengthDescriptorError(DriverError):
    """A zero- or negative-length descriptor reached a submit path.

    The packetizer emits no packets for such a descriptor, so no
    ``last=True`` packet — and therefore no completion — would ever be
    produced; rejecting at post time turns a silent hang into an error.
    """


class RingError(DriverError):
    """Invalid operation against a process's command/completion rings."""


class RingFullError(RingError):
    """The command ring has no free slot; ring the doorbell to drain it."""


class MrError(DriverError):
    """Invalid memory-region registration or access."""


class MrKeyError(MrError):
    """A ring descriptor referenced an unregistered (or stale) MR key."""


class MrBoundsError(MrError):
    """An access fell outside its memory region's registered bounds."""


class MrAccessError(MrError):
    """A write targeted a memory region registered read-only."""


class MrOverlapError(MrError):
    """A registration overlapped an existing region of the same process."""


class QpOwnerError(DriverError):
    """A verb named a queue pair its caller's process does not own: it
    was never bound to the caller by ``create_qp``, or its owner closed.
    Refused in the submitter's frame, before anything runs."""

    def __init__(self, pid: int, qpn: int, owner: Optional[int]):
        held = "no process" if owner is None else f"pid {owner}"
        super().__init__(f"pid {pid} posted on QP {qpn}, which {held} owns")
        self.pid = pid
        self.qpn = qpn
        self.owner = owner
