"""Device driver model: memory management, faults, completions, PR ioctls."""

from .driver import Driver, DriverError, ProcessContext
from .errors import (
    MrAccessError,
    MrBoundsError,
    MrError,
    MrKeyError,
    MrOverlapError,
    QpOwnerError,
    RingError,
    RingFullError,
    ZeroLengthDescriptorError,
)
from .report import card_report, format_report
from .ringbuf import (
    DEFAULT_RING_SLOTS,
    CommandRing,
    CompletionBatch,
    MemoryRegion,
    MrTable,
    RingOp,
    RingOpcode,
    RingState,
)

__all__ = [
    "Driver",
    "DriverError",
    "ProcessContext",
    "card_report",
    "format_report",
    "ZeroLengthDescriptorError",
    "RingError",
    "RingFullError",
    "MrError",
    "MrKeyError",
    "MrBoundsError",
    "MrAccessError",
    "MrOverlapError",
    "QpOwnerError",
    "DEFAULT_RING_SLOTS",
    "CommandRing",
    "CompletionBatch",
    "MemoryRegion",
    "MrTable",
    "RingOp",
    "RingOpcode",
    "RingState",
]
