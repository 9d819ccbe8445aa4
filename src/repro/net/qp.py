"""RDMA queue pairs: the full IB-style connection state machine.

Mirrors Coyote v2's software surface where a cThread exchanges QP numbers
and buffer descriptors out-of-band, then issues one-sided verbs.  The QP
tracks the reliable-connection state: send PSN, acknowledged PSN, expected
receive PSN and the message sequence number.

State machine (InfiniBand verbs ``modify_qp`` ladder)::

    RESET ──to_init──▶ INIT ──to_rtr──▶ RTR ──to_rts──▶ RTS
      ▲                                                  │
      │                              to_sq_error ────────┤
      │                                   │              │
      │                                   ▼              ▼
      └────────── reset() ◀────────── SQ_ERROR ──────▶ ERROR
                                        (to_error, from any state)

``connect()`` is the out-of-band convenience that walks INIT→RTR→RTS in
one call (the paper exchanges endpoints via TCP).  ``SQ_ERROR`` halts
only the send queue (the responder half still delivers inbound work);
``ERROR`` halts both.  ``reset()`` returns the QP to ``RESET`` from any
state so recovery can re-connect — the path
:class:`~repro.net.rdma.RdmaStack.reset_qp` takes after flushing.

The transition methods only move the state; flushing outstanding work
requests (as typed :class:`~repro.net.rdma.WrFlushError`\\ s) is the
stack's job — see ``RdmaStack.qp_error``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .cmac import CMAC_BANDWIDTH
from .headers import MacAddress

__all__ = [
    "QpState",
    "QpEndpoint",
    "QueuePair",
    "QpTransitionError",
    "DcqcnConfig",
    "DcqcnState",
    "PSN_MOD",
    "QP_PROTOCOL",
    "QP_INITIAL_STATE",
]

#: PSNs are 24-bit counters.
PSN_MOD = 1 << 24

#: The declared ``modify_qp`` protocol: method -> (states it may be
#: called from, state it lands in).  ``"*"`` means any state (IB's
#: ``*2ERR``/``*2RESET`` arrows); error-state entries on ``to_sq_error``
#: reflect its idempotent no-op there.  This table is the single
#: declaration the transition methods below implement and the STM001
#: analyzer rule reads *statically* (``repro.analysis.rules_protocol``)
#: to check call sequences across the tree — keep it a pure literal.
QP_PROTOCOL = {
    "to_init": (("reset",), "init"),
    "to_rtr": (("init",), "rtr"),
    "to_rts": (("rtr",), "rts"),
    "to_sq_error": (("rts", "sq_error", "error"), "sq_error"),
    "to_error": (("*",), "error"),
    "reset": (("*",), "reset"),
    "connect": (("reset", "init"), "rts"),
}

#: A freshly constructed :class:`QueuePair` starts in INIT (the
#: dataclass default below) — what STM001 assumes after ``QueuePair(...)``.
QP_INITIAL_STATE = "init"


class QpState(Enum):
    RESET = "reset"
    INIT = "init"
    RTR = "ready-to-receive"
    RTS = "ready-to-send"
    SQ_ERROR = "sq-error"
    ERROR = "error"


class QpTransitionError(RuntimeError):
    """An illegal ``modify_qp`` transition (e.g. ``connect`` from RTS)."""

    def __init__(self, qpn: int, state: QpState, wanted: QpState):
        super().__init__(
            f"QP {qpn}: illegal transition {state.value!r} -> {wanted.value!r}"
        )
        self.qpn = qpn
        self.state = state
        self.wanted = wanted


@dataclass(frozen=True)
class QpEndpoint:
    """One side of a connection: where it lives and its initial PSN."""

    mac: MacAddress
    ip: int
    qpn: int
    psn: int = 0
    rkey: int = 0
    buffer_vaddr: int = 0
    buffer_len: int = 0


@dataclass
class QueuePair:
    """Reliable-connection QP state machine (data only; logic in RdmaStack)."""

    local: QpEndpoint
    remote: Optional[QpEndpoint] = None
    state: QpState = QpState.INIT
    sq_psn: int = 0  # next PSN to assign on send
    acked_psn: int = -1  # highest PSN acknowledged by the peer
    epsn: int = 0  # next PSN expected from the peer
    msn: int = 0  # messages completed at the responder
    #: Why the QP left the operational states (diagnostics / WrFlushError).
    error_reason: str = ""

    def __post_init__(self) -> None:
        self.sq_psn = self.local.psn

    # ------------------------------------------------------- modify_qp ladder

    def to_init(self) -> None:
        if self.state is not QpState.RESET:
            raise QpTransitionError(self.local.qpn, self.state, QpState.INIT)
        self.state = QpState.INIT

    def to_rtr(self, remote: QpEndpoint) -> None:
        """Install the remote endpoint; the receive side comes alive."""
        if self.state is not QpState.INIT:
            raise QpTransitionError(self.local.qpn, self.state, QpState.RTR)
        self.remote = remote
        self.epsn = remote.psn
        self.state = QpState.RTR

    def to_rts(self) -> None:
        if self.state is not QpState.RTR:
            raise QpTransitionError(self.local.qpn, self.state, QpState.RTS)
        self.state = QpState.RTS

    def to_sq_error(self, reason: str = "send queue error") -> None:
        """Halt the send queue only (responder half keeps serving)."""
        if self.state in (QpState.SQ_ERROR, QpState.ERROR):
            return
        if self.state is not QpState.RTS:
            raise QpTransitionError(self.local.qpn, self.state, QpState.SQ_ERROR)
        self.state = QpState.SQ_ERROR
        self.error_reason = reason

    def to_error(self, reason: str = "error") -> None:
        """Any state may move to ERROR (IB allows ``*2ERR``); idempotent."""
        if self.state is QpState.ERROR:
            return
        self.state = QpState.ERROR
        self.error_reason = reason

    def reset(self) -> None:
        """Back to RESET from any state, forgetting the connection — the
        re-connect path recovery takes after a flush."""
        self.state = QpState.RESET
        self.remote = None
        self.sq_psn = self.local.psn
        self.acked_psn = -1
        self.epsn = 0
        self.msn = 0
        self.error_reason = ""

    # ------------------------------------------------------------ convenience

    def connect(self, remote: QpEndpoint) -> None:
        """Out-of-band connection setup (the paper exchanges this via TCP):
        walks the INIT→RTR→RTS ladder in one call."""
        if self.state is QpState.RESET:
            self.to_init()
        if self.state is not QpState.INIT:
            raise QpTransitionError(self.local.qpn, self.state, QpState.RTS)
        self.to_rtr(remote)
        self.to_rts()

    @property
    def connected(self) -> bool:
        return self.state is QpState.RTS and self.remote is not None

    @property
    def in_error(self) -> bool:
        """True in either error state; the send queue is unusable."""
        return self.state in (QpState.SQ_ERROR, QpState.ERROR)

    def next_psn(self) -> int:
        psn = self.sq_psn
        self.sq_psn = (self.sq_psn + 1) % PSN_MOD
        return psn

    def outstanding(self) -> int:
        """Number of sent-but-unacked packets (modulo arithmetic)."""
        return (self.sq_psn - (self.acked_psn + 1)) % PSN_MOD


@dataclass(frozen=True)
class DcqcnConfig:
    """DCQCN (RoCE congestion control) endpoint parameters.

    Off by default: uncongested workloads pay nothing.  When enabled,
    data packets leave ECT(0)-marked, CE-marked arrivals are answered
    with per-QP rate-limited CNPs, and each QP paces its transmissions
    through a :class:`DcqcnState` rate limiter.  Rates are bytes/ns;
    timing defaults follow the DCQCN paper's 55 µs timers scaled to the
    simulated 100G link.
    """

    enabled: bool = False
    #: Uncut rate (bytes/ns): the 100G line by default; also the
    #: recovery ceiling.
    line_rate: float = CMAC_BANDWIDTH
    #: Floor under multiplicative decrease (1 Gbit/s here).
    min_rate: float = 0.125
    #: EWMA gain for the congestion estimate alpha.
    alpha_g: float = 1.0 / 16.0
    #: Alpha decays once per this period without CNPs.
    alpha_update_ns: float = 55_000.0
    #: Rate-increase round length.
    rate_increase_ns: float = 55_000.0
    #: Fast-recovery rounds before additive increase.
    fast_recovery_rounds: int = 5
    #: Additive / hyper increase steps (bytes/ns per round): the DCQCN
    #: paper's 40 / 400 Mbit/s — gentle enough that the CNP cadence can
    #: hold the aggregate near the bottleneck rate.
    additive_increase: float = 0.005
    hyper_increase: float = 0.05
    #: Per-QP minimum spacing between generated CNPs.
    cnp_interval_ns: float = 50_000.0
    #: Rate a fresh QP starts at (the RPG initial rate knob hardware
    #: reaction points expose); ``0`` means start at line rate.
    initial_rate: float = 0.0


@dataclass
class DcqcnState:
    """Per-QP DCQCN rate-control state (the reaction point, RP).

    The DCQCN loop (Zhu et al., SIGCOMM'15) as the stack runs it:

    * The congestion point (a switch egress queue) CE-marks ECT frames
      above its threshold.
    * The notification point (the responder) answers marked arrivals
      with CNPs, rate-limited to one per QP per ``cnp_interval_ns``.
    * This state — the reaction point — cuts the send rate
      multiplicatively on each CNP and recovers in the standard three
      phases (fast recovery toward the pre-cut target, then additive,
      then hyper increase) while the QP stays CNP-free.

    All bookkeeping is *lazy*: there are no timer processes.  ``advance``
    replays any alpha-decay and rate-increase periods that elapsed since
    the last call, so idle QPs cost nothing and the simulation stays
    deterministic.  Rates are in bytes/ns (= GB/s); pacing reserves the
    next transmit slot via ``pacing_gap``.  The parameters stay on the
    shared ``config``; only the dynamic state lives here.
    """

    config: DcqcnConfig
    current_rate: float = 0.0
    target_rate: float = 0.0
    alpha: float = 1.0
    cnps: int = 0  # CNPs absorbed (telemetry)
    _last_alpha_update: float = 0.0
    _last_increase: float = 0.0
    _increase_rounds: int = 0
    _next_tx: float = 0.0
    _last_paced: float = 0.0

    def __post_init__(self) -> None:
        cfg = self.config
        start = cfg.initial_rate if cfg.initial_rate > 0.0 else cfg.line_rate
        if self.current_rate <= 0.0:
            self.current_rate = start
        if self.target_rate <= 0.0:
            self.target_rate = start

    def on_cnp(self, now: float) -> None:
        """Multiplicative decrease: a CNP arrived for this QP."""
        cfg = self.config
        alpha_g = cfg.alpha_g
        self.cnps += 1
        self.advance(now)
        self.target_rate = self.current_rate
        self.current_rate = max(
            cfg.min_rate, self.current_rate * (1.0 - self.alpha / 2.0)
        )
        self.alpha = (1.0 - alpha_g) * self.alpha + alpha_g
        self._last_alpha_update = now
        self._last_increase = now
        self._increase_rounds = 0

    def advance(self, now: float) -> None:
        """Replay elapsed alpha-decay and rate-increase periods."""
        cfg = self.config
        alpha_update_ns = cfg.alpha_update_ns
        while now - self._last_alpha_update >= alpha_update_ns:
            self.alpha *= 1.0 - cfg.alpha_g
            self._last_alpha_update += alpha_update_ns
        rate_increase_ns = cfg.rate_increase_ns
        line_rate = cfg.line_rate
        fast_rounds = cfg.fast_recovery_rounds
        while now - self._last_increase >= rate_increase_ns:
            self._last_increase += rate_increase_ns
            self._increase_rounds += 1
            if self._increase_rounds <= fast_rounds:
                # Fast recovery: binary-search back toward the target.
                self.current_rate = (self.current_rate + self.target_rate) / 2.0
            elif self._increase_rounds <= 2 * fast_rounds:
                self.target_rate = min(
                    line_rate, self.target_rate + cfg.additive_increase
                )
                self.current_rate = (self.current_rate + self.target_rate) / 2.0
            else:
                self.target_rate = min(
                    line_rate, self.target_rate + cfg.hyper_increase
                )
                self.current_rate = (self.current_rate + self.target_rate) / 2.0
            if self.current_rate > line_rate:
                self.current_rate = line_rate

    def pacing_gap(self, now: float, wire_bytes: int) -> float:
        """Reserve the next transmit slot; returns how long to hold this
        frame so the paced rate never exceeds ``current_rate``."""
        # Recovery is tied to *active transmission* (the paper's byte
        # counter): a flow stalled in retransmission or idle between
        # messages earns at most one increase round for the whole gap,
        # else it would resume with a fully recovered rate and re-burst
        # the very queue that cut it (the DCQCN restart problem).
        rate_increase_ns = self.config.rate_increase_ns
        idle = now - self._last_paced
        if idle > rate_increase_ns:
            floor = now - rate_increase_ns
            if self._last_increase < floor:
                self._last_increase = floor
            if self._last_alpha_update < floor:
                self._last_alpha_update = floor
        self._last_paced = now
        self.advance(now)
        gap = self._next_tx - now
        start = now if gap <= 0.0 else self._next_tx
        self._next_tx = start + wire_bytes / self.current_rate
        return gap if gap > 0.0 else 0.0
