"""STM001 / RES002 — protocol-conformance rules on the project index.

* **STM001** — QP method-call sequences are checked against the
  *declared* ``modify_qp`` ladder (``QP_PROTOCOL`` in
  ``repro/net/qp.py``, extracted statically the same way FLT001 reads
  the fault registry).  A tiny abstract interpreter walks each function
  body tracking the state of every QP-ish receiver: straight-line
  sequences are checked exactly; branches fork and re-merge (diverging
  states collapse to *unknown*); loops, ``try`` bodies and anything
  inside ``pytest.raises(...)`` reset to unknown, so the rule only
  reports transitions that are wrong on *every* path that reaches them.
* **RES002** — RES001 across helper boundaries.  A helper that acquires
  a credit and neither releases it locally nor carries a waiver leaves
  an *obligation* on its callers; a call site that neither wraps the
  call in a releasing ``try``/``finally`` nor releases anywhere in the
  caller fires, and the obligation keeps propagating up the (resolved)
  call graph until someone discharges it.  Waived acquires — the
  sanctioned split-phase pattern, released in another process — do not
  propagate: the waiver's justification owns that contract.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .findings import Finding, make_finding
from .flow import FunctionInfo, ProjectIndex
from .modules import load_module
from .rules_resources import _calls_with_attr, _guarded_by_finally

__all__ = [
    "check_stm001",
    "check_res002",
    "load_qp_protocol",
    "find_qp_protocol_path",
]

#: method -> (allowed predecessor states, resulting state)
QpProtocol = Dict[str, Tuple[Tuple[str, ...], str]]

#: Methods distinctive enough to mark any receiver as a QP.
_DISTINCTIVE = frozenset({"to_rtr", "to_rts", "to_sq_error"})

_UNKNOWN = None


def find_qp_protocol_path(roots: List[Path]) -> Optional[Path]:
    """Locate ``net/qp.py`` under the analyzed roots, falling back to the
    conventional ``src/repro/net/qp.py`` below the cwd."""
    for root in roots:
        base = root if root.is_dir() else root.parent
        for candidate in sorted(base.rglob("qp.py")):
            if candidate.parent.name == "net":
                return candidate
    fallback = Path("src/repro/net/qp.py")
    return fallback if fallback.exists() else None


def load_qp_protocol(qp_path: Path) -> QpProtocol:
    """Extract the ``QP_PROTOCOL`` literal without importing the tree."""
    for node in load_module(qp_path).of(ast.Assign):
        if (
            len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "QP_PROTOCOL"
        ):
            table = ast.literal_eval(node.value)
            return {
                method: (tuple(allowed), result)
                for method, (allowed, result) in table.items()
            }
    return {}


# ---------------------------------------------------------------- STM001


def _qp_receivers(fn: FunctionInfo, protocol: QpProtocol) -> set:
    """Receiver texts treated as QueuePairs in this function: explicit
    ``QueuePair(...)`` assignments, names that look like a qp, and any
    receiver a distinctive ladder method is called on."""
    receivers = set(fn.qp_locals)
    for node in fn.of(ast.Call):
        if not (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in protocol
        ):
            continue
        text = ast.unparse(node.func.value)
        last = text.rsplit(".", 1)[-1].lower()
        if (
            node.func.attr in _DISTINCTIVE
            or last.startswith("qp")
            or last.endswith("qp")
        ):
            receivers.add(text)
    return receivers


def _is_raises_block(node: ast.With) -> bool:
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Call) and "raises" in ast.unparse(expr.func):
            return True
    return False


class _StmInterp:
    """Abstract interpreter over one function body for STM001."""

    def __init__(self, fn: FunctionInfo, protocol: QpProtocol, receivers: set):
        self.fn = fn
        self.protocol = protocol
        self.receivers = receivers
        module = fn.module
        #: Ladder calls on a QP receiver anywhere below the function.
        self.calls = [
            node
            for node in module.of(ast.Call)
            if isinstance(node.func, ast.Attribute)
            and node.func.attr in protocol
            and ast.unparse(node.func.value) in receivers
            and module.encloses(fn.node, node)
        ]
        self.findings: List[Finding] = []

    def run(self) -> List[Finding]:
        states: Dict[str, Optional[str]] = {}
        self._block(getattr(self.fn.node, "body", []), states, check=True)
        return self.findings

    # -- statement dispatch ------------------------------------------------

    def _block(self, stmts, states: Dict[str, Optional[str]], check: bool) -> None:
        for stmt in stmts:
            self._stmt(stmt, states, check)

    def _stmt(self, stmt: ast.stmt, states, check: bool) -> None:
        if isinstance(stmt, ast.If):
            fork = dict(states)
            self._block(stmt.body, states, check)
            self._block(stmt.orelse, fork, check)
            for key in set(states) | set(fork):
                if states.get(key) != fork.get(key):
                    states[key] = _UNKNOWN
            return
        if isinstance(stmt, (ast.For, ast.While, ast.AsyncFor)):
            # Loop bodies re-execute: interpret with unknown entry states
            # (no false fires) and leave everything touched unknown.
            fork = {key: _UNKNOWN for key in states}
            self._block(stmt.body, fork, check)
            self._block(stmt.orelse, fork, check)
            for key in fork:
                states[key] = _UNKNOWN
            return
        if isinstance(stmt, ast.Try):
            self._block(stmt.body, states, check)
            for handler in stmt.handlers:
                fork = {key: _UNKNOWN for key in states}
                self._block(handler.body, fork, check)
            self._block(stmt.finalbody, states, check=check)
            for key in states:
                states[key] = _UNKNOWN
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            if isinstance(stmt, ast.With) and _is_raises_block(stmt):
                # A deliberate illegal-transition probe: skip checking,
                # and assume nothing about the state afterwards.
                fork = dict(states)
                self._block(stmt.body, fork, check=False)
                for key in fork:
                    states[key] = _UNKNOWN
                return
            self._block(stmt.body, states, check)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        self._calls_in(stmt, states, check)

    def _calls_in(self, stmt: ast.stmt, states, check: bool) -> None:
        module = self.fn.module
        calls = [call for call in self.calls if module.encloses(stmt, call)]
        for call in sorted(calls, key=lambda c: (c.lineno, c.col_offset)):
            receiver = ast.unparse(call.func.value)
            method = call.func.attr
            allowed, result = self.protocol[method]
            state = states.get(receiver, _UNKNOWN)
            if (
                check
                and state is not _UNKNOWN
                and "*" not in allowed
                and state not in allowed
            ):
                self.findings.append(
                    make_finding(
                        self.fn.module.display_path,
                        call.lineno,
                        "STM001",
                        f"`{receiver}.{method}()` called in state "
                        f"'{state}' but the declared QP protocol allows it "
                        f"only from {', '.join(repr(a) for a in allowed)}",
                    )
                )
            states[receiver] = result
        # A ``qp = QueuePair(...)`` construction (re)sets the abstract
        # state to the dataclass default.
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id in self.fn.qp_locals
            and isinstance(stmt.value, ast.Call)
        ):
            func = stmt.value.func
            name = func.id if isinstance(func, ast.Name) else ""
            dotted = self.fn.module.from_imports.get(name, name)
            if dotted.rpartition(".")[2] == "QueuePair" or name == "QueuePair":
                states[stmt.targets[0].id] = _ctor_state(stmt.value)


def _ctor_state(call: ast.Call) -> Optional[str]:
    """Abstract state after ``QueuePair(...)``: the dataclass default,
    unless an explicit ``state=QpState.X`` keyword overrides it (member
    names map onto the protocol's state strings)."""
    for keyword in call.keywords:
        if keyword.arg != "state":
            continue
        value = keyword.value
        if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name):
            if value.value.id == "QpState":
                return value.attr.lower()
        return _UNKNOWN
    return "init"


def check_stm001(index: ProjectIndex, protocol: QpProtocol) -> List[Finding]:
    if not protocol:
        return []
    findings: List[Finding] = []
    for fn in index.functions:
        receivers = _qp_receivers(fn, protocol)
        if not receivers:
            continue
        findings.extend(_StmInterp(fn, protocol, receivers).run())
    return findings


# ---------------------------------------------------------------- RES002


def _has_credit_release(fn: FunctionInfo) -> bool:
    return bool(_calls_with_attr(fn.of(ast.Call), "release", "release_all"))


def check_res002(index: ProjectIndex) -> List[Finding]:
    # Per-function summary: does calling this function (transitively)
    # acquire a credit that nothing on the path has released?
    opens: Dict[int, bool] = {}
    visiting: set = set()

    def opens_credit(fn: FunctionInfo) -> bool:
        key = id(fn)
        if key in opens:
            return opens[key]
        if key in visiting:  # recursion: optimistically balanced
            return False
        visiting.add(key)
        result = False
        if not _has_credit_release(fn):
            for acquire in _calls_with_attr(fn.of(ast.Call), "acquire"):
                if fn.module.waivers.covers(
                    acquire.lineno, ("RES001", "RES002")
                ):
                    continue  # sanctioned split-phase: contract lives there
                result = True
                break
            if not result:
                for call, callee in fn.resolved_calls:
                    if callee is fn:
                        continue
                    if opens_credit(callee) and not _guarded_by_finally(
                        fn.module, fn.node, call
                    ):
                        result = True
                        break
        visiting.discard(key)
        opens[key] = result
        return result

    findings: List[Finding] = []
    for fn in index.functions:
        if _has_credit_release(fn):
            continue  # the caller discharges obligations lexically
        for call, callee in fn.resolved_calls:
            if callee is fn or not opens_credit(callee):
                continue
            if _guarded_by_finally(fn.module, fn.node, call):
                continue
            findings.append(
                make_finding(
                    fn.module.display_path,
                    call.lineno,
                    "RES002",
                    f"call to `{callee.qualname}` acquires credit(s) with "
                    f"no release guaranteed in `{fn.qualname}` or below "
                    "(interprocedural RES001)",
                )
            )
    return findings
