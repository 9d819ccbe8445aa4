"""RES001 — credit acquire/release pairing.

The crediting protocol (paper §7.2, ``repro.core.credit``) contains
back-pressure only while every acquired credit is eventually released —
the exception-path leak class the ``app.wedge_credit`` chaos site probes
dynamically.  This rule proves the *lexical* half: inside one function,
a ``<credit-ish>.acquire()`` must either

* sit inside (or immediately before) a ``try`` whose ``finally`` block
  releases the same receiver, or
* be waived — the sanctioned waiver case is *split-phase* crediting,
  where the release deliberately happens in another process (the vFPGA
  releases a read credit when it consumes the deposited flit).

"Credit-ish" means the receiver expression mentions ``credit`` or
``guard`` (``vfpga.rd_credits[...]``, ``crediter``, ``CreditGuard``
instances); arbitrary unrelated ``.acquire()`` APIs (e.g. thread locks
in host-side tooling) are not this rule's business.
"""

from __future__ import annotations

import ast
from typing import List

from .findings import Finding, make_finding
from .modules import SourceModule

__all__ = ["check_res001"]

_RECEIVER_MARKERS = ("credit", "guard")


def _is_credit_receiver(expr: ast.expr) -> bool:
    text = ast.unparse(expr).lower()
    return any(marker in text for marker in _RECEIVER_MARKERS)


def _calls_with_attr(calls, *attrs: str) -> List[ast.Call]:
    return [
        node
        for node in calls
        if isinstance(node.func, ast.Attribute)
        and node.func.attr in attrs
        and _is_credit_receiver(node.func.value)
    ]


def _finally_releases(module: SourceModule, try_node: ast.AST) -> bool:
    """Does any credit release sit in this ``try``'s ``finally`` block?"""
    return any(
        module.encloses(stmt, call)
        for call in _calls_with_attr(module.of(ast.Call), "release", "release_all")
        for stmt in try_node.finalbody
    )


def _guarded_by_finally(module: SourceModule, func: ast.AST, acquire: ast.AST) -> bool:
    """Acquire is safe when a try/finally releasing a credit either
    encloses it or is the statement right after one that encloses it,
    anywhere between it and ``func``."""
    child = acquire
    while child is not func:
        parent = module.parents[id(child)]
        if (
            isinstance(parent, ast.Try)
            and parent.finalbody
            and any(stmt is child for stmt in parent.body)
            and _finally_releases(module, parent)
        ):
            return True
        for field in ("body", "orelse", "finalbody"):
            block = getattr(parent, field, None)
            if not isinstance(block, list):
                continue
            for index, stmt in enumerate(block[:-1]):
                follower = block[index + 1]
                if (
                    stmt is child
                    and isinstance(follower, ast.Try)
                    and follower.finalbody
                    and _finally_releases(module, follower)
                ):
                    return True
        child = parent
    return False


def check_res001(module: SourceModule) -> List[Finding]:
    findings: List[Finding] = []
    for func in module.of(ast.FunctionDef, ast.AsyncFunctionDef):
        own = module.own_of(func, ast.Call)
        acquires = _calls_with_attr(own, "acquire")
        if not acquires:
            continue
        releases = _calls_with_attr(own, "release", "release_all")
        for acquire in acquires:
            receiver_text = ast.unparse(acquire.func.value)
            if not releases:
                findings.append(
                    make_finding(
                        module.display_path,
                        acquire.lineno,
                        "RES001",
                        f"`{receiver_text}.acquire()` has no release() in "
                        f"`{func.name}` (split-phase crediting must be waived "
                        "with its releasing counterpart named)",
                    )
                )
                continue
            if not _guarded_by_finally(module, func, acquire):
                findings.append(
                    make_finding(
                        module.display_path,
                        acquire.lineno,
                        "RES001",
                        f"release() for `{receiver_text}.acquire()` in "
                        f"`{func.name}` is not guaranteed on exception paths",
                    )
                )
    return findings
