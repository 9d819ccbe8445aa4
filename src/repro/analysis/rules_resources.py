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
from typing import List, Optional, Tuple

from .findings import Finding, make_finding
from .modules import SourceModule, own_nodes

__all__ = ["check_res001"]

_RECEIVER_MARKERS = ("credit", "guard")


def _is_credit_receiver(expr: ast.expr) -> bool:
    text = ast.unparse(expr).lower()
    return any(marker in text for marker in _RECEIVER_MARKERS)


def _calls_with_attr(scope_nodes, attr: str) -> List[ast.Call]:
    return [
        node
        for node in scope_nodes
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == attr
        and _is_credit_receiver(node.func.value)
    ]


def _contains(node: ast.AST, target: ast.AST) -> bool:
    return any(candidate is target for candidate in ast.walk(node))


def _finally_releases(try_node: ast.Try, receiver_text: str) -> bool:
    for stmt in try_node.finalbody:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("release", "release_all")
                and _is_credit_receiver(node.func.value)
            ):
                released = ast.unparse(node.func.value)
                if released == receiver_text or receiver_text == "":
                    return True
    return False


def _statement_blocks(func: ast.AST):
    """Yield every statement list in the function (bodies of ifs, loops,
    trys, withs, ...), so sibling order can be inspected."""
    for node in ast.walk(func):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
                yield block


def _guarded_by_finally(func: ast.AST, acquire: ast.Call, receiver_text: str) -> bool:
    """Acquire is safe when a try/finally releasing its receiver either
    encloses it or is the immediately following sibling statement."""
    for node in ast.walk(func):
        if not isinstance(node, ast.Try) or not node.finalbody:
            continue
        if not _finally_releases(node, receiver_text) and not _finally_releases(node, ""):
            continue
        if any(_contains(stmt, acquire) for stmt in node.body):
            return True
    for block in _statement_blocks(func):
        for index, stmt in enumerate(block[:-1]):
            if not _contains(stmt, acquire):
                continue
            follower = block[index + 1]
            if (
                isinstance(follower, ast.Try)
                and follower.finalbody
                and (
                    _finally_releases(follower, receiver_text)
                    or _finally_releases(follower, "")
                )
            ):
                return True
    return False


def check_res001(module: SourceModule) -> List[Finding]:
    findings: List[Finding] = []
    for func in ast.walk(module.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        own = own_nodes(func)
        acquires = _calls_with_attr(own, "acquire")
        if not acquires:
            continue
        releases = _calls_with_attr(own, "release") + _calls_with_attr(
            own, "release_all"
        )
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
            if not _guarded_by_finally(func, acquire, receiver_text):
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
