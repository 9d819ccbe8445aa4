"""EVT001 / EVT002 / DLK001 — whole-program event-flow rules.

These run on the :class:`~repro.analysis.flow.ProjectIndex`, not on one
module, because the bugs they catch live *between* functions:

* **EVT001 (lost wakeup)** — an event symbol that is awaited somewhere
  but has **no** reachable ``succeed()``/``fail()`` producer anywhere in
  the project.  The waiter parks forever; at runtime this is exactly
  what the stuck-at-drain sanitizer ledger reports.  The rule is
  deliberately escape-sensitive: any use the index cannot classify
  (passing the event to a call, storing it in a container, returning
  it) assumes a producer exists, so only *provably* orphaned waits fire.
* **EVT002 (succeed after defuse)** — ``defuse()`` declares an event's
  failure handled out-of-band; the engine's sanctioned chain is
  ``ev.defuse().fail(exc)``.  A ``succeed()`` reachable after the
  defuse contradicts the handoff (the waiter was promised a failure
  path): flagged intraprocedurally by statement order, and one hop
  through same-class helper methods called after the defuse.
* **DLK001 (static wait-for cycle)** — generator process A awaits an
  event attribute only ever set by generator B, while B awaits one only
  set by A.  Neither can make progress; the edge-triggered scheduler
  turns this from "slow" into "silently parked forever".  Edges are
  added only when the producer set of an awaited symbol is a singleton,
  so a second independent producer breaks the cycle statically too.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set, Tuple

from .findings import Finding, make_finding
from .flow import FunctionInfo, ProjectIndex

__all__ = ["check_evt001", "check_evt002", "check_dlk001"]


def _flow_scoped(fn: FunctionInfo) -> bool:
    """Event rules only fire in modules that schedule events — the same
    scope gate DET002/SIM001 use."""
    return fn.module.schedules_events


# ---------------------------------------------------------------- EVT001


def check_evt001(index: ProjectIndex) -> List[Finding]:
    findings: List[Finding] = []
    # Attribute symbols: project-wide by attribute name.
    for attr in sorted(index.attr_events):
        uses = index.attr_events[attr]
        if not any(u.kind == "def" and _flow_scoped(u.function) for u in uses):
            continue
        kinds = {u.kind for u in uses}
        if "await" not in kinds:
            continue
        if kinds & {"produce", "escape", "defuse"}:
            continue
        first_await = min(
            (u for u in uses if u.kind == "await"),
            key=lambda u: (u.function.module.display_path, u.line),
        )
        findings.append(
            make_finding(
                first_await.function.module.display_path,
                first_await.line,
                "EVT001",
                f"event attribute `.{attr}` is awaited here but no "
                "succeed()/fail() producer is reachable anywhere in the "
                "project (lost wakeup)",
            )
        )
    # Local event variables: intra-function, escape-sensitive.
    for fn in index.functions:
        if not _flow_scoped(fn):
            continue
        for var in sorted(fn.event_locals):
            uses = index.classify_local_event_uses(fn, var)
            kinds = {u.kind for u in uses}
            if "await" not in kinds:
                continue
            if kinds & {"produce", "escape", "defuse"}:
                continue
            first_await = min(
                (u for u in uses if u.kind == "await"), key=lambda u: u.line
            )
            findings.append(
                make_finding(
                    fn.module.display_path,
                    first_await.line,
                    "EVT001",
                    f"local event `{var}` is awaited in `{fn.qualname}` but "
                    "never passed out and never succeeded/failed (lost "
                    "wakeup)",
                )
            )
    return findings


# ---------------------------------------------------------------- EVT002


def _produce_lines(fn: FunctionInfo, receiver: str, attr: str) -> List[int]:
    """Lines in ``fn`` where ``<receiver>.succeed(...)`` is called."""
    out = []
    for node in fn.of(ast.Call):
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == attr
            and ast.unparse(node.func.value) == receiver
        ):
            out.append(node.lineno)
    return out


def check_evt002(index: ProjectIndex) -> List[Finding]:
    findings: List[Finding] = []
    for fn in index.functions:
        if not _flow_scoped(fn):
            continue
        defuses: List[Tuple[int, str]] = []
        for node in fn.of(ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "defuse"
            ):
                defuses.append((node.lineno, ast.unparse(node.func.value)))
        if not defuses:
            continue
        for defuse_line, receiver in defuses:
            # Intraprocedural: a succeed() on the same receiver text at a
            # later line than the defuse.
            for line in _produce_lines(fn, receiver, "succeed"):
                if line > defuse_line:
                    findings.append(
                        make_finding(
                            fn.module.display_path,
                            line,
                            "EVT002",
                            f"`{receiver}.succeed()` is reachable after "
                            f"`{receiver}.defuse()` (line {defuse_line}) "
                            "declared its failure handled out-of-band",
                        )
                    )
            # One hop: a same-class helper called after the defuse that
            # succeeds the same self-attribute.
            if not receiver.startswith("self."):
                continue
            for call, callee in fn.resolved_calls:
                if call.lineno <= defuse_line:
                    continue
                if callee.class_name != fn.class_name or callee is fn:
                    continue
                for line in _produce_lines(callee, receiver, "succeed"):
                    findings.append(
                        make_finding(
                            fn.module.display_path,
                            call.lineno,
                            "EVT002",
                            f"`{callee.qualname}()` called here succeeds "
                            f"`{receiver}` (line {line}) after "
                            f"`{receiver}.defuse()` (line {defuse_line}) "
                            "declared its failure handled out-of-band",
                        )
                    )
    return findings


# ---------------------------------------------------------------- DLK001


def _await_produce_maps(
    index: ProjectIndex,
) -> Tuple[Dict[FunctionInfo, Set[str]], Dict[str, Set[FunctionInfo]]]:
    awaits: Dict[FunctionInfo, Set[str]] = {}
    producers: Dict[str, Set[FunctionInfo]] = {}
    for attr, uses in index.attr_events.items():
        for use in uses:
            if use.kind == "await" and use.function.is_generator:
                awaits.setdefault(use.function, set()).add(attr)
            elif use.kind == "produce":
                producers.setdefault(attr, set()).add(use.function)
    return awaits, producers


def check_dlk001(index: ProjectIndex) -> List[Finding]:
    awaits, producers = _await_produce_maps(index)
    # Build the singleton-producer wait-for graph between generators.
    edges: Dict[FunctionInfo, Dict[FunctionInfo, str]] = {}
    for waiter, symbols in awaits.items():
        if not _flow_scoped(waiter):
            continue
        for symbol in sorted(symbols):
            prods = producers.get(symbol, set())
            if len(prods) != 1:
                continue
            producer = next(iter(prods))
            if producer is waiter or not producer.is_generator:
                continue
            edges.setdefault(waiter, {})[producer] = symbol
    # Find cycles with a bounded DFS over the (tiny) graph.
    findings: List[Finding] = []
    reported: Set[frozenset] = set()
    order = sorted(edges, key=lambda f: (f.module.display_path, f.node.lineno))
    for start in order:
        path: List[FunctionInfo] = []

        def dfs(fn: FunctionInfo) -> None:
            path.append(fn)
            for nxt in sorted(
                edges.get(fn, {}),
                key=lambda f: (f.module.display_path, f.node.lineno),
            ):
                if nxt is start and len(path) > 1:
                    members = frozenset(id(p) for p in path)
                    if members in reported:
                        continue
                    reported.add(members)
                    findings.append(_cycle_finding(index, path, edges))
                elif nxt not in path and len(path) < 8:
                    dfs(nxt)
            path.pop()

        dfs(start)
    return findings


def _cycle_finding(
    index: ProjectIndex,
    path: List[FunctionInfo],
    edges: Dict[FunctionInfo, Dict[FunctionInfo, str]],
) -> Finding:
    hops = []
    for i, fn in enumerate(path):
        nxt = path[(i + 1) % len(path)]
        symbol = edges[fn][nxt]
        hops.append(f"`{fn.qualname}` awaits `.{symbol}` set only by `{nxt.qualname}`")
    anchor = path[0]
    # Anchor the finding at the first awaiting yield of the first member.
    line = anchor.node.lineno
    symbol = edges[anchor][path[1 % len(path)]]
    for use in index.attr_events.get(symbol, []):
        if use.function is anchor and use.kind == "await":
            line = use.line
            break
    return make_finding(
        anchor.module.display_path,
        line,
        "DLK001",
        "static wait-for cycle between generator processes: "
        + "; ".join(hops),
    )
