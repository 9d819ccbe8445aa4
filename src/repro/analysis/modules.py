"""Source loading and scope classification for the analyzer.

Rules are scoped so they fire where the invariant actually matters:

* *sim-reachable* (``is_sim_scope``): the file lives under a ``src``
  directory — the simulator package itself.  Wall-clock and entropy are
  banned here (DET001) because anything the engine can reach feeds the
  deterministic event stream.  Benchmarks and tests measure wall time
  legitimately, so they are out of DET001 scope by construction.
* *event-scheduling* (``schedules_events``): the module imports the sim
  engine (``repro.sim`` or a relative ``.sim``/``..sim`` form) or calls
  ``env.process(...)`` / ``env.timeout(...)``.  Set-iteration order
  (DET002) and blocking calls in generators (SIM001) only matter in
  these modules.

Import tracking resolves local aliases (``import time as t``,
``from random import randint``) so the determinism rules match on what
a name *is*, not what it is spelled as.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .waivers import WaiverSet

__all__ = ["SourceModule", "load_module", "iter_python_files"]

_SIM_MODULE_MARKERS = ("repro.sim", ".sim", "sim.engine")


#: The scopes whose bodies a function's own nodes stop at.
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

#: AST type -> the fields the walk descends.  ``ctx`` is left out: the
#: Load/Store/Del markers are shared singletons with no one parent, and
#: no rule reads them.
_CHILD_FIELDS: Dict[type, Tuple[str, ...]] = {}


@dataclass
class SourceModule:
    """One parsed file and the index its single walk builds.

    Orders are part of the index's contract: ``walk`` and every
    ``of(...)`` list keep ``ast.walk``'s breadth-first order, and each
    ``own`` list keeps the depth-first, last-child-first order the
    per-function rules have always reported in.  Neither holds the
    ``ctx`` markers (``ast.Load`` and friends).
    """

    path: Path
    display_path: str
    tree: ast.Module
    lines: List[str]
    waivers: WaiverSet
    #: local name -> dotted module path, for ``import x``/``import x as y``
    module_aliases: Dict[str, str] = field(default_factory=dict)
    #: local name -> "module.attr", for ``from x import y [as z]``
    from_imports: Dict[str, str] = field(default_factory=dict)
    is_sim_scope: bool = False
    schedules_events: bool = False
    #: every node, in ``ast.walk`` order
    walk: List[ast.AST] = field(default_factory=list)
    #: AST type -> its nodes, in ``ast.walk`` order
    by_type: Dict[type, List[ast.AST]] = field(
        default_factory=lambda: defaultdict(list)
    )
    #: id(function, lambda or module node) -> AST type -> its own nodes
    #: of that type: those below it that no nested function or lambda
    #: encloses
    own: Dict[int, Dict[type, List[ast.AST]]] = field(default_factory=dict)
    #: id(node) -> parent node
    parents: Dict[int, ast.AST] = field(default_factory=dict)

    def of(self, *types: type) -> List[ast.AST]:
        """The module's nodes of these AST types, in ``ast.walk`` order."""
        buckets = [self.by_type[kind] for kind in types if kind in self.by_type]
        if len(buckets) <= 1:
            return buckets[0] if buckets else []
        return [node for node in self.walk if isinstance(node, types)]

    def own_of(self, scope: ast.AST, kind: type) -> List[ast.AST]:
        """``scope``'s own nodes of one AST type."""
        return self.own[id(scope)].get(kind, [])

    def encloses(self, outer: ast.AST, node: ast.AST) -> bool:
        """Is ``node`` ``outer`` itself or somewhere below it?"""
        while node is not None:
            if node is outer:
                return True
            node = self.parents.get(id(node))
        return False

    def dotted(self, node: ast.expr) -> Optional[str]:
        """The dotted name ``node`` (a call's ``func``) denotes through
        the module's import aliases, e.g. ``time.monotonic``."""
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = self.module_aliases.get(node.value.id)
            return None if module is None else f"{module}.{node.attr}"
        if isinstance(node, ast.Name):
            return self.from_imports.get(node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
            # e.g. datetime.datetime.now: outer attr chain
            inner = node.value
            if isinstance(inner.value, ast.Name):
                module = self.module_aliases.get(inner.value.id)
                if module is not None:
                    return f"{module}.{inner.attr}.{node.attr}"
            local = self.from_imports.get(getattr(inner.value, "id", ""))
            if local is not None:
                return f"{local}.{inner.attr}.{node.attr}"
        return None


def _index(module: SourceModule) -> None:
    """The one walk: fill ``walk``, ``by_type``, ``own`` and ``parents``.

    It runs depth first with the last child popped first, so each
    ``own`` list comes out in its final order.  Within one depth that
    order runs right to left, so ``walk`` (breadth first) is each
    depth's nodes reversed, shallowest depth first.
    """
    root, node_type = module.tree, ast.AST
    own, parents = module.own, module.parents
    owner = own[id(root)] = defaultdict(list)
    levels: List[List[ast.AST]] = []
    stack: List[Tuple[ast.AST, int, Dict[type, List[ast.AST]]]] = [(root, 0, owner)]
    push, pop = stack.append, stack.pop
    while stack:
        node, depth, owner = pop()
        if depth == len(levels):
            levels.append([])
        levels[depth].append(node)
        kind = type(node)
        if node is not root:
            owner[kind].append(node)
            if isinstance(node, _SCOPES):
                owner = own[id(node)] = defaultdict(list)
        depth += 1
        fields = _CHILD_FIELDS.get(kind)
        if fields is None:
            fields = _CHILD_FIELDS[kind] = tuple(f for f in node._fields if f != "ctx")
        for name in fields:
            value = getattr(node, name, None)
            if isinstance(value, node_type):
                parents[id(value)] = node
                push((value, depth, owner))
            elif value.__class__ is list:
                for item in value:
                    if isinstance(item, node_type):
                        parents[id(item)] = node
                        push((item, depth, owner))
    module.walk = [node for level in levels for node in reversed(level)]
    for node in module.walk:
        module.by_type[type(node)].append(node)


def _collect_imports(module: SourceModule) -> None:
    for node in module.of(ast.Import):
        for alias in node.names:
            module.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name
            )
    for node in module.of(ast.ImportFrom):
        source = "." * node.level + (node.module or "")
        for alias in node.names:
            module.from_imports[alias.asname or alias.name] = (
                f"{node.module or ''}.{alias.name}".lstrip(".")
            )
        if any(marker in source for marker in _SIM_MODULE_MARKERS):
            module.schedules_events = True
        if source.endswith("sim") or source == "..sim" or source == ".sim":
            module.schedules_events = True


def _detect_scheduling_calls(module: SourceModule) -> None:
    module.schedules_events = module.schedules_events or any(
        isinstance(node.func, ast.Attribute)
        and node.func.attr in ("process", "timeout")
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("env", "environment")
        for node in module.of(ast.Call)
    ) or any(node.id == "Environment" for node in module.of(ast.Name))


def load_module(path: Path, display_path: Optional[str] = None) -> Optional[SourceModule]:
    """Parse one file; returns None for unparsable sources (reported by
    the caller as a hard error, not a finding)."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    lines = text.splitlines()
    display = display_path or str(path)
    module = SourceModule(
        path=path,
        display_path=display,
        tree=tree,
        lines=lines,
        waivers=WaiverSet(display, lines),
        is_sim_scope="src" in path.parts,
    )
    _index(module)
    _collect_imports(module)
    _detect_scheduling_calls(module)
    return module


def iter_python_files(roots: List[Path]) -> List[Path]:
    """Every ``.py`` under the given files/directories, sorted for a
    deterministic report order."""
    seen = set()
    out: List[Path] = []
    for root in roots:
        candidates = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for candidate in candidates:
            if candidate.suffix != ".py":
                continue
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            out.append(candidate)
    return out
