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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from .waivers import WaiverSet

__all__ = ["SourceModule", "load_module", "iter_python_files", "own_nodes"]

_SIM_MODULE_MARKERS = ("repro.sim", ".sim", "sim.engine")


@dataclass
class SourceModule:
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

    def resolves_to(self, node: ast.expr, dotted: str) -> bool:
        """Does ``node`` (a call's ``func``) denote ``dotted``, e.g.
        ``time.monotonic``, through any local import alias?"""
        want_module, _, want_attr = dotted.rpartition(".")
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = self.module_aliases.get(node.value.id)
            return module == want_module and node.attr == want_attr
        if isinstance(node, ast.Name):
            return self.from_imports.get(node.id) == dotted
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
            # e.g. datetime.datetime.now: outer attr chain
            inner = node.value
            if isinstance(inner.value, ast.Name):
                module = self.module_aliases.get(inner.value.id)
                if module is not None:
                    return f"{module}.{inner.attr}.{node.attr}" == dotted
            local = self.from_imports.get(getattr(inner.value, "id", ""), None)
            if local is not None:
                return f"{local}.{inner.attr}.{node.attr}" == dotted
        return False


def own_nodes(func: ast.AST) -> List[ast.AST]:
    """Every node in a function body, excluding nested function scopes."""
    out: List[ast.AST] = []
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        out.append(node)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))
    return out


def _collect_imports(module: SourceModule) -> None:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                module.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name
                )
        elif isinstance(node, ast.ImportFrom):
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
    if module.schedules_events:
        return
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("process", "timeout")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("env", "environment")
        ):
            module.schedules_events = True
            return
        if isinstance(node, ast.Name) and node.id == "Environment":
            module.schedules_events = True
            return


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
