"""FLT001 / TEL001 — string-keyed registry hygiene.

Two registries in this repo are addressed by string literals, and a typo
in either fails *silently*: a misspelled fault site never fires (the
injector only validates sites it is asked to arm), and a misspelled
metric name creates a parallel register nobody reads.  These rules
cross-check every literal at lint time:

* **FLT001** — literals passed to ``.fires(...)``, ``FaultRule(site=...)``
  and ``FaultPlan.build(site_name=...)`` kwargs must exist in the
  ``FAULT_SITES`` registry.  The registry is extracted *statically* from
  ``repro/faults/plan.py`` (no import of the target tree), so the
  analyzer works on a broken checkout too.
* **TEL001** — literals passed to ``registry.counter/gauge/histogram``
  must follow the ``component.metric`` convention from DESIGN.md: at
  least two dot-separated lowercase segments.

Misses come with a nearest-match suggestion (``difflib``) so the fix is
one keystroke away.
"""

from __future__ import annotations

import ast
import difflib
import re
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Tuple

from .findings import Finding, make_finding
from .modules import SourceModule, load_module

__all__ = [
    "check_flt001",
    "check_tel001",
    "load_fault_registry",
    "find_fault_registry_path",
]

_METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")
_METRIC_METHODS = ("counter", "gauge", "histogram")


def find_fault_registry_path(roots: List[Path]) -> Optional[Path]:
    """Locate ``faults/plan.py`` under the analyzed roots, falling back
    to the conventional ``src/repro/faults/plan.py`` below the cwd."""
    for root in roots:
        base = root if root.is_dir() else root.parent
        for candidate in sorted(base.rglob("plan.py")):
            if candidate.parent.name == "faults":
                return candidate
    fallback = Path("src/repro/faults/plan.py")
    return fallback if fallback.exists() else None


def load_fault_registry(plan_path: Path) -> Dict[str, Tuple[str, str]]:
    """Extract ``site -> (model, effect)`` from ``FAULT_SITE_DOCS`` (and
    bare string constants feeding ``FAULT_SITES``) without importing."""
    assigns = load_module(plan_path).of(ast.Assign)
    constants: Dict[str, str] = {}
    docs: Dict[str, Tuple[str, str]] = {}
    for node in assigns:
        if len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            constants[target.id] = node.value.value
    for node in assigns:
        if len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name) or target.id != "FAULT_SITE_DOCS":
            continue
        if not isinstance(node.value, ast.Dict):
            continue
        for key, value in zip(node.value.keys, node.value.values):
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                site = key.value
            elif isinstance(key, ast.Name) and key.id in constants:
                site = constants[key.id]
            else:
                continue
            model = effect = ""
            if isinstance(value, ast.Tuple) and len(value.elts) == 2:
                parts = [
                    e.value if isinstance(e, ast.Constant) else ""
                    for e in value.elts
                ]
                model, effect = str(parts[0]), str(parts[1])
            docs[site] = (model, effect)
    if docs:
        return docs
    # Pre-FAULT_SITE_DOCS fallback: every dotted string constant.
    return {
        value: ("", "")
        for value in constants.values()
        if re.fullmatch(r"[a-z]+\.[a-z_]+", value)
    }


def _suggest(name: str, known: FrozenSet[str]) -> str:
    close = difflib.get_close_matches(name, sorted(known), n=1)
    return f"; did you mean {close[0]!r}?" if close else ""


def _literal(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def check_flt001(module: SourceModule, sites: FrozenSet[str]) -> List[Finding]:
    if not sites:
        return []
    findings: List[Finding] = []

    def flag(node: ast.AST, literal: str, context: str) -> None:
        findings.append(
            make_finding(
                module.display_path,
                node.lineno,
                "FLT001",
                f"{context} {literal!r} is not a registered fault site"
                f"{_suggest(literal, sites)}",
            )
        )

    for node in module.of(ast.Call):
        func = node.func
        # injector.fires("site", ...)
        if isinstance(func, ast.Attribute) and func.attr == "fires" and node.args:
            literal = _literal(node.args[0])
            if literal is not None and literal not in sites:
                flag(node, literal, "fault site")
        # FaultRule(site="...") / FaultRule("...")
        callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if callee == "FaultRule":
            site_arg = None
            if node.args:
                site_arg = _literal(node.args[0])
            for kw in node.keywords:
                if kw.arg == "site":
                    site_arg = _literal(kw.value)
            if site_arg is not None and site_arg not in sites:
                flag(node, site_arg, "FaultRule site")
        # FaultPlan.build(seed=..., net_drop=0.05): kwarg -> site name.
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "build"
            and "faultplan" in ast.unparse(func.value).lower()
        ):
            for kw in node.keywords:
                if kw.arg is None or kw.arg == "seed":
                    continue
                site = kw.arg.replace("_", ".", 1)
                if site not in sites:
                    flag(node, site, f"FaultPlan.build kwarg `{kw.arg}` maps to")
    return findings


def check_tel001(module: SourceModule) -> List[Finding]:
    findings: List[Finding] = []
    for node in module.of(ast.Call):
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in _METRIC_METHODS):
            continue
        if not node.args:
            continue
        literal = _literal(node.args[0])
        if literal is None:
            continue
        if not _METRIC_NAME_RE.fullmatch(literal):
            findings.append(
                make_finding(
                    module.display_path,
                    node.lineno,
                    "TEL001",
                    f"metric name {literal!r} does not follow the "
                    "`component.metric` convention (>=2 lowercase "
                    "dot-separated segments)",
                )
            )
    return findings
