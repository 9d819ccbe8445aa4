"""DET001 / DET002 / SIM001 — the determinism family.

The simulation's contract (DESIGN.md "Determinism contract") is that a
run is a pure function of ``(workload, seed, plan)``.  Three ways code
breaks that in practice, each with its own rule:

* **DET001** — wall-clock or ambient entropy (``time.time``,
  ``datetime.now``, module-level ``random.*``, ``os.urandom``,
  ``secrets``/``uuid4``) in sim-reachable code.  Seeded
  ``random.Random(...)`` instances are the sanctioned substream idiom
  and never flagged.
* **DET002** — ``for``/comprehension iteration over a ``set`` in a
  module that schedules events: hash-seed-dependent order becomes
  event-queue order.  ``sorted(...)`` over a set is the fix and is
  recognised as safe.
* **SIM001** — blocking host calls (``time.sleep``, subprocess, socket
  I/O) inside a simulation generator: they stall the entire event loop
  and leak wall-clock into simulated behaviour.
"""

from __future__ import annotations

import ast
from typing import List

from .findings import Finding, make_finding
from .modules import SourceModule

__all__ = ["check_det001", "check_det002", "check_sim001"]

#: Entropy / wall-clock sources banned in sim-reachable code.
_DET001_CALLS = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.randbelow",
)

#: Module-level ``random`` functions (the shared, unseeded global RNG).
#: ``random.Random``/``random.SystemRandom`` are constructors, not draws.
_RANDOM_FUNCS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "normalvariate", "expovariate",
        "betavariate", "triangular", "getrandbits", "vonmisesvariate",
        "paretovariate", "weibullvariate", "lognormvariate", "seed",
    }
)

_SIM001_CALLS = (
    "time.sleep",
    "os.system",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
    "socket.create_connection",
    "socket.socket",
    "select.select",
)


_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _is_global_random_call(module: SourceModule, func: ast.expr) -> bool:
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and module.module_aliases.get(func.value.id) == "random"
    ):
        return func.attr in _RANDOM_FUNCS
    if isinstance(func, ast.Name):
        return module.from_imports.get(func.id) in {
            f"random.{name}" for name in _RANDOM_FUNCS
        }
    return False


def check_det001(module: SourceModule) -> List[Finding]:
    if not module.is_sim_scope:
        return []
    findings: List[Finding] = []
    for node in module.of(ast.Call):
        dotted = module.dotted(node.func)
        if dotted in _DET001_CALLS:
            findings.append(
                make_finding(
                    module.display_path,
                    node.lineno,
                    "DET001",
                    f"call to {dotted}() leaks wall-clock/entropy into "
                    "sim-reachable code",
                )
            )
        elif _is_global_random_call(module, node.func):
            name = ast.unparse(node.func)
            findings.append(
                make_finding(
                    module.display_path,
                    node.lineno,
                    "DET001",
                    f"{name}() draws from the unseeded global RNG",
                )
            )
    return findings


def _obviously_set(node: ast.expr, local_sets: set) -> bool:
    """Conservative: flag only expressions that are certainly sets."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name) and node.id in local_sets:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _obviously_set(node.left, local_sets) or _obviously_set(
            node.right, local_sets
        )
    return False


def check_det002(module: SourceModule) -> List[Finding]:
    """One pass over the whole module.  A name counts as a set when any
    assignment in the module binds it to one.  The names a function's
    assignments make sets are a subset of those, so a pass per function
    could only re-flag lines this pass has already flagged."""
    if not module.schedules_events:
        return []
    local_sets: set = set()
    for node in module.of(ast.Assign):
        if _obviously_set(node.value, local_sets):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    local_sets.add(target.id)
    findings: List[Finding] = []
    flagged = set()
    for node in module.of(ast.For, *_COMPREHENSIONS):
        iters = [node.iter] if isinstance(node, ast.For) else [
            gen.iter for gen in node.generators
        ]
        for it in iters:
            if _obviously_set(it, local_sets) and node.lineno not in flagged:
                flagged.add(node.lineno)
                findings.append(
                    make_finding(
                        module.display_path,
                        node.lineno,
                        "DET002",
                        f"iteration over unordered set `{ast.unparse(it)}` in "
                        "an event-scheduling module",
                    )
                )
    return findings


def check_sim001(module: SourceModule) -> List[Finding]:
    if not module.schedules_events:
        return []
    findings: List[Finding] = []
    for func in module.of(ast.FunctionDef, ast.AsyncFunctionDef):
        # A generator: yields in its own body (nested defs excluded).
        if not (module.own_of(func, ast.Yield) or module.own_of(func, ast.YieldFrom)):
            continue
        for node in module.own_of(func, ast.Call):
            dotted = module.dotted(node.func)
            if dotted in _SIM001_CALLS:
                findings.append(
                    make_finding(
                        module.display_path,
                        node.lineno,
                        "SIM001",
                        f"blocking call {dotted}() inside simulation "
                        f"generator `{func.name}`",
                    )
                )
    return findings
