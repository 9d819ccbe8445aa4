"""The container census of an object graph (ROADMAP item 7(a)).

``census(root)`` walks everything reachable from ``root`` through
instance attributes (``__dict__`` and ``__slots__``) and container
elements, and records the size of every mutable container it meets:
``len`` of a ``dict``/``list``/``deque``/``set`` and the number of queued
items of a :class:`~repro.sim.resources.Store`.  A lifecycle test takes
one census before and one after — open → traffic → close, a recovery, a
shell swap — and asserts the two are equal, or differ only where a
declared entry says why.  Nothing here names a field, so a table added to
any model is covered the day it lands: the card-wide version of
``tests/test_rdma_qp_lifecycle.py::container_sizes``.

The engine is not walked (its heap is the simulation, not model state),
nor are events and processes: what a parked generator holds is in its
frame, and the containers that *hold* events are still counted.
"""

import re
from collections import deque
from enum import Enum

from repro.sim.engine import Environment, Event
from repro.sim.resources import Store

_CONTAINERS = (dict, list, deque, set)


def _attributes(obj):
    """``(name, value)`` of every instance attribute, slotted or not."""
    yield from getattr(obj, "__dict__", {}).items()
    for klass in type(obj).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            if hasattr(obj, slot):
                yield slot, getattr(obj, slot)


def _children(path, obj):
    if isinstance(obj, dict):
        return [(f"{path}[{key!r}]", value) for key, value in obj.items()]
    if isinstance(obj, (list, deque, tuple)):
        return [(f"{path}[{index}]", value) for index, value in enumerate(obj)]
    if isinstance(obj, (set, type, Enum)):
        return []  # a set's elements have no stable path
    if type(obj).__module__.startswith("repro"):
        return [(f"{path}.{name}", value) for name, value in _attributes(obj)]
    return []


def census(root, name="root"):
    """``{path: size}`` of every container reachable from ``root``.

    Breadth first, so an object reachable two ways is filed under its
    shortest path and keeps it however the longer one changes.
    """
    sizes = {}
    seen = set()
    frontier = deque([(name, root)])
    while frontier:
        path, obj = frontier.popleft()
        if id(obj) in seen or isinstance(obj, (Environment, Event)):
            continue
        seen.add(id(obj))
        if isinstance(obj, Store):
            sizes[path] = len(obj.items)
            continue
        if isinstance(obj, _CONTAINERS):
            sizes[path] = len(obj)
        frontier.extend(_children(path, obj))
    return sizes


def moved(before, after):
    """``{path: (size before, size after)}`` of every container that
    changed size, appeared (``None`` before) or went (``None`` after)."""
    return {
        path: (before.get(path), after.get(path))
        for path in sorted(before.keys() | after.keys())
        if before.get(path) != after.get(path)
    }


def undeclared(before, after, declared):
    """What moved between two censuses outside ``declared``.

    ``declared`` maps a path regex to the reason the containers it
    matches may change size over this lifecycle.  Returns the moves no
    entry covers plus, under ``"stale"``, the entries that covered
    nothing — a declaration outlives its reason no more than a leak
    outlives its test.
    """
    moves = moved(before, after)
    patterns = {pattern: re.compile(pattern) for pattern in declared}
    used = set()
    rest = {}
    for path, sizes in moves.items():
        covering = [p for p, regex in patterns.items() if regex.search(path)]
        used.update(covering)
        if not covering:
            rest[path] = sizes
    stale = sorted(set(declared) - used)
    if stale:
        rest["stale"] = stale
    return rest
