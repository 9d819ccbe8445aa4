"""Tracing from outside the program: shims around the calls into each layer.

Nothing under ``src/`` is touched.  In the traced repeat only,

* every entry point in ``layers.ENTRY_POINTS`` is replaced, on its
  class, by a shim that opens a span of its layer around the call.  A
  wrapped generator is driven by hand, so each *resume* is its own
  slice and nested calls give self time: the host clock is read once
  per layer change and the elapsed time goes to the layer that was
  running (a span's self time is its duration minus its children's);
* a ``SimProfiler`` subclass sits on the engine's public
  ``env.profiler`` hook.  It opens a base span for the process each
  callback resumes (``layers.PROCESS_LAYERS``) and books every engine
  event on exactly one bucket — the layer of the wrapped call the
  process was waiting in, else the process's own layer — so the
  per-layer events sum to the engine's total.

Host time here is ``perf_counter_ns`` (a vDSO read; ``process_time`` is
a system call and would double the overhead).  The traced repeat is
slower than an untraced one by ``bench.trace_overhead_pct``; its host
figures are for *shares*, end-to-end metrics never come from it.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from typing import Callable, Dict, List, Optional

from repro.telemetry import SimProfiler

import layers

__all__ = ["Tracer"]

_INDEX = {name: i for i, name in enumerate(layers.BUCKETS)}
_SIM = _INDEX["sim"]
_BENCH = _INDEX[layers.BENCH]
_OTHER = _INDEX[layers.OTHER]


class Tracer:
    """The ledger of one traced repeat plus the shims that fill it."""

    def __init__(self) -> None:
        self.unmapped: Dict[str, int] = {}
        self.env = None
        #: What ``end_phase`` froze: per-bucket dicts plus the tallies.
        self.ledger: Dict[str, dict] = {}
        self._profiler: Optional[_LayerProfiler] = None
        self._installed: List[tuple] = []
        self._process_cache: Dict[str, tuple] = {}
        # Span stack of the slice being executed.
        self._stack: List[int] = []
        self._open = [0] * len(layers.BUCKETS)  # wrapped calls of a layer open in this slice
        # The bucket an engine event goes to: the innermost wrapped call
        # the resumed process was waiting in.
        self._descending = False
        self._resume_layer = _SIM
        self.start_phase()

    # ------------------------------------------------------------ lifecycle

    def install(self) -> None:
        """Replace every entry point on its class with a shim."""
        for layer, entries in layers.ENTRY_POINTS.items():
            for cls, name in entries:
                original = cls.__dict__[name]
                shim = self._wrap(original, _INDEX[layer], f"{cls.__name__}.{name}")
                self._installed.append((cls, name, original))
                setattr(cls, name, shim)
        for cls, name, layer in layers.CALLBACK_BINDERS:
            original = cls.__dict__[name]
            self._installed.append((cls, name, original))
            setattr(cls, name, self._wrap_binder(original, _INDEX[layer], cls.__name__))

    def uninstall(self) -> None:
        """Put the original attributes back and leave the engine's hook."""
        while self._installed:
            cls, name, original = self._installed.pop()
            setattr(cls, name, original)
        if self._profiler is not None:
            self._profiler.detach()
            self._profiler = None

    def attach(self, env) -> None:
        self.env = env
        self._profiler = _LayerProfiler(self)
        self._profiler.attach(env)

    def start_phase(self) -> None:
        """Zero the ledger: warm-up and set-up are not part of it."""
        n = len(layers.BUCKETS)
        self.host_ns = [0] * n  # self time per bucket
        self.sim_ns = [0.0] * n  # simulated time inside outermost calls
        self.calls = [0] * n
        self.events = [0] * n
        self.group_events = {group: 0 for group in layers.PROCESS_GROUPS}
        self.no_callback_events = 0
        #: Calls and yields per entry point ("Class.method").
        self.entry_calls: Dict[str, int] = {}
        self.entry_yields: Dict[str, int] = {}
        self._cur = _BENCH
        self._last = time.perf_counter_ns()

    def end_phase(self) -> None:
        """Close the ledger.  Wrapped calls still open (the incast's
        in-flight messages) never returned; their simulated time is not
        counted, and whatever they book later lands in fresh lists."""
        now = time.perf_counter_ns()
        self.host_ns[self._cur] += now - self._last
        self._last = now
        self.env = None
        self.ledger = {
            "host_ns": self.by_bucket(self.host_ns),
            "sim_ns": self.by_bucket(self.sim_ns),
            "calls": self.by_bucket(self.calls),
            "events": self.by_bucket(self.events),
            "group_events": dict(self.group_events),
            "no_callback_events": self.no_callback_events,
            "entry_calls": dict(self.entry_calls),
            "entry_yields": dict(self.entry_yields),
            "unmapped": dict(self.unmapped),
        }

    # ------------------------------------------------------------- span core

    def _push(self, layer: int) -> None:
        now = time.perf_counter_ns()
        self.host_ns[self._cur] += now - self._last
        self._last = now
        self._stack.append(self._cur)
        self._cur = layer

    def _pop(self) -> None:
        now = time.perf_counter_ns()
        self.host_ns[self._cur] += now - self._last
        self._last = now
        self._cur = self._stack.pop()
        self._descending = False

    # ----------------------------------------------------------------- shims

    def _wrap(self, fn: Callable, layer: int, key: str) -> Callable:
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer, key)
        return self._wrap_plain(fn, layer, key)

    def _wrap_plain(self, fn: Callable, layer: int, key: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            tracer.calls[layer] += 1
            tracer.entry_calls[key] = tracer.entry_calls.get(key, 0) + 1
            tracer._descending = False
            tracer._push(layer)
            tracer._open[layer] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._open[layer] -= 1
                tracer._pop()

        return shim

    def _wrap_generator(self, fn: Callable, layer: int, key: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            inner = fn(*args, **kwargs)
            send, throw = inner.send, inner.throw
            tracer.calls[layer] += 1
            tracer.entry_calls[key] = tracer.entry_calls.get(key, 0) + 1
            # Simulated time counts once per call chain: a wrapped call
            # made from inside its own layer is already covered.
            outermost = tracer._open[layer] == 0
            began = tracer.env.now if tracer.env is not None else 0.0
            tracer._descending = False
            value, error = None, None
            yields = 0
            try:
                while True:
                    if tracer._descending:
                        tracer._resume_layer = layer
                    tracer._push(layer)
                    tracer._open[layer] += 1
                    try:
                        if error is None:
                            item = send(value)
                        else:
                            item = throw(error)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        tracer._open[layer] -= 1
                        tracer._pop()
                    yields += 1
                    try:
                        value, error = (yield item), None
                    except GeneratorExit:
                        inner.close()
                        raise
                    except BaseException as exc:  # thrown in: forward it
                        value, error = None, exc
            finally:
                tracer.entry_yields[key] = tracer.entry_yields.get(key, 0) + yields
                if outermost and tracer.env is not None:
                    tracer.sim_ns[layer] += tracer.env.now - began

        return shim

    def _wrap_binder(self, fn: Callable, layer: int, owner: str) -> Callable:
        """Wrap a method that *receives* callbacks: every callable
        argument is wrapped as a call into ``layer``."""
        tracer = self

        def lift(arg):
            if not callable(arg):
                return arg
            key = f"{owner}<-{getattr(arg, '__name__', 'callback')}"
            return tracer._wrap(arg, layer, key)

        @functools.wraps(fn)
        def shim(self_, *args, **kwargs):
            return fn(
                self_,
                *[lift(a) for a in args],
                **{k: lift(v) for k, v in kwargs.items()},
            )

        return shim

    # ------------------------------------------------------ process -> layer

    def _process_layer(self, name: str) -> tuple:
        hit = self._process_cache.get(name)
        if hit is None:
            hit = (_OTHER, None)
            for pattern, layer, group in layers.PROCESS_LAYERS:
                if pattern.search(name):
                    hit = (_INDEX[layer], group)
                    break
            self._process_cache[name] = hit
        return hit

    # --------------------------------------------------------------- results

    @staticmethod
    def by_bucket(values: List) -> Dict[str, float]:
        return dict(zip(layers.BUCKETS, values))

    def spans_jsonl(self, workload: str, repeat, batch_size: int) -> List[str]:
        """The span tree of the traced repeat, one JSON object a line:
        repeat -> (batch ->) request, plus one summary line per layer.

        Requests share the id the benchmark minted for them; a request
        inside a ring batch carries the batch's host times, because the
        host cannot observe one op of a batch on its own.
        """
        sim0, sim1, host0, host1 = repeat.phase
        lines = [json.dumps({
            "span": "repeat", "id": "repeat", "parent": None, "workload": workload,
            "sim_start_ns": sim0, "sim_end_ns": sim1,
            "host_start_ns": host0, "host_end_ns": host1,
        })]
        batch_of: Dict[int, tuple] = {}
        for first_id, b_sim0, b_sim1, b_host0, b_host1 in repeat.batches:
            lines.append(json.dumps({
                "span": "batch", "id": f"batch-{first_id}", "parent": "repeat",
                "sim_start_ns": b_sim0, "sim_end_ns": b_sim1,
                "host_start_ns": b_host0, "host_end_ns": b_host1,
            }))
            for request_id in range(first_id, first_id + batch_size):
                batch_of[request_id] = (f"batch-{first_id}", b_host0, b_host1)
        for request_id, (client, kind, nbytes, start, end) in enumerate(repeat.records):
            parent, h0, h1 = batch_of.get(request_id, ("repeat", None, None))
            lines.append(json.dumps({
                "span": "request", "id": f"req-{request_id}", "parent": parent,
                "name": kind, "client": client, "bytes": nbytes,
                "sim_start_ns": start, "sim_end_ns": end,
                "host_start_ns": h0, "host_end_ns": h1,
            }))
        for layer in layers.BUCKETS:
            lines.append(json.dumps({
                "span": "layer", "id": f"layer-{layer}", "parent": "repeat",
                "calls": self.ledger["calls"][layer], "events": self.ledger["events"][layer],
                "host_self_ns": self.ledger["host_ns"][layer],
                "sim_ns": self.ledger["sim_ns"][layer],
            }))
        return lines


class _LayerProfiler(SimProfiler):
    """Books every dispatched event on one bucket and opens the base span
    of the process each callback resumes."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self.tracer = tracer

    def run_callbacks(self, event, callbacks) -> None:
        tracer = self.tracer
        if not callbacks:
            # Triggered with nobody waiting (a Store.put nobody yields
            # on, a finished process nobody joins): pure engine work.
            tracer.events[_SIM] += 1
            tracer.no_callback_events += 1
            return
        first = True
        for callback in callbacks:
            name = getattr(getattr(callback, "__self__", None), "name", None)
            if isinstance(name, str):
                base, group = tracer._process_layer(name)
                if base == _OTHER:
                    tracer.unmapped[name] = tracer.unmapped.get(name, 0) + 1
            else:
                base, group = _SIM, None  # condition plumbing (AllOf/AnyOf)
            tracer._resume_layer = base
            tracer._push(base)
            tracer._descending = True
            try:
                callback(event)
            finally:
                tracer._pop()
            if first:
                first = False
                tracer.events[tracer._resume_layer] += 1
                if group is not None:
                    tracer.group_events[group] += 1
