"""In-memory span tracing around the public entry points of each layer.

The benchmark attributes host time to simulator layers without touching
the simulator: :class:`Tracer` replaces selected functions and methods of
``repro.<package>`` modules with wrappers for the duration of one traced
run, then puts the originals back.

* A **timed** entry point records a span ``(id, name, start, end,
  parent, run)``; spans nest through a stack, so a span's parent is the
  timed call that was open when it started.
* A **counted** entry point only increments a counter.  Generator APIs
  are counted, never timed: calling one only builds the generator, and
  its body runs later inside the engine loop.
* An **observe** hook sees each call's result (or the constructed
  object) so counters the program keeps on objects it does not return —
  a fabric's ``route_computations``, a cluster run's window count — can
  be read after the run.

Per-event internals (``Process._resume``, the ``MachineSpec.n_gpus``
property) are deliberately not wrapped: their call rates are so high
that the wrapper would swamp what it measures.

Spans stay in memory; :meth:`Tracer.dump` writes them out once, at exit.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: One span: (id, name, start_s, end_s, parent_id or -1, run_id).
Span = Tuple[int, str, float, float, int, int]


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point: ``module:Class.attr`` or ``module:func``."""

    target: str
    name: str                    # span / counter name, e.g. "hw.Fabric.route"
    layer: str                   # the layer its self time is charged to
    timed: bool = True
    #: Called as ``observe(args, result)`` after each call returns.
    observe: Optional[Callable[[tuple, Any], None]] = None


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the part of its interval
    covered by its child spans (the union of the children's intervals,
    clipped to the parent, so overlapping children count once).
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for sid, _name, start, end, parent, _run in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals: Dict[str, float] = {}
    for sid, name, start, end, _parent, _run in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals


def _resolve(target: str) -> Tuple[Any, str]:
    module_name, _, path = target.partition(":")
    owner: Any = sys.modules.get(module_name) or __import__(module_name, fromlist=["_"])
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Install wrappers for one run at a time; accumulate spans and counts."""

    def __init__(self, entries: Iterable[Entry]) -> None:
        self.entries = list(entries)
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self.run_id = -1
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- wrapper factories ------------------------------------------------
    def _timed(self, entry: Entry, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        name, observe = entry.name, entry.observe
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            counts[name] = counts.get(name, 0) + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            spans.append(None)  # reserve the id; filled in on exit
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, name, start, end, parent, self.run_id)
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, entry: Entry, fn: Callable) -> Callable:
        counts, name, observe = self.counts, entry.name, entry.observe

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / remove -------------------------------------------------
    def install(self, run_id: int) -> None:
        """Wrap every entry point on its owner until :meth:`remove`.

        Callers reach the wrapped module-level functions through their
        own module's globals, so patching the owner attribute suffices.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.run_id = run_id
        self.counts.clear()
        for entry in self.entries:
            owner, attr = _resolve(entry.target)
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapper = (self._timed if entry.timed else self._counted)(entry, fn)
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        while self._patches:
            site, key, fn = self._patches.pop()
            setattr(site, key, fn)
        if self._stack:
            raise RuntimeError(f"unbalanced spans at remove: {self._stack}")

    def truncate(self, n_spans: int) -> None:
        """Forget every span recorded after the first ``n_spans`` (the
        runs after them, since a run's spans are contiguous)."""
        del self.spans[n_spans:]

    def run_spans(self, run_id: int) -> List[Span]:
        return [s for s in self.spans if s[5] == run_id]

    def dump(self, path: str) -> None:
        """Write every recorded span as one JSON line."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent, run in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "run": run,
                }) + "\n")
