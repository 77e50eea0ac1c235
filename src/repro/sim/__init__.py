"""Deterministic discrete-event simulation engine.

This package is the substrate on which every other subsystem runs: the GPU
simulator, the UCX-like network, MPI ranks, and the progression engines are
all generator-coroutine :class:`~repro.sim.process.Process` objects scheduled
on a single :class:`~repro.sim.engine.Engine`.

Design goals:

* **Determinism** — events at equal simulated times fire in a stable,
  documented order (scheduling priority, then insertion sequence), so tests
  can assert exact event orderings.
* **No busy-waiting** — all blocking constructs (:class:`Flag`,
  :class:`Channel`, :class:`Counter`, :class:`Resource`) wake their waiters
  through events; polling loops are modelled by *charging latency*, not by
  spinning the event loop.
* **SimPy-like ergonomics** — processes are plain generators that ``yield``
  :class:`Timeout`, :class:`Event`, other processes, or the combinators
  :class:`AllOf` / :class:`AnyOf`.
"""

from repro.sim.engine import Engine
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Interrupt, Process, ProcessFailed
from repro.sim.resources import Channel, Counter, Flag, Resource

__all__ = [
    "AllOf",
    "AnyOf",
    "Channel",
    "Counter",
    "Engine",
    "Event",
    "Flag",
    "Interrupt",
    "Process",
    "ProcessFailed",
    "Resource",
    "Timeout",
]
