"""The run context: one frozen record of how a simulation run is configured.

:func:`using` swaps the current :class:`RunContext` for a block.  Each
:class:`~repro.sim.engine.Engine` captures the current one as
``engine.ctx`` at construction, and every layer built on the engine
reads it there; ``python -m repro`` parses the ``REPRO_*`` variables
into the context that wraps its subcommand (DESIGN.md §18).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.faults import FaultSchedule
    from repro.obs.bus import Bus

#: Path-policy names (``PathPolicy.name`` strings).
POLICY_NAMES = ("single", "multi", "congestion")


@dataclass(frozen=True)
class RunContext:
    """How one run is configured; engines capture it at construction."""

    #: Dataplane path policy every fabric built in the run uses.
    policy: str = "single"
    #: Fault schedule every fabric built in the run installs (DESIGN.md §17).
    faults: Optional["FaultSchedule"] = None
    #: Event-coalescing fast paths may run (DESIGN.md §11).
    coalesce: bool = True
    #: Captured-graph replay may run (DESIGN.md §16).
    graphs: bool = True
    #: Bus every engine built in the run attaches to (DESIGN.md §10).
    bus: Optional["Bus"] = None
    #: Cross-run route store (:class:`repro.workload.sweep.RouteCacheStore`).
    routes: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.policy not in POLICY_NAMES:
            raise ValueError(
                f"{self.policy!r} is not a known policy ({'|'.join(POLICY_NAMES)})"
            )


_CURRENT = RunContext()


def current() -> RunContext:
    """The context engines built now would capture."""
    return _CURRENT


@contextmanager
def using(ctx: Optional[RunContext] = None, /, **changes: Any) -> Iterator[RunContext]:
    """Make ``ctx`` (default: the current context) with ``changes``
    applied current for the block; the previous context comes back on
    exit, also when the block raises."""
    global _CURRENT
    new = replace(ctx if ctx is not None else _CURRENT, **changes)
    prev, _CURRENT = _CURRENT, new
    try:
        yield new
    finally:
        _CURRENT = prev
