"""repro.analyze — whole-program static analysis (DESIGN.md §13).

One :class:`~repro.analyze.model.Project` (module table, symbol tables,
call graph, per-function CFGs) shared by four pass families:

* ``invariant``   — repo invariants: determinism and unit literals in
  the core, dropped process returns, eager obs payloads, a ``syntax``
  rule for modules that do not parse, and one ownership table
  ("only package X may touch Y");
* ``effects``     — DES coroutine effect checking: what can each
  simulation process generator yield, and are created waiters always
  awaited on every path;
* ``determinism`` — unordered-iteration / unseeded-RNG / id()-ordering /
  float-accumulation hazards;
* ``hb-static``   — a static happens-before approximation for the
  partitioned-communication data paths.

Entry point: ``python -m repro analyze`` (:mod:`repro.analyze.cli`).
"""

from repro.analyze.model import Project  # noqa: F401
from repro.analyze.rules import Finding, Pass, Rule  # noqa: F401
