"""repro.san — partitioned-communication sanitizer for the DES.

Three layers (see DESIGN.md §8 and README "Sanitizing a run"):

* :mod:`repro.san.record` — opt-in access/sync/trace recording.  When a
  :class:`Sanitizer` is active, instrumented sites across the simulator
  (buffers, kernels, streams, the partitioned layer) log every simulated
  read/write/signal as ``(actor, time, seq, range, kind)`` events.
* :mod:`repro.san.hb` — a vector-clock happens-before race detector over
  the recorded trace, with synchronization edges from stream ordering,
  kernel launch/join, Pready signal delivery, and Parrived arrival.
* :mod:`repro.san.checks` — MPI 4.0 partitioned-semantics rules (double
  ``Pready``, ``Pready`` outside an epoch / on a freed request, reads
  before ``Parrived``, send-partition overwrite in flight, uninitialized
  device reads, cross-node IPC misuse).

Static companion: the whole-program analyzer, ``python -m repro analyze``
(:mod:`repro.analyze`), whose invariant family holds the repo-invariant
rules.

Usage::

    from repro.san import Sanitizer

    with Sanitizer() as san:
        World(ONE_NODE).run(main, nprocs=2)
    assert san.report.ok, san.report.render()

or from the command line::

    python -m repro san examples/quickstart.py
    python -m repro san --list-checks
"""

from repro.san.report import Finding, Report
from repro.san.sanitizer import Sanitizer

__all__ = ["Finding", "Report", "Sanitizer"]
