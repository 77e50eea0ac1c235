"""Full-stack reproduction of *Design and Implementation of MPI-Native
GPU-Initiated MPI Partitioned Communication* (SC 2024).

Top-level convenience imports::

    from repro import World, ONE_NODE, PAPER_TESTBED

See README.md for the architecture overview, DESIGN.md for the system
inventory and substitution rationale, and EXPERIMENTS.md for paper-vs-
measured results.
"""

from repro.hw.params import GH200Params
from repro.hw.spec import ONE_NODE, PAPER_TESTBED
from repro.mpi.world import RankCtx, World

__version__ = "1.0.0"

__all__ = [
    "GH200Params",
    "ONE_NODE",
    "PAPER_TESTBED",
    "RankCtx",
    "World",
    "__version__",
]
