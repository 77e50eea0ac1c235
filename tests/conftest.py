"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.cuda.device import Device
from repro.hw.spec import ONE_NODE, PAPER_TESTBED
from repro.hw.topology import Fabric
from repro.mpi.world import World
from repro.sim.engine import Engine


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def fabric(engine) -> Fabric:
    return Fabric(engine, ONE_NODE)


@pytest.fixture
def gpu(fabric) -> Device:
    return Device(fabric, 0)


@pytest.fixture
def one_node_world() -> World:
    return World(ONE_NODE)


@pytest.fixture
def two_node_world() -> World:
    return World(PAPER_TESTBED)


def run_proc(engine: Engine, gen, name: str = "test"):
    """Spawn a generator process and run the engine until it finishes."""
    proc = engine.process(gen, name=name)
    return engine.run(proc)


def run_ranks(world: World, main, nprocs: int, *args):
    """Launch an MPI job in a world and return per-rank results."""
    return world.run(main, nprocs=nprocs, args=args)
