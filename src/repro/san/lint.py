"""Static lint: AST checks enforcing repo invariants.

Complements the dynamic sanitizer.  These nine per-module checks run as
the *invariant* family of the whole-program analyzer
(``python -m repro analyze``, DESIGN.md §13), which calls
:func:`lint_source` on every module; this module is their implementation.

Checks (ids listed by ``python -m repro san --list-checks``):

``wallclock``
    No ``time.time``/``monotonic``/``perf_counter``, ``datetime.now``,
    ``random.*`` or ``numpy.random`` inside the deterministic core
    (``src/repro/{sim,cuda,partitioned,mpi,hw}``).  The engine's determinism
    contract (``sim/engine.py``) forbids wall-clock and ambient RNG.
``raw-units``
    Numeric literals that *are* unit constants (``1e-3``, ``1e-6``,
    ``1e-9``, ``1024**2``, ``1024**3``) must be written with the
    :mod:`repro.units` helpers (``ms``/``us``/``ns``/``MiB``/``GiB``)
    in the deterministic core.
``dropped-return``
    A generator process body whose ``return value`` nobody can observe:
    ``engine.process(body(...))`` called as a bare statement discards the
    process event, and with it the generator's return value.
``obs-bypass``
    Instrumentation in the deterministic core must go through the
    :mod:`repro.obs` bus: no ``print(...)`` in core modules (CLI
    front-ends, ``*/cli.py``, are exempt — printing is their job).
``eager-obs-payload``
    An f-string payload handed to ``engine.trace(...)`` /
    ``obs.instant(...)`` / ``obs.span(...)`` formats *before* the call —
    even when no bus is attached and the call is a no-op.  On the hot
    path that wastes wall-clock on every unobserved run (DESIGN.md §11),
    so such payloads must sit under an ``... obs is not None`` guard.
``fabric-bypass``
    Every simulated byte moves through the dataplane (DESIGN.md §12).
    Outside ``repro/dataplane`` and ``repro/hw``, no module may call
    ``start_transfer`` (or import it from ``repro.hw.links``) —
    producers submit descriptors via ``fabric.dataplane.put`` /
    ``rma_put`` / ``control`` so path policy and per-class accounting see
    the traffic.
``shard-shared-state``
    Outside ``repro/shard``, nothing may reach into a shard's private
    state (``shard.engine`` / ``.fabric`` / ``.mailbox`` / ``.bridge``
    / ``.procs`` / ``._*``): :class:`~repro.shard.message.ShardMessage`
    is the *only* thing that crosses a shard boundary, so foreign code
    must use ``Shard.put`` / ``Shard.recv`` or the driver surface
    (``step_window`` / ``next_time`` / ``results``) — DESIGN.md §14.
``workload-bypass``
    Every driver launches through the Workload contract (DESIGN.md §15).
    Outside ``repro/workload``, ``repro/mpi`` and ``repro/shard``, no
    module may construct a ``World`` or a ``ClusterJob`` directly —
    drivers go through ``repro.workload.runner.run_ranks`` or a
    registered :class:`~repro.workload.base.Workload`, so machine
    resolution, path policy, and digest accounting stay uniform.
``fabric-mutation-bypass``
    Link health is mutated only through the
    :class:`~repro.hw.links.LinkState` API (DESIGN.md §17).  Outside
    ``repro/hw``, no module may write a link's ``up`` / ``bandwidth`` /
    ``base_bandwidth`` / ``outstanding_bytes`` fields or a LinkState's
    ``epoch`` / ``armed`` directly — a silent write skips the epoch bump
    that invalidates route caches and re-binds captured plans.  The one
    carve-out: the dataplane ledger maintains ``outstanding_bytes`` (the
    congestion signal it owns).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from repro.san.checks import CheckInfo

#: Packages whose modules the scoped checks apply to.
CORE_PACKAGES = ("sim", "cuda", "partitioned", "mpi", "hw")

STATIC_CHECKS = {
    "wallclock": CheckInfo(
        "wallclock", "static",
        "no wall-clock / ambient randomness in src/repro/{sim,cuda,partitioned,mpi,hw}",
    ),
    "raw-units": CheckInfo(
        "raw-units", "static",
        "unit-magnitude literals must use repro.units helpers (us, MiB, ...)",
    ),
    "dropped-return": CheckInfo(
        "dropped-return", "static",
        "process body returns a value but its process event is discarded",
    ),
    "obs-bypass": CheckInfo(
        "obs-bypass", "static",
        "core instrumentation must go through repro.obs "
        "(no print outside cli modules)",
    ),
    "eager-obs-payload": CheckInfo(
        "eager-obs-payload", "static",
        "f-string payloads for trace/instant/span must sit under an "
        "'obs is not None' guard (they format even when unobserved)",
    ),
    "fabric-bypass": CheckInfo(
        "fabric-bypass", "static",
        "data movement outside repro/{dataplane,hw} must submit to the "
        "dataplane (no start_transfer calls)",
    ),
    "shard-shared-state": CheckInfo(
        "shard-shared-state", "static",
        "outside repro/shard, shard internals (engine/fabric/mailbox/"
        "bridge/procs/_*) are off limits — only ShardMessages cross shards",
    ),
    "workload-bypass": CheckInfo(
        "workload-bypass", "static",
        "drivers outside repro/{workload,mpi,shard} must not construct "
        "World/ClusterJob directly — go through run_ranks or a Workload",
    ),
    "fabric-mutation-bypass": CheckInfo(
        "fabric-mutation-bypass", "static",
        "link health outside repro/hw is mutated only via the LinkState "
        "API (down_link/restore_link/degrade_bandwidth) — direct field "
        "writes skip the fabric epoch bump",
    ),
}

_WALLCLOCK_ATTRS = {
    "time": {"time", "monotonic", "perf_counter", "process_time", "time_ns",
             "monotonic_ns", "perf_counter_ns"},
    "datetime": {"now", "utcnow", "today"},
}
_RANDOM_MODULES = {"random"}
_UNIT_FLOATS = {1e-3: "ms", 1e-6: "us", 1e-9: "ns"}
_UNIT_INTS = {1024 ** 2: "MiB", 1024 ** 3: "GiB"}


@dataclass(frozen=True)
class LintFinding:
    path: str
    line: int
    check: str
    message: str


def _in_core(path: Path) -> bool:
    parts = path.parts
    if "repro" not in parts:
        return False
    last = len(parts) - 1 - parts[::-1].index("repro")
    tail = parts[last + 1:]
    return bool(tail) and tail[0] in CORE_PACKAGES


def _dotted(node: ast.AST) -> Optional[str]:
    """'a.b.c' for an attribute chain rooted at a Name, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _check_wallclock(tree: ast.AST, path: str) -> List[LintFinding]:
    found: List[LintFinding] = []

    def flag(node: ast.AST, what: str) -> None:
        found.append(LintFinding(
            path, node.lineno, "wallclock",
            f"{what} breaks the engine's determinism contract; derive time "
            "from Engine.now and randomness from an explicit seeded RNG",
        ))

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted is None:
                continue
            root, *rest = dotted.split(".")
            if not rest:
                continue
            if root in _WALLCLOCK_ATTRS and rest[-1] in _WALLCLOCK_ATTRS[root]:
                flag(node, f"call to {dotted}")
            elif root in _RANDOM_MODULES:
                flag(node, f"use of {dotted}")
            elif root in ("np", "numpy") and rest[0] == "random":
                flag(node, f"use of {dotted}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names]
            if isinstance(node, ast.ImportFrom):
                if node.module == "time" and set(names) & _WALLCLOCK_ATTRS["time"]:
                    flag(node, "import of wall-clock time functions")
                elif node.module == "random":
                    flag(node, "import from random")
            elif "random" in names:
                flag(node, "import random")
    return found


def _check_raw_units(tree: ast.AST, path: str) -> List[LintFinding]:
    found: List[LintFinding] = []
    for node in ast.walk(tree):
        unit = None
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            unit = _UNIT_FLOATS.get(node.value)
        elif (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Pow)
            and isinstance(node.left, ast.Constant)
            and isinstance(node.right, ast.Constant)
            and node.left.value == 1024
        ):
            unit = _UNIT_INTS.get(1024 ** node.right.value)
        if unit is not None:
            found.append(LintFinding(
                path, node.lineno, "raw-units",
                f"raw literal where repro.units.{unit} reads as the paper writes it",
            ))
    return found


def _check_dropped_return(tree: ast.AST, path: str) -> List[LintFinding]:
    found: List[LintFinding] = []

    def is_generator(fn: ast.AST) -> bool:
        for node in ast.walk(fn):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                # Nested defs have their own yields; only count this fn's.
                if _owner(fn, node) is fn:
                    return True
        return False

    def _owner(top: ast.AST, target: ast.AST):
        owner = top
        stack = [(top, top)]
        while stack:
            node, own = stack.pop()
            if node is target:
                return own
            for child in ast.iter_child_nodes(node):
                child_own = (
                    child
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                    else own
                )
                stack.append((child, child_own))
        return owner

    def returns_value(fn: ast.AST) -> Optional[int]:
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Return)
                and node.value is not None
                and not (isinstance(node.value, ast.Constant) and node.value.value is None)
                and _owner(fn, node) is fn
            ):
                return node.lineno
        return None

    # Generator defs (module- or locally-scoped) that return a value.
    valued: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and is_generator(node):
            line = returns_value(node)
            if line is not None:
                valued[node.name] = line

    # Bare-statement `<x>.process(f(...))` calls discard the process event.
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)):
            continue
        call = node.value
        if not (isinstance(call.func, ast.Attribute) and call.func.attr == "process"):
            continue
        if not call.args:
            continue
        first = call.args[0]
        if (
            isinstance(first, ast.Call)
            and isinstance(first.func, ast.Name)
            and first.func.id in valued
        ):
            found.append(LintFinding(
                path, node.lineno, "dropped-return",
                f"process body {first.func.id!r} returns a value (line "
                f"{valued[first.func.id]}) but the process event is discarded "
                "here — bind the event or drop the return value",
            ))
    return found


def _check_obs_bypass(tree: ast.AST, path: str) -> List[LintFinding]:
    found: List[LintFinding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "print":
            found.append(LintFinding(
                path, node.lineno, "obs-bypass",
                "print() in the deterministic core — publish an event on the "
                "repro.obs bus (or move output to a cli module)",
            ))
    return found


#: Directories whose modules own the transfer machinery (exempt from
#: fabric-bypass): the dataplane itself and the hw substrate under it.
_DATAPLANE_OWNERS = {"dataplane", "hw"}


def _owns_dataplane(path: str) -> bool:
    return bool(_DATAPLANE_OWNERS & set(Path(path).parts))


def _check_fabric_bypass(tree: ast.AST, path: str) -> List[LintFinding]:
    """Transfers issued around the dataplane choke point.

    Flags, outside ``repro/dataplane`` and ``repro/hw``, raw link driving:
    ``start_transfer(...)`` calls and imports of it from
    ``repro.hw.links``.
    """
    found: List[LintFinding] = []

    def flag(node: ast.AST, what: str) -> None:
        found.append(LintFinding(
            path, node.lineno, "fabric-bypass",
            f"{what} bypasses the dataplane — submit a descriptor via "
            "fabric.dataplane.put/rma_put/control so path policy and the "
            "per-class ledger see the traffic (DESIGN.md §12)",
        ))

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "start_transfer":
                flag(node, "start_transfer() call")
            elif isinstance(func, ast.Attribute) and func.attr == "start_transfer":
                flag(node, f"{_dotted(func) or 'start_transfer'}() call")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "repro.hw.links" and any(
                a.name == "start_transfer" for a in node.names
            ):
                flag(node, "import of start_transfer")
    return found


#: Shard attributes that are private to the shard and its drivers.  The
#: public cross-shard surface is Shard.put/recv (messages) plus the
#: driver methods (step_window/next_time/done/results/...).
_SHARD_INTERNALS = {"engine", "fabric", "mailbox", "bridge", "procs"}


def _owns_shards(path: str) -> bool:
    """Modules allowed to touch Shard internals: the shard package itself
    (drivers, executor, resident workload builds)."""
    return "shard" in Path(path).parts


def _check_shard_shared_state(tree: ast.AST, path: str) -> List[LintFinding]:
    """Foreign code reaching into a shard's private state.

    Flags, outside ``repro/shard``, attribute access to shard internals
    (``engine``, ``fabric``, ``mailbox``, ``bridge``, ``procs``, or any
    underscore-prefixed name) on a shard-shaped receiver: a name that is
    or ends with ``shard``, a ``shards[...]`` element, or a ``.shard``
    attribute chain.  Cross-shard interaction is messages only; sharing
    engine or fabric references across shards breaks both the
    conservative-window determinism proof and multiprocessing execution
    (the state would silently fork).
    """
    found: List[LintFinding] = []

    def shard_receiver(recv: ast.AST) -> Optional[str]:
        if isinstance(recv, ast.Name):
            if recv.id == "shard" or recv.id.endswith("_shard"):
                return recv.id
        elif isinstance(recv, ast.Subscript):
            base = recv.value
            if isinstance(base, ast.Name) and base.id == "shards":
                return "shards[...]"
            if isinstance(base, ast.Attribute) and base.attr == "shards":
                return f"{_dotted(base) or 'shards'}[...]"
        elif isinstance(recv, ast.Attribute) and recv.attr == "shard":
            return _dotted(recv) or "<...>.shard"
        return None

    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        attr = node.attr
        if attr not in _SHARD_INTERNALS and not attr.startswith("_"):
            continue
        receiver = shard_receiver(node.value)
        if receiver is not None:
            found.append(LintFinding(
                path, node.lineno, "shard-shared-state",
                f"{receiver}.{attr} reaches into shard-private state — only "
                "ShardMessages cross shard boundaries; go through Shard.put/"
                "recv or the driver surface (step_window/next_time/results) "
                "(DESIGN.md §14)",
            ))
    return found


#: Directories whose modules own rank/cluster launching (exempt from
#: workload-bypass): the workload package (run_ranks, ClusterWorkload),
#: the MPI world itself, and the shard drivers.
_WORKLOAD_OWNERS = {"workload", "mpi", "shard"}
_LAUNCHER_NAMES = {"World", "ClusterJob"}


def _owns_workloads(path: str) -> bool:
    return bool(_WORKLOAD_OWNERS & set(Path(path).parts))


def _check_workload_bypass(tree: ast.AST, path: str) -> List[LintFinding]:
    """Direct ``World(...)`` / ``ClusterJob(...)`` construction outside the
    launch owners.  Drivers that bypass the Workload contract dodge
    machine resolution, path-policy selection, and the digest accounting
    that keeps every exhibit pinned (DESIGN.md §15)."""
    found: List[LintFinding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = None
        if isinstance(func, ast.Name) and func.id in _LAUNCHER_NAMES:
            name = func.id
        elif isinstance(func, ast.Attribute) and func.attr in _LAUNCHER_NAMES:
            name = _dotted(func) or func.attr
        if name is not None:
            found.append(LintFinding(
                path, node.lineno, "workload-bypass",
                f"direct {name}(...) construction bypasses the Workload "
                "contract — launch ranks via repro.workload.runner.run_ranks "
                "or run a registered Workload (DESIGN.md §15)",
            ))
    return found


#: Link fields only repro/hw (the Link ctor + LinkState API) may write.
#: ``outstanding_bytes`` is additionally the dataplane ledger's to maintain
#: (the congestion signal it owns, DESIGN.md §17).
_LINK_MUTATION_ATTRS = {"up", "bandwidth", "base_bandwidth", "outstanding_bytes"}
_LEDGER_ATTRS = {"outstanding_bytes"}
#: LinkState bookkeeping no one else may touch (receiver-scoped: a bare
#: ``self.epoch`` elsewhere — e.g. partitioned-comm epochs — is unrelated).
_LINKSTATE_ATTRS = {"epoch", "armed"}
_LINKSTATE_RECEIVERS = {"state", "link_state"}


def _owns_links(path: str) -> bool:
    return "hw" in Path(path).parts


def _check_fabric_mutation_bypass(tree: ast.AST, path: str) -> List[LintFinding]:
    """Direct writes to fabric link health outside the LinkState API.

    Flags, outside ``repro/hw``, assignments (plain or augmented) to:

    * the link fields ``up`` / ``bandwidth`` / ``base_bandwidth`` /
      ``outstanding_bytes`` on any receiver — except ``outstanding_bytes``
      inside ``repro/dataplane`` (the ledger maintains the congestion
      signal);
    * ``epoch`` / ``armed`` on a LinkState-shaped receiver (a name or
      attribute called ``state`` / ``link_state``).

    A direct write skips the epoch bump that invalidates the fabric route
    cache, the dataplane's disjoint-route memo, and epoch-stamped captured
    plans — the fault would be invisible to everything built on top.
    """
    found: List[LintFinding] = []
    in_dataplane = "dataplane" in Path(path).parts

    def flag(node: ast.AST, what: str) -> None:
        found.append(LintFinding(
            path, node.lineno, "fabric-mutation-bypass",
            f"{what} mutates fabric link state directly — go through the "
            "LinkState API (down_link/restore_link/degrade_bandwidth) so "
            "the fabric epoch bumps and route caches/captured plans "
            "revalidate (DESIGN.md §17)",
        ))

    def write_targets(node: ast.AST) -> List[ast.AST]:
        if isinstance(node, ast.Assign):
            return list(node.targets)
        if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            return [node.target]
        return []

    for node in ast.walk(tree):
        for target in write_targets(node):
            if not isinstance(target, ast.Attribute):
                continue
            attr = target.attr
            if attr in _LINK_MUTATION_ATTRS:
                if in_dataplane and attr in _LEDGER_ATTRS:
                    continue
                flag(node, f"write to .{attr}")
            elif attr in _LINKSTATE_ATTRS:
                recv = target.value
                if (
                    isinstance(recv, ast.Attribute)
                    and recv.attr in _LINKSTATE_RECEIVERS
                ) or (
                    isinstance(recv, ast.Name)
                    and recv.id in _LINKSTATE_RECEIVERS
                ):
                    flag(node, f"write to {_dotted(target) or '.' + attr}")
    return found


_OBS_EMIT_ATTRS = {"trace", "instant", "span", "counter"}


def _check_eager_obs_payload(tree: ast.AST, path: str) -> List[LintFinding]:
    """f-strings handed to obs-emit calls outside an ``obs is not None`` guard.

    ``engine.trace(f"...")`` formats its payload before the call even when
    no bus is attached and the call is a no-op — pure wall-clock waste on
    the fast path.  The idiom the core uses is::

        obs = engine.obs
        if obs is not None:
            obs.instant("lane", f"msg {x}", actor)
    """
    found: List[LintFinding] = []

    def guards_obs(test: ast.AST) -> bool:
        for node in ast.walk(test):
            if (
                isinstance(node, ast.Compare)
                and len(node.ops) == 1
                and isinstance(node.ops[0], ast.IsNot)
                and isinstance(node.comparators[0], ast.Constant)
                and node.comparators[0].value is None
            ):
                dotted = _dotted(node.left)
                if dotted is not None and (
                    dotted == "obs" or dotted.endswith(".obs")
                ):
                    return True
        return False

    def eager_fstring(call: ast.Call) -> bool:
        values = list(call.args) + [kw.value for kw in call.keywords]
        for value in values:
            for sub in ast.walk(value):
                if isinstance(sub, ast.JoinedStr) and any(
                    isinstance(part, ast.FormattedValue) for part in sub.values
                ):
                    return True
        return False

    def visit(node: ast.AST, guarded: bool) -> None:
        if isinstance(node, ast.If):
            body_guarded = guarded or guards_obs(node.test)
            for child in node.body:
                visit(child, body_guarded)
            for child in node.orelse:
                visit(child, guarded)
            return
        if isinstance(node, ast.IfExp) and guards_obs(node.test):
            visit(node.test, guarded)
            visit(node.body, True)
            visit(node.orelse, guarded)
            return
        if (
            not guarded
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _OBS_EMIT_ATTRS
            and eager_fstring(node)
        ):
            found.append(LintFinding(
                path, node.lineno, "eager-obs-payload",
                f".{node.func.attr}(...) payload is an f-string built outside "
                "an 'obs is not None' guard — it formats even on unobserved "
                "runs; hoist the call under the guard (DESIGN.md §11)",
            ))
        for child in ast.iter_child_nodes(node):
            visit(child, guarded)

    visit(tree, False)
    return found


# --------------------------------------------------------------------------
# drivers
# --------------------------------------------------------------------------

def lint_source(
    source: str, path: str, scoped: bool = True
) -> List[LintFinding]:
    """Lint one module's source.  ``scoped``: apply the core-package-only
    checks (wallclock, raw-units) as if the file lives in the core."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [LintFinding(path, exc.lineno or 0, "syntax", str(exc))]
    found: List[LintFinding] = []
    if scoped:
        found += _check_wallclock(tree, path)
        found += _check_raw_units(tree, path)
        if Path(path).name != "cli.py":
            found += _check_obs_bypass(tree, path)
        found += _check_eager_obs_payload(tree, path)
    found += _check_dropped_return(tree, path)
    if not _owns_dataplane(path):
        found += _check_fabric_bypass(tree, path)
    if not _owns_links(path):
        found += _check_fabric_mutation_bypass(tree, path)
    if not _owns_shards(path):
        found += _check_shard_shared_state(tree, path)
    if not _owns_workloads(path):
        found += _check_workload_bypass(tree, path)
    return found
