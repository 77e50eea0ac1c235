"""The repo-invariant rules: one pass over the project model.

Four rules are hand-written because their shape is their own:

``wallclock``
    No ``time.time``/``monotonic``/``perf_counter``, ``datetime.now``,
    ``random.*`` or ``numpy.random`` inside the deterministic core
    (``src/repro/{sim,cuda,partitioned,mpi,hw}``).  The engine's
    determinism contract (``sim/engine.py``) forbids wall-clock and
    ambient RNG.
``raw-units``
    Numeric literals that *are* unit constants (``1e-3``, ``1e-6``,
    ``1e-9``, ``1024**2``, ``1024**3``) must be written with the
    :mod:`repro.units` helpers in the deterministic core.
``dropped-return``
    ``engine.process(body(...))`` as a bare statement discards the
    process event, and with it the value the generator ``body`` returns.
``eager-obs-payload``
    An f-string handed to ``trace``/``instant``/``span``/``counter``
    formats before the call even when no bus is attached; in the core
    it must sit under an ``... obs is not None`` guard (DESIGN.md §11).

The other six say "only package X may touch Y" and are rows of one
:data:`OWNERSHIP` table, matched in a single walk of each module.  A
module is exempt from a row when any component of its path names an
owner, so ``tests/shard/...`` is as exempt as ``src/repro/shard/...``.

A module that does not parse is reported as ``syntax`` at the error's
line (the other rules see it as empty).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analyze.model import ModuleInfo, Project, dotted_name, owned_nodes
from repro.analyze.rules import Finding, Pass, Rule

FAMILY = "invariant"

RULES: Dict[str, Rule] = {r.id: r for r in (
    Rule("wallclock", FAMILY,
         "no wall-clock / ambient randomness in src/repro/{sim,cuda,partitioned,mpi,hw}"),
    Rule("raw-units", FAMILY,
         "unit-magnitude literals must use repro.units helpers (us, MiB, ...)"),
    Rule("dropped-return", FAMILY,
         "process body returns a value but its process event is discarded"),
    Rule("obs-bypass", FAMILY,
         "core instrumentation must go through repro.obs "
         "(no print outside cli modules)"),
    Rule("eager-obs-payload", FAMILY,
         "f-string payloads for trace/instant/span must sit under an "
         "'obs is not None' guard (they format even when unobserved)"),
    Rule("fabric-bypass", FAMILY,
         "data movement outside repro/{dataplane,hw} must submit to the "
         "dataplane (no start_transfer calls)"),
    Rule("shard-shared-state", FAMILY,
         "outside repro/shard, shard internals (engine/fabric/mailbox/"
         "bridge/procs/_*) are off limits — only ShardMessages cross shards"),
    Rule("workload-bypass", FAMILY,
         "drivers outside repro/{workload,mpi,shard} must not construct "
         "World/ClusterJob directly — go through run_ranks or a Workload"),
    Rule("fabric-mutation-bypass", FAMILY,
         "link health outside repro/hw is mutated only via the LinkState "
         "API (down_link/restore_link/degrade_bandwidth) — direct field "
         "writes skip the fabric epoch bump"),
    Rule("env-read", FAMILY,
         "only the command-line edge (repro/__main__.py, perfbench) reads "
         "the process environment — run configuration travels in the RunContext"),
    Rule("syntax", FAMILY,
         "every analyzed module must parse (the other rules cannot see it)"),
)}

#: Packages whose modules the core-only rules apply to.
CORE_PACKAGES = ("sim", "cuda", "partitioned", "mpi", "hw")

# -- the ownership table ------------------------------------------------------

#: Access kinds an ownership row matches.
CALL = "call"        # f(...) or x.f(...): the name is the callee's
IMPORT = "import"    # from M import N: the name is "M.N"
WRITE = "write"      # x.a = / x.a += / x.a: T = (direct targets only)
ACCESS = "access"    # any x.a reference, read or written


def _tail(node: Optional[ast.AST]) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _bare(recv: Optional[ast.AST]) -> bool:
    return recv is None


def _shard_shaped(recv: Optional[ast.AST]) -> bool:
    """``shard``, ``*_shard``, ``<...>.shard`` or a ``shards[...]`` element."""
    if isinstance(recv, ast.Name):
        return recv.id == "shard" or recv.id.endswith("_shard")
    if isinstance(recv, ast.Subscript):
        return _tail(recv.value) == "shards"
    return isinstance(recv, ast.Attribute) and recv.attr == "shard"


def _os(recv: Optional[ast.AST]) -> bool:
    return isinstance(recv, ast.Name) and recv.id == "os"


def _link_state_shaped(recv: Optional[ast.AST]) -> bool:
    # A bare ``self.epoch`` elsewhere (partitioned-comm epochs) is unrelated.
    return _tail(recv) in ("state", "link_state")


@dataclass(frozen=True)
class Owned:
    """One row: ``names`` reached by ``access`` belong to ``owners``."""

    rule: str
    access: str
    names: Tuple[str, ...]             # a trailing "*" matches a prefix
    owners: Tuple[str, ...]            # path components that are exempt
    receiver: Optional[Callable[[Optional[ast.AST]], bool]] = None
    core_only: bool = False


OWNERSHIP: Tuple[Owned, ...] = (
    Owned("fabric-bypass", CALL, ("start_transfer",), ("dataplane", "hw")),
    Owned("fabric-bypass", IMPORT, ("repro.hw.links.start_transfer",),
          ("dataplane", "hw")),
    Owned("fabric-mutation-bypass", WRITE, ("up", "bandwidth", "base_bandwidth"),
          ("hw",)),
    # The dataplane ledger maintains the congestion signal it owns.
    Owned("fabric-mutation-bypass", WRITE, ("outstanding_bytes",),
          ("hw", "dataplane")),
    Owned("fabric-mutation-bypass", WRITE, ("epoch", "armed"), ("hw",),
          receiver=_link_state_shaped),
    Owned("shard-shared-state", ACCESS,
          ("engine", "fabric", "mailbox", "bridge", "procs", "_*"), ("shard",),
          receiver=_shard_shaped),
    Owned("workload-bypass", CALL, ("World", "ClusterJob"),
          ("workload", "mpi", "shard")),
    Owned("obs-bypass", CALL, ("print",), ("cli.py",), receiver=_bare,
          core_only=True),
    # perfbench/run.py hands its environment to the measured worker.
    Owned("env-read", ACCESS, ("environ", "getenv"), ("__main__.py", "perfbench"),
          receiver=_os),
)

#: What each ownership rule tells the author to do instead.
GUIDANCE = {
    "fabric-bypass":
        "bypasses the dataplane — submit a descriptor via "
        "fabric.dataplane.put/rma_put/control so path policy and the "
        "per-class ledger see the traffic (DESIGN.md §12)",
    "fabric-mutation-bypass":
        "mutates fabric link state directly — go through the LinkState API "
        "(down_link/restore_link/degrade_bandwidth) so the fabric epoch "
        "bumps and route caches/captured plans revalidate (DESIGN.md §17)",
    "shard-shared-state":
        "reaches into shard-private state — only ShardMessages cross shard "
        "boundaries; go through Shard.put/recv or the driver surface "
        "(step_window/next_time/results) (DESIGN.md §14)",
    "workload-bypass":
        "bypasses the Workload contract — launch ranks via "
        "repro.workload.runner.run_ranks or run a registered Workload "
        "(DESIGN.md §15)",
    "obs-bypass":
        "in the deterministic core — publish an event on the repro.obs bus "
        "(DESIGN.md §10) or move output to a cli module",
    "env-read":
        "reads the process environment — take the setting from the engine's "
        "RunContext (engine.ctx); python -m repro parses the REPRO_* "
        "variables once (DESIGN.md §18)",
}


def _describe(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return f"{_describe(node.value)}.{node.attr}"
    if isinstance(node, ast.Subscript):
        return f"{_describe(node.value)}[...]"
    return node.id if isinstance(node, ast.Name) else "<...>"


class _Matcher:
    """The ownership rows that apply to one module, indexed by (access, name)."""

    def __init__(self, rows: Sequence[Owned]) -> None:
        self.exact: Dict[Tuple[str, str], List[Owned]] = {}
        self.prefix: Dict[str, List[Tuple[str, Owned]]] = {}
        for row in rows:
            for name in row.names:
                if name.endswith("*"):
                    self.prefix.setdefault(row.access, []).append((name[:-1], row))
                else:
                    self.exact.setdefault((row.access, name), []).append(row)

    def match(self, access: str, name: str, recv: Optional[ast.AST]) -> List[str]:
        rows = self.exact.get((access, name), [])
        for prefix, row in self.prefix.get(access, ()):
            if name.startswith(prefix):
                rows = rows + [row]
        return [r.rule for r in rows if r.receiver is None or r.receiver(recv)]


def _accesses(tree: ast.AST) -> Iterator[Tuple[str, str, Optional[ast.AST], ast.AST, int]]:
    """``(access, name, receiver, node, line)`` for everything a row can match."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield CALL, func.id, None, func, node.lineno
            elif isinstance(func, ast.Attribute):
                yield CALL, func.attr, func.value, func, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield IMPORT, f"{node.module}.{alias.name}", None, alias, node.lineno
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Attribute):
                    yield WRITE, t.attr, t.value, t, node.lineno
        elif isinstance(node, ast.Attribute):
            yield ACCESS, node.attr, node.value, node, node.lineno


_WHAT: Dict[str, Callable[[ast.AST], str]] = {
    CALL: lambda func: f"{_describe(func)}(...) call",
    IMPORT: lambda alias: f"import of {alias.name}",
    WRITE: lambda target: f"write to {_describe(target)}",
    ACCESS: _describe,
}


def _ownership(tree: ast.AST, matcher: _Matcher) -> Iterator[Tuple[str, int, str]]:
    for access, name, recv, node, line in _accesses(tree):
        for rule in matcher.match(access, name, recv):
            yield rule, line, f"{_WHAT[access](node)} {GUIDANCE[rule]}"


# -- the hand-written rules ---------------------------------------------------

_WALLCLOCK_ATTRS = {
    "time": {"time", "monotonic", "perf_counter", "process_time", "time_ns",
             "monotonic_ns", "perf_counter_ns"},
    "datetime": {"now", "utcnow", "today"},
}
_UNIT_FLOATS = {1e-3: "ms", 1e-6: "us", 1e-9: "ns"}
_UNIT_INTS = {1024 ** 2: "MiB", 1024 ** 3: "GiB"}
_OBS_EMIT_ATTRS = {"trace", "instant", "span", "counter"}


def _wallclock(tree: ast.AST) -> Iterator[Tuple[str, int, str]]:
    def flag(node: ast.AST, what: str) -> Tuple[str, int, str]:
        return ("wallclock", node.lineno,
                f"{what} breaks the engine's determinism contract; derive time "
                "from Engine.now and randomness from an explicit seeded RNG")

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            if dotted is None:
                continue
            root, *rest = dotted.split(".")
            if root in _WALLCLOCK_ATTRS and rest[-1] in _WALLCLOCK_ATTRS[root]:
                yield flag(node, f"call to {dotted}")
            elif root == "random" or (root in ("np", "numpy") and rest[0] == "random"):
                yield flag(node, f"use of {dotted}")
        elif isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
            if node.module == "time" and names & _WALLCLOCK_ATTRS["time"]:
                yield flag(node, "import of wall-clock time functions")
            elif node.module == "random":
                yield flag(node, "import from random")
        elif isinstance(node, ast.Import):
            if any(a.name == "random" for a in node.names):
                yield flag(node, "import random")


def _raw_units(tree: ast.AST) -> Iterator[Tuple[str, int, str]]:
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
            yield ("raw-units", node.lineno,
                   f"raw literal where repro.units.{unit} reads as the paper writes it")


def _returns_value(fn: ast.AST) -> Optional[int]:
    for node in owned_nodes(fn):
        if (
            isinstance(node, ast.Return)
            and node.value is not None
            and not (isinstance(node.value, ast.Constant) and node.value.value is None)
        ):
            return node.lineno
    return None


def _dropped_return(mod: ModuleInfo) -> Iterator[Tuple[str, int, str]]:
    valued = {}
    for fi in mod.functions:
        if fi.is_generator:
            line = _returns_value(fi.node)
            if line is not None:
                valued[fi.name] = line
    if not valued:
        return
    for node in ast.walk(mod.tree):
        if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)):
            continue
        call = node.value
        if not (isinstance(call.func, ast.Attribute) and call.func.attr == "process"
                and call.args):
            continue
        first = call.args[0]
        if (isinstance(first, ast.Call) and isinstance(first.func, ast.Name)
                and first.func.id in valued):
            yield ("dropped-return", node.lineno,
                   f"process body {first.func.id!r} returns a value (line "
                   f"{valued[first.func.id]}) but the process event is discarded "
                   "here — bind the event or drop the return value")


def _guards_obs(test: ast.AST) -> bool:
    for node in ast.walk(test):
        if (
            isinstance(node, ast.Compare)
            and len(node.ops) == 1
            and isinstance(node.ops[0], ast.IsNot)
            and isinstance(node.comparators[0], ast.Constant)
            and node.comparators[0].value is None
        ):
            dotted = dotted_name(node.left)
            if dotted is not None and (dotted == "obs" or dotted.endswith(".obs")):
                return True
    return False


def _eager_fstring(call: ast.Call) -> bool:
    for value in list(call.args) + [kw.value for kw in call.keywords]:
        for sub in ast.walk(value):
            if isinstance(sub, ast.JoinedStr) and any(
                isinstance(part, ast.FormattedValue) for part in sub.values
            ):
                return True
    return False


def _eager_obs_payload(node: ast.AST, guarded: bool = False
                       ) -> Iterator[Tuple[str, int, str]]:
    """Emit calls with f-string payloads outside an ``obs is not None`` guard."""
    if isinstance(node, ast.If):
        body_guarded = guarded or _guards_obs(node.test)
        for child in node.body:
            yield from _eager_obs_payload(child, body_guarded)
        for child in node.orelse:
            yield from _eager_obs_payload(child, guarded)
        return
    if isinstance(node, ast.IfExp) and _guards_obs(node.test):
        yield from _eager_obs_payload(node.test, guarded)
        yield from _eager_obs_payload(node.body, True)
        yield from _eager_obs_payload(node.orelse, guarded)
        return
    if (
        not guarded
        and isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _OBS_EMIT_ATTRS
        and _eager_fstring(node)
    ):
        yield ("eager-obs-payload", node.lineno,
               f".{node.func.attr}(...) payload is an f-string built outside "
               "an 'obs is not None' guard — it formats even on unobserved "
               "runs; hoist the call under the guard (DESIGN.md §11)")
    for child in ast.iter_child_nodes(node):
        yield from _eager_obs_payload(child, guarded)


# -- the pass ----------------------------------------------------------------

def _in_core(path: Path) -> bool:
    """The path's first component after its last ``repro`` is a core package."""
    parts = path.parts
    if "repro" not in parts:
        return False
    tail = parts[len(parts) - parts[::-1].index("repro"):]
    return bool(tail) and tail[0] in CORE_PACKAGES


def _check(mod: ModuleInfo, enabled: Set[str]) -> Iterator[Tuple[str, int, str]]:
    path = Path(mod.path)
    core = _in_core(path)
    parts = set(path.parts)
    rows = [row for row in OWNERSHIP
            if row.rule in enabled and (core or not row.core_only)
            and parts.isdisjoint(row.owners)]
    if rows:
        yield from _ownership(mod.tree, _Matcher(rows))
    if "dropped-return" in enabled:
        yield from _dropped_return(mod)
    if not core:
        return
    if "wallclock" in enabled:
        yield from _wallclock(mod.tree)
    if "raw-units" in enabled:
        yield from _raw_units(mod.tree)
    if "eager-obs-payload" in enabled:
        yield from _eager_obs_payload(mod.tree)


def run(project: Project, enabled: Sequence[str]) -> List[Finding]:
    enabled_set = set(enabled)
    findings: List[Finding] = []
    for mod in project.modules:
        err = mod.syntax_error
        if err is not None:
            if "syntax" in enabled_set:
                findings.append(Finding("syntax", mod.path, err.lineno or 1,
                                        f"module does not parse: {err.msg}"))
            continue
        if Path(mod.path).name == "units.py":
            continue  # the units helpers *define* the raw literals
        findings += [Finding(rule, mod.path, line, msg)
                     for rule, line, msg in _check(mod, enabled_set)]
    return findings


PASS = Pass(family=FAMILY, rules=RULES, run=run)
