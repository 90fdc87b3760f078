"""Seeded chaos: deterministic fault injection at the durability seams.

:mod:`repro.engine.faults` attacks the *compute* path — it raises,
crashes, delays and corrupts at chosen sweep cells.  This module
attacks the *durability* path: the filesystem and process boundaries
between the queue, the checkpoints and the serve layer, which is
where distributed systems actually lose data.  Faults are declared in
the fault grammar of :mod:`repro.faultgrammar`::

    torn-write@checkpoint#frac=0.4#after=3
    stale-lease@worker#after=2
    slow-io@blobs#ms=40
    disk-full@shards#after=5
    crash@merge
    sigterm@serve#midflight

Options tune *when* (``after`` counts matching operations before the
first firing, ``times`` bounds repeat firings, ``none`` = unlimited)
and *how hard* (``frac`` = fraction of the record that hits disk
before the tear, ``ms`` = injected latency); ``#midflight`` is a
descriptive flag.

Execution is hook-based: write sites announce operations through
:func:`repro.io_atomic.fire` and an installed :class:`ChaosPlan`
reacts — appending a partial record then killing the process
(``torn-write``), swallowing lease heartbeats (``stale-lease``),
sleeping (``slow-io``), raising ``ENOSPC`` (``disk-full``), or
aborting the coordinator (``crash@merge``).  ``sigterm@serve`` is
interpreted by the campaign runner (:mod:`repro.chaos`), which drains
a live server mid-load.

Determinism: a plan's *schedule* is pure data, and every firing
decision is a per-process operation counter compared against
``after``/``times`` — no wall clocks, no RNG.  The OS-level
interleaving of workers still varies run to run, which is the point:
the invariants (digest identity, zero lost cells) must hold under
*any* interleaving, so the campaign gates on them rather than on a
particular trace.

Process roles matter: a fault that kills a queue **worker** uses
``os._exit`` (a real ``kill -9`` as far as durability is concerned),
while the same fault on the **coordinator** raises
:class:`~repro.errors.ChaosCrash` so the campaign harness survives to
run recovery.  Workers receive the plan through the pickled
:class:`~repro.engine.executors.ExecutionSettings` in ``queue.json``
and install it with ``role="worker"`` on startup.
"""

from __future__ import annotations

import errno
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ChaosCrash, SweepConfigError
from .. import faultgrammar, io_atomic
from ..io_atomic import HookSuppressed
from .faults import CRASH_EXIT_STATUS

__all__ = [
    "CHAOS_KINDS",
    "CHAOS_OPS",
    "ChaosPlan",
    "ChaosSpec",
    "active_plan",
    "install_plan",
    "uninstall_plan",
]

#: Every fault kind the grammar accepts.
CHAOS_KINDS = (
    "torn-write",
    "stale-lease",
    "slow-io",
    "disk-full",
    "crash",
    "sigterm",
)

#: Valid targets per kind.
_TARGETS = {
    "torn-write": ("checkpoint", "shards"),
    "stale-lease": ("worker",),
    "slow-io": ("blobs", "shards", "checkpoint"),
    "disk-full": ("shards", "blobs", "checkpoint"),
    "crash": ("merge", "worker"),
    "sigterm": ("serve",),
}

#: The io_atomic operations a plan listens on.
CHAOS_OPS = (
    "checkpoint.append",
    "atomic.write",
    "blob.read",
    "queue.heartbeat",
    "queue.merge",
)

#: Queue subdirectories whose files count as shard/queue state.
_SHARD_DIRS = frozenset({"tasks", "claimed", "done", "results"})


@dataclass(frozen=True)
class ChaosSpec:
    """One parsed ``kind@target#options`` clause."""

    kind: str
    target: str
    frac: float = 0.5
    after: int = 1
    ms: float = 25.0
    times: "int | None" = 1

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise SweepConfigError(
                f"unknown chaos kind {self.kind!r}; expected one of "
                f"{', '.join(CHAOS_KINDS)}"
            )
        if self.target not in _TARGETS[self.kind]:
            raise SweepConfigError(
                f"chaos kind {self.kind!r} cannot target "
                f"{self.target!r}; valid targets: "
                f"{', '.join(_TARGETS[self.kind])}"
            )
        if not 0.0 <= self.frac < 1.0:
            raise SweepConfigError(
                f"frac must be in [0, 1), got {self.frac}"
            )
        if self.after < 1:
            raise SweepConfigError(
                f"after must be >= 1, got {self.after}"
            )
        if not (math.isfinite(self.ms) and self.ms >= 0):
            raise SweepConfigError(
                f"ms must be a finite number >= 0, got {self.ms}"
            )
        if self.times is not None and self.times < 1:
            raise SweepConfigError(
                f"times must be >= 1 or 'none', got {self.times}"
            )

    # ------------------------------------------------------------------
    def matches(self, op: str, path: Path) -> bool:
        """Does this spec listen on operation ``op`` at ``path``?"""
        if self.kind == "sigterm":
            return False  # campaign-interpreted, never hook-fired
        if self.kind == "stale-lease":
            return op == "queue.heartbeat"
        if self.kind == "crash":
            if self.target == "merge":
                return op == "queue.merge"
            # crash@worker: die at the next durable write the worker
            # attempts (its shard checkpoint append)
            return (
                op == "checkpoint.append"
                and _classify(path) == "shards"
            )
        if self.kind == "torn-write":
            return (
                op == "checkpoint.append"
                and _classify(path) == self.target
            )
        # slow-io / disk-full: any announced write or blob read whose
        # path classifies as the target
        if op == "blob.read":
            return self.target == "blobs"
        if op in ("checkpoint.append", "atomic.write"):
            return _classify(path) == self.target
        return False

    def describe(self) -> str:
        """Round-trippable compact form of this spec."""
        return _GRAMMAR.describe(self)


def _classify(path: Path) -> str:
    """Map a path to a chaos target by its queue-directory position.

    Files inside a queue's ``tasks``/``claimed``/``done``/``results``
    dirs are ``shards`` state, ``blobs`` is itself, and everything
    else — canonical checkpoints, BENCH artifacts, manifests — is
    ``checkpoint``.
    """
    parent = path.parent.name
    if parent in _SHARD_DIRS:
        return "shards"
    if parent == "blobs":
        return "blobs"
    return "checkpoint"


_GRAMMAR = faultgrammar.Grammar(
    what="chaos",
    spec=ChaosSpec,
    options={
        "frac": ("frac", faultgrammar.number),
        "after": ("after", int),
        "ms": ("ms", faultgrammar.number),
        "times": ("times", faultgrammar.times),
    },
    target=lambda target: {"target": target},
    where=lambda spec: spec.target,
    flags=frozenset({"midflight"}),
)


@dataclass
class ChaosPlan:
    """An ordered set of chaos specs plus per-process firing state.

    The specs are immutable; the operation/firing counters are
    per-process bookkeeping (reset when the plan crosses a pickle
    boundary into a worker, which is exactly the semantics wanted:
    each process counts its own operations).
    """

    specs: tuple[ChaosSpec, ...] = ()
    _seen: dict = field(default_factory=dict, compare=False, repr=False)
    _fired: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def parse(cls, text: str) -> "ChaosPlan":
        """Parse a comma-separated chaos plan string."""
        return cls(_GRAMMAR.parse_plan(text))

    @classmethod
    def of(cls, *specs: ChaosSpec) -> "ChaosPlan":
        return cls(tuple(specs))

    def __getstate__(self) -> dict:
        return {"specs": self.specs}

    def __setstate__(self, state: dict) -> None:
        self.specs = state["specs"]
        self._seen = {}
        self._fired = {}

    # ------------------------------------------------------------------
    def describe(self) -> str:
        return ",".join(spec.describe() for spec in self.specs)

    def serve_specs(self) -> tuple[ChaosSpec, ...]:
        """The campaign-interpreted ``sigterm@serve`` clauses."""
        return tuple(s for s in self.specs if s.kind == "sigterm")

    def fired_counts(self) -> dict[str, int]:
        """Firing counts per ``kind@target`` in this process."""
        counts: dict[str, int] = {}
        for index, spec in enumerate(self.specs):
            fired = self._fired.get(index, 0)
            if fired:
                key = f"{spec.kind}@{spec.target}"
                counts[key] = counts.get(key, 0) + fired
        return counts

    # ------------------------------------------------------------------
    def react(
        self, op: str, path: Path, data: "bytes | None", role: str
    ) -> None:
        """The hook body: count the operation, fire due specs."""
        for index, spec in enumerate(self.specs):
            if not spec.matches(op, path):
                continue
            seen = self._seen.get(index, 0) + 1
            self._seen[index] = seen
            if seen < spec.after:
                continue
            fired = self._fired.get(index, 0)
            if spec.times is not None and fired >= spec.times:
                continue
            self._fired[index] = fired + 1
            self._fire(spec, op, path, data, role)

    def _fire(
        self,
        spec: ChaosSpec,
        op: str,
        path: Path,
        data: "bytes | None",
        role: str,
    ) -> None:
        if spec.kind == "slow-io":
            time.sleep(spec.ms / 1000.0)
            return
        if spec.kind == "stale-lease":
            raise HookSuppressed(f"chaos {spec.describe()}")
        if spec.kind == "disk-full":
            raise OSError(
                errno.ENOSPC,
                f"No space left on device (chaos {spec.describe()})",
            )
        if spec.kind == "torn-write":
            self._tear(spec, path, data, role)
            return
        if spec.kind == "crash":
            if role == "worker":
                os._exit(CRASH_EXIT_STATUS)
            raise ChaosCrash(
                f"injected coordinator crash ({spec.describe()} "
                f"at {op})"
            )

    def _tear(
        self,
        spec: ChaosSpec,
        path: Path,
        data: "bytes | None",
        role: str,
    ) -> None:
        """Append a prefix of the record straight to the file, then die.

        Writing through a separate descriptor (the real writer never
        runs) reproduces exactly what ``kill -9`` between a partial
        ``write(2)`` and its completion leaves on disk: earlier
        records intact, the final line unterminated.
        """
        payload = data or b""
        torn = payload[: int(len(payload) * spec.frac)]
        if torn.endswith(b"\n"):
            torn = torn[:-1]
        try:
            with open(path, "ab") as stream:
                stream.write(torn)
                stream.flush()
                os.fsync(stream.fileno())
        except OSError:
            pass  # the death below is the observable effect
        if role == "worker":
            os._exit(CRASH_EXIT_STATUS)
        raise ChaosCrash(
            f"injected coordinator crash after torn write "
            f"({spec.describe()} at {path.name})"
        )


# ----------------------------------------------------------------------
# Installation into the io_atomic hook registry
# ----------------------------------------------------------------------
_active: "tuple[ChaosPlan, str] | None" = None


def install_plan(plan: ChaosPlan, role: str) -> None:
    """Register ``plan`` as this process's chaos layer.

    ``role`` is ``"worker"`` (faults kill the process, like a real
    crash) or ``"coordinator"`` (faults raise :class:`ChaosCrash` so
    a harness can run recovery).  Installing replaces any previously
    installed plan.
    """
    global _active
    if role not in ("worker", "coordinator"):
        raise SweepConfigError(
            f"chaos role must be 'worker' or 'coordinator', "
            f"got {role!r}"
        )
    _active = (plan, role)

    def hook(op: str, path: Path, data: "bytes | None") -> None:
        plan.react(op, path, data, role)

    for op in CHAOS_OPS:
        io_atomic.install_hook(op, hook)


def uninstall_plan() -> None:
    """Remove the active plan's hooks (idempotent)."""
    global _active
    _active = None
    for op in CHAOS_OPS:
        io_atomic.remove_hook(op)


def active_plan() -> "ChaosPlan | None":
    """The plan installed in this process, if any."""
    return _active[0] if _active is not None else None
