"""Deterministic fault injection for the sweep engine.

The robustness machinery in :mod:`repro.engine.runner` — error
policies, worker-crash recovery, chunk bisection, checkpoint/resume —
only earns its keep if its failure paths are *testable*.  This module
makes failure a first-class, reproducible input: a :class:`FaultPlan`
is a picklable set of :class:`FaultSpec` rules that the runner
evaluates immediately before executing each cell, so the same plan
produces the same faults at the same cells on every run, any worker
count, and every retry attempt.

Four fault kinds cover the interesting failure classes:

``raise``
    Raise :class:`InjectedFault` inside the cell — an ordinary Python
    exception, exercising the ``collect`` / ``fail_fast`` error
    policies.
``crash``
    Kill the worker process with ``os._exit`` — the un-catchable
    death that surfaces as ``BrokenProcessPool`` in the parent,
    exercising retry, bisection and pool-degradation.  On the
    in-process path (where ``os._exit`` would take the whole run
    down) it raises :class:`~repro.errors.WorkerCrashError` instead.
``delay``
    Sleep ``delay_s`` seconds before the cell runs, exercising the
    per-chunk wall-clock budget.
``corrupt``
    Damage the cell's encoded matrix stream before characterization:
    the runner encodes the workload in the cell's format, applies a
    seeded :class:`~repro.formats.corrupt.CorruptionSpec` injection,
    and decodes it back under the spec's
    :data:`~repro.formats.integrity.DECODE_MODES` policy.  Under
    ``mode=strict`` a detected corruption surfaces as a
    :class:`~repro.errors.FormatIntegrityError` cell failure;
    ``repair`` / ``lenient`` let the (possibly altered) matrix flow
    through the pipeline, exercising silent-corruption paths.

Faults are *attempt-gated*: ``times=N`` trips only on the first N
dispatch attempts of the cell's chunk, so a "transient" crash that
succeeds on retry is one spec away.  ``times=None`` makes the fault
persistent.

Plans are written in the fault grammar of :mod:`repro.faultgrammar`
(the hidden ``repro sweep --inject-faults`` flag takes them).  A
target is ``workload:format:p`` (``*`` wildcards) or ``every:N``;
options are ``times``, ``delay``, and for ``corrupt`` the
:class:`~repro.formats.corrupt.CorruptionSpec` settings ``ckind``,
``plane``, ``ber``, ``fraction`` and ``mode``::

    raise@rand-0.01:csr:16          # one exact cell
    crash@*:coo:*                   # every coo cell, first attempt
    crash@*:coo:*#times=none        # ... on every attempt
    delay@every:5#delay=0.25        # every 5th grid cell sleeps 250 ms
    raise@band-4:*:8,raise@band-8:*:8   # comma-separated plans compose
    corrupt@*:csr:*#ckind=bitflip#ber=0.001#mode=strict
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

from .. import faultgrammar
from ..errors import SweepConfigError, WorkerCrashError
from ..formats.corrupt import CorruptionSpec

__all__ = ["InjectedFault", "FaultSpec", "FaultPlan", "FAULT_KINDS"]

#: The supported fault kinds.
FAULT_KINDS = ("raise", "crash", "delay", "corrupt")

#: Exit status a ``crash`` fault kills its worker with (any non-zero
#: status breaks the pool; a recognizable one helps post-mortems).
CRASH_EXIT_STATUS = 86


class InjectedFault(RuntimeError):
    """The exception a ``raise`` fault throws inside a cell."""


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault rule.

    A spec matches a cell by coordinates (``None`` fields are
    wildcards) or by grid position (``every_nth`` trips on cell
    indexes divisible by N); ``times`` gates it to the first N
    dispatch attempts of the chunk carrying the cell (``None`` =
    every attempt).
    """

    kind: str
    workload: str | None = None
    format_name: str | None = None
    partition_size: int | None = None
    every_nth: int | None = None
    times: int | None = 1
    delay_s: float = 0.05
    corrupt_kind: str = "bitflip"
    plane: str = "*"
    ber: float = 1e-3
    fraction: float = 0.25
    decode_mode: str = "strict"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise SweepConfigError(
                f"unknown fault kind {self.kind!r}; "
                f"known: {', '.join(FAULT_KINDS)}"
            )
        if self.kind == "corrupt":
            # constructing the spec validates ckind / ber / mode
            self.corruption_spec()
        if self.every_nth is not None and self.every_nth < 1:
            raise SweepConfigError(
                f"every_nth must be >= 1, got {self.every_nth}"
            )
        if self.times is not None and self.times < 1:
            raise SweepConfigError(
                f"times must be >= 1 (or None for always), "
                f"got {self.times}"
            )
        if not (math.isfinite(self.delay_s) and self.delay_s >= 0):
            raise SweepConfigError(
                f"delay_s must be a finite number >= 0, got {self.delay_s}"
            )

    # ------------------------------------------------------------------
    def matches(self, coords: tuple[str, str, int], index: int) -> bool:
        """Does this spec target the cell at ``coords`` / ``index``?"""
        if self.every_nth is not None:
            return index % self.every_nth == 0
        workload, format_name, partition_size = coords
        return (
            (self.workload is None or self.workload == workload)
            and (
                self.format_name is None
                or self.format_name == format_name
            )
            and (
                self.partition_size is None
                or self.partition_size == partition_size
            )
        )

    def should_fire(
        self, coords: tuple[str, str, int], index: int, attempt: int
    ) -> bool:
        """Whether the fault trips for this (cell, dispatch attempt)."""
        if self.times is not None and attempt >= self.times:
            return False
        return self.matches(coords, index)

    # ------------------------------------------------------------------
    def corruption_spec(self) -> CorruptionSpec:
        """The stream-corruption rule a ``corrupt`` fault applies."""
        return CorruptionSpec(
            kind=self.corrupt_kind,
            plane=self.plane,
            ber=self.ber,
            fraction=self.fraction,
            decode_mode=self.decode_mode,
        )

    # ------------------------------------------------------------------
    def describe(self) -> str:
        return _GRAMMAR.describe(self)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, picklable set of fault rules.

    The runner calls :meth:`before_cell` immediately before executing
    each cell; the first matching spec fires.  Plans cross the
    ``ProcessPoolExecutor`` boundary with the chunk, so workers and
    the in-process path evaluate identical rules.
    """

    specs: tuple[FaultSpec, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.specs)

    def before_cell(
        self,
        coords: tuple[str, str, int],
        index: int,
        attempt: int = 0,
        in_worker: bool = False,
    ) -> None:
        """Inject the first matching fault, if any.

        ``attempt`` is the chunk's dispatch attempt (0-based);
        ``in_worker`` tells a ``crash`` fault whether it may actually
        kill the process (worker) or must raise
        :class:`WorkerCrashError` instead (in-process path).
        """
        for spec in self.specs:
            if not spec.should_fire(coords, index, attempt):
                continue
            if spec.kind == "corrupt":
                # corruption is not an exception at this point: the
                # runner applies it to the cell's encoded stream via
                # :meth:`corruption_for`
                continue
            if spec.kind == "delay":
                time.sleep(spec.delay_s)
                continue
            if spec.kind == "raise":
                raise InjectedFault(
                    f"injected fault {spec.describe()} at cell "
                    f"{coords} (attempt {attempt})"
                )
            # kind == "crash"
            if in_worker:
                os._exit(CRASH_EXIT_STATUS)
            raise WorkerCrashError(
                f"injected crash {spec.describe()} at cell {coords} "
                f"(attempt {attempt}, in-process path)"
            )

    def corruption_for(
        self,
        coords: tuple[str, str, int],
        index: int,
        attempt: int = 0,
    ) -> CorruptionSpec | None:
        """The corruption rule (if any) firing for this cell.

        The first matching ``corrupt`` spec wins; evaluated with the
        same attempt-gating as :meth:`before_cell`, so a transient
        ``times=1`` corruption clears on retry.
        """
        for spec in self.specs:
            if spec.kind != "corrupt":
                continue
            if spec.should_fire(coords, index, attempt):
                return spec.corruption_spec()
        return None

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a comma-separated compact spec string (see module doc)."""
        return cls(specs=_GRAMMAR.parse_plan(text))

    @classmethod
    def of(cls, *specs: FaultSpec) -> "FaultPlan":
        return cls(specs=tuple(specs))

    def describe(self) -> str:
        return ",".join(spec.describe() for spec in self.specs)


def _cell_target(where: str) -> dict:
    """The fields of a ``workload:format:p`` or ``every:N`` target."""
    if where.startswith("every:"):
        return {"every_nth": int(where[len("every:"):])}
    parts = [part.strip() for part in where.split(":")]
    if len(parts) != 3:
        raise ValueError(
            "must be workload:format:p ('*' wildcards) or every:N"
        )
    workload, format_name, partition = (
        None if part == "*" else part for part in parts
    )
    return {
        "workload": workload,
        "format_name": format_name,
        "partition_size": None if partition is None else int(partition),
    }


def _cell_where(spec: FaultSpec) -> str:
    if spec.every_nth is not None:
        return f"every:{spec.every_nth}"
    return ":".join(
        "*" if part is None else str(part)
        for part in (spec.workload, spec.format_name, spec.partition_size)
    )


_GRAMMAR = faultgrammar.Grammar(
    what="fault",
    spec=FaultSpec,
    options={
        "times": ("times", faultgrammar.times),
        "delay": ("delay_s", faultgrammar.number),
        "ckind": ("corrupt_kind", str),
        "plane": ("plane", str),
        "ber": ("ber", faultgrammar.number),
        "fraction": ("fraction", faultgrammar.number),
        "mode": ("decode_mode", str),
    },
    target=_cell_target,
    where=_cell_where,
)
