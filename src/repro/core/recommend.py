"""Format recommendation under constraints.

The paper's stated purpose is to give architects "hints to ... mindfully
choose appropriate sparse formats" and to show "which parameters must be
tuned ... to optimize for a particular metric" (Section 1).  This module
turns the characterization results into that decision procedure: pick
the best (format, partition size) pair for a chosen objective, subject
to the resource and power budgets of a target device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import SimulationError
from ..formats.registry import SPARSE_FORMATS
from ..hardware.config import DEFAULT_CONFIG, HardwareConfig
from ..matrix import SparseMatrix
from ..partition import PARTITION_SIZES
from .results import CharacterizationResult

__all__ = [
    "OBJECTIVES",
    "Objective",
    "Constraints",
    "Recommendation",
    "PredictedCandidate",
    "PredictedRecommendation",
    "recommend",
    "recommend_from_results",
    "rank_predictions",
]

#: Result attribute and direction per objective name.
_OBJECTIVES: dict[str, tuple[str, bool]] = {
    "latency": ("total_cycles", False),
    "throughput": ("throughput_bytes_per_s", True),
    "bandwidth": ("bandwidth_utilization", True),
    "overhead": ("sigma", False),
    "energy": ("energy_j", False),
    "power": ("dynamic_power_w", False),
}

#: The recognized objective names, in declaration order.
OBJECTIVES: tuple[str, ...] = tuple(_OBJECTIVES)


@dataclass(frozen=True)
class Objective:
    """What to optimize: one of latency / throughput / bandwidth /
    overhead / energy / power."""

    name: str

    def __post_init__(self) -> None:
        if self.name not in _OBJECTIVES:
            raise SimulationError(
                f"unknown objective {self.name!r}; choose from "
                f"{', '.join(_OBJECTIVES)}"
            )

    def value(self, result: CharacterizationResult) -> float:
        attribute, _ = _OBJECTIVES[self.name]
        return float(getattr(result, attribute))

    def better(self, a: float, b: float) -> bool:
        """Is ``a`` strictly better than ``b``?"""
        _, higher = _OBJECTIVES[self.name]
        return a > b if higher else a < b


@dataclass(frozen=True)
class Constraints:
    """Device budgets a candidate design must respect.

    Defaults are the xq7z020 the paper targets (Table 2 totals); pass
    smaller numbers to model a tighter device or a shared fabric.
    """

    max_bram_18k: int = 140
    max_ff: int = 106_400
    max_lut: int = 53_200
    max_dynamic_power_w: float = float("inf")

    def admits(self, result: CharacterizationResult) -> bool:
        return self.admits_static(
            result.resources, result.dynamic_power_w
        )

    def admits_static(self, resources, dynamic_power_w: float) -> bool:
        """Constraint check from resources/power alone.

        Resources and power are workload-independent, so the learned
        fast path can apply the *exact* constraint filter to predicted
        candidates without running a single simulation.  ``resources``
        may be ``None`` to skip the fabric budgets.
        """
        if resources is not None and not (
            resources.bram_18k <= self.max_bram_18k
            and resources.ff <= self.max_ff
            and resources.lut <= self.max_lut
        ):
            return False
        return dynamic_power_w <= self.max_dynamic_power_w


@dataclass(frozen=True)
class Recommendation:
    """The chosen design point plus every evaluated alternative."""

    best: CharacterizationResult
    objective: Objective
    candidates: tuple[CharacterizationResult, ...]
    rejected: tuple[CharacterizationResult, ...]

    @property
    def format_name(self) -> str:
        return self.best.format_name

    @property
    def partition_size(self) -> int:
        return self.best.partition_size

    def ranking(self) -> list[CharacterizationResult]:
        """Feasible candidates, best first."""
        return sorted(
            self.candidates,
            key=self.objective.value,
            reverse=_OBJECTIVES[self.objective.name][1],
        )


@dataclass(frozen=True)
class PredictedCandidate:
    """One design point scored by a predictor instead of simulation.

    ``value`` is the predicted objective value (cycles for the latency
    objective); ``resources`` / ``dynamic_power_w`` carry the *exact*
    workload-independent estimates so constraint filtering stays
    exact even on the fast path.
    """

    format_name: str
    partition_size: int
    value: float
    resources: object = None
    dynamic_power_w: float = 0.0


@dataclass(frozen=True)
class PredictedRecommendation:
    """A predicted ranking plus the margin the verifier gates on."""

    objective: Objective
    ranking: tuple[PredictedCandidate, ...]
    rejected: tuple[PredictedCandidate, ...]

    @property
    def best(self) -> PredictedCandidate:
        return self.ranking[0]

    @property
    def format_name(self) -> str:
        return self.best.format_name

    @property
    def partition_size(self) -> int:
        return self.best.partition_size

    @property
    def margin(self) -> float:
        """Relative gap between the predicted best and the runner-up.

        The fast path's confidence signal: a small margin means the
        top two design points are predicted too close to call, and the
        caller should fall back to the exact model.  Infinite when
        there is no runner-up.
        """
        if len(self.ranking) < 2:
            return float("inf")
        first = self.ranking[0].value
        second = self.ranking[1].value
        return abs(second - first) / max(abs(first), 1e-12)


def rank_predictions(
    candidates: Sequence[PredictedCandidate],
    objective: str = "latency",
    constraints: Constraints | None = None,
) -> PredictedRecommendation:
    """Rank predicted design points under the exact constraint filter.

    The prediction-side counterpart of :func:`recommend_from_results`:
    same objective directions, same constraint semantics, same
    no-feasible-candidate failure.
    """
    goal = Objective(objective)
    budget = constraints or Constraints()
    feasible: list[PredictedCandidate] = []
    rejected: list[PredictedCandidate] = []
    for candidate in candidates:
        if budget.admits_static(
            candidate.resources, candidate.dynamic_power_w
        ):
            feasible.append(candidate)
        else:
            rejected.append(candidate)
    if not feasible:
        raise SimulationError(
            "no (format, partition) combination satisfies the "
            "constraints; relax the budgets or widen the search"
        )
    ranking = sorted(
        feasible,
        key=lambda c: c.value,
        reverse=_OBJECTIVES[goal.name][1],
    )
    return PredictedRecommendation(
        objective=goal,
        ranking=tuple(ranking),
        rejected=tuple(rejected),
    )


def recommend(
    matrix: SparseMatrix,
    objective: str = "latency",
    formats: Sequence[str] = SPARSE_FORMATS,
    partition_sizes: Sequence[int] = PARTITION_SIZES,
    constraints: Constraints | None = None,
    base_config: HardwareConfig = DEFAULT_CONFIG,
) -> Recommendation:
    """Pick the best (format, partition size) for ``matrix``.

    Every combination is characterized on the hardware model through
    the sweep engine; designs violating ``constraints`` are excluded,
    and the survivor optimizing ``objective`` wins.  A cell that fails
    to characterize raises :class:`~repro.errors.SweepCellError`.
    """
    # imported here: repro.engine depends on repro.core at import time
    from ..engine import run_sweep
    from ..workloads.registry import Workload

    results = run_sweep(
        [Workload("", "", matrix)],
        formats,
        partition_sizes,
        base_config,
        error_policy="fail_fast",
    ).results
    return recommend_from_results(results, objective, constraints)


def recommend_from_results(
    results: Sequence[CharacterizationResult],
    objective: str = "latency",
    constraints: Constraints | None = None,
) -> Recommendation:
    """Rank already-characterized design points.

    The constraint/objective half of :func:`recommend`, split out so
    callers that computed the characterization elsewhere — the sweep
    engine, the characterization server's cached results — can reuse
    the decision procedure without re-simulating.
    """
    goal = Objective(objective)
    budget = constraints or Constraints()
    feasible: list[CharacterizationResult] = []
    rejected: list[CharacterizationResult] = []
    for result in results:
        if budget.admits(result):
            feasible.append(result)
        else:
            rejected.append(result)
    if not feasible:
        raise SimulationError(
            "no (format, partition) combination satisfies the "
            "constraints; relax the budgets or widen the search"
        )
    best = feasible[0]
    for candidate in feasible[1:]:
        if goal.better(goal.value(candidate), goal.value(best)):
            best = candidate
    return Recommendation(
        best=best,
        objective=goal,
        candidates=tuple(feasible),
        rejected=tuple(rejected),
    )
