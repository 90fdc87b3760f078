"""The fault-injection harness itself: matching, parsing, policies.

The harness is what every robustness test leans on, so its own
semantics are pinned here: spec matching (coordinates, wildcards,
every-Nth), attempt gating, the compact spec grammar, and how each
fault kind surfaces on the in-process path.
"""

from __future__ import annotations

import pickle
import time

import pytest

from repro.engine import FaultPlan, FaultSpec, InjectedFault, SweepRunner
from repro.engine.faults import FAULT_KINDS
from repro.errors import SweepConfigError, WorkerCrashError
from repro.workloads import Workload, band_matrix, random_matrix


def small_workloads() -> list[Workload]:
    return [
        Workload("rand-a", "random", random_matrix(96, 0.05, seed=1)),
        Workload("band-b", "band", band_matrix(96, 4, seed=1)),
    ]


# ----------------------------------------------------------------------
# Spec matching
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_exact_coordinates_match(self):
        spec = FaultSpec("raise", "rand-a", "csr", 16)
        assert spec.matches(("rand-a", "csr", 16), index=0)
        assert not spec.matches(("rand-a", "csr", 8), index=0)
        assert not spec.matches(("rand-a", "coo", 16), index=0)
        assert not spec.matches(("band-b", "csr", 16), index=0)

    def test_wildcards(self):
        spec = FaultSpec("raise", workload=None, format_name="coo")
        assert spec.matches(("rand-a", "coo", 8), index=0)
        assert spec.matches(("band-b", "coo", 32), index=5)
        assert not spec.matches(("band-b", "csr", 32), index=5)

    def test_every_nth_matches_by_grid_index(self):
        spec = FaultSpec("raise", every_nth=3)
        fired = [i for i in range(9) if spec.matches(("w", "f", 8), i)]
        assert fired == [0, 3, 6]

    def test_attempt_gating(self):
        transient = FaultSpec("raise", "w", times=2)
        assert transient.should_fire(("w", "f", 8), 0, attempt=0)
        assert transient.should_fire(("w", "f", 8), 0, attempt=1)
        assert not transient.should_fire(("w", "f", 8), 0, attempt=2)
        persistent = FaultSpec("raise", "w", times=None)
        assert persistent.should_fire(("w", "f", 8), 0, attempt=99)

    def test_invalid_specs_rejected(self):
        with pytest.raises(SweepConfigError):
            FaultSpec("explode")
        with pytest.raises(SweepConfigError):
            FaultSpec("raise", every_nth=0)
        with pytest.raises(SweepConfigError):
            FaultSpec("raise", times=0)
        with pytest.raises(SweepConfigError):
            FaultSpec("delay", delay_s=-1.0)
        # built directly, not parsed: the spec itself refuses them
        for value in (float("nan"), float("inf")):
            with pytest.raises(SweepConfigError):
                FaultSpec("delay", delay_s=value)

    def test_known_kinds(self):
        assert FAULT_KINDS == ("raise", "crash", "delay", "corrupt")


# ----------------------------------------------------------------------
# Plan behavior on the in-process path
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_raise_fault_raises_injected_fault(self):
        plan = FaultPlan.of(FaultSpec("raise", "w", "csr", 16))
        with pytest.raises(InjectedFault) as excinfo:
            plan.before_cell(("w", "csr", 16), index=0)
        assert "raise@w:csr:16" in str(excinfo.value)
        plan.before_cell(("w", "coo", 16), index=0)  # no match: no-op

    def test_crash_fault_raises_on_in_process_path(self):
        # in_worker=False must never os._exit the caller
        plan = FaultPlan.of(FaultSpec("crash", "w"))
        with pytest.raises(WorkerCrashError):
            plan.before_cell(("w", "csr", 16), index=0, in_worker=False)

    def test_delay_fault_sleeps_then_continues(self):
        plan = FaultPlan.of(FaultSpec("delay", "w", delay_s=0.05))
        start = time.perf_counter()
        plan.before_cell(("w", "csr", 16), index=0)
        assert time.perf_counter() - start >= 0.04

    def test_first_matching_spec_wins(self):
        plan = FaultPlan.of(
            FaultSpec("delay", "w", delay_s=0.0),
            FaultSpec("raise", "w"),
        )
        # delay matches first, continues scanning, then raise fires
        with pytest.raises(InjectedFault):
            plan.before_cell(("w", "csr", 16), index=0)

    def test_plan_is_picklable(self):
        plan = FaultPlan.parse("raise@w:csr:16,crash@*:coo:*#times=none")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan.of(FaultSpec("raise"))


# ----------------------------------------------------------------------
# The compact spec grammar
# ----------------------------------------------------------------------
class TestParse:
    def test_exact_cell(self):
        plan = FaultPlan.parse("raise@rand-0.01:csr:16")
        (spec,) = plan.specs
        assert spec.kind == "raise"
        assert spec.workload == "rand-0.01"
        assert spec.format_name == "csr"
        assert spec.partition_size == 16
        assert spec.times == 1

    def test_wildcards_and_options(self):
        plan = FaultPlan.parse("crash@*:coo:*#times=none")
        (spec,) = plan.specs
        assert spec.workload is None
        assert spec.format_name == "coo"
        assert spec.partition_size is None
        assert spec.times is None

    def test_every_nth_with_delay(self):
        plan = FaultPlan.parse("delay@every:5#delay=0.25")
        (spec,) = plan.specs
        assert spec.every_nth == 5
        assert spec.delay_s == 0.25

    def test_composition(self):
        plan = FaultPlan.parse("raise@a:*:8, crash@b:*:8#times=2")
        assert len(plan.specs) == 2
        assert plan.specs[1].times == 2

    def test_describe_round_trips_targets(self):
        text = "raise@rand-0.01:csr:16,crash@*:coo:*"
        assert FaultPlan.parse(text).describe() == text

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "raise",
            "explode@a:b:16",
            "raise@a:b",
            "raise@a:b:sixteen",
            "raise@every:zero",
            "raise@a:b:16#times",
            "raise@a:b:16#times=maybe",
            "raise@a:b:16#delay=soon",
            "raise@a:b:16#color=red",
            "delay@every:1#delay=nan",
            "delay@every:1#delay=inf",
        ],
    )
    def test_bad_specs_raise_config_errors(self, text):
        with pytest.raises(SweepConfigError):
            FaultPlan.parse(text)


# ----------------------------------------------------------------------
# Corrupt faults: parsing and plan routing
# ----------------------------------------------------------------------
class TestCorruptFaults:
    def test_parse_full_selector(self):
        plan = FaultPlan.parse(
            "corrupt@*:csr:*#ckind=bitflip#ber=0.01#mode=strict"
        )
        (spec,) = plan.specs
        assert spec.kind == "corrupt"
        assert spec.corrupt_kind == "bitflip"
        assert spec.ber == 0.01
        assert spec.decode_mode == "strict"
        corruption = spec.corruption_spec()
        assert corruption.kind == "bitflip"
        assert corruption.ber == 0.01
        assert corruption.decode_mode == "strict"

    def test_corruption_for_matches_and_misses(self):
        plan = FaultPlan.parse("corrupt@*:csr:*#ckind=tamper#mode=lenient")
        hit = plan.corruption_for(("w", "csr", 8), index=0)
        assert hit is not None
        assert hit.kind == "tamper"
        assert hit.decode_mode == "lenient"
        assert plan.corruption_for(("w", "coo", 8), index=0) is None

    def test_before_cell_is_a_no_op_for_corrupt_specs(self):
        plan = FaultPlan.parse("corrupt@*:csr:*#ckind=bitflip")
        # the runner applies corruption via corruption_for; before_cell
        # must not consume the spec's fire budget or raise
        plan.before_cell(("w", "csr", 8), index=0)
        assert plan.corruption_for(("w", "csr", 8), index=0) is not None

    def test_describe_includes_corruption_options(self):
        text = FaultPlan.parse("corrupt@*:csr:*#ckind=truncate").describe()
        assert "ckind=truncate" in text
        assert "corrupt@*:csr:*" in text

    def test_fraction_reaches_the_corruption_spec(self):
        plan = FaultPlan.parse("corrupt@*:csr:*#ckind=truncate#fraction=0.5")
        corruption = plan.corruption_for(("w", "csr", 8), index=0)
        assert corruption.kind == "truncate"
        assert corruption.fraction == 0.5

    @pytest.mark.parametrize(
        "text",
        [
            "corrupt@*:csr:*#ckind=melt",
            "corrupt@*:csr:*#ber=lots",
            "corrupt@*:csr:*#mode=optimistic",
            "corrupt@*:csr:*#plane=",
        ],
    )
    def test_bad_corruption_options_rejected(self, text):
        with pytest.raises(SweepConfigError):
            FaultPlan.parse(text)


# ----------------------------------------------------------------------
# Through the runner (in-process paths)
# ----------------------------------------------------------------------
class TestRunnerIntegration:
    def test_collect_policy_records_injected_fault(self):
        outcome = SweepRunner(
            faults="raise@band-b:csr:16"
        ).run_grid(small_workloads(), ("csr", "coo"), (16,))
        assert outcome.n_failed == 1
        failed = outcome.failure("band-b", "csr", 16)
        assert failed.error_type == "InjectedFault"
        assert "InjectedFault" in failed.traceback_text
        assert len(failed.recipe_digest) == 32
        assert len(outcome.results) == 3

    def test_string_and_plan_forms_are_equivalent(self):
        plan = FaultPlan.parse("raise@band-b:csr:16")
        from_text = SweepRunner(faults="raise@band-b:csr:16")
        from_plan = SweepRunner(faults=plan)
        assert from_text.faults == from_plan.faults == plan

    def test_sequential_crash_fault_is_a_worker_crash_error(self):
        # max_workers=1 runs in-process: the crash fault must degrade
        # to an exception, not kill the test process
        outcome = SweepRunner(
            faults="crash@band-b:csr:16"
        ).run_grid(small_workloads(), ("csr",), (16,))
        failed = outcome.failure("band-b", "csr", 16)
        assert failed.error_type == "WorkerCrashError"

    def test_strict_corruption_surfaces_as_integrity_failure(self):
        outcome = SweepRunner(
            faults="corrupt@band-b:csr:*#ckind=truncate#mode=strict"
        ).run_grid(small_workloads(), ("csr",), (16,))
        failed = outcome.failure("band-b", "csr", 16)
        assert failed.error_type == "FormatIntegrityError"

    def test_lenient_corruption_completes_deterministically(self):
        runner = SweepRunner(
            faults="corrupt@*:csr:*#ckind=bitflip#ber=0.01#mode=lenient"
        )
        first = runner.run_grid(small_workloads(), ("csr",), (16,))
        second = runner.run_grid(small_workloads(), ("csr",), (16,))
        assert first.n_failed == 0
        assert len(first.results) == 2
        assert [r.total_cycles for r in first.results] == [
            r.total_cycles for r in second.results
        ]
