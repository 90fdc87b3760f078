"""The chaos grammar, firing semantics, and recoverability of each fault."""

from __future__ import annotations

import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro import io_atomic
from repro.engine.chaos import (
    CHAOS_OPS,
    ChaosPlan,
    ChaosSpec,
    active_plan,
    install_plan,
    uninstall_plan,
)
from repro.engine import SweepRunner, WorkloadSpec, load_checkpoint
from repro.engine.checkpoint import checkpoint_digest
from repro.errors import ChaosCrash, SweepConfigError
from repro.io_atomic import HookSuppressed

ROOT = Path(__file__).resolve().parents[2]
SPECS = (WorkloadSpec.random(48, 0.1, seed=5),)
FORMATS = ("csr", "coo")
PARTITIONS = (8,)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    uninstall_plan()
    io_atomic.clear_hooks()
    yield
    uninstall_plan()
    io_atomic.clear_hooks()


# ----------------------------------------------------------------------
# Grammar
# ----------------------------------------------------------------------
class TestGrammar:
    def test_parse_full_plan(self):
        plan = ChaosPlan.parse(
            "torn-write@checkpoint#frac=0.4#after=3,"
            "stale-lease@worker#after=2#times=none,"
            "slow-io@blobs#ms=40,"
            "disk-full@shards#after=5,"
            "crash@merge,"
            "sigterm@serve#midflight"
        )
        kinds = [s.kind for s in plan.specs]
        assert kinds == [
            "torn-write", "stale-lease", "slow-io", "disk-full",
            "crash", "sigterm",
        ]
        assert plan.specs[0].frac == 0.4
        assert plan.specs[0].after == 3
        assert plan.specs[1].times is None
        assert plan.specs[2].ms == 40.0

    def test_describe_round_trips(self):
        for text in (
            "torn-write@shards#frac=0.25#after=2,"
            "slow-io@blobs#ms=15#times=none,"
            "crash@worker",
            # README and module docstring examples
            "torn-write@checkpoint#frac=0.4#after=3",
            "stale-lease@worker#after=2",
            "stale-lease@worker#times=none",
            "slow-io@blobs#ms=40",
            "disk-full@shards#after=5",
            "crash@merge",
            "sigterm@serve#midflight",
            # whitespace around tokens is ignored
            " crash @ merge ",
        ):
            plan = ChaosPlan.parse(text)
            assert ChaosPlan.parse(plan.describe()).specs == plan.specs

    def test_committed_campaign_plans_describe_verbatim(self):
        report = json.loads((ROOT / "BENCH_chaos.json").read_text())
        plans = [
            s["plan"] for s in report["schedules"] if s["kind"] == "queue"
        ]
        assert plans
        for text in plans:
            assert ChaosPlan.parse(text).describe() == text

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "torn-write",                     # no target
            "explode@checkpoint",             # unknown kind
            "torn-write@worker",              # invalid target for kind
            "crash@merge#after=zero",         # non-integer option
            "slow-io@blobs#volume=11",        # unknown option
            "torn-write@checkpoint#frac=1.5", # frac out of range
            "crash@merge#after=0",            # after < 1
            "crash@merge#times=0",            # times < 1
            "slow-io@blobs#ms=nan",           # non-finite latency
            "slow-io@blobs#ms=inf",
        ],
    )
    def test_bad_specs_raise(self, text):
        with pytest.raises(SweepConfigError):
            ChaosPlan.parse(text)

    @pytest.mark.parametrize("ms", [float("nan"), float("inf")])
    def test_non_finite_ms_refused_when_built_directly(self, ms):
        with pytest.raises(SweepConfigError):
            ChaosSpec("slow-io", "blobs", ms=ms)

    def test_sigterm_never_hook_fires(self):
        spec = ChaosSpec("sigterm", "serve")
        for op in CHAOS_OPS:
            assert not spec.matches(op, Path("/tmp/x"))

    def test_serve_specs_split_out(self):
        plan = ChaosPlan.parse("sigterm@serve,crash@merge")
        assert [s.kind for s in plan.serve_specs()] == ["sigterm"]


# ----------------------------------------------------------------------
# Firing semantics
# ----------------------------------------------------------------------
class TestFiring:
    def test_after_and_times_bound_the_firings(self, tmp_path):
        plan = ChaosPlan.of(
            ChaosSpec("disk-full", "checkpoint", after=3, times=2)
        )
        install_plan(plan, role="coordinator")
        path = tmp_path / "report.json"
        fired = 0
        for _ in range(6):
            try:
                io_atomic.fire("atomic.write", path, b"x")
            except OSError:
                fired += 1
        # ops 1-2 pass, ops 3-4 fire, ops 5-6 pass (times exhausted)
        assert fired == 2
        assert plan.fired_counts() == {"disk-full@checkpoint": 2}

    def test_stale_lease_suppresses_heartbeats(self, tmp_path):
        plan = ChaosPlan.of(
            ChaosSpec("stale-lease", "worker", times=None)
        )
        install_plan(plan, role="worker")
        with pytest.raises(HookSuppressed):
            io_atomic.fire("queue.heartbeat", tmp_path / "claim")

    def test_crash_at_merge_raises_on_the_coordinator(self, tmp_path):
        install_plan(
            ChaosPlan.of(ChaosSpec("crash", "merge")),
            role="coordinator",
        )
        with pytest.raises(ChaosCrash):
            io_atomic.fire("queue.merge", tmp_path / "queue")

    def test_pickle_resets_the_firing_counters(self, tmp_path):
        plan = ChaosPlan.of(ChaosSpec("crash", "merge"))
        install_plan(plan, role="coordinator")
        with pytest.raises(ChaosCrash):
            io_atomic.fire("queue.merge", tmp_path / "queue")
        assert plan.fired_counts() == {"crash@merge": 1}
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.specs == plan.specs
        assert clone.fired_counts() == {}

    def test_install_uninstall_lifecycle(self):
        plan = ChaosPlan.parse("crash@merge")
        install_plan(plan, role="coordinator")
        assert active_plan() is plan
        assert set(io_atomic.installed_hooks()) == set(CHAOS_OPS)
        uninstall_plan()
        assert active_plan() is None
        assert io_atomic.installed_hooks() == ()

    def test_bad_role_rejected(self):
        with pytest.raises(SweepConfigError):
            install_plan(ChaosPlan.parse("crash@merge"), role="bystander")


# ----------------------------------------------------------------------
# Torn writes are recoverable
# ----------------------------------------------------------------------
class TestTornWriteRecovery:
    def _reference_digest(self, tmp_path):
        path = tmp_path / "reference.jsonl"
        SweepRunner(checkpoint=path).run_grid(
            SPECS, format_names=FORMATS, partition_sizes=PARTITIONS
        )
        return checkpoint_digest(path)

    def test_torn_checkpoint_resumes_to_identical_digest(self, tmp_path):
        reference = self._reference_digest(tmp_path)
        torn = tmp_path / "torn.jsonl"
        install_plan(
            ChaosPlan.of(
                ChaosSpec("torn-write", "checkpoint", frac=0.6, after=2)
            ),
            role="coordinator",
        )
        with pytest.raises(ChaosCrash):
            SweepRunner(checkpoint=torn).run_grid(
                SPECS, format_names=FORMATS, partition_sizes=PARTITIONS
            )
        uninstall_plan()
        # the tear left a ragged tail; recovery tolerates it and the
        # resumed sweep lands on the byte-for-byte reference digest
        SweepRunner(checkpoint=torn, resume=True).run_grid(
            SPECS, format_names=FORMATS, partition_sizes=PARTITIONS
        )
        assert checkpoint_digest(torn) == reference
        assert len(load_checkpoint(torn)) == len(FORMATS)

    def test_disk_full_surfaces_enospc(self, tmp_path):
        install_plan(
            ChaosPlan.of(ChaosSpec("disk-full", "checkpoint")),
            role="coordinator",
        )
        with pytest.raises(OSError) as excinfo:
            SweepRunner(checkpoint=tmp_path / "full.jsonl").run_grid(
                SPECS, format_names=FORMATS, partition_sizes=PARTITIONS
            )
        assert "No space left" in str(excinfo.value)


# ----------------------------------------------------------------------
# Worker-role faults really kill the process
# ----------------------------------------------------------------------
_WORKER_CRASH = """
import sys
sys.path.insert(0, {src!r})
from pathlib import Path
from repro import io_atomic
from repro.engine.chaos import ChaosPlan, ChaosSpec, install_plan
install_plan(
    ChaosPlan.of(ChaosSpec("crash", "worker")), role="worker"
)
io_atomic.fire(
    "checkpoint.append", Path({shard!r}), b'{{"cell": 1}}\\n'
)
print("survived")  # must never be reached
"""


class TestWorkerRole:
    def test_crash_at_worker_exits_with_crash_status(self, tmp_path):
        shard = tmp_path / "tasks" / "shard-0.jsonl"
        shard.parent.mkdir()
        src = str(
            (Path(__file__).resolve().parent / ".." / ".." / "src")
            .resolve()
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                _WORKER_CRASH.format(src=src, shard=str(shard)),
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 86
        assert "survived" not in proc.stdout
