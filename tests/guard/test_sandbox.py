"""The sandboxed execution boundary: every cap produces its verdict.

One persistent :class:`Sandbox` child serves most tests (spawning an
interpreter per test would dominate the suite); the cap tests use the
underscored deterministic ops (``_sleep``/``_alloc``/``_flood``/
``_die``) so each non-``ok`` verdict kind is exercised without
depending on how fast the machine can blow up a matrix.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import SandboxError
from repro.guard import (
    SANDBOX_OPS,
    VERDICT_KINDS,
    ResourceVerdict,
    Sandbox,
    SandboxLimits,
    run_sandboxed,
)

VALID_MTX = (
    "%%MatrixMarket matrix coordinate real general\n"
    "4 4 3\n"
    "1 1 1.5\n"
    "2 3 -2.0\n"
    "4 4 7.0\n"
)


@pytest.fixture(scope="module")
def sandbox():
    with Sandbox(SandboxLimits(wall_s=10.0)) as sb:
        yield sb


class TestVerdictKinds:
    def test_parse_ok(self, sandbox) -> None:
        verdict = sandbox.run("parse", mtx=VALID_MTX)
        assert verdict.kind == "ok"
        assert verdict.ok and verdict.safe
        assert verdict.result == {"shape": [4, 4], "nnz": 3}

    def test_profile_ok(self, sandbox) -> None:
        verdict = sandbox.run("profile", mtx=VALID_MTX, p=2)
        assert verdict.kind == "ok"
        assert verdict.result["n_tiles"] > 0

    def test_encode_ok(self, sandbox) -> None:
        verdict = sandbox.run("encode", mtx=VALID_MTX, format="csr")
        assert verdict.kind == "ok"
        assert verdict.result["format"] == "csr"
        assert verdict.result["total_bytes"] > 0

    def test_malformed_input_is_rejected(self, sandbox) -> None:
        verdict = sandbox.run("parse", mtx="not a matrix at all")
        assert verdict.kind == "rejected"
        assert verdict.safe and not verdict.ok
        assert verdict.error_type
        assert verdict.detail

    def test_timeout_kills_the_child(self, sandbox) -> None:
        verdict = sandbox.run("_sleep", wall_s=0.2, seconds=60.0)
        assert verdict.kind == "timeout"
        assert verdict.safe
        # the next job transparently respawns a child
        assert sandbox.run("parse", mtx=VALID_MTX).kind == "ok"

    def test_allocation_cap_is_oom(self) -> None:
        with Sandbox(SandboxLimits(wall_s=10.0, rss_mb=64.0)) as sb:
            verdict = sb.run("_alloc", mb=4096)
            assert verdict.kind == "oom"
            assert verdict.safe

    def test_output_cap_is_oversize(self) -> None:
        limits = SandboxLimits(wall_s=10.0, output_bytes=4096)
        with Sandbox(limits) as sb:
            verdict = sb.run("_flood", size=1 << 20)
            assert verdict.kind == "oversize"
            assert verdict.safe

    def test_child_death_is_crash(self, sandbox) -> None:
        verdict = sandbox.run("_die", code=86)
        assert verdict.kind == "crash"
        assert not verdict.safe
        # containment: the *next* job still answers
        assert sandbox.run("parse", mtx=VALID_MTX).kind == "ok"

    def test_every_kind_is_registered(self) -> None:
        assert set(VERDICT_KINDS) == {
            "ok", "rejected", "timeout", "oom", "oversize", "crash",
        }


class TestLifecycle:
    def test_respawn_counts_spawns(self) -> None:
        with Sandbox(SandboxLimits(wall_s=5.0)) as sb:
            sb.run("parse", mtx=VALID_MTX)
            assert sb.spawns == 1
            sb.run("_die", code=1)
            sb.run("parse", mtx=VALID_MTX)
            assert sb.spawns == 2
            assert sb.jobs == 3

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/stat"), reason="needs procfs"
    )
    def test_cpu_budget_is_per_job_not_cumulative(self) -> None:
        # RLIMIT_CPU counts the child's lifetime CPU; a long-lived
        # worker must still give every job the full budget, so many
        # innocent jobs adding up past it never earn a timeout
        from repro.io import dumps
        from repro.workloads import random_matrix

        mtx = dumps(random_matrix(1000, 0.01, seed=3))
        budget = 1.0

        def child_cpu_s(pid: int) -> float:
            with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
            ticks = int(fields[11]) + int(fields[12])  # utime + stime
            return ticks / os.sysconf("SC_CLK_TCK")

        with Sandbox(SandboxLimits(wall_s=budget)) as sb:
            verdicts = []
            while True:
                verdicts.append(sb.run("profile", mtx=mtx, p=8).kind)
                if verdicts[-1] != "ok" or sb._child is None:
                    break
                if child_cpu_s(sb._child.pid) > 3 * budget:
                    break
                assert len(verdicts) < 5000, "jobs too cheap to add up"
            assert set(verdicts) == {"ok"}, verdicts[-3:]
            assert sb.spawns == 1

    def test_one_shot_convenience(self) -> None:
        verdict = run_sandboxed(
            "parse", SandboxLimits(wall_s=5.0), mtx=VALID_MTX
        )
        assert isinstance(verdict, ResourceVerdict)
        assert verdict.kind == "ok"


class TestHarnessErrors:
    def test_unknown_op_raises(self, sandbox) -> None:
        with pytest.raises(SandboxError, match="unknown sandbox op"):
            sandbox.run("format_disk")
        assert "format_disk" not in SANDBOX_OPS

    def test_nonpositive_wall_raises(self, sandbox) -> None:
        with pytest.raises(SandboxError, match="wall_s"):
            sandbox.run("parse", wall_s=0.0, mtx=VALID_MTX)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"wall_s": 0.0},
            {"rss_mb": -1.0},
            {"output_bytes": 10},
        ],
    )
    def test_limit_validation(self, kwargs) -> None:
        with pytest.raises(SandboxError):
            SandboxLimits(**kwargs)

    def test_unserializable_payload_raises(self, sandbox) -> None:
        with pytest.raises(SandboxError, match="JSON"):
            sandbox.run("parse", mtx=object())
