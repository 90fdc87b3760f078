"""Tests of the benchmark itself: inputs, output checks, refusal.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import common  # noqa: E402

common.use_source()

import inputs  # noqa: E402
import serve_workload  # noqa: E402
import sweep_workload  # noqa: E402


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )


# ----------------------------------------------------------------------
# Deterministic, unique inputs
# ----------------------------------------------------------------------
def test_sweep_inputs_repeat_for_a_seed_and_differ_across_seeds():
    text = inputs.streamed_text(3)
    assert text == inputs.streamed_text(3)
    digest = inputs.sweep_inputs_digest(3, text)
    assert digest == inputs.sweep_inputs_digest(3, inputs.streamed_text(3))
    other = inputs.streamed_text(4)
    assert other != text
    assert inputs.sweep_inputs_digest(4, other) != digest


@pytest.mark.parametrize("inline_mtx", [False, True])
def test_serve_bodies_repeat_for_a_seed(inline_mtx):
    first = [inputs.serve_body(5, i, inline_mtx) for i in range(6)]
    again = [inputs.serve_body(5, i, inline_mtx) for i in range(6)]
    assert first == again
    assert first != [inputs.serve_body(6, i, inline_mtx) for i in range(6)]


def test_serve_mtx_bodies_carry_the_recipe_matrices():
    from repro.io import loads

    for index in range(inputs.SERVE_BLOCK):
        recipe = inputs.query_of(inputs.serve_body(2, index, False))
        mtx = json.loads(inputs.serve_body(2, index, True))["workload"]
        assert mtx["kind"] == "mtx"
        matrix = loads(mtx["content"])
        assert matrix == recipe.spec.build().matrix
        assert len(mtx["content"]) <= 1 << 19


def test_no_two_serve_queries_share_a_digest():
    for inline_mtx, count in ((False, 20), (True, 2)):
        digests = [
            serve_workload.query_digest(inputs.serve_body(9, i, inline_mtx))
            for i in range(-1, count * inputs.SERVE_BLOCK)
        ]
        assert len(set(digests)) == len(digests)


def test_every_block_holds_every_size_band_and_kind():
    for block in range(3):
        cells = set()
        for slot in range(inputs.SERVE_BLOCK):
            workload = inputs.serve_workload(
                1, block * inputs.SERVE_BLOCK + slot
            )
            band = workload["n"] // inputs.SERVE_SIZE_STEP
            cells.add((workload["kind"], band))
            assert 128 <= workload["n"] < 1024
        assert len(cells) == inputs.SERVE_BLOCK


def test_block_quantile_ignores_a_minority_of_slowed_blocks():
    block = [float(ms) for ms in range(1, 15)]
    steady = [list(block) for _ in range(9)]
    slowed = steady[:6] + [[ms * 3 for ms in block] for _ in range(3)]
    for q in (0.5, 0.9):
        want = common.quantile(block, q)
        assert common.block_quantile(steady, q) == want
        assert common.block_quantile(slowed, q) == want


# ----------------------------------------------------------------------
# Output checks fail on altered expectations
# ----------------------------------------------------------------------
def test_golden_verdicts():
    expected = {"0": "aa"}
    assert sweep_workload.golden_verdict(0, "aa", expected) == "match"
    assert sweep_workload.golden_verdict(0, "ab", expected) == "MISMATCH"
    assert sweep_workload.golden_verdict(1, "aa", expected) == "unverified"


def test_the_default_seed_has_a_stored_digest():
    assert "0" in sweep_workload.load_expected()


def test_altered_response_is_a_mismatch():
    body = inputs.serve_body(4, 0, False)
    served = serve_workload.reference_bytes(body)
    tampered = served.replace(b'"total_cycles":', b'"total_cycles":1', 1)
    samples = [(body, served), (body, tampered)]
    assert serve_workload.mismatched(samples, serve_workload.reference_bytes) == 1


def test_altered_expected_digest_fails_the_run(tmp_path):
    shutil.copytree(
        BENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("tests", ".work", "__pycache__"),
    )
    (tmp_path / "src").symlink_to(common.SRC)
    expected = json.loads((BENCH / "expected.json").read_text())
    expected["pass_digests"]["0"] = "0" * 32
    (tmp_path / "perfbench" / "expected.json").write_text(json.dumps(expected))
    done = _run(
        tmp_path, "--workload", "sweep-large", "--seed", "0",
        "--seconds", "0.5",
    )
    assert done.returncode == 1, done.stderr
    assert "golden digest: MISMATCH" in done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(
        BENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("tests", ".work", "__pycache__"),
    )
    done = _run(
        tmp_path, "--workload", "serve-recipe", "--seed", "1",
        "--seconds", "1",
    )
    assert done.returncode == 2
    assert done.stdout == ""
