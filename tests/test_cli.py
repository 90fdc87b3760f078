"""CLI tests (``python -m repro``)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def _results_manifest(path, seed: int):
    """Save one seeded two-format sweep as a run manifest."""
    from repro.engine import SweepRunner
    from repro.workloads import Workload, random_matrix

    load = Workload("w", "random", random_matrix(64, 0.1, seed=seed), 0.1)
    outcome = SweepRunner(telemetry=True).run_grid(
        [load], ("dense", "coo"), partition_sizes=(16,)
    )
    return outcome.write_manifest(path)


class TestInformational:
    def test_formats(self, capsys):
        out = run_cli(capsys, "formats")
        for name in ("dense", "csr", "coo", "dia", "sell"):
            assert name in out

    def test_experiments(self, capsys):
        out = run_cli(capsys, "experiments")
        assert "Figure 5" in out
        assert "Table 2" in out

    def test_table1(self, capsys):
        out = run_cli(capsys, "table1")
        assert "kron_g500-logn21" in out
        assert "europe_osm" in out

    def test_table2(self, capsys):
        out = run_cli(capsys, "table2")
        assert "BRAM" in out
        assert "dense" in out


class TestCharacterize:
    def test_single_format_random(self, capsys):
        out = run_cli(
            capsys, "characterize", "--random", "128",
            "--density", "0.05", "-f", "csr",
        )
        assert "csr" in out
        assert "sigma" in out

    def test_all_formats_band(self, capsys):
        out = run_cli(
            capsys, "characterize", "--band", "128", "--width", "4",
            "--all-formats", "-p", "8",
        )
        for name in ("dense", "csc", "dia"):
            assert name in out

    def test_standin(self, capsys):
        out = run_cli(
            capsys, "characterize", "--standin", "DW",
            "--max-dim", "1024", "-f", "coo",
        )
        assert "DW" in out

    def test_poisson(self, capsys):
        out = run_cli(
            capsys, "characterize", "--poisson", "8", "-f", "dia"
        )
        assert "poisson-8" in out

    def test_requires_format_choice(self, capsys):
        with pytest.raises(SystemExit):
            main(["characterize", "--random", "64"])

    def test_workload_required(self):
        with pytest.raises(SystemExit):
            main(["characterize", "-f", "csr"])


class TestSweepAndAdvise:
    def test_sweep_band(self, capsys):
        out = run_cli(
            capsys, "sweep", "--group", "band", "--metric", "sigma",
        )
        assert "band-64" in out

    def test_sweep_multiple_partitions(self, capsys):
        out = run_cli(
            capsys, "sweep", "--group", "band", "--partitions", "8", "16",
        )
        assert "p=8" in out and "p=16" in out

    def test_advise(self, capsys):
        out = run_cli(capsys, "advise", "--random", "96",
                      "--density", "0.02")
        assert "recommended format:" in out

    def test_report(self, capsys):
        out = run_cli(capsys, "report", "--random", "96",
                      "--density", "0.05")
        assert "# Copernicus characterization" in out
        assert "Pipeline timelines" in out

    def test_pareto(self, capsys):
        out = run_cli(
            capsys, "pareto", "--random", "96", "--density", "0.05",
            "--lanes", "1", "2",
        )
        assert "Pareto frontier" in out
        assert "total_cycles" in out

    def test_compare(self, capsys, tmp_path):
        before = _results_manifest(tmp_path / "before.jsonl", seed=0)
        after = _results_manifest(tmp_path / "after.jsonl", seed=1)
        out = run_cli(
            capsys, "stats", str(after), "--against", str(before),
            "--threshold", "0.0001",
        )
        assert "metric" in out
        assert "total_cycles" in out

    def test_compare_no_changes(self, capsys, tmp_path):
        path = _results_manifest(tmp_path / "same.jsonl", seed=0)
        out = run_cli(capsys, "stats", str(path), "--against", str(path))
        assert "no metric changes" in out

    def test_unknown_standin_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["characterize", "--standin", "XX", "-f", "csr"])
        assert exc.value.code == 2


class TestObservabilityCli:
    def test_sweep_profile(self, capsys):
        out = run_cli(
            capsys, "sweep", "--group", "band", "--partitions", "8",
            "--profile",
        )
        assert "Sweep profile" in out
        assert "Cache counters" in out
        assert "Slowest" in out

    def test_sweep_emit_metrics_then_stats(self, capsys, tmp_path):
        manifest = tmp_path / "run.jsonl"
        out = run_cli(
            capsys, "sweep", "--group", "band", "--partitions", "8",
            "--emit-metrics", str(manifest),
        )
        assert f"run manifest written to {manifest}" in out
        assert manifest.exists()
        out = run_cli(capsys, "stats", str(manifest))
        assert "Sweep run manifest" in out
        assert "Cache effectiveness" in out
        assert "Per-workload totals" in out

    def test_stats_against_self_reports_no_model_changes(
        self, capsys, tmp_path
    ):
        manifest = tmp_path / "run.jsonl"
        run_cli(
            capsys, "sweep", "--group", "band", "--partitions", "8",
            "--emit-metrics", str(manifest),
        )
        out = run_cli(
            capsys, "stats", str(manifest), "--against", str(manifest)
        )
        assert "no metric changes" in out

    def test_stats_against_detects_model_drift(self, capsys, tmp_path):
        import json

        baseline = tmp_path / "baseline.jsonl"
        run_cli(
            capsys, "sweep", "--group", "band", "--partitions", "8",
            "--emit-metrics", str(baseline),
        )
        # simulate a model regression: inflate one cell's cycle count.
        drifted = tmp_path / "drifted.jsonl"
        records = [
            json.loads(line)
            for line in baseline.read_text().splitlines()
        ]
        for record in records:
            if record["type"] == "cell" and record["index"] == 0:
                record["total_cycles"] *= 2
        drifted.write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        out = run_cli(
            capsys, "stats", str(drifted), "--against", str(baseline)
        )
        assert "total_cycles" in out

    def test_stats_missing_manifest_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stats", "/nonexistent/run.jsonl"])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_invalid_worker_count_exits_cleanly(self, capsys, workers):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--group", "band", "--workers", workers])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err


class TestIntegrityCli:
    def test_integrity_campaign(self, capsys):
        out = run_cli(
            capsys, "integrity", "--random", "48", "--density", "0.1",
            "-f", "csr", "-f", "coo", "--injections", "10",
        )
        assert "Integrity campaign" in out
        assert "csr" in out and "coo" in out
        assert "bitflip" in out and "truncate" in out
        assert "0 uncaught" in out

    def test_integrity_emit_json(self, capsys, tmp_path):
        import json

        artifact = tmp_path / "coverage.json"
        out = run_cli(
            capsys, "integrity", "--random", "32", "--density", "0.1",
            "-f", "csr", "--injections", "5", "--kinds", "bitflip",
            "--emit", str(artifact),
        )
        assert f"coverage report written to {artifact}" in out
        payload = json.loads(artifact.read_text())
        assert payload["total_uncaught"] == 0
        assert [f["format"] for f in payload["formats"]] == ["csr"]

    def test_integrity_deterministic_output(self, capsys):
        argv = (
            "integrity", "--random", "32", "--density", "0.1",
            "-f", "ell", "--injections", "8", "--seed", "3",
        )
        assert run_cli(capsys, *argv) == run_cli(capsys, *argv)

    def test_sweep_integrity_check_flag(self, capsys):
        out = run_cli(
            capsys, "sweep", "--group", "band", "--partitions", "8",
            "--integrity-check",
        )
        assert "band-64" in out

    def test_integrity_rejects_unknown_format(self, capsys):
        with pytest.raises(SystemExit):
            main(["integrity", "--random", "32", "-f", "bogus"])


class TestParser:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["formats"])
        assert args.command == "formats"

    def test_invalid_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])


class TestStatsPathErrors:
    """`repro stats` must fail loudly and clearly, never with a
    traceback, when either manifest path is missing or the baseline
    speaks an incompatible schema."""

    def _make_manifest(self, capsys, tmp_path, name="run.jsonl"):
        manifest = tmp_path / name
        run_cli(
            capsys, "sweep", "--group", "band", "--partitions", "8",
            "--emit-metrics", str(manifest),
        )
        return manifest

    def test_missing_manifest_names_the_path(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stats", "/nonexistent/run.jsonl"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "manifest not found: /nonexistent/run.jsonl" in err
        assert "repro sweep --emit-metrics" in err
        assert "Traceback" not in err

    def test_missing_against_baseline_names_the_argument(
        self, capsys, tmp_path
    ):
        manifest = self._make_manifest(capsys, tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([
                "stats", str(manifest),
                "--against", "/nonexistent/baseline.jsonl",
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert (
            "--against baseline not found: /nonexistent/baseline.jsonl"
            in err
        )
        assert "Traceback" not in err

    def test_schema_incompatible_baseline_exits_cleanly(
        self, capsys, tmp_path
    ):
        import json

        manifest = self._make_manifest(capsys, tmp_path)
        stale = tmp_path / "stale.jsonl"
        records = [
            json.loads(line)
            for line in manifest.read_text().splitlines()
        ]
        records[0]["schema"] = 1  # a manifest from an older build
        stale.write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        with pytest.raises(SystemExit) as exc:
            main(["stats", str(manifest), "--against", str(stale)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unsupported manifest schema" in err
        assert "Traceback" not in err

    def test_non_manifest_file_exits_cleanly(self, capsys, tmp_path):
        bogus = tmp_path / "notes.txt"
        bogus.write_text("not a manifest\n")
        with pytest.raises(SystemExit) as exc:
            main(["stats", str(bogus)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err


class TestServeLoadgenCli:
    def test_loadgen_spawn_smoke(self, capsys, tmp_path):
        import json

        report_path = tmp_path / "BENCH_serve.json"
        out = run_cli(
            capsys, "loadgen", "--spawn", "--mix", "hot",
            "--requests", "25", "--seed", "7",
            "--output", str(report_path),
            "--require-zero-5xx", "--require-coalesce",
        )
        assert f"report written to {report_path}" in out
        assert "throughput:" in out
        report = json.loads(report_path.read_text())
        assert report["schema"] == "bench_serve/v1"
        assert report["requests"] == 25
        assert report["n_5xx"] == 0
        assert report["server"]["coalesce_hits"] > 0

    def test_loadgen_needs_port_or_spawn(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["loadgen", "--requests", "5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--spawn" in err
        assert "Traceback" not in err

    def test_serve_rejects_bad_budget(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--budget-s", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "budget_s" in err
        assert "Traceback" not in err

    def test_serve_and_loadgen_are_registered(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--port", "0"])
        assert args.command == "serve"
        args = parser.parse_args(["loadgen", "--spawn"])
        assert args.mix == "mixed"
        assert args.requests == 200
        assert args.seed == 7


class TestAdvisorCLI:
    """``repro advisor train/bench`` and ``repro advise --fast``."""

    def _train(self, capsys, tmp_path, *extra: str) -> str:
        model = tmp_path / "model.json"
        out = run_cli(
            capsys, "advisor", "train",
            "--formats", "coo", "csr", "--partitions", "8",
            "--out", str(model), *extra,
        )
        assert "model digest:" in out
        assert str(model) in out
        assert model.is_file()
        return str(model)

    def test_train_then_fast_advise(self, capsys, tmp_path):
        model = self._train(capsys, tmp_path)
        out = run_cli(
            capsys, "advise", "--random", "64", "--density", "0.1",
            "--fast", "--model", model,
        )
        assert "recommended:" in out
        assert "margin" in out
        assert "model:" in out

    def test_train_then_bench_writes_report(self, capsys, tmp_path):
        model = self._train(capsys, tmp_path)
        report = tmp_path / "BENCH_advisor.json"
        out = run_cli(
            capsys, "advisor", "bench", "--model", model,
            "--output", str(report), "--repeats", "1",
            "--latency-n", "128",
        )
        assert "spearman" in out
        assert "speedup" in out
        assert report.is_file()
        payload = json.loads(report.read_text())
        assert payload["schema"] == "bench_advisor/v1"

    def test_fast_requires_model_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["advise", "--random", "64", "--fast"])
        assert exc.value.code == 2
        assert "--fast requires --model" in capsys.readouterr().err

    def test_model_requires_fast_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["advise", "--random", "64", "--model", "m.json"])
        assert exc.value.code == 2
        assert "--model requires --fast" in capsys.readouterr().err

    def test_missing_model_names_the_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "advise", "--random", "64", "--fast",
                "--model", "/nonexistent/model.json",
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--model not found: /nonexistent/model.json" in err
        assert "repro advisor train" in err
        assert "Traceback" not in err

    def test_bench_missing_model_names_the_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "advisor", "bench",
                "--model", "/nonexistent/model.json",
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--model not found: /nonexistent/model.json" in err
        assert "Traceback" not in err

    def test_train_missing_manifest_names_the_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "advisor", "train",
                "--from-manifest", "/nonexistent/run.jsonl",
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--from-manifest not found: /nonexistent/run.jsonl" in err
        assert "Traceback" not in err

    def test_serve_missing_fast_model_names_the_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--fast-model", "/nonexistent/model.json"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--fast-model not found: /nonexistent/model.json" in err
        assert "Traceback" not in err
