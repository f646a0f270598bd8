"""CLI tests: every subcommand end to end through ``repro.cli.main``."""

import io

import pytest

from repro.cli import main


def run_cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestListModels:
    def test_lists_all_models(self):
        code, text = run_cli("list-models")
        assert code == 0
        assert "micro_mobilenet_v2" in text and "nnlm_lite" in text
        assert "Mobilenet v2" in text  # paper family column


class TestExport:
    def test_exports_loadable_model(self, tmp_path):
        path = tmp_path / "v1.rpm"
        code, text = run_cli("export", "micro_mobilenet_v1",
                             "--stage", "quantized", "-o", str(path))
        assert code == 0 and path.exists()
        from repro.graph import load_model
        graph = load_model(path)
        assert graph.is_quantized


class TestTrain:
    def test_reports_cached_accuracy(self):
        code, text = run_cli("train", "micro_mobilenet_v1")
        assert code == 0 and "val_accuracy=" in text


class TestValidate:
    def test_clean_pipeline_exits_zero(self):
        code, text = run_cli("validate", "micro_mobilenet_v1", "--frames", "12")
        assert code == 0
        assert "verdict: HEALTHY" in text

    def test_injected_channel_bug_diagnosed_nonzero_exit(self):
        code, text = run_cli("validate", "micro_mobilenet_v1",
                             "--frames", "16", "--bug", "channel_order=bgr")
        assert code == 1
        assert "BGR->RGB" in text

    def test_rotation_bug_integer_value_parsed(self):
        code, text = run_cli("validate", "micro_mobilenet_v1",
                             "--frames", "16", "--bug", "rotation_k=1")
        assert code == 1
        assert "rotated" in text

    def test_kernel_bug_preset(self):
        code, text = run_cli("validate", "micro_mobilenet_v2",
                             "--stage", "quantized", "--frames", "16",
                             "--kernel-bugs", "paper-optimized")
        assert code == 1
        assert "depthwise_conv2d" in text

    def test_bad_bug_syntax_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("validate", "micro_mobilenet_v1", "--bug", "nonsense")

    def test_unknown_bug_key_exits_cleanly(self, capsys):
        # Regression: a typo'd key used to be silently ignored — the CLI ran
        # the *correct* pipeline and reported HEALTHY.
        code, _ = run_cli("validate", "micro_mobilenet_v1",
                          "--frames", "4", "--bug", "chanel_order=bgr")
        assert code == 2
        assert "chanel_order" in capsys.readouterr().err


class TestSweep:
    def test_default_lineup_flags_bugs(self):
        code, text = run_cli("sweep", "micro_mobilenet_v1", "--frames", "16")
        assert code == 1                      # bug-injected variants unhealthy
        assert "clean" in text and "rot90" in text
        assert "sweep verdict" in text

    def test_explicit_variants_serial_healthy(self):
        code, text = run_cli(
            "sweep", "micro_mobilenet_v1", "--frames", "12",
            "--executor", "serial", "--variant", "clean",
            "--variant", "also_clean:resolver=reference")
        assert code == 0
        assert "HEALTHY" in text and "also_clean" in text

    def test_parallel_matches_serial_output(self):
        argv = ("sweep", "micro_mobilenet_v1", "--frames", "12",
                "--variant", "clean", "--variant", "bgr:channel_order=bgr",
                "--variant", "rot:rotation_k=1",
                "--variant", "norm:normalization=[0,1]")
        code_s, serial = run_cli(*argv, "--executor", "serial")
        code_p, parallel = run_cli(*argv, "--executor", "process")
        assert (code_s, serial) == (code_p, parallel)

    def test_bad_variant_spec_rejected(self, capsys):
        code, _ = run_cli("sweep", "micro_mobilenet_v1", "--variant", "v:oops")
        assert code == 2
        assert "v:oops" in capsys.readouterr().err

    def test_unknown_override_key_preflighted_to_skip(self):
        # The pre-flight lint catches the typo'd key statically: the variant
        # lands in the report as SKIPPED with its diagnostic instead of
        # aborting the whole sweep (or burning a worker on a doomed run).
        code, text = run_cli("sweep", "micro_mobilenet_v1", "--frames", "4",
                             "--executor", "process",
                             "--variant", "clean",
                             "--variant", "typo:chanel_order=bgr")
        assert code == 1
        assert "SKIPPED" in text
        assert "S004" in text and "chanel_order" in text
        assert "did you mean 'channel_order'" in text

    def test_text_task_requires_explicit_variants(self, capsys):
        code, _ = run_cli("sweep", "nnlm_lite")
        assert code == 2
        assert "no default variants" in capsys.readouterr().err

    def test_stream_prints_progress_then_report(self):
        code, text = run_cli("sweep", "micro_mobilenet_v1", "--frames", "12",
                             "--executor", "serial", "--stream")
        assert code == 1
        lines = text.splitlines()
        assert lines[0].startswith("[1/4] ")  # verdicts stream first
        assert "[4/4]" in text and "sweep verdict" in text
        # The aggregate table still presents the lineup order.
        assert text.index("sweep verdict") > text.index("[4/4]")

    def test_max_failures_marks_skipped(self):
        code, text = run_cli("sweep", "micro_mobilenet_v1", "--frames", "12",
                             "--executor", "serial", "--max-failures", "1")
        assert code == 1
        assert "SKIPPED" in text and "skipped" in text

    def test_triage_appends_cluster_table(self):
        code, text = run_cli("sweep", "micro_mobilenet_v1", "--frames", "12",
                             "--executor", "serial", "--triage")
        assert code == 1
        assert "root-cause triage" in text
        assert "preprocessing" in text and "healthy" in text

    def test_bad_max_failures_exits_cleanly(self, capsys):
        code, _ = run_cli("sweep", "micro_mobilenet_v1", "--frames", "4",
                          "--executor", "serial", "--max-failures", "0")
        assert code == 2
        assert "max_failures" in capsys.readouterr().err


class TestShardedSweep:
    ARGS = ("--frames", "6", "--variant", "clean",
            "--variant", "rot:rotation_k=1")

    def test_shards_match_single_process_sweep(self, tmp_path):
        code_s, single = run_cli("sweep", "micro_mobilenet_v1", *self.ARGS,
                                 "--executor", "serial", "--triage")
        code_f, fleet = run_cli(
            "sweep", "micro_mobilenet_v1", *self.ARGS, "--executor", "serial",
            "--triage", "--shards", "2", "--out-dir", str(tmp_path))
        assert code_s == code_f == 1
        # Identical report body; fleet mode adds the plan table up front
        # and the artifact hint at the end.
        assert single.rstrip("\n") in fleet
        assert "sharded sweep plan: 2 shard(s)" in fleet

    def test_bad_variant_crosses_shard_boundary_as_skipped(self, tmp_path):
        # Planning does not vet variant fields; the shard worker's
        # pre-flight turns the typo into a SKIPPED result, and the merge
        # reports it exactly as the single-process sweep does.
        import json
        args = ("--frames", "6", "--executor", "serial",
                "--variant", "clean", "--variant", "typo:chanel_order=bgr")
        code_s, single = run_cli("sweep", "micro_mobilenet_v1", *args,
                                 "--report-json", str(tmp_path / "s.json"))
        code_f, fleet = run_cli(
            "sweep", "micro_mobilenet_v1", *args, "--shards", "2",
            "--out-dir", str(tmp_path / "fleet"),
            "--report-json", str(tmp_path / "f.json"))
        assert code_s == code_f == 1
        assert "typo" in fleet and "SKIPPED" in fleet
        assert "S004" in fleet and "did you mean 'channel_order'" in fleet
        # Same report body; only the JSON-written line names another path.
        body = single.rstrip("\n").rsplit("\n", 1)[0]
        assert "report JSON" not in body and body in fleet

        def stripped(path):
            doc = json.loads(path.read_text())
            for result in doc["results"]:
                result["log_dir"] = None
            return doc

        merged = stripped(tmp_path / "f.json")
        assert merged == stripped(tmp_path / "s.json")
        typo = merged["results"][1]
        assert typo["status"] == "skipped"
        assert [d["rule"] for d in typo["diagnostics"]] == ["S004"]

    def test_plan_only_then_worker_then_merge(self, tmp_path):
        code, text = run_cli(
            "sweep", "micro_mobilenet_v1", *self.ARGS,
            "--shards", "2", "--out-dir", str(tmp_path), "--plan-only")
        assert code == 0
        assert "sweep-worker run" in text
        assert (tmp_path / "reference" / "meta.json").exists()
        for shard in ("shard-000", "shard-001"):
            code, _ = run_cli(
                "sweep-worker", "run",
                str(tmp_path / shard / "manifest.json"),
                "--out", str(tmp_path / shard), "--executor", "serial")
            assert (tmp_path / shard / "report.json").exists()
        merged_json = tmp_path / "merged.json"
        code, text = run_cli(
            "sweep", "merge", str(tmp_path / "shard-000"),
            str(tmp_path / "shard-001"), "--report-json", str(merged_json))
        assert code == 1  # rot is unhealthy fleet-wide
        assert "1 of 2 variant(s) unhealthy" in text
        import json
        doc = json.loads(merged_json.read_text())
        assert [r["variant"]["name"] for r in doc["results"]] == \
            ["clean", "rot"]

    def test_merge_of_incomplete_fleet_mentions_skips(self, tmp_path):
        run_cli("sweep", "micro_mobilenet_v1", *self.ARGS,
                "--shards", "2", "--out-dir", str(tmp_path), "--plan-only")
        run_cli("sweep-worker", "run",
                str(tmp_path / "shard-000" / "manifest.json"),
                "--out", str(tmp_path / "shard-000"), "--executor", "serial")
        code, text = run_cli("sweep", "merge", str(tmp_path / "shard-000"),
                             str(tmp_path / "shard-001"))
        assert code == 1
        assert "SKIPPED" in text and "merge note:" in text

    def test_positional_dirs_without_merge_rejected(self, tmp_path, capsys):
        code, _ = run_cli("sweep", "micro_mobilenet_v1", str(tmp_path))
        assert code == 2
        assert "merge" in capsys.readouterr().err

    def test_plan_only_without_shards_rejected(self, capsys):
        code, _ = run_cli("sweep", "micro_mobilenet_v1", "--plan-only")
        assert code == 2
        assert "--shards" in capsys.readouterr().err

    def test_log_dir_with_shards_rejected(self, tmp_path, capsys):
        code, _ = run_cli("sweep", "micro_mobilenet_v1", "--shards", "2",
                          "--log-dir", str(tmp_path / "logs"))
        assert code == 2
        assert "--log-dir" in capsys.readouterr().err

    def test_merge_rejects_sweep_execution_flags(self, tmp_path, capsys):
        code, _ = run_cli("sweep", "merge", str(tmp_path), "--stream",
                          "--variant", "clean")
        assert code == 2
        err = capsys.readouterr().err
        assert "--stream" in err and "--variant" in err

    def test_strict_without_merge_context_rejected(self, capsys):
        code, _ = run_cli("sweep", "micro_mobilenet_v1", "--strict")
        assert code == 2
        assert "--strict" in capsys.readouterr().err

    def test_report_json_with_plan_only_rejected(self, tmp_path, capsys):
        code, _ = run_cli("sweep", "micro_mobilenet_v1", "--shards", "2",
                          "--out-dir", str(tmp_path), "--plan-only",
                          "--report-json", str(tmp_path / "r.json"))
        assert code == 2
        assert "--report-json" in capsys.readouterr().err

    def test_nonpositive_shards_rejected_before_any_work(self, tmp_path,
                                                         capsys):
        out_dir = tmp_path / "fleet"
        code, _ = run_cli("sweep", "micro_mobilenet_v1", "--shards", "0",
                          "--out-dir", str(out_dir))
        assert code == 2
        assert "--shards" in capsys.readouterr().err
        assert not out_dir.exists()  # failed before dirtying out-dir


class TestLintAndAnalyze:
    def test_lint_explain_prints_rule_doc(self):
        code, text = run_cli("lint", "--explain", "D001")
        assert code == 0
        assert text.startswith("D001:")
        assert "severity: error" in text and "category: dataflow" in text

    def test_explain_unknown_rule_suggests(self, capsys):
        code, _ = run_cli("analyze", "--explain", "A01")
        assert code == 2
        assert "did you mean 'A001'" in capsys.readouterr().err

    def test_lint_without_model_or_explain_rejected(self, capsys):
        code, _ = run_cli("lint")
        assert code == 2
        assert "repro lint" in capsys.readouterr().err

    def test_analyze_text_report(self):
        code, text = run_cli("analyze", "micro_mobilenet_v1", "--arena")
        assert code == 0
        assert "value ranges & liveness: micro_mobilenet_v1:mobile" in text
        assert "live ranges (step -1.." in text
        assert "packed arena" in text and "[VERIFIED]" in text

    def test_analyze_json_report(self):
        import json
        code, text = run_cli("analyze", "micro_mobilenet_v1",
                             "--stage", "quantized", "--arena",
                             "--format", "json")
        assert code == 0
        doc = json.loads(text)
        assert doc["target"] == "micro_mobilenet_v1:quantized"
        assert doc["arena_verified"] is True
        assert doc["arena"]["arena_bytes"] < doc["naive_bytes"]
        assert doc["contradictions"] == []

    def test_analyze_exported_model_file(self, tmp_path):
        path = tmp_path / "v1.rpm"
        run_cli("export", "micro_mobilenet_v1", "-o", str(path))
        code, text = run_cli("analyze", str(path))
        assert code == 0
        assert str(path) in text

    def test_analyze_batch_scales_memory(self):
        import json
        _, one = run_cli("analyze", "micro_mobilenet_v1", "--format", "json")
        _, four = run_cli("analyze", "micro_mobilenet_v1", "--batch", "4",
                          "--format", "json")
        assert json.loads(four)["naive_bytes"] == \
            4 * json.loads(one)["naive_bytes"]

    def test_analyze_unbuildable_stage_exits_two(self, capsys):
        code, _ = run_cli("analyze", "nnlm_lite", "--stage", "quantized")
        assert code == 2
        assert "quantiz" in capsys.readouterr().err.lower()


class TestProfile:
    def test_prints_profile_and_total(self):
        code, text = run_cli("profile", "micro_mobilenet_v2",
                             "--frames", "2", "--device", "pixel4_cpu")
        assert code == 0
        assert "end-to-end:" in text and "ms/frame" in text

    def test_reference_resolver_slower(self):
        _, fast = run_cli("profile", "micro_mobilenet_v2", "--stage",
                          "quantized", "--frames", "1")
        _, slow = run_cli("profile", "micro_mobilenet_v2", "--stage",
                          "quantized", "--frames", "1",
                          "--resolver", "reference")

        def total(text):
            line = next(l for l in text.splitlines() if "end-to-end" in l)
            return float(line.split()[1])

        assert total(slow) > 20 * total(fast)


class TestLogDirAndLogShow:
    def test_sweep_log_dir_streams_loadable_logs(self, tmp_path):
        log_dir = tmp_path / "logs"
        code, text = run_cli(
            "sweep", "micro_mobilenet_v1", "--frames", "8",
            "--executor", "serial", "--variant", "clean",
            "--variant", "bgr:channel_order=bgr",
            "--log-dir", str(log_dir))
        assert f"EXray logs streamed to {log_dir}" in text
        from repro.instrument import EXrayLog
        for name in ("reference", "clean", "bgr"):
            log = EXrayLog.load(log_dir / name)
            assert len(log) == 8 and log.version == 3

    def test_validate_log_dir(self, tmp_path):
        log_dir = tmp_path / "edge-log"
        code, text = run_cli("validate", "micro_mobilenet_v1",
                             "--frames", "8", "--log-dir", str(log_dir))
        assert code == 0 and f"streamed to {log_dir}" in text
        from repro.instrument import EXrayLog
        assert len(EXrayLog.load(log_dir)) == 8

    def test_log_show_summarizes_directory(self, tmp_path):
        log_dir = tmp_path / "edge-log"
        run_cli("validate", "micro_mobilenet_v1", "--frames", "6",
                "--log-dir", str(log_dir))
        code, text = run_cli("log", "show", str(log_dir), "--frames", "2")
        assert code == 0
        assert "format version     v3" in text
        assert "6 inference" in text
        assert "mean latency" in text
        # the per-frame table printed the first two rows
        assert text.count("inference\n") >= 2 or "| inference" in text

    def test_log_show_missing_dir_exits_cleanly(self, tmp_path, capsys):
        code, _ = run_cli("log", "show", str(tmp_path / "nope"))
        assert code == 2
        assert "no EXray log" in capsys.readouterr().err

    def test_variant_named_reference_rejected_with_log_dir(self, tmp_path,
                                                           capsys):
        code, _ = run_cli("sweep", "micro_mobilenet_v1", "--frames", "4",
                          "--executor", "serial",
                          "--variant", "reference:stage=quantized",
                          "--log-dir", str(tmp_path / "logs"))
        assert code == 2
        assert "reserved" in capsys.readouterr().err
