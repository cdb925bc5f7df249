"""Tests for the command-line interface."""

import pytest

from repro.cli import PRESETS, build_parser, main


class TestParser:
    def test_presets_registered(self):
        assert "table3-remy" in PRESETS
        assert "fig4-incremental" in PRESETS

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_cubic_defaults(self):
        args = build_parser().parse_args(["cubic"])
        assert args.preset == "table3-remy"
        assert args.ssthresh == 65536.0

    def test_incremental_defaults_to_fig4_optimal(self):
        args = build_parser().parse_args(["incremental"])
        assert args.preset == "fig4-incremental"
        assert args.ssthresh == 64.0
        assert args.fraction == 0.5

    def test_phi_mode_choices(self):
        args = build_parser().parse_args(["phi", "--mode", "ideal"])
        assert args.mode == "ideal"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["phi", "--mode", "nope"])


class TestCommands:
    def test_presets_lists_all(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out

    def test_unknown_preset_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["cubic", "--preset", "nope"])

    def test_cubic_run(self, capsys):
        assert main(["cubic", "--duration", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "thr=" in out and "P_l=" in out

    def test_phi_run(self, capsys):
        assert main(["phi", "--duration", "5", "--mode", "ideal"]) == 0
        assert "cubic-phi (ideal)" in capsys.readouterr().out

    def test_incremental_run(self, capsys):
        assert main(["incremental", "--duration", "5"]) == 0
        out = capsys.readouterr().out
        assert "modified" in out and "unmodified" in out

    def test_ipfix_run(self, capsys):
        assert main(["ipfix", "--minutes", "1"]) == 0
        assert "sharing with >=" in capsys.readouterr().out

    def test_diagnose_detects(self, capsys):
        assert main(["diagnose"]) == 0
        out = capsys.readouterr().out
        assert "detected: asn=isp-a, metro=nyc" in out


class TestSweepCommand:
    MINI = [
        "sweep", "--runs", "1", "--duration", "2",
        "--ssthresh-range", "2,16", "--window-range", "4",
        "--beta-range", "0.2", "--quiet",
    ]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.runs == 8
        assert args.preset == "table3-remy"
        assert args.workers is None
        assert not args.serial_check

    @pytest.mark.parametrize(
        "command",
        ["cubic", "phi", "incremental", "sweep", "poison", "partition", "check"],
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    def test_duration_must_be_positive_and_finite(self, command, value, capsys):
        # A NaN duration never ends a run; a negative one prints zeros.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--duration", value])
        assert excinfo.value.code == 2
        assert "argument --duration" in capsys.readouterr().err

    def test_float_list_validation(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--beta-range", "nope"])

    @pytest.mark.parametrize(
        "option", ["--ssthresh-range", "--window-range", "--beta-range"]
    )
    @pytest.mark.parametrize("value", ["nan", "2,inf", "4,nan"])
    def test_non_finite_grid_value_is_a_usage_error(self, option, value, capsys):
        # Not a sweep that retries and quarantines every point.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["sweep", option, value])
        assert excinfo.value.code == 2
        assert f"argument {option}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--runs", "0"),
            ("--runs", "-1"),
            ("--workers", "0"),
            ("--retries", "0"),
            ("--point-timeout", "0"),
            ("--point-timeout", "nan"),
            ("--max-sim-events", "0"),
            ("--max-sim-seconds", "0"),
            ("--runs", "two"),
        ],
    )
    def test_non_positive_count_is_a_usage_error(self, option, value, capsys):
        # Exit 2 with a usage line, not a traceback: exit 1 means a
        # quarantined or mismatched sweep.
        with pytest.raises(SystemExit) as excinfo:
            main(self.MINI + [option, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}" in err and "Traceback" not in err

    def test_mini_sweep_runs(self, capsys):
        assert main(self.MINI) == 0
        out = capsys.readouterr().out
        assert "best point:" in out
        assert "parallel" in out

    def test_serial_check_reports_bit_identical(self, capsys):
        assert main(self.MINI + ["--serial-check"]) == 0
        out = capsys.readouterr().out
        assert "bit-identical" in out
        assert "speedup=" in out

    def test_cache_dir_round_trip(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(self.MINI + ["--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(self.MINI + ["--cache-dir", cache_dir]) == 0
        assert "cached=2" in capsys.readouterr().out


class TestTelemetryOutputs:
    MINI = TestSweepCommand.MINI

    def test_sweep_writes_manifest(self, tmp_path, capsys):
        manifest_path = str(tmp_path / "manifest.json")
        assert main(self.MINI + ["--metrics-out", manifest_path]) == 0
        assert "telemetry manifest:" in capsys.readouterr().out

        from repro.telemetry.manifest import load_manifest, validate_manifest

        manifest = load_manifest(manifest_path)
        assert validate_manifest(manifest) == []
        assert manifest["command"] == "sweep"
        assert len(manifest["points"]) == 2
        assert all(p["status"] == "computed" for p in manifest["points"])
        assert manifest["metrics"]["counters"]["sim.events"] > 0
        assert "runner.point_wall_s" in manifest["metrics"]["histograms"]
        # Per-point provenance and totals hold what a sweep trace would.
        assert all(
            p["wall_seconds"] > 0 and "seed" in p for p in manifest["points"]
        )
        totals = manifest["totals"]
        assert (totals["points"], totals["retries"], totals["quarantined"]) == (
            2, 0, 0,
        )
        assert totals["wall_seconds"] > 0

    def test_cubic_trace_out_is_a_recorder_dump_postmortem_reads(
        self, tmp_path, capsys
    ):
        import json

        from repro import telemetry
        from repro.flightrec import load_dump

        trace_path = str(tmp_path / "t.jsonl")
        assert main(
            ["cubic", "--duration", "3", "--seed", "1", "--trace-out", trace_path]
        ) == 0
        assert "flight recording:" in capsys.readouterr().out
        assert not telemetry.session().flightrec.enabled  # scoped to the run
        header, records = load_dump(trace_path)
        assert header["name"] == "flightrec.header"
        assert header["reason"] == "trace-out:cubic" and header["sim_time"] == 3.0
        for layer, block in header["layers"].items():
            found = sum(1 for r in records if r["layer"] == layer)
            assert block["emitted"] - block["evicted"] == found
        assert {r["layer"] for r in records} == {"simnet", "transport"}

        assert main(["postmortem", trace_path, "--json"]) == 0
        analysis = json.loads(capsys.readouterr().out)
        assert analysis["anomaly"]["reason"] == "trace-out:cubic"
        assert analysis["flows"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--trace-out", "t.jsonl"],
            ["poison", "--trace-out", "t.jsonl"],
            ["partition", "--trace-out", "t.jsonl"],
            # `incremental` never wrote either; it no longer offers them.
            ["incremental", "--trace-out", "t.jsonl"],
            ["incremental", "--metrics-out", "m.json"],
            # perf/run.py is the only benchmark; the legacy verb and flag are gone.
            ["sweep", "--bench-json", "x"],
            ["bench", "gate"],
            # The event core carries no profiler: cProfile and
            # `perf/run.py --trace 1` answer what --profile did.
            ["cubic", "--profile"],
            ["phi", "--profile"],
            ["sweep", "--profile"],
        ],
    )
    def test_flags_with_no_writer_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err or "invalid choice: 'bench'" in err

    def test_cubic_writes_manifest(self, tmp_path, capsys):
        from repro.telemetry.manifest import load_manifest, validate_manifest

        manifest_path = str(tmp_path / "run.json")
        assert main(
            ["cubic", "--duration", "5", "--seed", "1",
             "--metrics-out", manifest_path]
        ) == 0
        manifest = load_manifest(manifest_path)
        assert validate_manifest(manifest) == []
        assert manifest["command"] == "cubic"
        assert manifest["seeds"] == {"seed": 1}
        assert manifest["metrics"]["counters"]["sim.events"] > 0

    def test_run_without_flags_leaves_telemetry_disabled(self, capsys):
        from repro import telemetry

        assert main(["cubic", "--duration", "5", "--seed", "1"]) == 0
        assert not telemetry.session().enabled

    def test_summarize_round_trip(self, tmp_path, capsys):
        manifest_path = str(tmp_path / "manifest.json")
        assert main(self.MINI + ["--metrics-out", manifest_path]) == 0
        capsys.readouterr()
        assert main(["telemetry", "summarize", manifest_path]) == 0
        out = capsys.readouterr().out
        assert "sim.events" in out
        assert "computed" in out

    def test_summarize_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["telemetry", "summarize", str(bad)]) == 2
        assert "cannot read manifest" in capsys.readouterr().err


class TestPoisonCommand:
    MINI = [
        "poison", "--preset", "table3-remy", "--severities", "1.0",
        "--seeds", "0", "--modes", "garbage", "--duration", "8", "--quiet",
    ]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["poison"])
        assert args.preset == "fig2a-low-utilization"
        assert args.severities == [0.0, 0.5, 1.0]
        assert args.seeds == [0, 1]
        assert args.modes == "inflate"
        assert not args.unguarded
        assert not args.expect_harm

    def test_int_list_validation(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["poison", "--seeds", "x,y"])

    def test_unknown_mode_exits_2(self, capsys):
        assert main(["poison", "--modes", "gremlins"]) == 2
        assert "unknown corruption mode" in capsys.readouterr().err

    def test_guarded_garbage_holds_envelope(self, capsys):
        """Full-severity garbage is fully rejected: the guarded run is
        the stock baseline, so the envelope holds exactly."""
        assert main(self.MINI) == 0
        out = capsys.readouterr().out
        assert "safety envelope holds" in out

    def test_serial_check_bit_identical(self, capsys):
        assert main(self.MINI + ["--serial-check"]) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_expect_harm_fails_when_harmless(self, capsys):
        # Guarded garbage == baseline: no harm to demonstrate.
        assert main(self.MINI + ["--expect-harm"]) == 1
        assert "HARM NOT DEMONSTRATED" in capsys.readouterr().err

    def test_writes_manifest_with_defence_metrics(self, tmp_path, capsys):
        from repro.telemetry.manifest import load_manifest, validate_manifest

        manifest_path = str(tmp_path / "poison.json")
        assert main(self.MINI + ["--metrics-out", manifest_path]) == 0
        manifest = load_manifest(manifest_path)
        assert validate_manifest(manifest) == []
        assert manifest["command"] == "poison"
        assert manifest["config"]["modes"] == ["garbage"]
        counters = manifest["metrics"]["counters"]
        assert any("phi.guard_rejections" in key for key in counters)
        assert any("phi.context_decisions" in key for key in counters)
        assert manifest["totals"]["guard_rejections"]
        assert manifest["points"][0]["defence"]["decision_counts"]


class TestPartitionCommand:
    MINI = [
        "partition", "--preset", "fig2a-low-utilization",
        "--replicas", "3", "--severities", "0.34", "--heals", "8",
        "--seeds", "0", "--duration", "25", "--quiet",
    ]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["partition"])
        assert args.preset == "fig2a-low-utilization"
        assert args.replicas == [1, 3]
        assert args.severities == [0.0, 0.34, 1.0]
        assert args.heals == [10.0]
        assert args.partition_start == 10.0
        assert args.seeds == [0, 1]
        assert args.read_policy == "any"

    def test_unknown_read_policy_exits_2(self, capsys):
        assert main(["partition", "--read-policy", "psychic"]) == 2
        assert "unknown read policy" in capsys.readouterr().err

    def test_minority_partition_holds_envelope(self, capsys):
        assert main(self.MINI) == 0
        assert "safety envelope holds" in capsys.readouterr().out

    def test_serial_check_bit_identical(self, capsys):
        assert main(self.MINI + ["--serial-check"]) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_writes_manifest_with_replication_metrics(self, tmp_path, capsys):
        from repro.telemetry.manifest import load_manifest, validate_manifest

        manifest_path = str(tmp_path / "partition.json")
        assert main(self.MINI + ["--metrics-out", manifest_path]) == 0
        manifest = load_manifest(manifest_path)
        assert validate_manifest(manifest) == []
        assert manifest["command"] == "partition"
        assert manifest["config"]["read_policy"] == "any"
        counters = manifest["metrics"]["counters"]
        assert any("phi.replica_rpc_calls" in key for key in counters)
        point = manifest["points"][0]
        assert point["replication"]["failovers"] >= 1
        assert point["replication"]["anti_entropy_merges"] > 0
        assert manifest["totals"]["failovers"] >= 1


def crash_first(monkeypatch, module, name, when, times=3):
    """Make ``module.name`` raise the first ``times`` calls ``when`` selects."""
    real = getattr(module, name)
    left = [times]

    def flaky(*args, **kwargs):
        if left[0] and when(*args, **kwargs):
            left[0] -= 1
            raise RuntimeError("injected crash")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, flaky)


class TestFaultSweepQuarantine:
    """A crashed point is a hole in the grid, not a row that held."""

    #: (argv; how to make every point raise: extra argv, environment and
    #: the error it reports; how to crash the middle point for one pass)
    VERBS = {
        "poison": (
            ["poison", "--preset", "table3-remy", "--modes", "garbage",
             "--severities", "0,0.5,1.0", "--seeds", "0", "--duration", "4",
             "--quiet"],
            (["--severities", "1.5"], {}, "severity must be in [0, 1]"),
            ("poisoned", "make_context_corruptor",
             lambda modes, rng, severity: severity == 0.5),
        ),
        "partition": (
            ["partition", "--preset", "table3-remy", "--replicas", "3",
             "--severities", "0,0.34,1.0", "--heals", "2", "--partition-start",
             "2", "--seeds", "0", "--duration", "6", "--quiet"],
            (["--severities", "1.5"], {}, "severity must be in [0, 1]"),
            ("partitioned", "partition_indices",
             lambda n_replicas, severity: severity == 0.34),
        ),
        "sweep": (
            ["sweep", "--ssthresh-range", "2,16,64", "--window-range", "4",
             "--beta-range", "0.2", "--runs", "1", "--duration", "2",
             "--workers", "1", "--quiet"],
            ([], {"REPRO_SWEEP_FAULT": '{"mode": "raise"}'}, "injected fault"),
            ("scenarios", "run_cubic_fixed",
             lambda params, preset, **kwargs: params.initial_ssthresh == 16),
        ),
    }

    @pytest.mark.parametrize("verb", sorted(VERBS))
    def test_sweep_whose_every_point_raises_exits_1(self, verb, capsys, monkeypatch):
        argv, (extra, env, error), _ = self.VERBS[verb]
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert main(argv + extra) == 1
        captured = capsys.readouterr()
        assert "QUARANTINED: point #0" in captured.err
        assert error in captured.err
        assert "safety envelope holds" not in captured.out
        assert "best point:" not in captured.out

    @pytest.mark.parametrize("verb", sorted(VERBS))
    def test_serial_check_skips_and_realigns_around_a_quarantined_point(
        self, verb, capsys, monkeypatch
    ):
        import importlib

        argv, _, (module, name, when) = self.VERBS[verb]
        crash_first(
            monkeypatch, importlib.import_module(f"repro.experiments.{module}"),
            name, when,
        )
        assert main(argv + ["--serial-check"]) == 1
        captured = capsys.readouterr()
        assert "QUARANTINED: point #1" in captured.err
        assert "DETERMINISM VIOLATION" not in captured.err
        assert "serial check: all 2 point(s) bit-identical" in captured.out


class TestCheck:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["check"])
        assert args.oracles is None
        assert args.duration == 10.0
        assert args.fuzz == 0
        assert args.report is None

    def test_unknown_oracle_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check", "--oracle", "nope"])

    def test_unit_rescale_oracle_passes(self, capsys):
        assert main(["check", "--oracle", "unit-rescale"]) == 0
        out = capsys.readouterr().out
        assert "PASS  unit-rescale" in out
        assert "1/1 checks passed" in out

    def test_fast_differential_oracles_pass(self, capsys):
        assert main([
            "check", "--oracle", "checked-vs-unchecked",
            "--oracle", "flow-permutation", "--duration", "2", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "PASS  checked-vs-unchecked" in out
        assert "PASS  flow-permutation" in out

    def test_fuzz_and_report_artifact(self, tmp_path, capsys):
        import json as _json

        report_path = str(tmp_path / "check.json")
        assert main([
            "check", "--oracle", "unit-rescale",
            "--fuzz", "1", "--seed", "11", "--report", report_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "PASS  fuzz seed=11" in out
        with open(report_path, encoding="utf-8") as handle:
            artifact = _json.load(handle)
        assert artifact["failed"] == 0
        assert artifact["oracles"][0]["name"] == "unit-rescale"
        (case,) = artifact["fuzz"]
        assert case["passed"] and case["scenario"]["seed"] == 11
        assert case["report"]["checks_performed"] > 0
