"""Tests for the command-line interface."""

import argparse
import contextlib
import dataclasses
import io

import pytest

from repro.cli import PRESETS, build_parser, main
from repro.experiments import FAULT_SCENARIOS
from repro.phi.replication import ReadPolicy
from repro.transport import CubicParams


def verb(command):
    """The argv prefix of a command: fault scenarios run as ``fault <name>``."""
    return ["fault", command] if command in FAULT_SCENARIOS else [command]


@pytest.fixture(scope="class")
def mini_run(request, tmp_path_factory):
    """Exit code, stdout and M of the class's ``MINI + --serial-check --metrics-out M``."""
    manifest_path = str(tmp_path_factory.mktemp("run") / "manifest.json")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(request.cls.MINI + ["--serial-check", "--metrics-out", manifest_path])
    return code, out.getvalue(), manifest_path


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

    @pytest.mark.parametrize(
        "command, option, value",
        [
            ("cubic", "--beta", "1.5"),
            ("cubic", "--beta", "nan"),
            ("cubic", "--beta", "0"),
            ("cubic", "--window-init", "nan"),
            ("cubic", "--window-init", "0.5"),
            ("cubic", "--ssthresh", "1"),
            ("cubic", "--ssthresh", "inf"),
            ("incremental", "--fraction", "1.5"),
            ("incremental", "--fraction", "nan"),
            ("incremental", "--fraction", "-0.1"),
            ("incremental", "--beta", "1.5"),
        ],
    )
    def test_out_of_range_model_flag_is_a_usage_error(
        self, command, option, value, capsys
    ):
        # Exit 2 with a usage line, not a ValueError traceback from the model.
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--duration", "1", option, value])
        assert excinfo.value.code == 2
        assert f"argument {option}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, option, value",
        [
            ("cubic", "--beta", "0.999"),
            ("cubic", "--window-init", "1"),
            ("cubic", "--ssthresh", "2"),
            ("incremental", "--fraction", "0"),
            ("incremental", "--fraction", "1"),
        ],
    )
    def test_model_flag_bounds_match_the_model(self, command, option, value):
        args = build_parser().parse_args([command, option, value])
        CubicParams(args.window_init, args.ssthresh, args.beta)
        assert getattr(args, option[2:].replace("-", "_")) == float(value)

    @pytest.mark.parametrize(
        "argv",
        [
            ["diagnose", "--severity", "nan"],
            ["diagnose", "--severity", "0"],
            ["diagnose", "--outage-minutes", "-60"],
            ["diagnose", "--outage-minutes", "4"],
            ["ipfix", "--minutes", "0"],
            ["cubic", "--seed", "-1"],
            ["ipfix", "--seed", "-1"],
            ["diagnose", "--seed", "-1"],
            ["sweep", "--seed", "-1"],
            ["sweep", "--ssthresh-range", "16,1"],
            ["fault", "poison", "--seeds", "0,-1"],
            ["fault", "degraded", "--unavailability", "0,2"],
            ["fault", "degraded", "--duration", "nan"],
            ["fault", "partition", "--partition-start", "nan"],
            ["fault", "partition", "--partition-start", "-5"],
            ["fault", "partition", "--n-replicas", "0"],
            ["fault", "partition", "--heal-s", "inf"],
            ["telemetry", "summarize", "m.json", "--max-points", "-1"],
        ],
    )
    def test_out_of_range_model_input_is_a_usage_error(self, argv, capsys):
        # Exit 2 with a usage line and the model's own message, before any
        # run, not the model's ValueError traceback.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: " in err and " must be " in err
        assert "Traceback" not in err

    def test_negative_fuzz_count_exits_2_before_any_oracle(self, capsys):
        assert main(["check", "--oracle", "unit-rescale", "--fuzz", "-1"]) == 2
        captured = capsys.readouterr()
        assert "n_cases must be an integer >= 0: -1" in captured.err
        assert "PASS" not in captured.out

    def test_nan_stall_threshold_exits_2(self, tmp_path, capsys):
        # A NaN threshold used to count every gap as a stall.
        from repro.flightrec import FlightRecorder

        dump = str(tmp_path / "d.jsonl")
        FlightRecorder().dump(dump)
        assert main(["postmortem", dump, "--stall-threshold", "nan"]) == 2
        assert "stall_threshold_s must be finite and > 0: nan" in capsys.readouterr().err

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
            build_parser().parse_args(verb(command) + ["--duration", value])
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--ssthresh-range", "16,16"],
            ["sweep", "--beta-range", "0.2,0.3,0.2"],
            ["fault", "poison", "--severity", "1.0,1.0"],
            ["fault", "poison", "--seeds", "0,0"],
            ["fault", "partition", "--n-replicas", "3,3"],
        ],
    )
    def test_repeated_list_value_is_a_usage_error(self, argv, capsys):
        # Two points with one key: one row would average both runs and the
        # serial check would report a false determinism violation.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "values must not repeat" in capsys.readouterr().err

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
            ["fault", "poison", "--trace-out", "t.jsonl"],
            ["fault", "partition", "--trace-out", "t.jsonl"],
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


def subparser(parser, *names):
    """The parser of the (sub)command path ``names``."""
    for name in names:
        (action,) = [
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        parser = action.choices[name]
    return parser


class TestFaultParser:
    @pytest.mark.parametrize("name", sorted(FAULT_SCENARIOS))
    def test_one_flag_per_axis_defaulting_to_the_grid(self, name):
        scenario = FAULT_SCENARIOS[name]
        actions = subparser(build_parser(), "fault", name)._actions
        for axis, values in scenario.grid.items():
            (action,) = [action for action in actions if action.dest == axis]
            assert action.option_strings == [f"--{axis.replace('_', '-')}"]
            assert action.default == list(values)

    def test_tolerance_must_be_finite(self, capsys):
        # A NaN floor fails every comparison: the envelope held vacuously.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["fault", "poison", "--tolerance", "nan"])
        assert excinfo.value.code == 2
        assert "argument --tolerance" in capsys.readouterr().err
        # A negative one forces a violation on purpose and stays accepted.
        args = build_parser().parse_args(
            ["fault", "partition", "--tolerance", "-1000"]
        )
        assert args.tolerance == -1000.0


class TestDegradedCommand:
    def test_writes_a_valid_manifest(self, tmp_path, capsys):
        from repro.telemetry.manifest import load_manifest, validate_manifest

        manifest_path = str(tmp_path / "degraded.json")
        assert main([
            "fault", "degraded", "--preset", "table3-remy",
            "--unavailability", "0,0.5", "--seeds", "0", "--duration", "4",
            "--metrics-out", manifest_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "x stock" in out and "no safety envelope declared" in out
        manifest = load_manifest(manifest_path)
        assert validate_manifest(manifest) == []
        assert manifest["command"] == "degraded"
        assert [p["params"] for p in manifest["points"]] == [
            {"unavailability": 0.0}, {"unavailability": 0.5}
        ]
        assert manifest["points"][1]["accounting"]["decision_counts"]["fallback"] > 0


class TestPoisonCommand:
    MINI = [
        "fault", "poison", "--preset", "table3-remy", "--severity", "1.0",
        "--seeds", "0", "--modes", "garbage", "--duration", "8", "--quiet",
    ]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["fault", "poison"])
        assert args.preset == "fig2a-low-utilization"
        assert args.severity == [0.0, 0.5, 1.0]
        assert args.byzantine_fraction == [0.0]
        assert args.seeds == [0, 1]
        assert args.modes == ("inflate",)
        assert args.guarded
        assert not args.expect_harm

    def test_int_list_validation(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fault", "poison", "--seeds", "x,y"])

    def test_unknown_mode_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fault", "poison", "--modes", "gremlins"])
        assert excinfo.value.code == 2
        assert "unknown corruption mode" in capsys.readouterr().err

    def test_guarded_garbage_holds_envelope(self, mini_run):
        """Full-severity garbage is fully rejected: the guarded run is
        the stock baseline, so the envelope holds exactly."""
        assert mini_run[0] == 0
        assert "safety envelope holds" in mini_run[1]

    def test_serial_check_bit_identical(self, mini_run):
        assert "bit-identical" in mini_run[1]

    def test_expect_harm_fails_when_harmless(self, capsys):
        # Guarded garbage == baseline: no harm to demonstrate.
        assert main(self.MINI + ["--expect-harm"]) == 1
        assert "HARM NOT DEMONSTRATED" in capsys.readouterr().err

    def test_writes_manifest_with_defence_metrics(self, mini_run):
        from repro.telemetry.manifest import load_manifest, validate_manifest

        manifest = load_manifest(mini_run[2])
        assert validate_manifest(manifest) == []
        assert manifest["command"] == "poison"
        assert manifest["config"]["modes"] == ["garbage"]
        assert manifest["config"]["expect_harm"] is False
        counters = manifest["metrics"]["counters"]
        assert any("phi.guard_rejections" in key for key in counters)
        assert any("phi.context_decisions" in key for key in counters)
        assert manifest["totals"]["guard_rejections"]
        assert manifest["points"][0]["accounting"]["decision_counts"]


class TestPartitionCommand:
    MINI = [
        "fault", "partition", "--preset", "fig2a-low-utilization",
        "--n-replicas", "3", "--severity", "0.34", "--heal-s", "8",
        "--seeds", "0", "--duration", "25", "--quiet",
    ]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["fault", "partition"])
        assert args.preset == "fig2a-low-utilization"
        assert args.n_replicas == [1, 3]
        assert args.severity == [0.0, 0.34, 1.0]
        assert args.heal_s == [10.0]
        assert args.partition_start_s == 10.0
        assert args.seeds == [0, 1]
        assert args.read_policy is ReadPolicy.ANY

    @pytest.mark.parametrize("verb", ["poison", "partition"])
    @pytest.mark.parametrize("value", ["0", "-1", "two"])
    def test_non_positive_workers_is_a_usage_error(self, verb, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fault", verb, "--duration", "1", "--workers", value])
        assert excinfo.value.code == 2
        assert "argument --workers" in capsys.readouterr().err

    def test_unknown_read_policy_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fault", "partition", "--read-policy", "psychic"])
        assert excinfo.value.code == 2
        assert "argument --read-policy" in capsys.readouterr().err

    def test_minority_partition_holds_envelope(self, mini_run):
        assert mini_run[0] == 0
        assert "safety envelope holds" in mini_run[1]

    def test_serial_check_bit_identical(self, mini_run):
        assert "bit-identical" in mini_run[1]

    def test_writes_manifest_with_replication_metrics(self, mini_run):
        from repro.telemetry.manifest import load_manifest, validate_manifest

        manifest = load_manifest(mini_run[2])
        assert validate_manifest(manifest) == []
        assert manifest["command"] == "partition"
        assert manifest["config"]["read_policy"] == "any"
        counters = manifest["metrics"]["counters"]
        assert any("phi.replica_rpc_calls" in key for key in counters)
        point = manifest["points"][0]
        assert point["params"] == {"n_replicas": 3, "severity": 0.34, "heal_s": 8.0}
        assert point["accounting"]["n_cut"] == 1
        assert point["accounting"]["failovers"] >= 1
        assert point["accounting"]["anti_entropy_merges"] > 0
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


def force_plane(monkeypatch, verb, **forced):
    """Make every point of fault ``verb`` run with ``forced`` arguments,
    values the plane itself rejects (the flags exit 2 on them)."""
    scenario = FAULT_SCENARIOS[verb]
    monkeypatch.setitem(FAULT_SCENARIOS, verb, dataclasses.replace(
        scenario, run=lambda *args, **kwargs: scenario.run(*args, **{**kwargs, **forced})
    ))


class TestFaultSweepQuarantine:
    """A crashed point is a hole in the grid, not a row that held."""

    #: (argv; how to make every point raise: plane fields forced out of
    #: range, environment and the error it reports; how to crash the
    #: middle point for one pass)
    VERBS = {
        "degraded": (
            ["fault", "degraded", "--preset", "table3-remy",
             "--unavailability", "0,0.5,1.0", "--seeds", "0", "--duration", "4",
             "--quiet"],
            ({"unavailability": 1.5}, {}, "unavailability must be in [0, 1]"),
            ("repro.phi.plane", "schedule_unavailability",
             lambda channel, *, fraction, **kwargs: fraction == 0.5),
        ),
        "poison": (
            ["fault", "poison", "--preset", "table3-remy", "--modes", "garbage",
             "--severity", "0,0.5,1.0", "--seeds", "0", "--duration", "4",
             "--quiet"],
            ({"severity": 1.5}, {}, "severity must be in [0, 1]"),
            ("repro.phi.plane", "make_context_corruptor",
             lambda modes, rng, severity: severity == 0.5),
        ),
        "partition": (
            ["fault", "partition", "--preset", "table3-remy", "--n-replicas", "3",
             "--severity", "0,0.34,1.0", "--heal-s", "2", "--partition-start",
             "2", "--seeds", "0", "--duration", "6", "--quiet"],
            ({"severity": 1.5}, {}, "severity must be in [0, 1]"),
            ("repro.phi.plane", "partition_indices",
             lambda n_replicas, severity: severity == 0.34),
        ),
        "sweep": (
            ["sweep", "--ssthresh-range", "2,16,64", "--window-range", "4",
             "--beta-range", "0.2", "--runs", "1", "--duration", "2",
             "--workers", "1", "--quiet"],
            ({}, {"REPRO_SWEEP_FAULT": '{"mode": "raise"}'}, "injected fault"),
            ("repro.experiments.scenarios", "run_cubic_fixed",
             lambda params, preset, **kwargs: params.initial_ssthresh == 16),
        ),
    }

    @pytest.mark.parametrize("verb", sorted(VERBS))
    def test_sweep_whose_every_point_raises_exits_1(self, verb, capsys, monkeypatch):
        argv, (forced, env, error), _ = self.VERBS[verb]
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        if forced:
            force_plane(monkeypatch, verb, **forced)
        assert main(argv) == 1
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
        crash_first(monkeypatch, importlib.import_module(module), name, when)
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
