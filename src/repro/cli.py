"""Command-line interface for the Phi reproduction.

Subcommands mirror the paper's experiments so results can be regenerated
without writing Python:

- ``repro-phi presets`` — list the built-in scenario presets;
- ``repro-phi cubic`` — run fixed-parameter Cubic on a preset;
- ``repro-phi phi`` — run Phi-coordinated Cubic (practical or ideal);
- ``repro-phi incremental`` — the Figure-4 partial deployment;
- ``repro-phi sweep`` — the Table-2 grid sweep via the parallel runner;
- ``repro-phi fault {degraded,poison,partition}`` — the X4/X6/X7
  control-plane fault sweeps (server absent, lying, or replicated and
  partitioned), one verb per :data:`~repro.experiments.FAULT_SCENARIOS`
  entry with one ``--<axis>`` flag per swept axis;
- ``repro-phi ipfix`` — the Section-2.1 sharing analysis;
- ``repro-phi diagnose`` — the Figure-5 outage detection pipeline;
- ``repro-phi telemetry summarize`` — render a run manifest as a table;
- ``repro-phi check`` — differential/metamorphic correctness oracles and
  randomized invariant fuzzing (see :mod:`repro.simcheck`);
- ``repro-phi postmortem`` — per-flow timelines and stall attribution
  from a flight-recorder dump (see :mod:`repro.flightrec`).

``fault`` verbs accept ``--flightrec-out dump.jsonl`` (flight-record the
sweep and dump it on a safety-envelope violation).

``cubic``, ``phi``, ``sweep`` and ``fault`` verbs accept
``--metrics-out manifest.json`` (telemetry run manifest: merged metrics,
per-point provenance); ``cubic`` and ``phi`` accept ``--trace-out
trace.jsonl`` (flight-record the run; ``postmortem`` reads the dump).

Examples::

    python -m repro.cli phi --preset table3-remy --mode practical --seed 3
    python -m repro.cli sweep --runs 2 --workers 4 --serial-check
    python -m repro.cli fault partition --n-replicas 1,3 --severity 0,0.34
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack
from dataclasses import fields
from functools import partial
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from . import flightrec, telemetry
from .diagnosis import (
    BIN_MINUTES,
    BINS_PER_DAY,
    OutageSpec,
    TelemetryGenerator,
    UnreachabilityDetector,
    localize,
    slice_keys,
)
from .experiments import (
    ALL_PRESETS,
    FAULT_SCENARIOS,
    check_envelope,
    run_cubic_fixed,
    run_fault_sweep,
    run_incremental_deployment,
    run_phi_cubic,
)
from .experiments.faultsweep import check_tolerance
from .flightrec.postmortem import DEFAULT_STALL_THRESHOLD_S, analyze_dump, render_text
from .ipfix import (
    EgressTrafficModel,
    IpfixCollector,
    IpfixSampler,
    sharing_stats,
)
from .ipfix.traffic import check_minutes
from .phi import REFERENCE_POLICY, SharingMode
from .phi.corruption import CONTEXT_CORRUPTION_MODES
from .phi.deployment import check_fraction
from .phi.optimizer import select_optimal
from .phi.plane import PlaneSpec
from .phi.replication import ReplicationConfig
from .runner import (
    ConsoleProgress,
    DiskCache,
    ResilienceConfig,
    SweepRunner,
)
from .runner.core import check_runs
from .runner.resilience import check_workers
from .simcheck import ViolationReport
from .simcheck.fuzz import draw_scenarios, run_fuzz_case
from .simcheck.oracles import ORACLES, run_oracles
from .simnet.engine import WatchdogConfig, check_duration
from .simnet.random import check_seed
from .telemetry.manifest import (
    check_max_points,
    fault_sweep_manifest,
    load_manifest,
    run_manifest,
    summarize_manifest,
    sweep_manifest,
    write_manifest,
)
from .transport import CubicParams
from .transport.cubic import cubic_sweep_grid

PRESETS = {preset.name: preset for preset in ALL_PRESETS}


def _write_manifest(args: argparse.Namespace, manifest: dict) -> None:
    write_manifest(manifest, args.metrics_out)
    print(f"telemetry manifest: {args.metrics_out}")


def _observed_run(
    args: argparse.Namespace, command: str, preset, run, extra_config: dict
):
    """One scenario run under whatever ``--metrics-out`` / ``--trace-out`` ask.

    ``--trace-out`` arms the flight recorder for the run and writes its
    dump, so ``repro postmortem`` reads the file like any anomaly dump.
    """
    duration_s = args.duration or preset.duration_s
    with ExitStack() as stack:
        rec = tele = None
        if args.trace_out:
            rec = stack.enter_context(flightrec.use())
        if args.metrics_out:
            tele = stack.enter_context(telemetry.use())
        result = run()
        if tele is not None:
            _write_manifest(
                args,
                run_manifest(
                    command=command,
                    preset_name=preset.name,
                    seed=args.seed,
                    duration_s=duration_s,
                    metrics=tele.registry.snapshot(),
                    result=result,
                    extra_config=extra_config,
                ),
            )
        if rec is not None:
            retained = rec.dump(
                args.trace_out, reason=f"trace-out:{command}", sim_time=duration_s
            )
            print(f"flight recording: {args.trace_out} ({retained} record(s))")
    return result


def _preset_or_exit(name: str):
    preset = PRESETS.get(name)
    if preset is None:
        print(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}",
              file=sys.stderr)
        raise SystemExit(2)
    return preset


def _print_metrics(label: str, result) -> None:
    metrics = result.metrics
    print(f"{label:<30s} thr={metrics.throughput_mbps:6.2f} Mbps  "
          f"delay={metrics.queueing_delay_ms:7.1f} ms  "
          f"loss={metrics.loss_rate * 100:5.2f}%  "
          f"P_l={metrics.power_l:8.4f}  util={result.mean_utilization:4.2f}")


def cmd_presets(args: argparse.Namespace) -> int:
    for preset in ALL_PRESETS:
        workload = (
            "persistent bulk"
            if preset.workload is None
            else (f"on/off exp({preset.workload.mean_on_bytes / 1e3:.0f} KB) / "
                  f"exp({preset.workload.mean_off_s} s)")
        )
        print(f"{preset.name:<24s} n={preset.config.n_senders:<4d} "
              f"{preset.config.bottleneck_bandwidth_bps / 1e6:.0f} Mbps, "
              f"rtt {preset.config.rtt_s * 1e3:.0f} ms, {workload}")
        print(f"{'':<24s} {preset.description}")
    return 0


def _cubic_params(args: argparse.Namespace) -> CubicParams:
    return CubicParams(
        window_init=args.window_init,
        initial_ssthresh=args.ssthresh,
        beta=args.beta,
    )


def cmd_cubic(args: argparse.Namespace) -> int:
    preset = _preset_or_exit(args.preset)
    params = _cubic_params(args)
    result = _observed_run(
        args, "cubic", preset,
        partial(
            run_cubic_fixed, params, preset, seed=args.seed,
            duration_s=args.duration,
        ),
        {"params": params.as_dict()},
    )
    _print_metrics(f"cubic wI={params.window_init:.0f} "
                   f"ssthr={params.initial_ssthresh:.0f} beta={params.beta}", result)
    return 0


def cmd_phi(args: argparse.Namespace) -> int:
    preset = _preset_or_exit(args.preset)
    mode = SharingMode(args.mode)
    result = _observed_run(
        args, "phi", preset,
        partial(
            run_phi_cubic, REFERENCE_POLICY, preset, mode, seed=args.seed,
            duration_s=args.duration,
        ),
        {"mode": mode.value},
    )
    _print_metrics(f"cubic-phi ({mode.value})", result)
    return 0


def cmd_incremental(args: argparse.Namespace) -> int:
    preset = _preset_or_exit(args.preset)
    optimal = _cubic_params(args)
    outcome = run_incremental_deployment(
        optimal, preset, args.fraction, seed=args.seed, duration_s=args.duration
    )
    print(f"modified fraction: {outcome.modified_fraction:.0%}")
    for label, metrics in [
        ("modified", outcome.modified),
        ("unmodified", outcome.unmodified),
    ]:
        print(f"  {label:<12s} thr={metrics.throughput_mbps:6.2f} Mbps  "
              f"delay={metrics.queueing_delay_ms:7.1f} ms  "
              f"P_l={metrics.power_l:8.4f}")
    return 0


def _checked(kind: type, model: Callable[[Any], Any], *, listed: bool = False):
    """An argparse type: ``kind(text)`` (a comma-separated, non-repeating
    list when ``listed``: a repeat would be two sweep points with one key),
    each value passed to ``model``, the check of the model that owns the
    bound, so its ``ValueError`` exits 2 with the model's own message."""

    def parse(text: str):
        values = ([kind(item) for item in text.split(",") if item.strip()]
                  if listed else [kind(text)])
        try:
            for value in values:
                model(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        if not values:
            raise argparse.ArgumentTypeError("need at least one value")
        if len(set(values)) != len(values):
            raise argparse.ArgumentTypeError(f"values must not repeat: {text!r}")
        return values if listed else values[0]

    parse.__name__ = f"{kind.__name__} list" if listed else kind.__name__
    return parse


def _field(cls: type, name: str, **given) -> Callable[[Any], Any]:
    """``cls``' own check of its field ``name`` (other fields ``given``)."""
    return lambda value: cls(**given, **{name: value})


def _plane(name: str) -> Callable[[Any], Any]:
    """The plane's own check of a fault-sweep value (a config field)."""
    if name in {f.name for f in fields(ReplicationConfig)}:
        return _field(ReplicationConfig, name)
    return _field(PlaneSpec, name, policy=REFERENCE_POLICY)


def _sweep_watchdog(args: argparse.Namespace) -> Optional[WatchdogConfig]:
    if args.max_sim_events is None and args.max_sim_seconds is None:
        return None
    return WatchdogConfig(
        max_events=args.max_sim_events, max_wall_s=args.max_sim_seconds
    )


def _sweep_verb(args: argparse.Namespace, sweep, *, manifest, table, verdict) -> int:
    """The one body behind ``sweep`` and the ``fault`` verbs; each brings
    its ``sweep()``, ``manifest``, ``table`` and ``verdict``.
    Any quarantined point exits 1 with no verdict: a hole in the grid is
    not a result that held."""
    with ExitStack() as stack:
        rec = None
        if getattr(args, "flightrec_out", None):
            # Entered before telemetry.use so the metrics scope inherits
            # the recorder (serial sweeps run in this process).
            rec = stack.enter_context(
                flightrec.use(autodump_path=args.flightrec_out)
            )
        tele = None
        if args.metrics_out:
            tele = stack.enter_context(telemetry.use())
        outcome = sweep()
        if tele is not None:
            # The parent's own metrics plus the workers' merged snapshot.
            snapshots = [tele.registry.snapshot()]
            if outcome.telemetry is not None:
                snapshots.append(outcome.telemetry)
            _write_manifest(
                args, manifest(outcome, metrics=telemetry.merge_snapshots(snapshots))
            )

    table(outcome)
    for point in outcome.quarantined:
        print(f"QUARANTINED: {point.describe()}", file=sys.stderr)

    if args.serial_check:
        mismatches, serial_wall = outcome.serial_check()
        if mismatches:
            print(f"DETERMINISM VIOLATION: {len(mismatches)} point(s) differ "
                  f"between serial and parallel sweeps", file=sys.stderr)
            for mismatch in mismatches:
                print(f"  {mismatch}", file=sys.stderr)
            return 1
        print(f"serial check: all {len(outcome.points)} point(s) bit-identical")
        print(f"serial   {serial_wall:8.2f}s"
              + (f"  speedup={serial_wall / outcome.wall_seconds:.2f}x"
                 if outcome.wall_seconds > 0 else ""))

    if outcome.quarantined:
        print(f"SWEEP INCOMPLETE: {len(outcome.quarantined)} point(s) "
              f"quarantined; no verdict", file=sys.stderr)
        return 1
    return verdict(outcome, rec)


def _sweep_table(outcome) -> None:
    recomputed = len(outcome.points) - outcome.cache_hits - outcome.checkpoint_reused
    print(f"parallel {outcome.wall_seconds:8.2f}s "
          f"({outcome.events_per_second:,.0f} events/s, "
          f"workers={outcome.workers})")
    print(f"points: total={len(outcome.points) + len(outcome.quarantined)} "
          f"cached={outcome.cache_hits} "
          f"resumed={outcome.checkpoint_reused} "
          f"recomputed={recomputed} "
          f"retries={outcome.retries} "
          f"quarantined={len(outcome.quarantined)}"
          + (" [serial fallback]" if outcome.serial_fallback else ""))


def _best_point(outcome, rec) -> int:
    best = select_optimal(outcome.to_sweep_results())
    p = best.params
    print(f"best point: wI={p.window_init:.0f} ssthr={p.initial_ssthresh:.0f} "
          f"beta={p.beta}  P_l={best.mean_power_l:.4f}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    preset = _preset_or_exit(args.preset)
    if args.resume and args.checkpoint_dir is None:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    grid = list(
        cubic_sweep_grid(
            ssthresh_range=args.ssthresh_range,
            window_init_range=args.window_range,
            beta_range=args.beta_range,
        )
    )
    runner = SweepRunner(
        preset,
        duration_s=args.duration,
        n_workers=args.workers,
        cache=DiskCache(args.cache_dir) if args.cache_dir is not None else None,
        progress=None if args.quiet else ConsoleProgress(),
        resilience=ResilienceConfig(
            max_attempts=args.retries,
            point_timeout_s=args.point_timeout,
        ),
        watchdog=_sweep_watchdog(args),
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        flightrec_dir=args.flightrec_dir,
    )
    return _sweep_verb(
        args,
        partial(runner.run, grid, n_runs=args.runs, base_seed=args.seed),
        manifest=partial(sweep_manifest, extra_config={"grid_points": len(grid)}),
        table=_sweep_table,
        verdict=_best_point,
    )


def _fmt(value) -> str:
    """One accounting, axis or fixed value as a compact table cell."""
    if isinstance(value, dict):
        return ",".join(f"{key}:{_fmt(item)}" for key, item in value.items()) or "-"
    if isinstance(value, (list, tuple)):
        return ",".join(map(_fmt, value))
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(getattr(value, "value", value))


def _fault_row(row) -> str:
    """Axes, P_l and throughput beside every baseline, then accounting."""

    def beside(level: str) -> str:
        return ", ".join(
            f"{getattr(row.vs(name), level):5.2f}x {name}" for name in row.baselines
        )

    cells = [" ".join(f"{axis}={_fmt(value)}" for axis, value in row.axes.items()),
             f"P_l={row.mean_power_l:8.4f} ({beside('power_l')})",
             f"thr={row.mean_throughput_mbps:6.2f} Mbps ({beside('throughput_mbps')})",
             " ".join(f"{name}={_fmt(value)}" for name, value in row.accounting.items())]
    return "  " + "  ".join(cells)


def _modes(text: str) -> Tuple[str, ...]:
    modes = tuple(mode.strip() for mode in text.split(",") if mode.strip())
    unknown = [mode for mode in modes if mode not in CONTEXT_CORRUPTION_MODES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown corruption mode(s): {', '.join(unknown)}; "
            f"available: {', '.join(sorted(CONTEXT_CORRUPTION_MODES))}"
        )
    return modes


def cmd_fault(args: argparse.Namespace) -> int:
    scenario = FAULT_SCENARIOS[args.scenario]
    preset = _preset_or_exit(args.preset)
    fixed = {name: getattr(args, name) for name in args.fixed}
    # Only poison has --expect-harm; its manifest records the flag.
    expect_harm = getattr(args, "expect_harm", None)

    def table(outcome) -> None:
        print(f"{scenario.name} sweep: preset={preset.name} "
              + "".join(f"{key}={_fmt(value)} " for key, value in fixed.items())
              + f"seeds={_fmt(args.seeds)}")
        if not args.quiet:
            for row in outcome.rows:
                print(_fault_row(row))

    def verdict(outcome, rec) -> int:
        violations = check_envelope(outcome, rel_tol=args.tolerance)
        if expect_harm:
            if not violations:
                print("HARM NOT DEMONSTRATED: no row fell below the baseline "
                      "floor; the corruption harness is not injecting real harm",
                      file=sys.stderr)
                return 1
            print("harm demonstrated: corruption drove at least one row below "
                  "the uncoordinated baseline")
            return 0
        if violations:
            print("SAFETY ENVELOPE VIOLATED:", file=sys.stderr)
            for violation in violations:
                print(f"  {violation}", file=sys.stderr)
            if rec is not None:
                tag = f"envelope:{scenario.name}:{len(violations)}"
                dumped = rec.maybe_autodump(tag)
                if dumped:
                    print(f"flight recording: {dumped}", file=sys.stderr)
            return 1
        if not scenario.floors:
            print(f"no safety envelope declared for {scenario.name}")
            return 0
        print(f"safety envelope holds: every row within {args.tolerance:.0%} of "
              f"each floor that applies to it "
              f"({', '.join(floor.baseline for floor in scenario.floors)}) on "
              f"power and throughput")
        return 0

    return _sweep_verb(
        args,
        partial(
            run_fault_sweep, scenario, REFERENCE_POLICY, preset,
            {axis: getattr(args, axis) for axis in scenario.axes},
            seeds=args.seeds, duration_s=args.duration, fixed=fixed,
            n_workers=args.workers, parallel=args.workers > 1,
        ),
        manifest=partial(
            fault_sweep_manifest,
            extra_config=None if expect_harm is None else {"expect_harm": expect_harm},
        ),
        table=table,
        verdict=verdict,
    )


def cmd_postmortem(args: argparse.Namespace) -> int:
    try:
        analysis = analyze_dump(
            args.dump, stall_threshold_s=args.stall_threshold
        )
    except (OSError, ValueError) as exc:
        print(f"cannot analyze dump: {exc}", file=sys.stderr)
        return 2
    if args.flow is not None:
        known = {entry["flow_id"] for entry in analysis["flows"]}
        if args.flow not in known:
            print(f"flow {args.flow} not in dump (flows: "
                  f"{', '.join(map(str, sorted(known))) or 'none'})",
                  file=sys.stderr)
            return 2
    if args.json:
        if args.flow is not None:
            analysis = dict(
                analysis,
                flows=[e for e in analysis["flows"] if e["flow_id"] == args.flow],
            )
        json.dump(analysis, sys.stdout, indent=2, allow_nan=False)
        print()
    else:
        print(render_text(analysis, flow=args.flow))
    return 0


def cmd_telemetry_summarize(args: argparse.Namespace) -> int:
    try:
        manifest = load_manifest(args.manifest)
    except (OSError, ValueError) as exc:
        print(f"cannot read manifest: {exc}", file=sys.stderr)
        return 2
    print(summarize_manifest(manifest, max_points=args.max_points))
    return 0


def cmd_ipfix(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    model = EgressTrafficModel(rng)
    sampler = IpfixSampler(rng)
    collector = IpfixCollector()
    for batch in model.generate(args.minutes):
        collector.ingest_many(sampler.sample_flows(batch))
    stats = sharing_stats(collector)
    print(f"{stats.observations} sampled flow observations over "
          f"{args.minutes} minute(s)")
    for threshold in (1, 5, 10, 50, 100, 500):
        print(f"  sharing with >= {threshold:>3d} other flows: "
              f"{stats.fraction_at_least(threshold):6.1%}")
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    train = 2 * BINS_PER_DAY
    outage = OutageSpec(
        start_bin=train + 100,
        duration_bins=args.outage_minutes // BIN_MINUTES,
        severity=args.severity,
        asn=args.asn,
        metro=args.metro,
    )
    generator = TelemetryGenerator(np.random.default_rng(args.seed), [outage])
    series = generator.generate(train + BINS_PER_DAY)
    dips = UnreachabilityDetector(BINS_PER_DAY).detect(series, train)
    events = localize(dips, slice_keys())
    print(f"injected: asn={args.asn} metro={args.metro} "
          f"({args.outage_minutes} min, severity {args.severity:.0%})")
    if not events:
        print("no events detected")
        return 1
    for event in events:
        minutes = event.duration_bins * BIN_MINUTES
        print(f"detected: {event.describe()} ({minutes} min, "
              f"drop {event.mean_drop_fraction:.0%})")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    names = args.oracles or None
    try:
        scenarios = draw_scenarios(args.seed, args.fuzz)
        outcomes = run_oracles(names, duration_s=args.duration, seed=args.seed)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    failed = 0
    for outcome in outcomes:
        status = "PASS" if outcome.passed else "FAIL"
        print(f"{status}  {outcome.name:<22s} {outcome.details}")
        if not outcome.passed:
            failed += 1
            for failure in outcome.failures:
                print(f"      {failure}")

    fuzz_cases = []
    for scenario in scenarios:
        report = ViolationReport()
        case = {"scenario": scenario.as_dict(), "error": None}
        try:
            run_fuzz_case(scenario, check_report=report)
        except Exception as exc:  # noqa: BLE001 - surfaced in the artifact
            case["error"] = f"{type(exc).__name__}: {exc}"
        case["report"] = report.as_dict()
        case["passed"] = report.ok and case["error"] is None
        fuzz_cases.append(case)
        status = "PASS" if case["passed"] else "FAIL"
        print(f"{status}  fuzz seed={scenario.seed:<10d} "
              f"checks={report.checks_performed} "
              f"violations={len(report.violations)}"
              + (f"  error={case['error']}" if case["error"] else ""))
        if not case["passed"]:
            failed += 1
            for violation in report.violations:
                print(f"      {violation.invariant}: {violation.message}")

    if args.report:
        artifact = {
            "oracles": [outcome.as_dict() for outcome in outcomes],
            "fuzz": fuzz_cases,
            "failed": failed,
        }
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2, allow_nan=False)
        print(f"check report: {args.report}")

    total = len(outcomes) + len(fuzz_cases)
    print(f"{total - failed}/{total} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-phi",
        description="Reproduction CLI for 'Rethinking Networking for Five Computers'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("presets", help="list scenario presets").set_defaults(
        func=cmd_presets
    )

    def add_metrics_arg(p):
        p.add_argument("--metrics-out", default=None, dest="metrics_out",
                       help="write a telemetry run manifest (JSON) here")

    def add_observed_run_args(p):
        add_metrics_arg(p)
        p.add_argument("--trace-out", default=None, dest="trace_out",
                       help="flight-record the run and write the dump (JSONL, "
                            "readable by `postmortem`) here")

    def add_run_args(p, with_params=True):
        p.add_argument("--preset", default="table3-remy")
        p.add_argument("--seed", type=_checked(int, check_seed), default=0)
        p.add_argument("--duration", type=_checked(float, check_duration), default=None,
                       help="simulated seconds (default: preset duration)")
        if with_params:
            p.add_argument("--window-init", dest="window_init", default=2.0,
                           type=_checked(float, _field(CubicParams, "window_init")))
            p.add_argument("--ssthresh", default=65536.0,
                           type=_checked(float, _field(CubicParams, "initial_ssthresh")))
            p.add_argument("--beta", type=_checked(float, _field(CubicParams, "beta")), default=0.2)

    cubic = sub.add_parser("cubic", help="fixed-parameter Cubic run")
    add_run_args(cubic)
    add_observed_run_args(cubic)
    cubic.set_defaults(func=cmd_cubic)

    phi = sub.add_parser("phi", help="Phi-coordinated Cubic run")
    add_run_args(phi, with_params=False)
    add_observed_run_args(phi)
    phi.add_argument("--mode", choices=["practical", "ideal"], default="practical")
    phi.set_defaults(func=cmd_phi)

    incremental = sub.add_parser("incremental", help="Figure-4 partial deployment")
    add_run_args(incremental)
    incremental.set_defaults(
        preset="fig4-incremental", window_init=16.0, ssthresh=64.0, beta=0.3
    )
    incremental.add_argument("--fraction", type=_checked(float, check_fraction),
                             default=0.5)
    incremental.set_defaults(func=cmd_incremental)

    sweep = sub.add_parser("sweep", help="Table-2 grid sweep via repro.runner")
    sweep.add_argument("--preset", default="table3-remy")
    sweep.add_argument("--seed", type=_checked(int, check_seed), default=0)
    sweep.add_argument("--runs", type=_checked(int, check_runs), default=8,
                       help="runs per grid point (paper uses 8)")
    sweep.add_argument("--duration", type=_checked(float, check_duration), default=None,
                       help="simulated seconds per run (default: preset duration)")
    sweep.add_argument("--workers", type=_checked(int, check_workers), default=None,
                       help="worker processes (default: usable CPU count)")
    sweep.add_argument("--cache-dir", default=None,
                       help="persist per-point results under this directory")
    for flag, name in [("--ssthresh-range", "initial_ssthresh"),
                       ("--window-range", "window_init"), ("--beta-range", "beta")]:
        sweep.add_argument(flag, type=_checked(float, _field(CubicParams, name), listed=True),
                           default=None, help=f"comma-separated {name} values")
    sweep.add_argument("--checkpoint-dir", default=None,
                       help="journal completed points under this directory "
                            "(crash-safe, resumable)")
    sweep.add_argument("--resume", action="store_true",
                       help="replay an existing checkpoint journal; only "
                            "unfinished points are recomputed")
    sweep.add_argument("--retries", type=_checked(int, _field(ResilienceConfig, "max_attempts")),
                       default=3,
                       help="attempts per point before quarantine (default 3)")
    sweep.add_argument("--point-timeout", default=None,
                       type=_checked(float, _field(ResilienceConfig, "point_timeout_s")),
                       help="wall seconds per running point before the "
                            "supervisor kills and retries it")
    sweep.add_argument("--max-sim-events", default=None,
                       type=_checked(int, _field(WatchdogConfig, "max_events")),
                       help="watchdog: abort a simulation after this many events")
    sweep.add_argument("--max-sim-seconds", default=None,
                       type=_checked(float, _field(WatchdogConfig, "max_wall_s")),
                       help="watchdog: abort a simulation after this much wall time")
    sweep.add_argument("--serial-check", action="store_true",
                       help="also run serially; verify bit-identical results")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress the progress line")
    sweep.add_argument("--flightrec-dir", default=None, dest="flightrec_dir",
                       help="replay a failing point armed; its flight-recorder "
                            "dump lands here (default: the checkpoint dir, when set)")
    add_metrics_arg(sweep)
    sweep.set_defaults(func=cmd_sweep)

    fault = sub.add_parser(
        "fault", help="control-plane fault sweeps (X4 degraded, X6 poison, "
                      "X7 partition) judged against a safety envelope"
    )
    fault_sub = fault.add_subparsers(dest="scenario", required=True)
    verbs = {}
    for scenario in FAULT_SCENARIOS.values():
        p = verbs[scenario.name] = fault_sub.add_parser(
            scenario.name, help=f"sweep {' x '.join(scenario.axes)}"
        )
        for axis, values in scenario.grid.items():
            p.add_argument(f"--{axis.replace('_', '-')}", dest=axis,
                           type=_checked(type(values[0]), _plane(axis), listed=True),
                           default=list(values),
                           help=f"comma-separated {axis} values (default: "
                                f"{_fmt(values)})")
        p.add_argument("--preset", default="fig2a-low-utilization")
        p.add_argument("--seeds", type=_checked(int, check_seed, listed=True), default=[0, 1],
                       help="comma-separated seeds (one run per seed per cell)")
        p.add_argument("--duration", type=_checked(float, check_duration), default=None,
                       help="simulated seconds per run (default: preset duration)")
        p.add_argument("--workers", type=_checked(int, check_workers), default=1,
                       help="worker processes (1 = serial)")
        p.add_argument("--tolerance", type=_checked(float, check_tolerance), default=0.05,
                       help="relative envelope tolerance (default 0.05)")
        p.add_argument("--serial-check", action="store_true",
                       help="also run serially; verify bit-identical results")
        p.add_argument("--quiet", action="store_true",
                       help="suppress the per-row table")
        p.add_argument("--flightrec-out", default=None, dest="flightrec_out",
                       help="record flight data; dump it here if the safety "
                            "envelope is violated")
        add_metrics_arg(p)
        p.set_defaults(func=cmd_fault, fixed=())
    # Each scenario's own flags set ``run`` keyword arguments of that name,
    # fixed for the whole sweep; ``fixed`` lists them.
    poison, partition = verbs["poison"], verbs["partition"]
    poison.add_argument("--modes", type=_modes, default=("inflate",),
                        help="comma-separated corruption modes "
                             "(bitflip,scale,frozen,replay,deflate,inflate,garbage)")
    poison.add_argument("--unguarded", action="store_false", dest="guarded",
                        help="strip the guard/trust/robust-aggregation defences "
                             "(the ablation)")
    poison.add_argument("--expect-harm", action="store_true", dest="expect_harm",
                        help="succeed only if some row falls below the baseline "
                             "floor (pair with --unguarded)")
    poison.set_defaults(fixed=("modes", "guarded"))
    partition.add_argument("--partition-start", default=10.0,
                           type=_checked(float, _plane("partition_start_s")),
                           dest="partition_start_s",
                           help="simulated second the partition begins")
    partition.set_defaults(fixed=("partition_start_s",))

    postmortem = sub.add_parser(
        "postmortem",
        help="reconstruct per-flow timelines and stall causes from a "
             "flight-recorder dump",
    )
    postmortem.add_argument("dump", help="path to a flightrec-*.jsonl dump")
    postmortem.add_argument("--flow", type=int, default=None,
                            help="show only this flow id")
    postmortem.add_argument("--json", action="store_true",
                            help="emit the full analysis as JSON")
    postmortem.add_argument("--stall-threshold", type=float,
                            default=DEFAULT_STALL_THRESHOLD_S,
                            dest="stall_threshold",
                            help="inter-activity gap (sim seconds) that "
                                 "counts as a stall (default %(default)s)")
    postmortem.set_defaults(func=cmd_postmortem)

    telemetry_parser = sub.add_parser(
        "telemetry", help="inspect telemetry artifacts"
    )
    telemetry_sub = telemetry_parser.add_subparsers(
        dest="telemetry_command", required=True
    )
    summarize = telemetry_sub.add_parser(
        "summarize", help="render a human table from a run manifest"
    )
    summarize.add_argument("manifest", help="path to a manifest JSON file")
    summarize.add_argument("--max-points", type=_checked(int, check_max_points), default=24,
                           help="per-point rows to show (default 24)")
    summarize.set_defaults(func=cmd_telemetry_summarize)

    ipfix = sub.add_parser("ipfix", help="Section-2.1 sharing analysis")
    ipfix.add_argument("--minutes", type=_checked(int, check_minutes), default=3)
    ipfix.add_argument("--seed", type=_checked(int, check_seed), default=21)
    ipfix.set_defaults(func=cmd_ipfix)

    check = sub.add_parser(
        "check",
        help="simulation correctness oracles (differential/metamorphic/fuzz)",
    )
    check.add_argument(
        "--oracle", action="append", dest="oracles", metavar="NAME",
        choices=sorted(ORACLES),
        help="run only this oracle (repeatable; default: all)",
    )
    check.add_argument("--duration", type=_checked(float, check_duration), default=10.0,
                       help="simulated seconds per oracle scenario")
    check.add_argument("--seed", type=_checked(int, check_seed), default=0)
    check.add_argument("--fuzz", type=int, default=0, metavar="N",
                       help="also run N random checked scenarios")
    check.add_argument("--report", default=None, metavar="PATH",
                       help="write a JSON violation/oracle report here")
    check.set_defaults(func=cmd_check)

    diagnose = sub.add_parser("diagnose", help="Figure-5 outage pipeline")
    diagnose.add_argument("--asn", default="isp-a")
    diagnose.add_argument("--metro", default="nyc")
    diagnose.add_argument("--outage-minutes", default=120, type=_checked(
        int, lambda m: OutageSpec(0, m // BIN_MINUTES, 1.0)))
    diagnose.add_argument("--severity", default=0.9, type=_checked(
        float, _field(OutageSpec, "severity", start_bin=0, duration_bins=1)))
    diagnose.add_argument("--seed", type=_checked(int, check_seed), default=7)
    diagnose.set_defaults(func=cmd_diagnose)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
