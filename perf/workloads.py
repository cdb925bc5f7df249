"""The six benchmark workloads.

Each workload drives the package only through its public functions and
measures from outside: ``stage()`` hands back the call to be timed,
``inspect()`` reads the result afterwards — goodput segments (the unit
host cost is reported in), the ``sim_digest`` that must repeat exactly,
the workload's own checks, and the deterministic counters of the traced
pass.  Nothing here is timed; :mod:`worker` owns the clocks.

Sizes are the seed-commit measurements on a 2-core shared box, cut from
the issue's where the driver's time cap needed it (see README.md).
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import flightrec, telemetry
from repro.experiments import (
    FIG2C_LONG_RUNNING,
    TABLE3_REMY,
    ScenarioPreset,
    ScenarioResult,
    run_cubic_fixed,
    run_partitioned_phi_cubic,
)
from repro.phi import REFERENCE_POLICY
from repro.runner import (
    DiskCache,
    NullCache,
    SweepOutcome,
    SweepRunner,
    canonical_json,
    flow_records,
)
from repro.simnet import MSS_BYTES, DumbbellConfig
from repro.transport import CubicParams
from repro.transport.cubic import cubic_sweep_grid
from repro.workload import OnOffConfig

#: Counters of the traced pass: exact functions of the seed, read from
#: public results.  One a workload's result does not expose reads 0.
COUNTERS = (
    "simnet.engine.events",
    "simnet.engine.events_per_segment",
    "simnet.link.bottleneck_pkts",
    "simnet.link.drops",
    "simnet.link.queue_peak_pkts",
    "simnet.link.mean_utilization",
    "transport.segments_goodput",
    "transport.pkts_sent",
    "transport.retransmits",
    "transport.fast_retransmits",
    "transport.timeouts",
    "transport.retransmit_share",
    "transport.flows_completed",
    "phi.lookups",
    "phi.reports",
    "phi.rpc_attempts",
    "phi.rpc_failures",
    "phi.rpcs_per_flow",
    "phi.failovers",
    "phi.fast_failures",
    "phi.anti_entropy_merges",
    "phi.reports_replicated",
    "phi.decisions_fresh",
    "phi.decisions_degraded",
    "phi.max_divergence",
    "runner.points_computed",
    "runner.cache_hits",
    "runner.resumed",
    "runner.retries",
    "runner.quarantined",
    "runner.journal_bytes",
    "runner.overhead_share",
    "observe.flightrec_events",
    "observe.simcheck_checks",
    "model.throughput_mbps",
    "model.queueing_delay_ms",
    "model.loss_rate",
    "model.power_l",
)

#: The journal stores each point's wall time, so its size and the overhead
#: share follow the clock; every other counter repeats exactly.
EXACT_COUNTERS = tuple(
    name
    for name in COUNTERS
    if name not in ("runner.overhead_share", "runner.journal_bytes")
)

#: The Table-3 hot-path parameter point every single-run workload uses.
BULK_PARAMS = CubicParams(4, 64, 0.7)


@dataclass
class Inspection:
    """What one repetition produced, as the benchmark judges it."""

    digest: str
    segments: float
    failures: List[str] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _digest(records: Iterable[Dict[str, Any]]) -> str:
    return hashlib.sha256(canonical_json(list(records)).encode("utf-8")).hexdigest()


def _record(metrics, flows) -> Dict[str, Any]:
    """The simulated outcome the digest covers: RunMetrics + flow records."""
    return {"metrics": asdict(metrics), "flows": [flow.to_dict() for flow in flows]}


def _flow_counters(flows: Sequence[Any], events: int) -> Dict[str, float]:
    """Transport counters; ConnectionStats and FlowRecord share field names."""
    segments = sum(flow.bytes_goodput for flow in flows) / MSS_BYTES
    sent = sum(flow.packets_sent for flow in flows)
    retransmits = sum(flow.retransmits for flow in flows)
    return {
        "simnet.engine.events": events,
        "simnet.engine.events_per_segment": _ratio(events, segments),
        "transport.segments_goodput": segments,
        "transport.pkts_sent": sent,
        "transport.retransmits": retransmits,
        "transport.fast_retransmits": sum(f.fast_retransmits for f in flows),
        "transport.timeouts": sum(flow.timeouts for flow in flows),
        "transport.retransmit_share": _ratio(retransmits, sent),
        "transport.flows_completed": sum(1 for flow in flows if flow.completed),
    }


def _model_counters(metrics: Sequence[Any]) -> Dict[str, float]:
    return {
        "model.throughput_mbps": _mean([m.throughput_mbps for m in metrics]),
        "model.queueing_delay_ms": _mean([m.queueing_delay_ms for m in metrics]),
        "model.loss_rate": _mean([m.loss_rate for m in metrics]),
        "model.power_l": _mean([m.power_l for m in metrics]),
    }


def _inspect_scenario(result: ScenarioResult, env=None) -> Inspection:
    flows = flow_records(result.per_sender_stats)
    counters = dict.fromkeys(COUNTERS, 0.0)
    counters.update(_flow_counters(flows, result.events_processed))
    counters.update(_model_counters([result.metrics]))
    counters["simnet.link.mean_utilization"] = result.mean_utilization
    if env is not None:
        queue = env.topology.bottleneck_queue.stats
        counters["simnet.link.bottleneck_pkts"] = (
            env.topology.bottleneck.packets_transmitted
        )
        counters["simnet.link.drops"] = queue.dropped_packets
        counters["simnet.link.queue_peak_pkts"] = queue.peak_packets
    return Inspection(
        digest=_digest([_record(result.metrics, flows)]),
        segments=counters["transport.segments_goodput"],
        counters=counters,
    )


def _inspect_sweep(outcome: SweepOutcome) -> Inspection:
    points = outcome.points
    flows = [flow for point in points for flow in point.flows]
    counters = dict.fromkeys(COUNTERS, 0.0)
    counters.update(_flow_counters(flows, outcome.total_events))
    counters.update(_model_counters([point.metrics for point in points]))
    counters["simnet.link.mean_utilization"] = _mean(
        [point.mean_utilization for point in points]
    )
    provenance = list(outcome.provenance.values())
    point_wall = sum(
        point.wall_seconds
        for point in points
        if outcome.provenance.get(point.key) == "computed"
    )
    counters.update(
        {
            "runner.points_computed": provenance.count("computed"),
            "runner.cache_hits": outcome.cache_hits,
            "runner.resumed": outcome.checkpoint_reused,
            "runner.retries": outcome.retries,
            "runner.quarantined": len(outcome.quarantined),
            "runner.overhead_share": _ratio(
                outcome.wall_seconds - point_wall, outcome.wall_seconds
            ),
        }
    )
    return Inspection(
        digest=_digest(_record(point.metrics, point.flows) for point in points),
        segments=counters["transport.segments_goodput"],
        counters=counters,
    )


def _journal(directory: str) -> Tuple[int, int]:
    """(bytes, records) of the sweep journal under ``directory``."""
    size = records = 0
    for name in os.listdir(directory):
        # flight-recorder dumps share the directory and the suffix
        if name.endswith(".jsonl") and not name.startswith("flightrec-"):
            path = os.path.join(directory, name)
            size += os.path.getsize(path)
            with open(path, encoding="utf-8") as handle:
                records += sum(1 for line in handle if line.strip())
    return size, records


class Workload:
    """One benchmark input.  ``seed`` becomes the scenario seed."""

    name = ""
    why = ""

    def __init__(self, seed: int, tmp_dir: str, short: bool = False) -> None:
        self.seed = seed
        self.tmp_dir = tmp_dir
        self.short = short

    def warm_up(self) -> str:
        """One untimed full-size pass; returns the reference digest."""
        return self.inspect(self.stage()()).digest

    def stage(self) -> Callable[[], Any]:
        """Untimed preparation of one repetition; returns the timed call."""
        raise NotImplementedError

    def inspect(self, out: Any) -> Inspection:
        """Judge one repetition's result (untimed)."""
        raise NotImplementedError

    def baseline(self) -> Optional[Callable[[], Any]]:
        """The same run without the layer under study, where there is one."""
        return None


class _CubicRun(Workload):
    """``run_cubic_fixed`` on a paper preset, env captured for counters."""

    preset: ScenarioPreset = TABLE3_REMY
    duration_s = 30.0
    short_duration_s = 6.0
    _env: Any = None

    def _capture(self, env) -> List[object]:
        # The public fault hook, injecting no fault: the one way to see
        # link and queue counters from outside the scenario runner.
        self._env = env
        return []

    def _run(self, checked: bool = False) -> ScenarioResult:
        return run_cubic_fixed(
            BULK_PARAMS,
            self.preset,
            self.seed,
            self.short_duration_s if self.short else self.duration_s,
            checked=checked,
            fault_hook=self._capture,
        )

    def stage(self) -> Callable[[], Any]:
        return self._run

    def inspect(self, out: ScenarioResult) -> Inspection:
        env, self._env = self._env, None
        seen = _inspect_scenario(out, env)
        self.judge(seen, env)
        return seen

    def judge(self, seen: Inspection, env) -> None:
        """Workload-specific counters and checks."""
        raise NotImplementedError


class Table3Bulk(_CubicRun):
    name = "table3_bulk"
    why = (
        "Table-3 hot path, 30 sim-s on/off Cubic, zero loss: engine+link+transport "
        "do ~99% of the work; Phi, runner and observers idle. Where a data-plane "
        "speed-up must show."
    )

    def judge(self, seen: Inspection, env) -> None:
        if seen.counters["simnet.link.drops"] or seen.counters["model.loss_rate"]:
            seen.failures.append("table3_bulk must not drop")
        if seen.counters["transport.retransmits"]:
            seen.failures.append("table3_bulk must not retransmit")


class Fig2cLossy(_CubicRun):
    name = "fig2c_lossy"
    why = (
        "40 persistent flows, 10 sim-s, ~5% bottleneck drops: same three layers on "
        "the full-queue, SACK-recovery and RTO path that table3_bulk never enters."
    )
    preset = FIG2C_LONG_RUNNING
    duration_s = 10.0
    short_duration_s = 4.0

    def judge(self, seen: Inspection, env) -> None:
        if not seen.counters["simnet.link.drops"]:
            seen.failures.append("fig2c_lossy must drop at the bottleneck")
        if not seen.counters["transport.retransmits"]:
            seen.failures.append("fig2c_lossy must retransmit")


class Table3Observed(_CubicRun):
    name = "table3_observed"
    why = (
        "table3_bulk under telemetry + flight recorder + simcheck: the observer "
        "layers at full work on an identical run; its digest must equal the plain run's."
    )

    _recorded = 0

    def warm_up(self) -> str:
        # The reference is the *plain* run: observers must not perturb
        # the trajectory, so every observed repetition is held to it.
        reference = _inspect_scenario(self._run()).digest
        self._env = None
        return reference

    def _observed(self) -> ScenarioResult:
        with telemetry.use(), flightrec.use() as recorder:
            result = self._run(checked=True)
            self._recorded = (
                recorder.simnet_emitted
                + recorder.transport_emitted
                + recorder.phi_emitted
                + recorder.fault_emitted
            )
        return result

    def stage(self) -> Callable[[], Any]:
        return self._observed

    def baseline(self) -> Optional[Callable[[], Any]]:
        return self._run

    def judge(self, seen: Inspection, env) -> None:
        seen.counters["observe.flightrec_events"] = self._recorded
        seen.counters["observe.simcheck_checks"] = env.sim.checks_performed
        if not self._recorded:
            seen.failures.append("the flight recorder saw nothing")
        if not env.sim.checks_performed:
            seen.failures.append("simcheck verified nothing")


class PhiShortflows(Workload):
    name = "phi_shortflows"
    why = (
        "8 senders, 3 KB flows, 20 ms RTT, 6 sim-s (~185 arrivals/s) through 3 "
        "replicas with a minority cut at 2-4.5 s: lookup/report/failover/anti-entropy "
        "dominate; the data plane does little."
    )
    def __init__(self, seed: int, tmp_dir: str, short: bool = False) -> None:
        super().__init__(seed, tmp_dir, short)
        scale = 0.25 if short else 1.0
        self.preset = ScenarioPreset(
            name="perf-phi-shortflows",
            config=DumbbellConfig(n_senders=8, rtt_s=0.020),
            workload=OnOffConfig(
                mean_on_bytes=3000, mean_off_s=0.02, start_jitter_s=0.1
            ),
            duration_s=6.0 * scale,
            description="flow-arrival-rate stress on the replicated control plane",
        )
        self._cut_at_s, self._heal_s = 2.0 * scale, 2.5 * scale

    def _run(self):
        return run_partitioned_phi_cubic(
            REFERENCE_POLICY,
            self.preset,
            n_replicas=3,
            severity=0.34,
            partition_start_s=self._cut_at_s,
            heal_s=self._heal_s,
            seed=self.seed,
        )

    def stage(self) -> Callable[[], Any]:
        return self._run

    def inspect(self, out) -> Inspection:
        seen = _inspect_scenario(out.result)
        counters = seen.counters
        decisions = out.decision_counts
        attempts = sum(calls["attempts"] for calls in out.replica_calls.values())
        failures = sum(calls["failures"] for calls in out.replica_calls.values())
        flows = counters["transport.flows_completed"]
        counters.update(
            {
                "phi.lookups": sum(decisions.values()),
                "phi.reports": flows,
                "phi.rpc_attempts": attempts,
                "phi.rpc_failures": failures,
                "phi.rpcs_per_flow": _ratio(attempts, flows),
                "phi.failovers": out.failovers,
                "phi.fast_failures": out.fast_failures,
                "phi.anti_entropy_merges": out.anti_entropy_merges,
                "phi.reports_replicated": out.reports_replicated,
                "phi.decisions_fresh": decisions.get("fresh", 0),
                "phi.decisions_degraded": sum(decisions.values())
                - decisions.get("fresh", 0),
                "phi.max_divergence": out.max_divergence,
            }
        )
        if out.failovers < 1:
            seen.failures.append("the minority cut must force a failover")
        if decisions.get("fallback", 0):
            seen.failures.append("a minority cut must be masked (no fallback)")
        if sum(decisions.values()) < flows:
            seen.failures.append("fewer context decisions than completed flows")
        return seen


class _Sweep(Workload):
    """A 3x2x2 corner of the Table-2 grid, 12 points on one seed.

    Only completed flows reach a ``PointResult``, so the flows a short
    point cuts off at its end are work without segments.  At 2 sim-s
    that made cost per segment move 14% with the seed; at 4 sim-s, 3%.
    Twelve longer points were chosen over eighteen shorter ones.
    """

    duration_s = 4.0

    def __init__(self, seed: int, tmp_dir: str, short: bool = False) -> None:
        super().__init__(seed, tmp_dir, short)
        if short:
            ranges = ([2.0, 128.0], [64.0], [0.2, 0.8])
        else:
            ranges = ([2.0, 16.0, 128.0], [2.0, 64.0], [0.2, 0.8])
        self.grid = list(cubic_sweep_grid(*ranges))
        self._reps = 0

    def _fresh_dir(self) -> str:
        self._reps += 1
        path = os.path.join(self.tmp_dir, f"{self.name}-{self._reps}")
        os.makedirs(path)
        return path

    def _sweep(self, cache, **journal) -> SweepOutcome:
        runner = SweepRunner(
            TABLE3_REMY,
            duration_s=1.0 if self.short else self.duration_s,
            n_workers=1,
            cache=cache,
            **journal,
        )
        return runner.run(self.grid, base_seed=self.seed)


class SweepCold(_Sweep):
    name = "sweep_cold"
    why = (
        "12-point Table-2 grid, 4 sim-s each, as the CLI runs it with a checkpoint "
        "dir: supervisor, fsynced journal, cache writes, armed flight recorder. "
        "Write side of runner."
    )

    def stage(self) -> Callable[[], Any]:
        self._dir = self._fresh_dir()
        cache = DiskCache(os.path.join(self._dir, "cache"))
        return lambda: self._sweep(cache, checkpoint_dir=self._dir)

    def inspect(self, out: SweepOutcome) -> Inspection:
        seen = _inspect_sweep(out)
        seen.counters["runner.journal_bytes"], records = _journal(self._dir)
        shutil.rmtree(self._dir)
        n = len(self.grid)
        if seen.counters["runner.points_computed"] != n:
            seen.failures.append(f"expected {n} computed points")
        if not out.complete:
            seen.failures.append("sweep quarantined a point")
        if records != n:
            seen.failures.append(f"expected {n} journal records, found {records}")
        return seen


class SweepWarm(_Sweep):
    name = "sweep_warm"
    why = (
        "The same sweep served from the populated DiskCache, then resumed from the "
        "journal with no cache: read side of runner (JSON decode, checksums); the "
        "simulator does nothing."
    )

    def warm_up(self) -> str:
        self._dir = self._fresh_dir()
        self._cache_dir = os.path.join(self._dir, "cache")
        cold = self._sweep(DiskCache(self._cache_dir), checkpoint_dir=self._dir)
        self._cold = cold.points
        self._reference = _inspect_sweep(cold).digest
        super().warm_up()
        return self._reference

    def _both(self):
        cached = self._sweep(DiskCache(self._cache_dir))
        resumed = self._sweep(NullCache(), checkpoint_dir=self._dir, resume=True)
        return cached, resumed

    def stage(self) -> Callable[[], Any]:
        return self._both

    def inspect(self, out) -> Inspection:
        cached, resumed = out
        seen = _inspect_sweep(cached)
        second = _inspect_sweep(resumed)
        seen.segments += second.segments
        seen.counters["runner.resumed"] = second.counters["runner.resumed"]
        seen.counters["runner.journal_bytes"] = _journal(self._dir)[0]
        n = len(self.grid)
        if cached.cache_hits != n:
            seen.failures.append(f"expected {n} cache hits, got {cached.cache_hits}")
        if resumed.checkpoint_reused != n:
            seen.failures.append(
                f"expected {n} resumed points, got {resumed.checkpoint_reused}"
            )
        for label, outcome in (("cached", cached), ("resumed", resumed)):
            same = len(outcome.points) == n and all(
                a.identical_to(b) for a, b in zip(outcome.points, self._cold)
            )
            if not same:
                seen.failures.append(f"{label} pass differs from the cold pass")
        if second.digest != seen.digest:
            seen.failures.append("resumed digest differs from cached digest")
        return seen


WORKLOADS = {
    cls.name: cls
    for cls in (
        Table3Bulk,
        Fig2cLossy,
        PhiShortflows,
        SweepCold,
        SweepWarm,
        Table3Observed,
    )
}
