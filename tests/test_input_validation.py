"""Inputs a model cannot use are refused when they are configured.

One property over every config dataclass in ``repro`` that has a numeric
field, and over a listed set of model constructors: each numeric input
fed {nan, +inf, -inf, 0, -1} (and 2.5 where it is an integer), one at a
time, either raises ``ValueError`` at construction or is admitted by
:func:`repro.simnet.bounds.check` under the input's own name.  A NaN is
never admitted and an infinity only where the check opts in, so no
``x <= 0``-style check can wave one through.  A new dataclass with a
numeric field fails :func:`test_every_numeric_dataclass_is_covered`
until it is listed here as a config or a record.
"""

import ast
import dataclasses
import importlib
import math
import pathlib
import pkgutil
import re
import sys
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

import repro
from repro.adaptation.jitterbuffer import JitterObservatory
from repro.diagnosis.timeseries import SeasonalBaseline
from repro.experiments import DEGRADED, TABLE3_REMY, run_preset
from repro.flightrec.postmortem import analyze
from repro.flightrec.recorder import FlightRecorder
from repro.phi import REFERENCE_POLICY
from repro.phi.corruption import ByzantineReporter, ContextCorruptor
from repro.phi.deployment import deployment_factories
from repro.phi.fallback import ResilientContextClient
from repro.phi.guard import ContextGuard
from repro.phi.plane import partition_indices, schedule_unavailability
from repro.phi.replication import ReplicatedContextService
from repro.phi.server import ContextServer
from repro.prediction.predictor import e_model_mos
from repro.prioritization import WeightedRenoSender
from repro.remy.trainer import RemyTrainer
from repro.simcheck.fuzz import draw_scenarios
from repro.simnet import DumbbellConfig, DumbbellTopology, FlowSpec, Link, Simulator
from repro.simnet import bounds
from repro.simnet.faults import Outage
from repro.simnet.monitor import LinkMonitor
from repro.simnet.random import RngStreams
from repro.simnet.topology import ParkingLotTopology
from repro.transport import CubicParams
from repro.transport.base import TcpSender
from repro.workload import OnOffConfig

CASES = (math.nan, math.inf, -math.inf, 0, -1)
INTEGER_CASES = CASES + (2.5,)

#: Config dataclasses -> the valid arguments they cannot default.
CONFIGS = {
    "repro.diagnosis.events.OutageSpec": dict(start_bin=0, duration_bins=1, severity=0.5),
    "repro.experiments.dumbbell.ScenarioPreset": dict(
        name="p", config=DumbbellConfig(), workload=None, duration_s=1.0, description=""
    ),
    "repro.experiments.faultsweep.FaultSpec": dict(
        scenario=DEGRADED, preset=TABLE3_REMY, policy=REFERENCE_POLICY
    ),
    "repro.phi.context.CongestionContext": dict(
        utilization=0.5, queue_delay_s=0.0, competing_senders=1.0
    ),
    "repro.phi.failover.FailoverConfig": {},
    "repro.phi.plane.PlaneSpec": dict(policy=REFERENCE_POLICY),
    "repro.phi.replication.ReplicationConfig": {},
    "repro.prioritization.ensemble.FlowClass": dict(name="x", importance=1.0),
    "repro.remy.whisker.Action": {},
    "repro.runner.core.SweepSpec": dict(preset=TABLE3_REMY),
    "repro.runner.faultinject.FaultSpec": dict(mode="raise"),
    "repro.runner.resilience.ResilienceConfig": {},
    "repro.simcheck.fuzz.FuzzScenario": dict(
        seed=0, config=DumbbellConfig(), workload=OnOffConfig(), duration_s=1.0,
        flavour="cubic", params=CubicParams(),
    ),
    "repro.simnet.engine.WatchdogConfig": {},
    "repro.simnet.topology.DumbbellConfig": {},
    "repro.transport.cubic.CubicParams": {},
    "repro.workload.onoff.OnOffConfig": {},
    "repro.workload.poisson.PoissonConfig": dict(
        arrival_rate_per_s=1.0, mean_flow_bytes=1000.0
    ),
}

#: Measurement and result records, and a model's running state: the
#: program fills these in, nobody configures them.  The corruption
#: harness puts NaN and inf into reports on purpose, and
#: ``report_invalid_reason`` is what rejects those.
RECORDS = {
    "repro.adaptation.dupack.DupAckRecommendation",
    "repro.adaptation.jitterbuffer.JitterBufferRecommendation",
    "repro.diagnosis.detector.DetectedDip",
    "repro.diagnosis.localize.LocalizedEvent",
    "repro.diagnosis.timeseries.BaselinePoint",
    "repro.experiments.dumbbell.ScenarioResult",
    "repro.experiments.faultsweep.FaultPoint",
    "repro.experiments.faultsweep.FaultPointResult",
    "repro.experiments.faultsweep.FaultSweepOutcome",
    "repro.experiments.faultsweep.FaultSweepRow",
    "repro.experiments.scenarios.IncrementalResult",
    "repro.experiments.table3.Table3Row",
    "repro.ipfix.analysis.SharingStats",
    "repro.ipfix.records.EgressFlow",
    "repro.ipfix.records.SampledHeader",
    "repro.metrics.summary.CrossRunSummary",
    "repro.metrics.summary.RunMetrics",
    "repro.phi.aggregation.Aggregator",
    "repro.phi.deployment.SenderAssignment",
    "repro.phi.failover.FailoverStats",
    "repro.phi.failover.ReplicaHealth",
    "repro.phi.fallback.ResolvedContext",
    "repro.phi.optimizer.LeaveOneOutRecord",
    "repro.phi.plane.PlaneRunResult",
    "repro.phi.server.ConnectionReport",
    "repro.prediction.history.PerfObservation",
    "repro.prediction.predictor.CallQualityPrediction",
    "repro.prediction.predictor.DownloadPrediction",
    "repro.prioritization.controller.PrioritizedFlow",
    "repro.prioritization.ensemble.WeightAssignment",
    "repro.remy.memory.Memory",
    "repro.remy.trainer.TrainingHistoryEntry",
    "repro.remy.trainer.TrainingResult",
    "repro.remy.whisker.Whisker",
    "repro.runner.core.SweepOutcome",
    "repro.runner.core.SweepPoint",
    "repro.runner.progress.SweepProgress",
    "repro.runner.records.PointResult",
    "repro.runner.resilience.ExecutionReport",
    "repro.runner.resilience.PointFailure",
    "repro.runner.resilience.QuarantinedPoint",
    "repro.simcheck.violations.ViolationReport",
    "repro.simnet.monitor.LinkSample",
    "repro.simnet.packet.FlowSpec",
    "repro.transport.base.ConnectionStats",
}

_NUMERIC = re.compile(r"(?:Optional\[)?(int|float)(?:\]| \| None)?")


def numeric_fields(cls):
    """``{field: is_integer}`` for the int and float fields of ``cls``."""
    found = {}
    for f in dataclasses.fields(cls):
        text = f.type if isinstance(f.type, str) else getattr(f.type, "__name__", "")
        match = _NUMERIC.fullmatch(text.replace("typing.", ""))
        if match:
            found[f.name] = match.group(1) == "int"
    return found


def numeric_dataclasses():
    """Every dataclass defined in ``repro`` with a numeric field, by name."""
    found = {}
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        for obj in vars(importlib.import_module(module.name)).values():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.name and numeric_fields(obj)):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def _sender(cls=TcpSender, flow_size_bytes=1000, **kwargs):
    sim = Simulator()
    top = DumbbellTopology(sim, DumbbellConfig(n_senders=1))
    spec = FlowSpec(1, top.senders[0].name, 1, top.receivers[0].name, 443)
    return cls(sim, top.senders[0], spec, flow_size_bytes, **kwargs)


class _Target:
    """A control-plane target that counts how often it was taken down."""

    def __init__(self):
        self.down = 0

    def mark_down(self):
        self.down += 1

    def mark_up(self):
        self.down -= 1


def _link(sim):
    return Link(sim, "l", 1e6, 0.01)


def _outage(start_s=0.0, duration_s=1.0):
    return Outage(Simulator(), start_s, duration_s, targets=[_Target()])


def _unavailability(fraction=0.0, period_s=5.0):
    channel = SimpleNamespace(sim=Simulator())
    schedule_unavailability(channel, fraction=fraction, duration_s=10.0, period_s=period_s)


#: Model constructors (and the model functions that own a run's inputs)
#: -> (a builder taking the inputs by keyword, {input: is_integer}).
CONSTRUCTORS = {
    "TcpSender": (_sender, dict(flow_size_bytes=False, window_init=False,
                                initial_ssthresh=False)),
    "weighted_reno": (lambda **kw: _sender(WeightedRenoSender, **kw), dict(weight=False)),
    "ContextServer": (
        lambda bottleneck_capacity_bps=1e6, **kw: ContextServer(
            Simulator(), bottleneck_capacity_bps, **kw),
        dict(bottleneck_capacity_bps=False, window_s=False, lease_ttl_s=False),
    ),
    "ReplicatedContextService": (
        lambda bottleneck_capacity_bps=1e6, **kw: ReplicatedContextService(
            Simulator(), bottleneck_capacity_bps, **kw),
        dict(bottleneck_capacity_bps=False, window_s=False, lease_ttl_s=False),
    ),
    "guard": (lambda capacity_mbps=10.0: ContextGuard(capacity_mbps), dict(capacity_mbps=False)),
    "Outage": (_outage, dict(start_s=False, duration_s=False)),
    "LinkMonitor": (
        lambda period_s=0.1: LinkMonitor(Simulator(), _link(Simulator()), period_s),
        dict(period_s=False),
    ),
    "RngStreams": (lambda seed=0: RngStreams(seed), dict(seed=True)),
    "run_preset": (
        lambda duration_s: run_preset(lambda env: None, TABLE3_REMY, duration_s=duration_s),
        dict(duration_s=False),
    ),
    "analyze_dump": (
        lambda stall_threshold_s=1.0: analyze({}, [], stall_threshold_s=stall_threshold_s),
        dict(stall_threshold_s=False),
    ),
    "schedule_unavailability": (_unavailability, dict(fraction=False, period_s=False)),
    "ContextCorruptor": (
        lambda severity=0.5: ContextCorruptor(None, severity), dict(severity=False),
    ),
    "ByzantineReporter": (
        lambda fraction=0.5: ByzantineReporter(None, fraction), dict(fraction=False),
    ),
    "ResilientContextClient": (
        lambda staleness_ttl_s=10.0: ResilientContextClient(
            None, now=lambda: 0.0, staleness_ttl_s=staleness_ttl_s),
        dict(staleness_ttl_s=False),
    ),
    "deployment_factories": (
        lambda n_senders=4, modified_fraction=0.5: deployment_factories(
            n_senders, modified_fraction, None, None),
        dict(n_senders=True, modified_fraction=False),
    ),
    "partition_indices": (
        lambda n_replicas=3, severity=0.5: partition_indices(n_replicas, severity),
        dict(n_replicas=True, severity=False),
    ),
    "FlightRecorder": (
        lambda capacity=64: FlightRecorder(phi_capacity=capacity), dict(capacity=True),
    ),
    "SeasonalBaseline": (
        lambda period_bins=288: SeasonalBaseline(period_bins), dict(period_bins=True),
    ),
    "ParkingLotTopology": (
        lambda n_hops=2, hop_bandwidth_bps=1e7: ParkingLotTopology(
            Simulator(), n_hops, hop_bandwidth_bps),
        dict(n_hops=True, hop_bandwidth_bps=False),
    ),
    "record_jitter": (
        lambda jitter_s=0.01: JitterObservatory().record_jitter(("isp", "metro"), jitter_s),
        dict(jitter_s=False),
    ),
    "e_model_mos": (
        lambda rtt_ms=50.0, loss_rate=0.0: e_model_mos(rtt_ms, loss_rate),
        dict(rtt_ms=False, loss_rate=False),
    ),
    "RemyTrainer": (
        lambda max_evaluations=60: RemyTrainer(None, max_evaluations=max_evaluations),
        dict(max_evaluations=True),
    ),
    "draw_scenarios": (
        lambda n_cases=0: draw_scenarios(0, n_cases), dict(n_cases=True),
    ),
}


#: Test ids kept from the hand-written list this property replaced.
_IDS = {"OnOffConfig": "onoff", "FlowClass": "flow_class",
        "ResilienceConfig": "resilience", 0: "zero", -1: "negative"}


def _cases():
    dataclass_builders = {
        name: (
            lambda cls=cls, base=CONFIGS[name], **kw: cls(**{**base, **kw}),
            numeric_fields(cls),
        )
        for name, cls in numeric_dataclasses().items() if name in CONFIGS
    }
    for owner, (build, inputs) in {**dataclass_builders, **CONSTRUCTORS}.items():
        for name, integer in inputs.items():
            for value in INTEGER_CASES if integer else CASES:
                parts = (owner.rsplit(".", 1)[-1], name, value)
                label = "-".join(str(_IDS.get(part, part)) for part in parts)
                yield pytest.param(build, name, value, id=label)


@contextmanager
def admitted():
    """``(name, value)`` of every :func:`bounds.check` that let its value
    through while the block ran."""
    seen = []
    code = bounds.check.__code__

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is code and arg is not None:
            seen.append((frame.f_locals["name"], arg))

    sys.setprofile(profile)
    try:
        yield seen
    finally:
        sys.setprofile(None)


@pytest.mark.parametrize("build, name, value", _cases())
def test_unusable_input_is_rejected(build, name, value):
    with admitted() as seen:
        try:
            build(**{name: value})
        except ValueError:
            return
    assert any(seen_name == name and seen_value == value for seen_name, seen_value in seen), (
        f"{name}={value} was accepted without a check that states its bound"
    )


def test_every_numeric_dataclass_is_covered():
    found = set(numeric_dataclasses())
    assert found - set(CONFIGS) - RECORDS == set(), "list it as a config or a record"
    assert (set(CONFIGS) | RECORDS) - found == set(), "stale entries"


def test_defaults_and_listed_arguments_construct():
    # Otherwise every case above would pass by raising for another input.
    for name, cls in numeric_dataclasses().items():
        if name in CONFIGS:
            cls(**CONFIGS[name])
    for name, (build, _) in CONSTRUCTORS.items():
        if name != "run_preset":  # would run a simulation
            build()


@pytest.mark.parametrize("start_s, duration_s", [(0.0, math.nan), (math.nan, 1.0)])
def test_outage_validates_its_window_before_touching_a_target(start_s, duration_s):
    target = _Target()
    with pytest.raises(ValueError):
        Outage(Simulator(), start_s, duration_s, targets=[target])
    assert target.down == 0


#: Construction checks that stay inline: the link and queue code, whose
#: bounds are written next to the per-packet path they guard.
_INLINE = {"simnet/link.py", "simnet/queues.py", "simnet/red.py"}


def _bound_checks(path):
    """``if`` tests in constructors that compare an input with a number
    and raise ``ValueError``: the idiom :func:`bounds.check` replaces."""
    for fn in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(fn, ast.FunctionDef) and fn.name in ("__init__", "__post_init__")):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.If) or not any(
                isinstance(n, ast.Raise) and "ValueError" in ast.unparse(n)
                for stmt in node.body for n in ast.walk(stmt)
            ):
                continue
            test = ast.unparse(node.test)
            numeric = any(
                isinstance(n, ast.Compare) and not isinstance(n.left, ast.Call)
                and any(isinstance(c, ast.Constant) and isinstance(c.value, (int, float))
                        for c in [n.left, *n.comparators])
                for n in ast.walk(node.test)
            )
            if numeric or re.search(r"\b(isfinite|isnan|inf)\b|isinstance\(", test):
                yield f"{path.name}:{node.lineno}: {test}"


def test_constructors_state_bounds_only_through_the_helper():
    root = pathlib.Path(repro.__file__).parent
    found = [
        check for path in sorted(root.rglob("*.py"))
        if path.relative_to(root).as_posix() not in _INLINE
        for check in _bound_checks(path)
    ]
    assert found == []
