"""Tests for the shared fault-sweep harness, over all three scenarios.

What X4/X6/X7 have in common — supervised bit-identical execution,
ratio semantics, floor arithmetic, the manifest shape, the serial
re-check — is asserted once here, parametrised over the declarations;
``test_{degraded,poisoned,partitioned}.py`` keep what is particular to
each experiment.
"""

from dataclasses import replace

import pytest

from repro.experiments.degraded import DEGRADED
from repro.experiments.faultsweep import (
    FaultSpec,
    FaultSweepRow,
    Level,
    check_envelope,
    run_fault_sweep,
)
from repro.experiments.partitioned import PARTITION
from repro.experiments.poisoned import POISON
from repro.experiments.scenarios import ScenarioPreset
from repro.phi.policy import REFERENCE_POLICY
from repro.phi.replication import ReadPolicy
from repro.runner.resilience import PointFailure
from repro.simnet import DumbbellConfig
from repro.telemetry.manifest import fault_sweep_manifest, validate_manifest
from repro.workload import OnOffConfig

MINI = ScenarioPreset(
    name="faultsweep-mini",
    config=DumbbellConfig(n_senders=4),
    workload=OnOffConfig(mean_on_bytes=200_000, mean_off_s=0.5),
    duration_s=8.0,
    description="small fault-sweep smoke scenario",
)

#: A two-point grid and the fixed kwargs for each scenario, sized so a
#: partition opens and heals inside MINI's eight seconds.
SWEEPS = {
    "degraded": (
        DEGRADED,
        {"unavailability": (0.0, 0.5)},
        dict(outage_period_s=2.0, staleness_ttl_s=1.0),
    ),
    "poison": (
        POISON,
        {"severity": (0.0, 1.0), "byzantine_fraction": (0.0,)},
        dict(modes=("garbage",), guarded=True, staleness_ttl_s=10.0),
    ),
    "partition": (
        PARTITION,
        {"n_replicas": (1, 3), "severity": (0.34,), "heal_s": (3.0,)},
        dict(partition_start_s=2.0, staleness_ttl_s=10.0),
    ),
}

SCENARIOS = [
    pytest.param("degraded"),
    pytest.param("poison", marks=pytest.mark.byzantine),
    pytest.param("partition", marks=pytest.mark.partition),
]


def sweep(name, *, scenario=None, **kwargs):
    declared, grid, fixed = SWEEPS[name]
    kwargs.setdefault("collect_telemetry", False)
    return run_fault_sweep(
        scenario or declared, REFERENCE_POLICY, MINI, grid,
        seeds=(0,), fixed=fixed, **kwargs,
    )


def row_for(scenario, power=1.0, tput=1.0, *, levels, **accounting):
    axes = dict.fromkeys(scenario.axes, 0.5)
    if "n_replicas" in axes:
        axes["n_replicas"] = 3
    return FaultSweepRow(
        axes=axes,
        mean_power_l=power,
        mean_throughput_mbps=tput,
        mean_delay_ms=1.0,
        accounting=accounting,
        baselines=levels,
    )


class FakeOutcome:
    def __init__(self, scenario, rows):
        self.spec = FaultSpec(scenario=scenario, preset=MINI, policy=REFERENCE_POLICY)
        self.rows = rows


@pytest.mark.parametrize("name", SCENARIOS)
class TestDeterminism:
    def test_serial_and_parallel_bit_identical(self, name):
        serial = sweep(name, parallel=False)
        parallel = sweep(name, n_workers=2)
        assert (serial.workers, parallel.workers) == (1, 2)
        assert len(serial.points) == len(parallel.points) == 2
        for mine, theirs in zip(serial.points, parallel.points):
            assert mine.identical_to(theirs)
        assert serial.rows == parallel.rows
        assert serial.baselines == parallel.baselines

    def test_identical_to_sees_accounting_but_not_wall_time(self, name):
        (first, _) = sweep(name, parallel=False).points
        assert first.identical_to(replace(first, wall_seconds=1e9, telemetry={}))
        field = next(iter(first.accounting))
        tampered = replace(first, accounting={**first.accounting, field: "x"})
        assert not first.identical_to(tampered)
        assert not first.identical_to(replace(first, events_processed=0))


class TestRatios:
    def test_vs_divides_by_the_named_baseline(self):
        row = row_for(
            PARTITION, 2.0, 1.2,
            levels={"stock": Level(1.0, 1.0), "degraded": Level(0.8, 0.6)},
        )
        assert row.vs("stock") == pytest.approx((2.0, 1.2))
        assert row.vs("degraded") == pytest.approx((2.5, 2.0))
        with pytest.raises(KeyError):
            row.vs("nonesuch")

    def test_zero_baseline(self):
        """Anything beats nothing; nothing ties nothing."""
        levels = {"baseline": Level(0.0, 0.0)}
        assert row_for(POISON, 1.0, 1.0, levels=levels).vs("baseline") == (
            float("inf"), float("inf"),
        )
        assert row_for(POISON, 0.0, 0.0, levels=levels).vs("baseline") == (1.0, 1.0)


FLOORS = [
    pytest.param(scenario, floor, id=f"{scenario.name}-{floor.baseline}")
    for scenario in (POISON, PARTITION)
    for floor in scenario.floors
]


class TestFloors:
    def _levels(self, scenario, floor, level):
        # Every other baseline sits at zero, so only ``floor`` can trip.
        levels = {b.name: Level(0.0, 0.0) for b in scenario.baselines}
        levels[floor.baseline] = level
        return levels

    @pytest.mark.parametrize("scenario, floor", FLOORS)
    def test_floor_is_one_minus_tolerance_on_both_axes(self, scenario, floor):
        levels = self._levels(scenario, floor, Level(2.0, 10.0))

        def violations(power, tput):
            row = row_for(scenario, power, tput, levels=levels, n_cut=1)
            return check_envelope(FakeOutcome(scenario, [row]), rel_tol=0.1)

        assert violations(1.8, 9.0) == []  # exactly at the floor holds
        (power,) = violations(1.79, 9.0)
        assert "power 1.7900" in power and f"< {floor.label} 1.8000" in power
        assert f"({floor.baseline} 2.0000)" in power
        (tput,) = violations(1.8, 8.9)
        assert "throughput 8.900 Mbps" in tput and f"< {floor.label} 9.000" in tput
        assert len(violations(0.0, 0.0)) == 2

    @pytest.mark.parametrize("scenario, floor", FLOORS)
    def test_violation_names_the_cell(self, scenario, floor):
        levels = self._levels(scenario, floor, Level(1.0, 1.0))
        row = row_for(scenario, 0.0, 1.0, levels=levels, n_cut=1)
        (violation,) = check_envelope(FakeOutcome(scenario, [row]))
        assert violation.startswith(scenario.cell_format.format(**row.axes) + ": ")

    def test_degraded_floor_needs_a_strict_minority_cut(self):
        """X7: the single-server-outage floor binds only rows whose cut
        left a quorum standing — which takes at least three replicas."""
        levels = {"stock": Level(0.0, 0.0), "degraded": Level(1.0, 1.0)}
        for n_replicas, n_cut, binds in (
            (3, 1, True), (5, 2, True),
            (3, 0, False), (3, 2, False), (3, 3, False), (2, 1, False), (1, 1, False),
        ):
            row = row_for(PARTITION, 0.5, 0.5, levels=levels, n_cut=n_cut)
            row.axes["n_replicas"] = n_replicas
            found = check_envelope(FakeOutcome(PARTITION, [row]))
            assert len(found) == (2 if binds else 0), (n_replicas, n_cut)

    def test_no_floors_always_holds(self):
        row = row_for(DEGRADED, 0.0, 0.0, levels={})
        assert check_envelope(FakeOutcome(DEGRADED, [row])) == []

    @pytest.mark.parametrize("rel_tol", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_tolerance_raises(self, rel_tol):
        """A NaN floor fails every comparison, so a row far below the
        baseline would pass: the envelope must not hold vacuously."""
        levels = {"baseline": Level(1.0, 1.0)}
        row = row_for(POISON, 0.1, 0.1, levels=levels)
        with pytest.raises(ValueError, match="rel_tol must be finite"):
            check_envelope(FakeOutcome(POISON, [row]), rel_tol=rel_tol)


#: Literal key sets: the manifest is an interface.  Every scenario writes
#: its axes under ``params`` and every accounting field in one
#: ``accounting`` block, and totals aggregate every accounting field.
COMMON_CONFIG = {"preset", "topology", "workload", "duration_s", "n_points"}
POINT_KEYS = {
    "key", "params", "seed", "run_index", "status", "wall_seconds",
    "events_processed", "retries", "failures", "metrics", "accounting",
}
MANIFEST_KEYS = {
    "poison": dict(
        config=COMMON_CONFIG | {"modes", "guarded"},
        params={"severity", "byzantine_fraction"},
        accounting={
            "decision_counts", "guard_rejections", "reports_rejected",
            "contexts_corrupted", "reports_poisoned", "trust_score",
            "distrust_entries",
        },
        tables={"baseline_power_by_seed", "baseline_throughput_by_seed"},
    ),
    "partition": dict(
        config=COMMON_CONFIG | {"read_policy", "partition_start_s"},
        params={"n_replicas", "severity", "heal_s"},
        accounting={
            "n_cut", "decision_counts", "failovers", "fast_failures",
            "anti_entropy_merges", "reports_replicated", "quorum_rejections",
            "final_divergence", "max_divergence", "pending_reports",
        },
        tables={"stock_power_by_seed", "degraded_power_by_heal_seed"},
    ),
}


def public_sweep(name):
    """The one-point sweep ``repro fault poison`` / ``repro fault
    partition`` would run."""
    common = dict(seeds=(0,), parallel=False, collect_telemetry=False)
    if name == "poison":
        return run_fault_sweep(
            POISON, REFERENCE_POLICY, MINI,
            {"severity": (1.0,), "byzantine_fraction": (0.0,)},
            fixed=dict(modes=("garbage",), guarded=True), **common,
        )
    return run_fault_sweep(
        PARTITION, REFERENCE_POLICY, MINI,
        {"n_replicas": (3,), "severity": (0.34,), "heal_s": (3.0,)},
        fixed=dict(read_policy=ReadPolicy.ANY, partition_start_s=2.0), **common,
    )


@pytest.mark.parametrize("name", SCENARIOS[1:])
class TestManifest:
    def test_key_parity(self, name):
        want = MANIFEST_KEYS[name]
        manifest = fault_sweep_manifest(public_sweep(name))
        assert validate_manifest(manifest) == []
        assert manifest["command"] == name
        assert set(manifest["config"]) == want["config"]
        assert set(manifest["totals"]) == {
            "points", "total_events", *want["accounting"], *want["tables"]
        }
        assert manifest["seeds"] == {"seeds": [0]}
        for point in manifest["points"]:
            assert set(point) == POINT_KEYS
            assert set(point["params"]) == want["params"]
            assert set(point["accounting"]) == want["accounting"]
            assert set(point["metrics"]) == {
                "throughput_mbps", "queueing_delay_ms", "loss_rate",
                "mean_utilization", "power_l",
            }

    def test_baseline_tables_keyed_by_where_and_seed(self, name):
        outcome = public_sweep(name)
        totals = fault_sweep_manifest(outcome)["totals"]
        if name == "poison":
            (metrics,) = outcome.baselines["baseline"].values()
            assert totals["baseline_power_by_seed"] == {"0": metrics.power_l}
            assert totals["baseline_throughput_by_seed"] == {
                "0": metrics.throughput_mbps
            }
        else:
            assert set(totals["stock_power_by_seed"]) == {"0"}
            assert totals["degraded_power_by_heal_seed"] == {
                "3/0": outcome.baselines["degraded"][(3.0, 0)].power_l
            }


def flaky(scenario, times, **at):
    """``scenario`` whose run crashes the first ``times`` times it is
    asked for the point with the axis values ``at``."""
    left = [times]

    def run(*args, **kwargs):
        if left[0] and all(kwargs[axis] == value for axis, value in at.items()):
            left[0] -= 1
            raise RuntimeError("injected crash")
        return scenario.run(*args, **kwargs)

    return replace(scenario, run=run)


class TestPointKeys:
    @pytest.mark.parametrize(
        "grid, seeds",
        [
            ({"unavailability": (0.5, 0.5)}, (0,)),
            ({"unavailability": (0.5,)}, (0, 0)),
        ],
    )
    def test_repeated_point_raises(self, grid, seeds):
        """Two points with one key would share a row and a serial-check
        slot; the sweep refuses them before running anything."""
        with pytest.raises(ValueError, match="points must be unique"):
            run_fault_sweep(DEGRADED, REFERENCE_POLICY, MINI, grid, seeds=seeds)


class TestQuarantine:
    def test_serial_check_compares_by_point_not_position(self):
        """Point 0 crashes through all three attempts of the first pass:
        the re-check must compare point 1 with point 1, and must not
        re-run the quarantined point at all."""
        outcome = sweep(
            "degraded", scenario=flaky(DEGRADED, 3, unavailability=0.0), parallel=False
        )
        assert [q.index for q in outcome.quarantined] == [0]
        assert [result.params for result in outcome.points] == [{"unavailability": 0.5}]
        assert len(outcome.rows) == 1
        assert outcome.serial_check()[0] == []

    def test_serial_check_counts_a_real_difference(self):
        outcome = sweep("degraded", parallel=False)
        outcome.points[1] = replace(outcome.points[1], events_processed=0)
        assert outcome.serial_check()[0] == [
            f"point {outcome.points[1].key[:12]} differs"
        ]

    def test_retried_point_still_lands_at_its_own_index(self):
        outcome = sweep(
            "degraded", scenario=flaky(DEGRADED, 1, unavailability=0.0), parallel=False
        )
        assert not outcome.quarantined
        assert list(outcome.failure_history.values()) == [
            (PointFailure("exception", "injected crash", 1),)
        ]
        clean = sweep("degraded", parallel=False)
        assert len(clean.points) == len(outcome.points) == 2
        for mine, theirs in zip(clean.points, outcome.points):
            assert mine.identical_to(theirs)

    def test_manifest_records_retries_and_quarantined_points(self):
        """The supervisor's retry and quarantine history reaches the
        manifest: each entry's ``retries`` is its own failure count, every
        quarantined point is listed, and ``n_points`` counts both kinds."""
        crash = {"kind": "exception", "message": "injected crash"}
        retried = fault_sweep_manifest(sweep(
            "degraded", scenario=flaky(DEGRADED, 1, unavailability=0.0), parallel=False
        ))
        assert validate_manifest(retried) == []
        history = {
            entry["params"]["unavailability"]: entry["failures"]
            for entry in retried["points"]
        }
        assert history == {0.0: [{**crash, "attempt": 1}], 0.5: []}
        for entry in retried["points"]:
            assert entry["retries"] == len(entry["failures"])
        assert retried["quarantined"] == []
        assert retried["config"]["n_points"] == 2

        holed = fault_sweep_manifest(sweep(
            "degraded", scenario=flaky(DEGRADED, 3, unavailability=0.0), parallel=False
        ))
        assert validate_manifest(holed) == []
        assert [entry["params"] for entry in holed["points"]] == [
            {"unavailability": 0.5}
        ]
        (quarantined,) = holed["quarantined"]
        assert quarantined["index"] == 0 and quarantined["attempts"] == 3
        assert quarantined["params"] == {"unavailability": 0.0}
        assert quarantined["failures"] == [
            {**crash, "attempt": attempt} for attempt in (1, 2, 3)
        ]
        assert holed["config"]["n_points"] == 2
