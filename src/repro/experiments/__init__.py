"""Experiment harness shared by tests, benchmarks, and examples."""

from ..phi.plane import partition_indices, schedule_unavailability
from .degraded import DEGRADED, run_degraded_phi_cubic
from .dumbbell import (
    ExperimentEnv,
    ScenarioPreset,
    ScenarioResult,
    run_preset,
)
from .faultsweep import (
    FaultScenario,
    FaultSweepOutcome,
    FaultSweepRow,
    check_envelope,
    run_fault_sweep,
)
from .partitioned import PARTITION, is_minority_cut, run_partitioned_phi_cubic
from .poisoned import POISON, run_poisoned_phi_cubic
from .scenarios import (
    ALL_PRESETS,
    FIG2A_LOW_UTILIZATION,
    FIG2B_HIGH_UTILIZATION,
    FIG2C_LONG_RUNNING,
    FIG4_INCREMENTAL,
    TABLE3_REMY,
    IncrementalResult,
    run_cubic_fixed,
    run_incremental_deployment,
    run_phi_cubic,
    run_plane,
)
from .sweep import run_table2_sweep
from .table3 import (
    Table3Result,
    Table3Row,
    make_table_evaluator,
    run_remy_scenario,
    run_table3,
    train_tables,
)

#: Every fault scenario by name; ``repro fault <name>`` is built from it,
#: one flag per axis.
FAULT_SCENARIOS = {scenario.name: scenario for scenario in (DEGRADED, POISON, PARTITION)}

__all__ = [
    "ALL_PRESETS",
    "FAULT_SCENARIOS",
    "FIG2A_LOW_UTILIZATION",
    "FIG2B_HIGH_UTILIZATION",
    "FIG2C_LONG_RUNNING",
    "FIG4_INCREMENTAL",
    "TABLE3_REMY",
    "ExperimentEnv",
    "FaultScenario",
    "FaultSweepOutcome",
    "FaultSweepRow",
    "IncrementalResult",
    "ScenarioPreset",
    "ScenarioResult",
    "Table3Result",
    "Table3Row",
    "check_envelope",
    "is_minority_cut",
    "partition_indices",
    "make_table_evaluator",
    "run_cubic_fixed",
    "run_degraded_phi_cubic",
    "run_fault_sweep",
    "schedule_unavailability",
    "run_incremental_deployment",
    "run_partitioned_phi_cubic",
    "run_phi_cubic",
    "run_plane",
    "run_poisoned_phi_cubic",
    "run_preset",
    "run_remy_scenario",
    "run_table2_sweep",
    "run_table3",
    "train_tables",
]
