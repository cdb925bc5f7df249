"""Experiment harness shared by tests, benchmarks, and examples."""

from ..phi.plane import partition_indices, schedule_unavailability
from .degraded import run_degraded_phi_cubic, sweep_unavailability
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
from .partitioned import (
    is_minority_cut,
    run_partition_sweep,
    run_partitioned_phi_cubic,
)
from .poisoned import run_poison_sweep, run_poisoned_phi_cubic
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

__all__ = [
    "ALL_PRESETS",
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
    "sweep_unavailability",
    "run_incremental_deployment",
    "run_partition_sweep",
    "run_partitioned_phi_cubic",
    "run_phi_cubic",
    "run_plane",
    "run_poison_sweep",
    "run_poisoned_phi_cubic",
    "run_preset",
    "run_remy_scenario",
    "run_table2_sweep",
    "run_table3",
    "train_tables",
]
