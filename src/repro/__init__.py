"""Phi — a reproduction of "Rethinking Networking for 'Five Computers'"
(Renganathan, Padmanabhan & Uttama Nambi, HotNets-XVII, 2018).

In a world where a handful of cloud-scale entities originate most
Internet traffic, Phi has their senders share network state through a
context server and coordinate congestion control, diagnosis, and
prediction.  This package contains:

- :mod:`repro.simnet` — the discrete-event packet simulator substrate;
- :mod:`repro.transport` — TCP Cubic / NewReno / RemyCC agents;
- :mod:`repro.workload` — the paper's on/off and persistent workloads;
- :mod:`repro.metrics` — the power objectives (P, P_l, log P);
- :mod:`repro.remy` — learned congestion control (tables and trainer);
- :mod:`repro.phi` — the contribution: context server, policies, clients;
- :mod:`repro.ipfix` — the Section 2.1 sharing-opportunity pipeline;
- :mod:`repro.diagnosis` — Figure 5's unreachability detection;
- :mod:`repro.prediction` — Section 3.5 performance prediction;
- :mod:`repro.prioritization` — Section 3.3 ensemble prioritization;
- :mod:`repro.adaptation` — Section 3.2 informed adaptation;
- :mod:`repro.experiments` — the scenario harness behind every figure.

Quickstart::

    from repro.experiments import TABLE3_REMY, run_cubic_fixed, run_phi_cubic
    from repro.phi import REFERENCE_POLICY, SharingMode
    from repro.transport import CubicParams

    base = run_cubic_fixed(CubicParams.default(), TABLE3_REMY, seed=0)
    phi = run_phi_cubic(REFERENCE_POLICY, TABLE3_REMY, SharingMode.PRACTICAL)
    print(base.metrics.power_l, phi.metrics.power_l)
"""

from .experiments import (
    run_cubic_fixed,
    run_incremental_deployment,
    run_phi_cubic,
    run_preset,
    run_table3,
)
from .metrics import RunMetrics, log_power, power, power_with_loss
from .phi import (
    REFERENCE_POLICY,
    CongestionContext,
    CongestionLevel,
    ContextServer,
    IdealContextOracle,
    PolicyTable,
    SharingMode,
)
from .remy import WhiskerTable
from .remy.trainer import RemyTrainer
from .simnet import DumbbellConfig, DumbbellTopology, Simulator
from .transport import CubicParams, CubicSender, RemySender, TcpSender, TcpSink

__version__ = "1.0.0"

__all__ = [
    "REFERENCE_POLICY",
    "CongestionContext",
    "CongestionLevel",
    "ContextServer",
    "CubicParams",
    "CubicSender",
    "DumbbellConfig",
    "DumbbellTopology",
    "IdealContextOracle",
    "PolicyTable",
    "RemySender",
    "RemyTrainer",
    "RunMetrics",
    "SharingMode",
    "Simulator",
    "TcpSender",
    "TcpSink",
    "WhiskerTable",
    "log_power",
    "power",
    "power_with_loss",
    "run_cubic_fixed",
    "run_incremental_deployment",
    "run_phi_cubic",
    "run_preset",
    "run_table3",
    "__version__",
]
