"""Extension X7: the safety envelope under a *partitioned* control plane.

X4 covered an absent context server and X6 a lying one; this bench
covers a *replicated* control plane that splits.  A sweep over replica
count × partition severity on the lightly loaded Fig-2a preset, with
the cut replicas chosen lowest-index-first so a nonzero severity always
dislodges the replica every client started sticky on.  Claims:

* **minority cut, ≥ 2 replicas** — client failover masks the partition
  entirely: power *and* throughput stay within tolerance of the
  *degraded* single-server-outage baseline (PR 1's best effort), and in
  practice match the no-fault run because retries are free in sim time.
* **any cut, any replica count** — the stock-Cubic floor of X4/X6
  still holds: losing the whole plane degrades to uncoordinated, never
  below it.
* **convergence** — anti-entropy closes the divergence the partition
  opened: every healed cell ends with zero replica divergence.
"""

from bench_common import report, run_once, scaled

from repro.experiments import (
    FIG2A_LOW_UTILIZATION,
    check_envelope,
    is_minority_cut,
    run_fault_sweep,
)
from repro.experiments.partitioned import PARTITION
from repro.phi import REFERENCE_POLICY

REPLICAS = (1, 2, 3)
SEVERITIES = (0.0, 0.34, 1.0)


def _run():
    duration = scaled(30.0, 60.0)
    seeds = tuple(range(scaled(2, 4)))
    return run_fault_sweep(
        PARTITION, REFERENCE_POLICY, FIG2A_LOW_UTILIZATION,
        {
            "n_replicas": REPLICAS,
            "severity": SEVERITIES,
            "heal_s": (scaled(8.0, 15.0),),
        },
        seeds=seeds,
        fixed={"partition_start_s": 10.0},
        duration_s=duration,
        parallel=False,
        collect_telemetry=False,
    )


def test_extension_partitioned_control(benchmark, capfd):
    outcome = run_once(benchmark, _run)

    with report(capfd, "Extension X7: safety envelope under control-plane partition"):
        first = outcome.rows[0].baselines
        print(f"stock baseline:    P_l = {first['stock'].power_l:.4f}  "
              f"thr = {first['stock'].throughput_mbps:.2f} Mbps")
        print(f"degraded baseline: P_l = {first['degraded'].power_l:.4f}  "
              f"thr = {first['degraded'].throughput_mbps:.2f} Mbps")
        print()
        print(f"{'N':>3s} {'sev':>5s} {'cut':>4s} {'P_l':>9s} {'x-stock':>8s} "
              f"{'x-degr':>7s} {'thr':>8s} | {'fo':>4s} {'merge':>6s} "
              f"{'maxdiv':>7s}")
        for row in outcome.rows:
            n, acc = row.axes["n_replicas"], row.accounting
            if is_minority_cut(row):
                kind = "min"
            elif acc["n_cut"] == n:
                kind = "all"
            elif acc["n_cut"]:
                kind = "maj"
            else:
                kind = "-"
            print(f"{n:>3d} {row.axes['severity']:>5.2f} "
                  f"{acc['n_cut']:>2d}/{kind:<3s} {row.mean_power_l:>9.4f} "
                  f"{row.vs('stock').power_l:>7.2f}x "
                  f"{row.vs('degraded').power_l:>6.2f}x "
                  f"{row.mean_throughput_mbps:>8.2f} | {acc['failovers']:>4d} "
                  f"{acc['anti_entropy_merges']:>6d} {acc['max_divergence']:>7.3f}")

    # The full envelope: stock floor everywhere, degraded floor on every
    # minority cut of a multi-replica plane.
    assert check_envelope(outcome, rel_tol=0.05) == []

    minority = [r for r in outcome.rows if is_minority_cut(r)]
    assert minority, "sweep produced no minority-cut rows"
    for row in minority:
        # Failover actually fired and masked the cut.
        assert row.accounting["failovers"] > 0
        assert row.accounting["anti_entropy_merges"] > 0
        assert row.accounting["decision_counts"].get("fallback", 0) == 0
        # The partition visibly opened divergence before healing.
        assert row.accounting["max_divergence"] > 0

    # Bounded convergence: every healed multi-replica cell closed its
    # divergence by end of run (heal + anti-entropy did their job).
    healed = [
        r for r in outcome.rows
        if r.axes["n_replicas"] >= 2 and 0 < r.accounting["n_cut"]
        and r.axes["heal_s"] > 0
    ]
    for result in outcome.points:
        if result.params["n_replicas"] >= 2:
            assert result.accounting["final_divergence"] < 1e-9
    assert healed
