"""Extension X6: the safety envelope under a *lying* control plane.

The degraded-control bench (X4) covered an *absent* context server;
this one covers a *Byzantine* server whose answers are corrupted —
self-consistent inflation lies ("the network is jammed") that steer
every coordinated sender onto SEVERE parameters.  Two sweeps over
corruption severity on the lightly loaded Fig-2a preset:

* **guarded** — robust server aggregation + :class:`ContextGuard` +
  outcome-driven :class:`TrustTracker` distrust.  Claim: power *and*
  throughput never fall materially below the uncoordinated Cubic
  baseline at any severity (the X4-shaped safety envelope), because
  caught lies land senders on stock defaults.
* **unguarded** — the same lies trusted blindly.  Claim: throughput
  collapses well below baseline at high severity, proving the harness
  injects real harm and the defences are load-bearing.

A calibration note: stock Cubic's ssthresh floods the queue, so *power*
(throughput over queueing delay) cannot show inflation harm — crawling
senders have tiny queues and great power.  The harm axis is
throughput; the envelope is asserted on both axes (see
``check_envelope``).
"""

from bench_common import report, run_once, scaled

from repro.experiments import FIG2A_LOW_UTILIZATION, check_envelope, run_fault_sweep
from repro.experiments.poisoned import POISON
from repro.phi import REFERENCE_POLICY

SEVERITIES = (0.0, 0.25, 0.5, 0.75, 1.0)
MODES = ("inflate",)


def _run_all():
    duration = scaled(30.0, 60.0)
    seeds = tuple(range(scaled(2, 4)))
    grid = {"severity": SEVERITIES, "byzantine_fraction": (0.0,)}

    def sweep(guarded):
        return run_fault_sweep(
            POISON, REFERENCE_POLICY, FIG2A_LOW_UTILIZATION, grid,
            seeds=seeds, duration_s=duration,
            fixed=dict(modes=MODES, guarded=guarded),
            parallel=False, collect_telemetry=False,
        )

    return sweep(guarded=True), sweep(guarded=False)


def _print_rows(rows):
    print(f"{'sev':>5s} {'P_l':>9s} {'vs base':>8s} {'thr(Mbps)':>10s} "
          f"{'vs base':>8s} | {'reject':>6s} {'distr':>6s} {'trust':>6s}")
    for row in rows:
        acc, vs = row.accounting, row.vs("baseline")
        print(f"{row.axes['severity']:>5.2f} {row.mean_power_l:>9.4f} "
              f"{vs.power_l:>7.2f}x "
              f"{row.mean_throughput_mbps:>10.2f} "
              f"{vs.throughput_mbps:>7.2f}x | "
              f"{sum(acc['guard_rejections'].values()):>6d} "
              f"{acc['decision_counts'].get('distrusted', 0):>6d} "
              f"{acc['trust_score']:>6.2f}")


def test_extension_poisoned_context(benchmark, capfd):
    guarded, unguarded = run_once(benchmark, _run_all)

    with report(capfd, "Extension X6: safety envelope under Byzantine context"):
        base = guarded.rows[0].baselines["baseline"]
        print(f"uncoordinated baseline: P_l = {base.power_l:.4f}  "
              f"thr = {base.throughput_mbps:.2f} Mbps")
        print()
        print("guarded (robust aggregation + guard + trust):")
        _print_rows(guarded.rows)
        print()
        print("unguarded (lies trusted blindly):")
        _print_rows(unguarded.rows)

    # The safety envelope: at every severity the guarded stack stays
    # within 5% of the uncoordinated baseline on power and throughput.
    assert check_envelope(guarded, rel_tol=0.05) == []
    # At full severity the trust layer has tripped: senders run stock
    # defaults through the DISTRUSTED decision.
    top = guarded.rows[-1]
    assert top.axes["severity"] == 1.0
    assert top.accounting["decision_counts"].get("distrusted", 0) > 0
    assert top.accounting["trust_score"] < 0.7

    # The ablation proves the harness injects real harm: without the
    # defences the same lies drive throughput well below baseline.
    assert check_envelope(unguarded, rel_tol=0.05)
    worst = unguarded.rows[-1]
    assert worst.vs("baseline").throughput_mbps < 0.8
    # And nothing in the unguarded stack ever fought back.
    assert all(not row.accounting["guard_rejections"] for row in unguarded.rows)
    assert all(
        row.accounting["decision_counts"].get("distrusted", 0) == 0
        for row in unguarded.rows
    )
