"""Structure checks for the benchmark (not tier-1; run explicitly).

    PYTHONPATH=src python -m pytest perf/test_perf.py -q

A structure-only pass over shortened inputs: that every workload emits
every declared metric, that ``BENCHMARK.json`` and the code name the
same things, that a broken check or a moved digest is counted as a
failed operation, and that everything claimed to be a function of the
seed repeats exactly.  No timing is asserted here.
"""

from __future__ import annotations

import json
import os
import re

import pytest

import layers
import probes
import run
import worker
import workloads
from agree import compare_passes, exact_mismatches

SPEC = run.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 3


# ----------------------------------------------------------------------
# BENCHMARK.json against the driver's contract and against the code
# ----------------------------------------------------------------------
def test_benchmark_json_has_the_contract_shape():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["perf"]
    assert SPEC["command"] == ["python3", "perf/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    assert os.path.getsize(path) <= 64 * 1024


def test_benchmark_json_names_what_the_code_measures():
    declared = {w["name"]: w["why"] for w in SPEC["workloads"]}
    assert declared == {name: cls.why for name, cls in workloads.WORKLOADS.items()}
    expected = [f"{layer}.{kind}" for layer in layers.LAYERS for kind in ("self_s", "calls")]
    expected += list(workloads.COUNTERS) + ["observe.overhead_ratio"]
    expected += list(probes.PROBES)
    expected += ["trace.overhead_ratio", "trace.total_s", "trace.unattributed_share"]
    assert [m["name"] for m in SPEC["per_layer"]] == expected


# ----------------------------------------------------------------------
# Every workload emits every metric (shortened inputs)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_twice():
    return {
        name: [run.measure(name, SEED, 0.2, trace=1, short=True) for _ in range(2)]
        for name in workloads.WORKLOADS
    }


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    summary = run.measure(name, SEED, 0.2, trace=0, short=True)
    line = json.loads(run.result_line(SPEC, summary, trace=0))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for declared in SPEC["end_to_end"]:
        entry = line["metrics"][declared["name"]]
        assert entry["unit"] == declared["unit"]
        assert entry["value"] > 0
    assert line["attempted"] >= run.PROCESSES * run.MIN_REPS_PER_PROCESS
    assert summary["info"]["python_hash_seed"] == "0"
    assert summary["info"]["machine"]["usable_cpus"] >= 1
    assert not [e for e in os.listdir(run.OUT_DIR) if e.startswith("tmp-")]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name, traced_twice):
    summary = traced_twice[name][0]
    line = json.loads(run.result_line(SPEC, summary, trace=1))
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    metrics = summary["metrics"]
    total = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert total == pytest.approx(metrics["trace.total_s"], rel=0.02)
    assert 0 <= metrics["trace.unattributed_share"] < 0.05
    assert metrics["trace.overhead_ratio"] > 1


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_determined_values_repeat_exactly(name, traced_twice):
    first, second = traced_twice[name]
    assert len(first["info"]["exact"]) == len(layers.LAYERS) + len(workloads.EXACT_COUNTERS)
    assert exact_mismatches(first, second) == []


def test_workloads_separate_the_layers(traced_twice):
    def share(name, *prefixes):
        shares = traced_twice[name][0]["info"]["layer_shares"]
        return sum(v for layer, v in shares.items() if layer.startswith(prefixes))

    assert share("phi_shortflows", "phi.") > share("table3_bulk", "phi.")
    assert share("table3_bulk", "phi.") <= 0.02
    assert share("sweep_warm", "runner") >= 0.9
    assert share("table3_observed", "observe") > 5 * share("table3_bulk", "observe")
    assert traced_twice["table3_bulk"][0]["metrics"]["transport.retransmit_share"] == 0
    assert traced_twice["fig2c_lossy"][0]["metrics"]["transport.retransmit_share"] > 0
    assert traced_twice["table3_observed"][0]["metrics"]["observe.overhead_ratio"] > 1


# ----------------------------------------------------------------------
# Failures are counted, not hidden
# ----------------------------------------------------------------------
def _report(digest="d0", failures=()):
    rep = {"wall_s": 1.0, "cpu_s": 0.9, "segments": 100.0, "digest": digest,
           "failures": list(failures)}
    return {"sim_digest": digest, "setup_s": 1.0, "peak_rss_mb": 40.0,
            "reps": [dict(rep), dict(rep)]}


def test_clean_reports_summarize_as_correct():
    summary = run.summarize([_report(), _report(), _report()])
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] == 6
    assert summary["metrics"]["wall_us_per_segment"] == pytest.approx(1e4)


def test_broken_workload_check_raises_failed_share():
    broken = _report()
    broken["reps"][0]["failures"] = ["table3_bulk must not drop"]
    summary = run.summarize([_report(), broken, _report()])
    assert not summary["correct"]
    assert summary["failed"] == 1
    assert summary["info"]["failed_share"] == pytest.approx(1 / 6)


def test_digest_disagreement_between_processes_is_a_failure():
    summary = run.summarize([_report("d0"), _report("d1"), _report("d0")])
    assert not summary["correct"]
    assert summary["failed"] >= 1


class _Drifting(workloads.Workload):
    """Returns a new digest on every repetition."""

    def __init__(self):
        super().__init__(seed=0, tmp_dir="", short=True)
        self.calls = 0

    def stage(self):
        return lambda: None

    def inspect(self, out):
        self.calls += 1
        return workloads.Inspection(digest=f"d{self.calls}", segments=1.0)


class _Raising(_Drifting):
    def stage(self):
        raise RuntimeError("boom")


def test_worker_flags_a_moved_digest_and_a_raise():
    drifting = _Drifting()
    reference = drifting.warm_up()
    rep = worker._repetition(drifting, reference)
    assert any("sim_digest" in failure for failure in rep["failures"])
    rep = worker._repetition(_Raising(), reference)
    assert "wall_s" not in rep and "boom" in rep["failures"][0]


def test_agreement_rows_compare_against_the_bound():
    a = {"w": {"metrics": {m["name"]: 100.0 for m in SPEC["end_to_end"]}}}
    b = {"w": {"metrics": {m["name"]: 100.0 for m in SPEC["end_to_end"]}}}
    b["w"]["metrics"]["peak_rss_mb"] = 200.0
    rows = {row["metric"]: row for row in compare_passes(SPEC, a, b)}
    assert not rows["peak_rss_mb"]["ok"]
    assert rows["setup_s"]["ok"] and rows["setup_s"]["difference"] == 0


# ----------------------------------------------------------------------
# Layer map and attribution
# ----------------------------------------------------------------------
def test_every_source_file_has_exactly_one_layer():
    counts = layers.check_complete(run.PACKAGE_DIR)
    assert sum(counts.values()) == len(layers.source_files(run.PACKAGE_DIR))
    assert set(counts) <= set(layers.LAYERS) - {"other"}
    assert layers.layer_of("simnet/newfile.py") == "simnet.other"
    assert layers.layer_of("phi/newfile.py") == "phi.client"


def test_unmapped_package_fails_the_run(tmp_path):
    (tmp_path / "simnet").mkdir()
    (tmp_path / "simnet" / "engine.py").write_text("")
    (tmp_path / "brandnew").mkdir()
    (tmp_path / "brandnew" / "thing.py").write_text("")
    with pytest.raises(layers.LayerMapError, match="brandnew/thing.py"):
        layers.check_complete(str(tmp_path))


def test_outside_time_is_charged_to_the_nearest_package_caller(tmp_path):
    package = str(tmp_path)
    cache = (os.path.join(package, "runner", "cache.py"), 10, "get")
    link = (os.path.join(package, "simnet", "link.py"), 20, "send")
    loads = ("/usr/lib/python3/json/__init__.py", 1, "loads")
    decode = ("/usr/lib/python3/json/decoder.py", 2, "decode")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    harness = ("/somewhere/perf/worker.py", 5, "_traced")
    # (cc, nc, tt, ct, callers{caller: (nc, cc, tt, ct)})
    stats = {
        harness: (1, 1, 0.5, 10.0, {}),
        cache: (4, 4, 1.0, 6.0, {harness: (4, 4, 1.0, 6.0)}),
        loads: (4, 4, 1.0, 5.0, {cache: (4, 4, 1.0, 5.0)}),
        decode: (4, 4, 4.0, 4.0, {loads: (4, 4, 4.0, 4.0)}),
        link: (9, 9, 2.0, 3.5, {harness: (9, 9, 2.0, 3.5)}),
        heappush: (12, 12, 2.0, 2.0, {
            link: (9, 9, 1.5, 1.5), cache: (3, 3, 0.5, 0.5),
        }),
    }
    totals = layers.attribute(stats, package)
    assert totals["runner"]["self_s"] == pytest.approx(1.0 + 1.0 + 4.0 + 0.5)
    assert totals["runner"]["calls"] == 4
    assert totals["simnet.link"]["self_s"] == pytest.approx(2.0 + 1.5)
    assert totals["simnet.link"]["calls"] == 9
    assert totals["other"]["self_s"] == pytest.approx(0.5)
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(10.5)


# ----------------------------------------------------------------------
# Environment guard
# ----------------------------------------------------------------------
def test_guard_names_the_runner_fault_variable():
    from repro.runner.faultinject import ENV_VAR

    assert ENV_VAR in run.FORBIDDEN_ENV


@pytest.mark.parametrize("variable", run.FORBIDDEN_ENV)
def test_guard_refuses_ambient_switches(monkeypatch, variable):
    for name in run.FORBIDDEN_ENV:
        monkeypatch.delenv(name, raising=False)
    run.check_environment()
    monkeypatch.setenv(variable, "1")
    with pytest.raises(run.BenchmarkError, match=variable):
        run.check_environment()
    assert run.main(["--workload", "table3_bulk", "--short"]) == 2
