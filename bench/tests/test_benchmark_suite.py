"""Self-tests of the benchmark at ``--smoke`` sizes.

Run with ``PYTHONPATH=src python -m pytest bench/tests -q`` from the
repository root (under a minute).  Smoke numbers are never compared; these
tests check the machinery: schema, span accounting, wrapper restoration,
exact counts, failure detection, and the ``BENCHMARK.json`` check.
"""

import json
import math
import subprocess
import sys

import pytest

import repro.rhea.convection
import repro.solvers
from bench import check, runner
from bench.layers import ENTRY_POINTS, PER_LAYER
from bench.trace import Tracer
from bench.workloads import WORKLOADS, Run

NAMES = [w.name for w in WORKLOADS]


@pytest.fixture(scope="module")
def traced_docs():
    """One traced smoke run of every workload (shared: they take seconds)."""
    return {name: runner.run_one(name, 0, 10, traced=True, smoke=True) for name in NAMES}


def _benchmark_json():
    with open(runner.ROOT / "BENCHMARK.json") as f:
        return json.load(f)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_contract_line(trace):
    cmd = _benchmark_json()["command"] + [
        "--workload", "convect_gmg", "--seed", "3", "--seconds", "10",
        "--trace", str(trace), "--smoke",
    ]
    done = subprocess.run(cmd, cwd=runner.ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0  # end-to-end metrics are never 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_is_correct_and_spans_reconcile_with_wall(traced_docs, name):
    doc = traced_docs[name]
    assert doc["correct"], doc["checks"]
    assert doc["trace_unresolved"] == []
    assert set(doc["per_layer"]) == {m.name for m in PER_LAYER}
    # self times of all layers plus the unattributed remainder make up the wall
    assert abs(sum(doc["layer_shares"].values()) - 1.0) < 0.01
    assert abs(doc["per_layer"]["trace.unattributed_s"]) < 0.02 * doc["traced_wall_s"]


def test_workloads_separate_the_layers(traced_docs):
    for name in ("amr_front_p2", "dg_sphere"):
        assert traced_docs[name]["layer_calls"]["solvers"] == 0
    for name in ("convect_amg", "convect_gmg", "fleet_sweep", "dg_sphere"):
        assert traced_docs[name]["per_layer"]["parallel.collective_calls"] == 0
        assert traced_docs[name]["layer_calls"]["parallel"] == 0
    assert traced_docs["amr_front_p2"]["per_layer"]["parallel.collective_calls"] > 0
    assert traced_docs["dg_sphere"]["layer_calls"]["forest"] > 0
    assert traced_docs["fleet_sweep"]["per_layer"]["fleet.quanta"] == 2


def test_exact_counts_repeat(traced_docs):
    exact = [m.name for m in PER_LAYER if m.exact]
    for name in ("convect_gmg", "amr_front_p2"):
        again = runner.run_one(name, 0, 10, traced=True, smoke=True)
        for key in exact:
            assert again["per_layer"][key] == traced_docs[name]["per_layer"][key], key


def test_wrappers_are_fully_restored():
    original = repro.solvers.minres
    method = repro.rhea.convection.MantleConvection.solve_stokes
    tracer = Tracer(enabled=True)
    tracer.install(ENTRY_POINTS)
    try:
        assert repro.solvers.minres is not original
        assert repro.rhea.convection.minres is repro.solvers.minres
        assert repro.rhea.convection.MantleConvection.solve_stokes is not method
    finally:
        tracer.uninstall()
    assert tracer.unresolved == []
    assert repro.solvers.minres is original
    assert repro.rhea.convection.minres is original
    assert repro.rhea.convection.MantleConvection.solve_stokes is method
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and mod_name.split(".")[0] in ("repro", "bench"):
            for value in vars(mod).values():
                assert not hasattr(value, "bench_span"), mod_name


def test_unresolved_entry_point_does_not_raise():
    tracer = Tracer(enabled=True)
    tracer.install([
        ("solvers.gone", "repro.solvers.minres:no_such_function", None),
        ("gone.gone", "repro.no_such_module:f", None),
        ("rhea.gone", "repro.rhea.convection:MantleConvection.no_such_method", None),
    ])
    tracer.uninstall()
    assert len(tracer.unresolved) == 3


def test_untraced_pass_installs_nothing():
    tracer = Tracer(enabled=False)
    tracer.install(ENTRY_POINTS)
    assert not hasattr(repro.solvers.minres, "bench_span")
    with tracer.section("timed"), tracer.span("bench.cycle"):
        pass
    assert tracer.n_spans() == 0


def test_injected_failure_is_counted_and_fails_the_result(monkeypatch):
    monkeypatch.setattr(
        repro.rhea.convection.MantleConvection, "vrms", lambda self: float("nan")
    )
    doc = runner.run_one("convect_amg", 0, 10, traced=False, smoke=True)
    assert doc["failed"] == doc["attempted"] > 0
    assert doc["ops_failed_frac"] == 1.0
    assert doc["correct"] is False


def _record(seconds, elements=10, vrms=1.0):
    return {"seconds": seconds, "elements": elements, "scenarios": 1, "dof_steps": 40,
            "diag": {"vrms": vrms}}


def test_a_cycle_counts_with_its_best_replica():
    run = Run([0.5, 0.4, 0.6], [[_record(2.0), _record(1.0)], [_record(1.5), _record(3.0)]], [])
    assert [r["seconds"] for r in run.cycles] == [1.5, 1.0]
    assert run.wall_s == 2.5
    assert run.checks["replicas_agree"]
    metrics = runner.end_to_end(run)
    assert metrics["setup_s"] == 0.4 and metrics["cycle_s"] == 1.25
    assert metrics["elem_cycles_per_s"] == 20 / 2.5


def test_replicas_that_did_different_work_fail_the_run():
    run = Run([0.5], [[_record(2.0)], [_record(2.0, vrms=1.1)]], [])
    assert not run.checks["replicas_agree"]
    run = Run([0.5], [[_record(2.0)], [_record(2.0, elements=11)]], [])
    assert not run.checks["replicas_agree"]


def test_reference_deviation_is_detected():
    workload = WORKLOADS[0]
    records = [{"diag": {"vrms": 100.0, "nusselt": 2.0}}]
    dev, ok = runner.result_rel_dev(workload, records, [{"vrms": 100.05, "nusselt": 2.0}])
    assert ok and dev == pytest.approx(5e-4, rel=1e-2)
    dev, ok = runner.result_rel_dev(workload, records, [{"vrms": 101.0, "nusselt": 2.0}])
    assert not ok
    _, ok = runner.result_rel_dev(workload, [{"diag": {"vrms": float("nan"), "nusselt": 2.0}}],
                                  [{"vrms": 100.0, "nusselt": 2.0}])
    assert not ok


def test_benchmark_json_matches_the_registry():
    assert check.problems_of(_benchmark_json()) == []
    assert check.forbidden_knobs(runner.ROOT / "bench") == []


def test_check_reports_a_missing_metric_and_a_forbidden_knob(tmp_path):
    doc = _benchmark_json()
    doc["per_layer"] = doc["per_layer"][1:]
    doc["end_to_end"][0]["bound"] = 0.5
    problems = "\n".join(check.problems_of(doc))
    assert "emitted but not declared" in problems and "needs a bound" in problems
    pkg = tmp_path / "bench"
    pkg.mkdir()
    (pkg / "w.py").write_text("cfg = dict(" + "balance_algo" + "rithm='search')\n")
    assert len(check.forbidden_knobs(pkg)) == 1
