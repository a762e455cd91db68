"""Trace export and report generation: Chrome-trace structure (one
track per rank, nested slices), root-phase detection, fractions,
modeled comm shares, and the markdown rendering."""

import json

import pytest

from repro import obs
from repro.obs.report import classify_phase, model_phase_comm
from repro.obs.timer import PhaseTimer
from repro.parallel import run_spmd
from repro.parallel.machine import RANGER


@pytest.fixture(autouse=True)
def _unbound():
    obs.disable()
    yield
    obs.disable()


def _spmd_traces_and_results(p=4):
    def kernel(comm):
        timer = obs.enable(comm)
        with obs.phase("amr"):
            with obs.phase("balance"):
                comm.allreduce(1)
        with obs.phase("stokes"):
            pass
        obs.disable()
        return {"trace": timer.trace_data(), "results": timer.results()}

    return run_spmd(p, kernel)


# -- chrome trace ------------------------------------------------------------


def test_trace_one_track_per_rank_with_metadata():
    out = _spmd_traces_and_results(4)
    doc = obs.chrome_trace([r["trace"] for r in out])
    events = doc["traceEvents"]
    names = {
        e["tid"]: e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert names == {r: f"rank {r}" for r in range(4)}
    x_tids = {e["tid"] for e in events if e["ph"] == "X"}
    assert x_tids == {0, 1, 2, 3}
    assert all(e["pid"] == 0 for e in events)


def test_trace_nested_slices_contained_in_parent():
    out = _spmd_traces_and_results(2)
    events = obs.chrome_trace([r["trace"] for r in out])["traceEvents"]
    for rank in (0, 1):  # lint: allow-loop (per-rank assertions)
        slices = {
            e["name"]: (e["ts"], e["ts"] + e["dur"])
            for e in events
            if e["ph"] == "X" and e["tid"] == rank
        }
        child, parent = slices["amr/balance"], slices["amr"]
        assert parent[0] <= child[0] and child[1] <= parent[1] + 1e-6


def test_trace_written_file_is_valid_json(tmp_path):
    timer = obs.enable()
    with obs.phase("p"):
        pass
    obs.disable()
    path = tmp_path / "trace.json"
    obs.chrome_trace([timer], str(path))
    doc = json.loads(path.read_text())
    assert any(e["ph"] == "X" and e["name"] == "p" for e in doc["traceEvents"])


def test_trace_accepts_timers_and_dicts_and_empty():
    timer = obs.enable()
    with obs.phase("p"):
        pass
    obs.disable()
    a = obs.trace_events([timer])
    b = obs.trace_events([timer.trace_data()])
    assert a == b
    assert obs.trace_events([]) == []


# -- report ------------------------------------------------------------------


def test_classify_phase_groups():
    assert classify_phase("amr/balance") == "amr"
    assert classify_phase("stokes/minres") == "stokes"
    assert classify_phase("checkpoint/save") == "checkpoint"
    assert classify_phase("io") == "other"


def test_classify_phase_looks_past_fleet_and_job_segments():
    assert classify_phase("fleet/stokes") == "stokes"
    assert classify_phase("fleet/stokes/minres") == "stokes"
    assert classify_phase("fleet/advection") == "advection"
    assert classify_phase("fleet/job:j3/checkpoint") == "checkpoint"
    assert classify_phase("fleet/job:j3/amr/mark") == "amr"
    assert classify_phase("fleet/job:j3") == "other"
    assert classify_phase("fleet") == "other"
    assert classify_phase("io/fleet/stokes") == "other"


def test_report_roots_exclude_nested_phases():
    out = _spmd_traces_and_results(2)
    rep = obs.generate_report([r["results"] for r in out], executed_ranks=2)
    assert rep["phases"]["amr"]["root"] is True
    assert rep["phases"]["amr/balance"]["root"] is False
    # wall total counts only roots: amr + stokes, not amr/balance again
    expected = rep["phases"]["amr"]["wall_s"]["max"] + rep["phases"]["stokes"]["wall_s"]["max"]
    assert rep["total_wall_s"] == pytest.approx(expected)


def test_report_fractions_sum_to_one():
    out = _spmd_traces_and_results(4)
    rep = obs.generate_report([r["results"] for r in out], executed_ranks=4)
    assert sum(rep["fractions"].values()) == pytest.approx(1.0)
    assert 0.0 < rep["amr_fraction"] < 1.0
    assert rep["executed_ranks"] == 4
    assert rep["machine"] == RANGER.name


def test_report_comm_share_grows_with_core_count():
    out = _spmd_traces_and_results(2)
    rep = obs.generate_report(
        [r["results"] for r in out], core_counts=(1, 1024, 62464)
    )
    amr = rep["groups"]["amr"]
    assert amr["comm_model_s"]["1"] == 0.0
    assert amr["comm_model_s"]["62464"] >= amr["comm_model_s"]["1024"] > 0.0
    assert 0.0 <= amr["comm_fraction"]["62464"] <= 1.0


def test_report_surfaces_timer_level_counters():
    timer = obs.enable()
    with obs.phase("amr"):
        pass
    obs.counter("late", 2)  # recorded after the phase closed
    obs.disable()
    rep = obs.generate_report([timer.results()], executed_ranks=1)
    assert rep["counters"] == {"late": 2}
    assert "" not in rep["phases"]


def test_model_phase_comm_single_core_is_free():
    entry = {
        "p2p_messages": {"median": 5},
        "p2p_bytes": {"median": 1000},
        "collective_calls": {"median": 3},
        "collective_bytes": {"median": 64},
    }
    assert model_phase_comm(entry, 1) == 0.0
    assert model_phase_comm(entry, 1024) > 0.0


# -- markdown ----------------------------------------------------------------


def test_markdown_report_reproduces_table_iv_structure():
    out = _spmd_traces_and_results(2)
    rep = obs.generate_report([r["results"] for r in out], executed_ranks=2)
    md = obs.markdown_report(rep)
    assert "| Phase |" in md
    assert "AMR (all tree/mesh functions)" in md
    assert "Stokes solve" in md
    assert "Component summary" in md
    # nested phases render indented under their roots
    assert "&nbsp;&nbsp;amr/balance" in md


def test_markdown_report_empty_run():
    timer = PhaseTimer()
    rep = obs.generate_report([timer.results()])
    assert rep["total_wall_s"] == 0.0
    md = obs.markdown_report(rep)
    assert "| Phase |" in md
