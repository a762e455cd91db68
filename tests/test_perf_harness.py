"""Tests for the perf harness (measured + modeled scaling)."""

import pytest

from repro.amr import ParAmrPipeline
from repro.parallel import CommStats, run_spmd_with_comms
from repro.perf import (
    format_table,
    measured_pipeline_run,
    model_strong_scaling,
    model_weak_scaling,
)


def comm_template():
    s = CommStats()
    s.record_collective("allreduce", 8)
    s.record_collective("allgather", 8)
    for _ in range(4):
        s.record_collective("alltoall", 4096)
    s.record_p2p(1 << 16)
    return s


class TestFormatTable:
    def test_basic(self):
        out = format_table(["a", "bb"], [[1, 2.5], [30, 4.0]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5


class TestModelWeak:
    def test_efficiency_decreases_with_p(self):
        rows = model_weak_scaling([1, 64, 4096, 62464], 131000, 32, comm_template())
        eff = [r["efficiency"] for r in rows]
        assert eff[0] == 1.0
        assert all(eff[i] >= eff[i + 1] for i in range(len(eff) - 1))
        assert eff[-1] > 0.2  # surface-to-volume keeps it reasonable

    def test_compute_time_constant(self):
        rows = model_weak_scaling([1, 1024], 1000, 10, comm_template())
        assert rows[0]["t_compute"] == rows[1]["t_compute"]
        assert rows[1]["t_comm"] > rows[0]["t_comm"]

    def test_elements_scale(self):
        rows = model_weak_scaling([1, 8], 100, 1, comm_template())
        assert rows[1]["elements"] == 800


class TestModelStrong:
    def test_speedup_grows_then_saturates(self):
        rows = model_strong_scaling(
            [256, 1024, 4096, 32768], 531e6, 32, comm_template()
        )
        sp = [r["speedup"] for r in rows]
        assert sp[0] == pytest.approx(256)
        assert all(sp[i] < sp[i + 1] for i in range(len(sp) - 1))
        # efficiency decays with P
        eff = [r["efficiency"] for r in rows]
        assert all(eff[i] >= eff[i + 1] - 1e-12 for i in range(len(eff) - 1))

    def test_small_problem_saturates_earlier(self):
        small = model_strong_scaling([1, 512, 8192], 2e6, 32, comm_template())
        large = model_strong_scaling([1, 512, 8192], 2e9, 32, comm_template())
        assert small[-1]["efficiency"] < large[-1]["efficiency"]


class TestMeasuredRun:
    def test_pipeline_run_collects_everything(self):
        out = measured_pipeline_run(
            2, coarse_level=2, max_level=4, target=200, cycles=1, steps_per_cycle=2
        )
        assert out["p"] == 2
        assert out["n_elements"] > 50
        assert out["total_time"] == out["report"]["total_wall_s"] > 0
        phases = out["report"]["phases"]
        assert phases["advection"]["count"] == 2  # one per rank
        assert phases["amr/balance"]["wall_s"]["max"] > 0
        assert 0.0 < out["report"]["amr_fraction"] < 1.0
        assert out["comm_per_rank"].total_collective_calls > 0
        assert len(out["adapt_history"]) == 1

    def test_comm_per_rank_is_the_rank_mean(self):
        """``comm_per_rank`` is the world tally divided by ``p``: the
        same run's per-rank tallies, summed field by field, then
        floor-divided (counts) or divided (collective bytes)."""
        out = measured_pipeline_run(
            2, coarse_level=2, max_level=4, target=200, cycles=1, steps_per_cycle=2
        )

        def kernel(comm):
            pipe = ParAmrPipeline(comm, coarse_level=2, max_level=4)
            pipe.run_cycles(1, 2, 200)
            pipe.pt.global_count()

        _, comms = run_spmd_with_comms(2, kernel)
        calls, cbytes = {}, {}
        for c in comms:
            for k, v in c.stats.collective_calls.items():
                calls[k] = calls.get(k, 0) + v
            for k, v in c.stats.collective_bytes.items():
                cbytes[k] = cbytes.get(k, 0) + v
        got = out["comm_per_rank"]
        assert got.p2p_messages == sum(c.stats.p2p_messages for c in comms) // 2
        assert got.p2p_bytes == sum(c.stats.p2p_bytes for c in comms) // 2
        assert got.collective_calls == {k: v // 2 for k, v in calls.items()}
        assert got.collective_bytes == {k: v / 2 for k, v in cbytes.items()}
        assert got.flops == 0.0
