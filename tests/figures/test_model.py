"""Tests for the suite's harness (measured + modeled scaling)."""

import pytest

from repro.amr import ParAmrPipeline
from repro.parallel import RANGER, CommStats, merge_stats, run_spmd_with_comms

from .harness import (
    ADV_FLOPS_PER_ELEMENT_STEP,
    format_table,
    measured_pipeline_run,
    model_dg_weak_scaling,
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


def test_format_table():
    out = format_table(["a", "bb"], [[1, 2.5]], title="T")
    assert out.splitlines() == ["T", "a   bb", "-  ---", "1  2.5"]


def test_modeled_rows_are_pinned():
    """Every modeled row is one ``t_total`` of a tally with its work set
    by ``add_flops``; for a fixed tally the rows equal the ones the
    hand-written ``t_flops + t_comm`` sums gave."""
    weak = model_weak_scaling([1, 64, 4096, 62464], 131000, 32, comm_template())
    strong = model_strong_scaling([256, 1024, 4096, 32768], 531e6, 32, comm_template())
    dg4 = model_dg_weak_scaling(4, [64, 1024, 16384])
    dg6 = model_dg_weak_scaling(6, [32, 1024, 32768])
    for rows, key, expected in [
        (weak, "t_total", [4.336619560137931, 4.336903304137931,
                           4.336963208137931, 4.337448584137931]),
        (weak, "efficiency", [1.0, 0.9999345745154776, 0.9999207629893299,
                              0.9998088682819132]),
        (strong, "t_total", [68.66415543544827, 17.166271567602152,
                             4.2918018460395, 0.5367599346982118]),
        (strong, "speedup", [256.0, 1023.9861184911989, 4095.721196377195,
                             32748.39021164617]),
        (dg4, "t", [0.03195264, 0.032057088, 0.032622335999999995]),
        (dg4, "eff_rel", [1.0, 0.9967418126063103, 0.979471243261059]),
        (dg6, "t", [0.08944102400000001, 0.089564928, 0.090672896]),
        (dg6, "eff_rel", [1.0, 0.9986166013553878, 0.9864141099011551]),
    ]:
        assert [r[key] for r in rows] == pytest.approx(expected, rel=1e-12), key
    assert [r["elements"] for r in weak] == [131000 * p for p in (1, 64, 4096, 62464)]


class TestModelWeak:
    def test_efficiency_decreases_with_p(self):
        rows = model_weak_scaling([1, 64, 4096, 62464], 131000, 32, comm_template())
        eff = [r["efficiency"] for r in rows]
        assert eff[0] == 1.0
        assert all(eff[i] >= eff[i + 1] for i in range(len(eff) - 1))
        assert eff[-1] > 0.2  # surface-to-volume keeps it reasonable

    def test_compute_time_constant(self):
        """Per-rank work is fixed, so each row's compute share is the same
        at every P; only the communication share grows."""
        rows = model_weak_scaling([1, 1024], 1000, 10, comm_template())
        t_comm = [RANGER.t_comm(comm_template(), p) for p in (1, 1024)]
        t_compute = [r["t_total"] - tc for r, tc in zip(rows, t_comm)]
        t_flops = RANGER.t_flops(ADV_FLOPS_PER_ELEMENT_STEP * 1000 * 10)
        assert t_compute == pytest.approx([t_flops, t_flops], rel=1e-12)
        assert t_comm[1] > t_comm[0]

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
        assert out["report"]["executed_ranks"] == 2
        assert out["n_elements"] > 50
        assert out["report"]["total_wall_s"] > 0
        phases = out["report"]["phases"]
        assert phases["advection"]["count"] == 2  # one per rank
        assert phases["amr/balance"]["wall_s"]["max"] > 0
        assert 0.0 < out["report"]["amr_fraction"] < 1.0
        assert out["comm_per_rank"].total_collective_calls > 0
        assert len(out["adapt_history"]) == 1

    def test_comm_per_rank_is_the_rank_mean(self):
        """``comm_per_rank`` is the world tally of the same run divided by
        ``p``: floor-divided counts, divided collective bytes."""
        out = measured_pipeline_run(
            2, coarse_level=2, max_level=4, target=200, cycles=1, steps_per_cycle=2
        )

        def kernel(comm):
            pipe = ParAmrPipeline(comm, coarse_level=2, max_level=4)
            pipe.run_cycles(1, 2, 200)
            pipe.pt.global_count()

        world = merge_stats([c.stats for c in run_spmd_with_comms(2, kernel)[1]])
        got = out["comm_per_rank"]
        assert got.p2p_messages == world.p2p_messages // 2
        assert got.p2p_bytes == world.p2p_bytes // 2
        assert got.collective_calls == {k: v // 2 for k, v in world.collective_calls.items()}
        assert got.collective_bytes == {k: v / 2 for k, v in world.collective_bytes.items()}
        assert got.flops == 0.0
