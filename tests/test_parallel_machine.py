"""Additional machine-model tests (sparse alltoall, rate knobs)."""

import pytest

from repro.parallel import MachineModel, RANGER


class TestSparseAlltoall:
    def test_latency_saturates_at_fanout(self):
        """Beyond the SFC-neighborhood fan-out, alltoall latency stops
        growing with P (sparse neighbor exchange, not dense)."""
        t_small = RANGER.t_collective("alltoall", 0, 8)
        t_big = RANGER.t_collective("alltoall", 0, 65536)
        assert t_big == RANGER.alltoall_fanout * RANGER.alpha
        assert t_small < t_big

    def test_volume_term_independent_of_p(self):
        t1 = RANGER.t_collective("alltoall", 1 << 20, 64)
        t2 = RANGER.t_collective("alltoall", 1 << 20, 4096)
        assert t2 - t1 == pytest.approx(0.0, abs=RANGER.alpha * 64)

    def test_custom_fanout(self):
        m = MachineModel(alltoall_fanout=6)
        assert m.t_collective("alltoall", 0, 1024) == 6 * m.alpha


class TestRates:
    def test_flops_and_stream(self):
        m = MachineModel(flop_rate=2e9, mem_rate=4e9)
        assert m.t_flops(2e9) == pytest.approx(1.0)
        assert m.t_stream(4e9) == pytest.approx(1.0)

    def test_log_collectives_grow_slowly(self):
        t1 = RANGER.t_collective("allreduce", 8, 1024)
        t2 = RANGER.t_collective("allreduce", 8, 1 << 20)
        assert t2 / t1 == pytest.approx(2.0, rel=0.05)  # 20/10 rounds

