"""Unit tests for the simulated-MPI substrate (repro.parallel)."""

import numpy as np
import pytest

from repro.parallel import (
    RANGER,
    CommStats,
    MachineModel,
    merge_stats,
    payload_nbytes,
    run_spmd,
    run_spmd_with_comms,
)


class TestRunSpmd:
    def test_single_rank_inline(self):
        out = run_spmd(1, lambda comm: comm.rank * 10 + comm.size)
        assert out == [1]

    def test_rank_and_size(self):
        out = run_spmd(5, lambda comm: (comm.rank, comm.size))
        assert out == [(r, 5) for r in range(5)]

    def test_exception_propagates(self):
        def kernel(comm):
            if comm.rank == 2:
                raise ValueError("boom")
            comm.barrier()  # would deadlock without abort handling
            comm.barrier()

        with pytest.raises(ValueError, match="boom"):
            run_spmd(4, kernel)

    def test_backend_keyword_reaches_the_rank_function(self):
        # run_spmd reserves no keyword: every one goes to the rank function
        out = run_spmd(2, lambda comm, backend: backend, **{"backend": "x"})
        assert out == ["x", "x"]

    def test_invalid_nranks(self):
        from repro.parallel import SimWorld

        with pytest.raises(ValueError):
            SimWorld(0)


class TestCollectives:
    def test_allgather_order(self):
        out = run_spmd(4, lambda comm: comm.allgather(comm.rank * 2))
        for res in out:
            assert res == [0, 2, 4, 6]

    def test_allreduce_sum_scalar(self):
        out = run_spmd(6, lambda comm: comm.allreduce(comm.rank + 1))
        assert all(r == 21 for r in out)

    def test_allreduce_min_max(self):
        out = run_spmd(
            4, lambda comm: (comm.allreduce(comm.rank, "min"), comm.allreduce(comm.rank, "max"))
        )
        assert all(r == (0, 3) for r in out)

    def test_allreduce_lor_land(self):
        out = run_spmd(
            3,
            lambda comm: (
                comm.allreduce(comm.rank == 1, "lor"),
                comm.allreduce(comm.rank < 5, "land"),
            ),
        )
        assert all(r == (True, True) for r in out)

    def test_allreduce_array(self):
        def kernel(comm):
            return comm.allreduce(np.full(3, comm.rank, dtype=np.int64))

        out = run_spmd(4, kernel)
        for res in out:
            np.testing.assert_array_equal(res, [6, 6, 6])

    def test_allreduce_does_not_mutate_input(self):
        def kernel(comm):
            v = np.full(3, comm.rank, dtype=np.int64)
            comm.allreduce(v)
            return v

        out = run_spmd(3, kernel)
        for r, res in enumerate(out):
            np.testing.assert_array_equal(res, np.full(3, r))

    def test_unknown_reduction_rejected(self):
        with pytest.raises(ValueError):
            run_spmd(1, lambda comm: comm.allreduce(1, op="xor"))

    def test_exscan(self):
        out = run_spmd(5, lambda comm: comm.exscan(comm.rank + 1))
        assert out == [0, 1, 3, 6, 10]

    def test_bcast(self):
        out = run_spmd(4, lambda comm: comm.bcast("hello" if comm.rank == 1 else None, root=1))
        assert out == ["hello"] * 4

    def test_gather_only_root(self):
        out = run_spmd(3, lambda comm: comm.gather(comm.rank, root=2))
        assert out == [None, None, [0, 1, 2]]

    def test_alltoall_transpose(self):
        def kernel(comm):
            send = [f"{comm.rank}->{j}" for j in range(comm.size)]
            return comm.alltoall(send)

        out = run_spmd(3, kernel)
        for j, res in enumerate(out):
            assert res == [f"{i}->{j}" for i in range(3)]

    def test_alltoall_length_check(self):
        with pytest.raises(ValueError):
            run_spmd(2, lambda comm: comm.alltoall([1]))

    def test_back_to_back_collectives_no_slot_corruption(self):
        def kernel(comm):
            a = comm.allgather(comm.rank)
            b = comm.allgather(comm.rank * 100)
            c = comm.allreduce(1)
            return a, b, c

        out = run_spmd(4, kernel)
        for a, b, c in out:
            assert a == [0, 1, 2, 3]
            assert b == [0, 100, 200, 300]
            assert c == 4

    def test_global_offsets(self):
        def kernel(comm):
            return comm.global_offsets(comm.rank + 1)

        out = run_spmd(4, kernel)
        assert out == [(0, 10), (1, 10), (3, 10), (6, 10)]

    def test_allgather_concat(self):
        def kernel(comm):
            return comm.allgather_concat(np.arange(comm.rank))

        out = run_spmd(3, kernel)
        np.testing.assert_array_equal(out[0], [0, 0, 1])


class TestPointToPoint:
    def test_ring_exchange(self):
        def kernel(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(np.array([comm.rank]), right)
            got = comm.recv(left)
            return int(got[0])

        out = run_spmd(4, kernel)
        assert out == [3, 0, 1, 2]

    def test_tags_separate_messages(self):
        def kernel(comm):
            if comm.rank == 0:
                comm.send("a", 1, tag=7)
                comm.send("b", 1, tag=9)
                return None
            b = comm.recv(0, tag=9)
            a = comm.recv(0, tag=7)
            return a + b

        out = run_spmd(2, kernel)
        assert out[1] == "ab"

    def test_invalid_dest(self):
        with pytest.raises(ValueError):
            run_spmd(1, lambda comm: comm.send(1, 5))


class TestStats:
    def test_payload_nbytes(self):
        assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80
        assert payload_nbytes([np.zeros(2), np.zeros(3)]) == 40
        assert payload_nbytes(None) == 0
        assert payload_nbytes(7) == 8
        assert payload_nbytes({"a": np.zeros(1)}) > 8

    def test_stats_recorded(self):
        def kernel(comm):
            comm.allgather(np.zeros(4))
            comm.allreduce(1.0)
            if comm.size > 1:
                comm.send(np.zeros(8), (comm.rank + 1) % comm.size)
                comm.recv((comm.rank - 1) % comm.size)
            return None

        _, comms = run_spmd_with_comms(2, kernel)
        s = comms[0].stats
        assert s.collective_calls["allgather"] == 1
        assert s.collective_bytes["allgather"] == 32
        assert s.p2p_messages == 1
        assert s.p2p_bytes == 64

    def test_merge(self):
        a, b = CommStats(), CommStats()
        a.record_p2p(10)
        b.record_p2p(20)
        b.record_collective("barrier", 0)
        m = merge_stats([a, b])
        assert m.p2p_bytes == 30
        assert m.collective_calls["barrier"] == 1

    def test_flops(self):
        s = CommStats()
        s.add_flops(1e6)
        assert s.flops == 1e6


class TestMachineModel:
    def test_collective_costs_scale_with_p(self):
        m = RANGER
        t64 = m.t_collective("allreduce", 8, 64)
        t4096 = m.t_collective("allreduce", 8, 4096)
        assert t4096 > t64 > 0

    def test_p1_is_free(self):
        assert RANGER.t_collective("allgather", 1000, 1) == 0.0

    def test_unknown_collective(self):
        with pytest.raises(ValueError):
            RANGER.t_collective("nope", 1, 2)

    def test_t_total_combines(self):
        s = CommStats()
        s.add_flops(1e9)
        s.record_collective("allreduce", 8)
        m = MachineModel(flop_rate=1e9)
        t = m.t_total(s, 1024)
        assert t > 1.0  # 1 GF at 1 GF/s plus comm

    def test_comm_pricing_uses_per_call_bytes(self):
        s = CommStats()
        for _ in range(10):
            s.record_collective("allgather", 8)
        single = RANGER.t_collective("allgather", 8, 256)
        assert RANGER.t_comm(s, 256) == pytest.approx(10 * single)


class TestMixedReductions:
    """Regression: _REDUCTIONS min/max used to dispatch on vals[0] alone,
    so a scalar contribution from rank 0 sent mixed scalar/ndarray
    reductions down the python min()/max() branch, which raises (or
    silently compares garbage) on ndarrays from other ranks.

    Mixed payload signatures are illegal in real MPI (matching buffers
    required) and CheckedComm rightly rejects them, so the mixed tests
    pin REPRO_SANITIZE off to exercise the plain SimComm reduction.
    """

    @staticmethod
    def _mixed_min(comm):
        val = 5.0 if comm.rank == 0 else np.array([1.0, 7.0, 3.0]) + comm.rank
        return comm.allreduce(val, "min")

    @staticmethod
    def _mixed_max(comm):
        val = 2.0 if comm.rank == 0 else np.array([1.0, 7.0, 3.0]) + comm.rank
        return comm.allreduce(val, "max")

    def test_scalar_on_rank0_ndarray_elsewhere_min(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        for out in run_spmd(3, self._mixed_min):
            assert isinstance(out, np.ndarray)
            np.testing.assert_array_equal(out, [2.0, 5.0, 4.0])

    def test_scalar_on_rank0_ndarray_elsewhere_max(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        for out in run_spmd(3, self._mixed_max):
            assert isinstance(out, np.ndarray)
            np.testing.assert_array_equal(out, [3.0, 9.0, 5.0])

    def test_all_scalar_min_max_unchanged(self):
        assert run_spmd(4, lambda c: c.allreduce(c.rank, "min")) == [0] * 4
        assert run_spmd(4, lambda c: c.allreduce(c.rank, "max")) == [3] * 4

    def test_extremum_result_does_not_alias_contribution(self):
        def kernel(comm):
            mine = np.full(3, float(comm.rank))
            out = comm.allreduce(mine, "max")
            out[:] = -99.0  # writing the result must not corrupt inputs
            return mine[0]

        assert run_spmd(2, kernel) == [0.0, 1.0]

    def test_prod_single_rank_does_not_alias(self):
        def kernel(comm):
            mine = np.array([2.0, 3.0])
            out = comm.allreduce(mine, "prod")
            out *= 10.0
            return mine.copy()

        (res,) = run_spmd(1, kernel)
        np.testing.assert_array_equal(res, [2.0, 3.0])


class TestDefensiveCopies:
    """Real MPI lands every message in a receiver-owned buffer; the
    threaded transport must copy numpy payloads so simulated ranks never
    alias (and corrupt through) one shared object."""

    def test_recv_returns_private_buffer(self):
        def kernel(comm):
            if comm.rank == 0:
                out = np.arange(4, dtype=np.float64)
                comm.send(out, 1)
            else:
                out = comm.recv(0)
                out += 100.0  # receiver-side write must stay private
            comm.barrier()
            return out.copy()

        r0, r1 = run_spmd(2, kernel)
        np.testing.assert_array_equal(r0, [0.0, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(r1, [100.0, 101.0, 102.0, 103.0])

    def test_sender_mutation_after_send_not_observed(self):
        def kernel(comm):
            if comm.rank == 0:
                comm.send(np.ones(3), 1)
                got = None
            else:
                got = comm.recv(0)
            comm.barrier()  # receiver has picked the message up
            return got

        # the copy happens at recv time, so a sender that mutates only
        # after the receive completes can never be observed
        _, got = run_spmd(2, kernel)
        np.testing.assert_array_equal(got, [1.0, 1.0, 1.0])

    def test_allgather_results_are_private_per_rank(self):
        def kernel(comm):
            parts = comm.allgather(np.full(2, float(comm.rank)))
            parts[0][:] = -1.0  # scribbling on my copy of rank 0's part
            comm.barrier()
            return parts[1][0]

        assert run_spmd(2, kernel) == [1.0, 1.0]

    def test_bcast_result_is_private(self):
        def kernel(comm):
            root_arr = np.arange(3, dtype=np.float64)
            got = comm.bcast(root_arr if comm.rank == 0 else None)
            got[comm.rank] = 42.0
            comm.barrier()
            return root_arr[0] if comm.rank == 0 else None

        r0, _ = run_spmd(2, kernel)
        assert r0 == 0.0  # root's source buffer untouched by rank 1

    def test_alltoall_entries_are_private(self):
        def kernel(comm):
            send = [np.full(2, float(comm.rank * 10 + j)) for j in range(comm.size)]
            got = comm.alltoall(send)
            for g in got:
                g += 500.0
            comm.barrier()
            return send[comm.rank][0]

        assert run_spmd(2, kernel) == [0.0, 11.0]

    def test_nested_container_payloads_copied(self):
        def kernel(comm):
            if comm.rank == 0:
                msg = {"a": [np.zeros(2)], "b": (np.ones(1),)}
                comm.send(msg, 1)
                out = msg["a"][0][0]
            else:
                got = comm.recv(0)
                got["a"][0][0] = 7.0
                got["b"][0][0] = 8.0
                out = None
            comm.barrier()
            return out

        r0, _ = run_spmd(2, kernel)
        assert r0 == 0.0


class TestFaultInjection:
    def test_disarmed_is_noop(self):
        from repro.parallel import check_fault, disarm_fault

        disarm_fault()
        check_fault(None, 10**9)  # nothing armed -> no raise

    def test_arm_disarm(self):
        from repro.parallel import (
            InjectedFault,
            arm_fault,
            check_fault,
            disarm_fault,
        )

        arm_fault(rank=0, step=5)
        try:
            check_fault(None, 4)  # before the armed step
            with pytest.raises(InjectedFault) as exc:
                check_fault(None, 5)
            assert exc.value.rank == 0 and exc.value.step == 5
            # fires exactly once
            check_fault(None, 6)
        finally:
            disarm_fault()

    def test_serial_driver_counts_as_rank_zero(self):
        from repro.parallel import InjectedFault, fault_injection, check_fault

        with fault_injection(rank=1, step=0):
            check_fault(None, 3)  # comm=None is rank 0, fault targets rank 1
        with fault_injection(rank=0, step=0):
            with pytest.raises(InjectedFault):
                check_fault(None, 3)

    def test_context_manager_disarms_on_exit(self):
        from repro.parallel import check_fault, fault_injection

        with fault_injection(rank=0, step=0):
            pass
        check_fault(None, 10)  # disarmed again

    def test_only_armed_rank_dies_and_world_aborts(self):
        from repro.parallel import InjectedFault, check_fault, fault_injection

        observed = {}

        def kernel(comm):
            check_fault(comm, step=2)
            observed[comm.rank] = True
            comm.barrier()  # survivors must be released by the abort

        with fault_injection(rank=1, step=2):
            with pytest.raises(InjectedFault) as exc:
                run_spmd(3, kernel)
        assert exc.value.rank == 1
        assert "rank 1" in str(exc.value) and "step 2" in str(exc.value)
        # ranks 0 and 2 got past their own check_fault
        assert observed.keys() == {0, 2}
