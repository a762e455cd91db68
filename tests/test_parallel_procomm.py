"""Process-backend equivalence suite: the multiprocess SPMD backend
(`repro.parallel.procomm`) must be bitwise-equivalent to the threaded
oracle on the real workloads — forest construction/ghost/balance, the
checkpointed AMR pipeline with fault injection, and the fleet preempt /
resume cycle — with the sanitizers (CheckedComm, delivery fuzzer)
running unchanged on top.

Correctness does not depend on core count, so nothing here skips on a
small host; only a host whose POSIX shared memory is unusable skips.
"""

import os

import numpy as np
import pytest

from repro.amr import ParAmrPipeline
from repro.parallel import sanitize
from repro.checkpoint import Checkpointer, list_checkpoints
from repro.forest import ParForest, brick_connectivity, cubed_sphere_connectivity
from repro.parallel import (
    InjectedFault,
    arm_fault,
    disarm_fault,
    run_spmd,
    run_spmd_with_comms,
)
from repro.parallel import procomm

pytestmark = pytest.mark.skipif(
    not procomm.available(),
    reason="POSIX shared memory unavailable on this host",
)

PS = [2, 4]


def both_backends(p, kernel, *args, **kwargs):
    """Run a kernel on both backends and return (threaded, process)."""
    rt = run_spmd(p, kernel, *args, backend="thread", **kwargs)
    rp = run_spmd(p, kernel, *args, backend="process", **kwargs)
    return rt, rp


def assert_bitwise(a, b, path="result"):
    """Deep bitwise equality over the nested structures kernels return."""
    assert type(a) is type(b) or (
        isinstance(a, (list, tuple)) and isinstance(b, (list, tuple))
    ), f"{path}: {type(a)} vs {type(b)}"
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype, f"{path}: dtype {a.dtype} vs {b.dtype}"
        assert a.shape == b.shape, f"{path}: shape {a.shape} vs {b.shape}"
        assert np.array_equal(a, b, equal_nan=True), f"{path}: values differ"
    elif isinstance(a, dict):
        assert set(a) == set(b), f"{path}: keys {set(a)} vs {set(b)}"
        for k in a:
            assert_bitwise(a[k], b[k], f"{path}[{k!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: len {len(a)} vs {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            assert_bitwise(x, y, f"{path}[{i}]")
    else:
        assert a == b, f"{path}: {a!r} vs {b!r}"


@pytest.fixture
def sanitized(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")


# --------------------------------------------------------------------------
# transport primitives


class TestTransportEquivalence:
    @pytest.mark.parametrize("p", PS)
    def test_collectives_bitwise_equal(self, p, sanitized):
        def kernel(comm):
            rank = comm.rank
            a = np.arange(32, dtype=np.float64) * (rank + 1)
            return {
                "allreduce": comm.allreduce(float(a.sum()), op="sum"),
                "max": comm.allreduce(float(rank), op="max"),
                "allgather": comm.allgather(a),
                "bcast": comm.bcast(a * 3 if rank == 0 else None, root=0),
                "exscan": comm.exscan(rank + 1, op="sum"),
                "gather": comm.gather(rank * 2, root=0),
                "a2a": comm.alltoallv_arrays(
                    [np.full(r + 1, rank * 100 + r, dtype=np.int64)
                     for r in range(comm.size)]
                ),
                "concat": comm.allgather_concat(
                    np.full(rank + 1, float(rank))
                ),
                "offsets": comm.global_offsets(rank + 3),
            }

        rt, rp = both_backends(p, kernel)
        assert_bitwise(rt, rp)

    @pytest.mark.parametrize("p", PS)
    def test_p2p_bitwise_equal(self, p, sanitized):
        def kernel(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            out = []
            for tag in range(3):
                got = comm.sendrecv(
                    {"r": comm.rank, "x": np.full(5, comm.rank + tag * 0.5)},
                    dest=right, source=left, tag=tag,
                )
                out.append(got)
            comm.barrier()
            return out

        rt, rp = both_backends(p, kernel)
        assert_bitwise(rt, rp)

    def test_large_payloads_spill_paths(self, sanitized):
        # exceeds the ring parity region (2 MiB default) -> spill segments
        def kernel(comm):
            big = np.arange(1 << 19, dtype=np.float64) * (comm.rank + 1)
            gat = comm.allgather(big)
            got = comm.sendrecv(
                big * 2.0,
                dest=(comm.rank + 1) % comm.size,
                source=(comm.rank - 1) % comm.size,
                tag=0,
            )
            return {
                "sums": [float(g.sum()) for g in gat],
                "edge": got[[0, -1]].copy(),
            }

        rt, rp = both_backends(2, kernel)
        assert_bitwise(rt, rp)

    def test_received_arrays_are_defensive_copies(self):
        # mutating a received array must not corrupt later exchanges
        def kernel(comm):
            a = np.full(4096, float(comm.rank))
            g1 = comm.allgather(a)
            for g in g1:
                g += 1000.0  # scribble over the received buffers
            g2 = comm.allgather(a)
            return [float(g.sum()) for g in g2]

        rt, rp = both_backends(2, kernel)
        assert_bitwise(rt, rp)

    def test_env_override_selects_process_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPMD_BACKEND", "process")

        def kernel(comm):
            return os.getpid()

        pids = run_spmd(2, kernel)
        assert len(set(pids)) == 2  # real processes, distinct pids
        assert os.getpid() not in pids

    def test_thread_backend_shares_parent_pid(self):
        def kernel(comm):
            return os.getpid()

        assert run_spmd(2, kernel, backend="thread") == [os.getpid()] * 2

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            run_spmd(2, lambda comm: None, backend="mpi")


# --------------------------------------------------------------------------
# kernel shipping (closures, cells, defaults)


class TestKernelCodec:
    def test_closure_cells_ship_by_value(self):
        offset = 17.5
        table = {"scale": 3.0}

        def kernel(comm, bump=2.0):
            return comm.rank * table["scale"] + offset + bump

        rt, rp = both_backends(2, kernel)
        assert_bitwise(rt, rp)

    def test_nested_closures_and_recursion(self):
        def kernel(comm):
            def fib(n):
                return n if n < 2 else fib(n - 1) + fib(n - 2)

            return fib(10 + comm.rank)

        rt, rp = both_backends(2, kernel)
        assert_bitwise(rt, rp)

    def test_kwargs_and_array_args_roundtrip(self):
        def kernel(comm, arr, *, label):
            return {"label": label, "dot": float(arr @ arr) * comm.rank}

        arr = np.linspace(0.0, 1.0, 257)
        rt = run_spmd(2, kernel, arr, label="x", backend="thread")
        rp = run_spmd(2, kernel, arr, label="x", backend="process")
        assert_bitwise(rt, rp)


# --------------------------------------------------------------------------
# real workloads, sanitized


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("p", PS)
    def test_forest_ghost_and_balance(self, p, sanitized):
        conn = brick_connectivity(2, 1, 1)

        def kernel(comm):
            pf = ParForest.uniform(comm, conn, 2)
            rng = np.random.default_rng(7)
            flags = rng.random(len(pf)) < 0.3
            pf.refine(flags)
            pf.balance()
            g = pf.gather()
            return {"keys": g.fkeys(), "levels": g.octs.level.copy()}

        rt, rp = both_backends(p, kernel)
        assert_bitwise(rt, rp)

    @pytest.mark.parametrize("p", PS)
    def test_sphere_balance(self, p, sanitized):
        conn = cubed_sphere_connectivity()

        def kernel(comm):
            pf = ParForest.uniform(comm, conn, 1)
            pf.refine(np.arange(len(pf)) % 3 == 0)
            pf.balance()
            return len(pf)

        rt, rp = both_backends(p, kernel)
        assert sum(rt) == sum(rp)
        assert_bitwise(rt, rp)

    @pytest.mark.parametrize("p", PS)
    def test_amr_pipeline_cycle(self, p, sanitized):
        def kernel(comm):
            pipe = ParAmrPipeline(comm, coarse_level=2, max_level=4)
            pipe.run_cycles(2, steps_per_cycle=2, target=300)
            from repro.octree import gather_tree

            g = gather_tree(pipe.pt)
            return {
                "keys": g.octs.keys().copy(),
                "levels": g.octs.level.copy(),
                "T": pipe.T.copy(),
                "steps": pipe.steps_taken,
            }

        rt, rp = both_backends(p, kernel)
        assert_bitwise(rt, rp)

    def test_checkpoint_crash_restart(self, tmp_path, sanitized):
        """Fault-injected crash inside worker processes, then restore —
        the restored trajectory must be bitwise-identical to threads."""
        def crash_kernel(comm, root):
            pipe = ParAmrPipeline(comm, coarse_level=2, max_level=4)
            pipe.run_cycles(3, 2, 300, checkpoint=Checkpointer(root, every=1))
            return None

        def resume_kernel(comm, root):
            pipe = ParAmrPipeline.resume_from(comm, root)
            pipe.run_cycles(3 - pipe.cycles_done, 2, 300)
            return {"T": pipe.T.copy(), "steps": pipe.steps_taken}

        outs = {}
        for backend in ("thread", "process"):
            root = str(tmp_path / backend)
            arm_fault(rank=1, step=4)
            try:
                with pytest.raises(InjectedFault):
                    run_spmd(2, crash_kernel, root, backend=backend)
            finally:
                disarm_fault()
            assert list_checkpoints(root), "no snapshot survived the crash"
            outs[backend] = run_spmd(2, resume_kernel, root, backend=backend)
        assert_bitwise(outs["thread"], outs["process"])

    def test_fleet_preempt_resume_from_workers(self, tmp_path, sanitized):
        """Fleet quantum preemption exercised from inside worker
        processes: each rank runs its own fleet shard, preempts after one
        quantum, and a second process run resumes it to completion."""
        from repro.fleet import FleetService
        from repro.fleet.spec import ScenarioSpec

        def specs(rank):
            return [
                ScenarioSpec(job_id=f"j{rank}", tenant=f"t{rank}", cycles=2),
                ScenarioSpec(
                    job_id=f"k{rank}", tenant=f"t{rank}", cycles=2, Ra=3e4
                ),
            ]

        def start_kernel(comm, base):
            svc = FleetService(root=os.path.join(base, f"shard{comm.rank}"))
            for s in specs(comm.rank):
                svc.admit(s)
            svc.arm_budget(1)
            svc.run()
            comm.barrier()
            return sorted(svc.statuses().values())

        def finish_kernel(comm, base):
            svc = FleetService.resume(os.path.join(base, f"shard{comm.rank}"))
            svc.run()
            comm.barrier()
            return {
                "status": sorted(svc.statuses().values()),
                "vrms": {
                    jid: [h.vrms for h in job.sim.history]
                    for jid, job in sorted(svc.jobs.items())
                },
            }

        def reference(rank):
            svc = FleetService()
            for s in specs(rank):
                svc.admit(s)
            svc.run()
            return {
                jid: [h.vrms for h in job.sim.history]
                for jid, job in sorted(svc.jobs.items())
            }

        base = str(tmp_path / "fleet")
        statuses = run_spmd(2, start_kernel, base, backend="process")
        assert all(set(s) == {"preempted"} for s in statuses)
        outs = run_spmd(2, finish_kernel, base, backend="process")
        for rank, out in enumerate(outs):
            assert set(out["status"]) == {"done"}
            assert_bitwise(out["vrms"], reference(rank))


# --------------------------------------------------------------------------
# sanitizers over the real transport


class TestSanitizersOnProcessBackend:
    def test_checked_comm_catches_divergence(self):
        def kernel(comm):
            if comm.rank == 0:
                comm.allreduce(1.0, op="sum")
            else:
                comm.allgather(comm.rank)

        sanitize.install(timeout=8.0)
        try:
            with pytest.raises(sanitize.CollectiveMismatch) as exc:
                run_spmd(2, kernel, backend="process")
        finally:
            sanitize.uninstall()
        # the structured report survives the process boundary
        assert set(exc.value.report) == {0, 1}

    def test_delivery_fuzzer_equivalent(self):
        def kernel(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            parts = []
            for tag in range(4):
                got = comm.sendrecv(
                    np.full(8, comm.rank * 10.0 + tag),
                    dest=right, source=left, tag=tag,
                )
                parts.append(got.copy())
            comm.barrier()
            return np.concatenate(parts)

        for backend in ("thread", "process"):
            sanitize.install(fuzz_seed=99)
            try:
                out = run_spmd(3, kernel, backend=backend)
            finally:
                sanitize.uninstall()
            if backend == "thread":
                ref = out
        assert_bitwise(ref, out)

    def test_injected_fault_fires_in_worker_and_fires_once(self):
        from repro.parallel.simcomm import check_fault

        def kernel(comm, steps):
            for step in range(steps):
                check_fault(comm, step)
                comm.barrier()
            return comm.rank

        arm_fault(rank=1, step=2)
        try:
            with pytest.raises(InjectedFault) as exc:
                run_spmd(2, kernel, 4, backend="process")
            assert (exc.value.rank, exc.value.step) == (1, 2)
            # fire-once semantics hold across the process boundary
            assert run_spmd(2, kernel, 4, backend="process") == [0, 1]
        finally:
            disarm_fault()


# --------------------------------------------------------------------------
# stats + obs gathering


class TestGatherBack:
    def test_stats_counters_identical_across_backends(self, sanitized):
        def kernel(comm):
            comm.allreduce(float(comm.rank))
            comm.allgather(np.zeros(16))
            comm.sendrecv(
                b"x" * 100,
                dest=(comm.rank + 1) % comm.size,
                source=(comm.rank - 1) % comm.size,
            )
            comm.barrier()
            return None

        per_backend = {}
        for backend in ("thread", "process"):
            _res, comms = run_spmd_with_comms(2, kernel, backend=backend)
            per_backend[backend] = [
                (
                    c.stats.p2p_messages,
                    c.stats.p2p_bytes,
                    dict(c.stats.collective_calls),
                    dict(c.stats.collective_bytes),
                )
                for c in comms
            ]
        assert per_backend["thread"] == per_backend["process"]

    def test_obs_report_structure_identical(self, sanitized):
        from repro import obs
        from repro.obs import generate_report

        def kernel(comm):
            t = obs.enable(comm)
            with obs.phase("cycle"):
                with obs.phase("solve"):
                    comm.allreduce(float(comm.rank))
                with obs.phase("exchange"):
                    comm.alltoallv_arrays(
                        [np.full(2, float(comm.rank)) for _ in range(comm.size)]
                    )
            obs.disable()
            return t.results()

        reports = {}
        for backend in ("thread", "process"):
            per_rank = run_spmd(2, kernel, backend=backend)
            reports[backend] = generate_report(per_rank)
        rt, rp = reports["thread"], reports["process"]
        assert set(rt["phases"]) == set(rp["phases"])
        for ph in rt["phases"]:
            a, b = rt["phases"][ph], rp["phases"][ph]
            assert a["collective_calls"] == b["collective_calls"]
            assert a["collective_bytes"] == b["collective_bytes"]
            assert a["p2p_messages"] == b["p2p_messages"]
            assert a["count"] == b["count"]

    def test_dangling_timer_gathered_to_proxy(self):
        from repro import obs

        def kernel(comm):
            obs.enable(comm)
            with obs.phase("only"):
                comm.barrier()
            return comm.rank  # forgets obs.disable()

        _res, comms = run_spmd_with_comms(2, kernel, backend="process")
        for c in comms:
            assert c.timer_results is not None
            assert "only" in c.timer_results
