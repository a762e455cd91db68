"""Seeded SPMD bug classes, and the mechanism that catches each one.

Every row of the mutation matrix in EXPERIMENTS.md is a module-level
kernel here carrying one deliberate bug of its class, run at P = 2 on the
thread and the process backend under an explicitly installed
:class:`~repro.parallel.sanitize.CheckedComm` with a 1 s timeout.  The
kernels live at module level because a process worker imports this
module to find them: a monkeypatch made in the parent never reaches a
spawned worker.

(a) a collective reached through a helper on one rank only;
(b) two ranks issuing the same collectives in different orders;
(c) a receive posted before its matching send, on every rank;
(d) a sender writing into its buffer after ``send``, and a kernel writing
    into a memoized mesh operator;
(e) an ``alltoall`` send list of the wrong length on one rank;
(f) module-global state armed in the parent and read in a kernel;
(g) a collective skipped on every rank, which only the pinned collective
    count of the family merge sees.
"""

import time

import numpy as np
import pytest

from repro.mesh import extract_mesh
from repro.octree import LinearOctree
from repro.parallel import procomm, run_spmd, sanitize
from repro.parallel.simcomm import set_comm_factory

from tools import lint

from . import test_forest_properties as pinned

P = 2
TIMEOUT = 1.0
N_TAGS = 8  # messages per mutate-after-send run: enough for the fuzzer to hold some

BACKENDS = [
    "thread",
    pytest.param(
        "process",
        marks=pytest.mark.skipif(
            not procomm.available(), reason="POSIX shared memory unavailable"
        ),
    ),
]


@pytest.fixture
def checked(monkeypatch):
    """CheckedComm with a short timeout, plus the cache freeze guards
    (``REPRO_SANITIZE`` travels to process workers in the run envelope)."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitize.install(timeout=TIMEOUT)
    yield
    sanitize.uninstall()


# --------------------------------------------------------------------------
# the seeded kernels


def rank_kernel(comm):
    return comm.rank


def _total(comm, x):
    return comm.allreduce(x)


def helper_collective_kernel(comm):
    """(a) Rank 0 reaches an allreduce through a helper rank 1 skips."""
    if comm.rank == 0:
        _total(comm, 1.0)
    return comm.allreduce(2.0)


def collective_order_kernel(comm):
    """(b) The same two collectives, in rank-dependent order."""
    if comm.rank == 0:
        comm.allreduce(1.0)
        comm.allgather(comm.rank)
    else:
        comm.allgather(comm.rank)
        comm.allreduce(1.0)


def recv_before_send_kernel(comm):
    """(c) Every rank receives from the left before it sends right."""
    left = (comm.rank - 1) % comm.size
    right = (comm.rank + 1) % comm.size
    got = comm.recv(left, tag=7)
    comm.send(comm.rank, right, tag=7)
    return got


def mutate_after_send_kernel(comm):
    """(d) Rank 0 overwrites its send buffer before rank 1 receives."""
    buf = np.arange(4, dtype=np.float64)
    if comm.rank == 0:
        for tag in range(N_TAGS):
            comm.send(buf, 1, tag)
        buf[:] = -1.0
    comm.barrier()
    got = [comm.recv(0, tag) for tag in range(N_TAGS)] if comm.rank == 1 else []
    return got, comm.n_held


def cached_operator_write_kernel(comm):
    """(d) A kernel scales a memoized mesh operator in place."""
    mesh = extract_mesh(LinearOctree.uniform(1))
    sizes = mesh.element_sizes()
    sizes *= 2.0
    return mesh.element_sizes()


def alltoall_count_kernel(comm):
    """(e) Rank 1 hands alltoall one entry per rank too many."""
    return comm.alltoall([comm.rank] * (comm.size + comm.rank))


_state = {"scale": 1.5}
_STATE = {"scale": 1.5}


def configure(scale):
    """(f) Arm module state in this interpreter only."""
    _state["scale"] = scale
    _STATE["scale"] = scale


def module_state_kernel(comm):
    """(f) Reads the parent's module state: stale in a process worker."""
    return comm.allreduce(_state["scale"])


def module_state_caps_kernel(comm):
    """(f) The same read, of a name that looks like a constant."""
    return comm.allreduce(_STATE["scale"])


class SkipsAcceptAlltoall(sanitize.CheckedComm):
    """(g) Every rank drops its second all-to-all — in the family merge,
    the exchange returning accepted straddling families — as if nothing
    came back.  The collective stream stays symmetric."""

    DEFAULT_TIMEOUT = TIMEOUT

    def alltoallv_arrays(self, parts):
        self.n_alltoallv = getattr(self, "n_alltoallv", 0) + 1
        if self.n_alltoallv == 2:
            return [p[:0] for p in parts]
        return super().alltoallv_arrays(parts)


# --------------------------------------------------------------------------
# the matrix


@pytest.mark.parametrize("backend", BACKENDS)
class TestRuntimeCatches:
    def test_a_collective_through_helper(self, backend, checked):
        with pytest.raises(sanitize.CollectiveMismatch) as exc:
            run_spmd(P, helper_collective_kernel, backend=backend)
        sites = {m["site"] for m in exc.value.report.values()}
        assert len(sites) == 2  # the helper's line and the kernel's

    def test_b_divergent_collective_order(self, backend, checked):
        with pytest.raises(sanitize.CollectiveMismatch) as exc:
            run_spmd(P, collective_order_kernel, backend=backend)
        ops = {m["op"] for m in exc.value.report.values()}
        assert ops == {"allreduce[sum]", "allgather"}

    def test_c_recv_before_send_times_out(self, backend, checked):
        run_spmd(P, rank_kernel, backend=backend)  # warm the worker pool
        t0 = time.monotonic()
        with pytest.raises(sanitize.RecvTimeout) as exc:
            run_spmd(P, recv_before_send_kernel, backend=backend)
        assert time.monotonic() - t0 < 2 * TIMEOUT
        e = exc.value
        assert (e.source, e.tag) == (1 - e.dest, 7)
        assert f"from rank {e.source} with tag 7" in str(e)

    @pytest.mark.parametrize("fuzz_seed", [None, 5])
    def test_d_mutate_after_send(self, backend, checked, fuzz_seed):
        sanitize.install(timeout=TIMEOUT, fuzz_seed=fuzz_seed)
        (_, held), (got, _) = run_spmd(P, mutate_after_send_kernel, backend=backend)
        assert len(got) == N_TAGS
        for a in got:
            assert np.array_equal(a, np.arange(4, dtype=np.float64))
        assert (held > 0) == (fuzz_seed is not None)  # the hold queue was exercised

    def test_d_write_into_cached_operator(self, backend, checked):
        with pytest.raises(sanitize.CacheMutationError, match="element_sizes"):
            run_spmd(P, cached_operator_write_kernel, backend=backend)

    def test_e_alltoall_count_mismatch(self, backend, checked):
        with pytest.raises(ValueError, match="alltoall needs 2 entries, got 3"):
            run_spmd(P, alltoall_count_kernel, backend=backend)

    def test_g_collective_skipped_on_every_rank(self, backend, monkeypatch):
        monkeypatch.setenv("REPRO_SPMD_BACKEND", backend)
        set_comm_factory(SkipsAcceptAlltoall)
        try:
            with pytest.raises(AssertionError, match=r"\(2, 192\) == \(3, 192\)"):
                pinned.TestOneFamilyMerge().test_sphere_collectives_per_call(P, 3)
        finally:
            set_comm_factory(None)


@pytest.mark.skipif(not procomm.available(), reason="POSIX shared memory unavailable")
@pytest.mark.parametrize(
    "kernel, name",
    [(module_state_kernel, "_state"), (module_state_caps_kernel, "_STATE")],
)
def test_f_module_state_differs_across_backends_and_lint_flags_it(checked, kernel, name):
    configure(3.0)
    try:
        threads = run_spmd(P, kernel, backend="thread")
        workers = run_spmd(P, kernel, backend="process")
    finally:
        configure(1.5)
    assert threads == [6.0, 6.0] and workers == [3.0, 3.0]
    r10 = [f for f in lint.lint_file(__file__) if f.rule == "R10"]
    assert any(f"'{kernel.__name__}'" in f.message and f"'{name}'" in f.message for f in r10)
