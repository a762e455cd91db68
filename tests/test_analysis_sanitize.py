"""Runtime sanitizer tests (repro.parallel.sanitize).

Covers the CheckedComm collective-divergence detector (structured
mismatch reports instead of deadlocks), the seeded delivery fuzzer,
the freeze/verify cache-mutation guards, and their wiring into
opcache (the element gathers included) / LaggedStokesPreconditioner under
REPRO_SANITIZE=1.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.fem import StokesSystem
from repro.fem.stokes import velocity_bcs
from repro.forest import Forest, unit_cube
from repro.mesh import extract_mesh
from repro.mesh.opcache import operator_cache
from repro.parallel import run_spmd
from repro.parallel.sanitize import (
    CacheMutationError,
    CheckedComm,
    CollectiveMismatch,
    checked_comm_factory,
    freeze,
    install,
    maybe_freeze,
    maybe_verify,
    uninstall,
    verify_frozen,
)
from repro.parallel.simcomm import get_comm_factory, run_spmd_with_comms
from repro.solvers import LaggedStokesPreconditioner

from .oracles.amg_block import StokesBlockPreconditioner

@pytest.fixture(autouse=True)
def _clean_factory():
    """Never leak a comm factory (or stray env) into other tests."""
    yield
    uninstall()


def _mesh(level=1):
    return extract_mesh(Forest.uniform(unit_cube(), level))


def _stokes(level=1):
    mesh = _mesh(level)
    f = np.zeros((mesh.n_nodes, 3))
    f[:, 2] = mesh.node_coords()[:, 0]
    return StokesSystem(mesh, np.ones(mesh.n_elements), f)


# --------------------------------------------------------------------------
# CheckedComm: symmetric programs are transparent


class TestCheckedCommTransparent:
    def test_collectives_match_plain_simcomm(self):
        def kernel(comm):
            x = np.arange(3, dtype=np.float64) + comm.rank
            total = comm.allreduce(x)
            parts = comm.allgather(comm.rank)
            off = comm.exscan(comm.rank + 1)
            root_val = comm.bcast(42 if comm.rank == 0 else None)
            comm.barrier()
            return total.sum(), parts, off, root_val

        plain = run_spmd(4, kernel)
        install(timeout=5.0)
        try:
            checked = run_spmd(4, kernel)
        finally:
            uninstall()
        assert checked == plain

    def test_env_substitutes_checked_comm(self, monkeypatch):
        kernel = lambda comm: type(comm).__name__  # noqa: E731
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert run_spmd(2, kernel) == ["CheckedComm", "CheckedComm"]
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert run_spmd(2, kernel) == ["SimComm", "SimComm"]

    def test_install_uninstall_roundtrip(self):
        install()
        assert get_comm_factory() is not None
        uninstall()
        assert get_comm_factory() is None


# --------------------------------------------------------------------------
# CheckedComm: divergence raises a structured report, never hangs


class TestDivergence:
    def test_op_divergence_reports_rank_op_site(self):
        def kernel(comm):
            if comm.rank == 1:
                return comm.allgather(comm.rank)
            return comm.allreduce(comm.rank)

        install(timeout=5.0)
        with pytest.raises(CollectiveMismatch) as ei:
            run_spmd(3, kernel)
        exc = ei.value
        assert "allgather" in str(exc) and "allreduce" in str(exc)
        assert set(exc.report) == {0, 1, 2}
        ops = {r: m["op"] for r, m in exc.report.items()}
        assert ops[1] == "allgather"
        assert ops[0] == "allreduce[sum]" and ops[2] == "allreduce[sum]"
        for m in exc.report.values():
            assert "test_analysis_sanitize.py" in m["site"]
            assert m["seq"] == 0

    def test_payload_dtype_divergence(self):
        def kernel(comm):
            dt = np.float32 if comm.rank == 0 else np.float64
            return comm.allreduce(np.ones(4, dtype=dt))

        install(timeout=5.0)
        with pytest.raises(CollectiveMismatch) as ei:
            run_spmd(2, kernel)
        assert "float32" in str(ei.value) and "float64" in str(ei.value)

    def test_call_site_divergence(self):
        def kernel(comm):
            if comm.rank == 0:
                comm.barrier()
            else:
                comm.barrier()
            return True

        install(timeout=5.0)
        with pytest.raises(CollectiveMismatch) as ei:
            run_spmd(2, kernel)
        # same op, different source lines: both sites appear in the report
        sites = {m["site"] for m in ei.value.report.values()}
        assert len(sites) == 2

    def test_missing_rank_times_out_instead_of_deadlocking(self):
        def kernel(comm):
            if comm.rank != 0:
                comm.barrier()  # rank 0 never shows up
            return comm.rank

        install(timeout=0.5)
        with pytest.raises(CollectiveMismatch) as ei:
            run_spmd(3, kernel)
        assert "no matching collective" in str(ei.value)
        # recent per-rank history is embedded for debugging
        assert "barrier" in str(ei.value)

    def test_count_divergence_detected_across_iterations(self):
        def kernel(comm):
            n = 3 if comm.rank == 0 else 2
            for _ in range(n):
                comm.allreduce(1.0)
            return comm.rank

        install(timeout=0.5)
        with pytest.raises(CollectiveMismatch):
            run_spmd(2, kernel)


# --------------------------------------------------------------------------
# delivery fuzzer


class TestDeliveryFuzzer:
    @staticmethod
    def _ring(comm):
        nxt = (comm.rank + 1) % comm.size
        prv = (comm.rank - 1) % comm.size
        for i in range(4):
            comm.send(comm.rank * 10 + i, nxt, tag=0)
            comm.send(np.full(2, comm.rank * 10 + i, np.float64), nxt, tag=1)
        ints = [comm.recv(prv, tag=0) for _ in range(4)]
        arrs = [float(comm.recv(prv, tag=1)[0]) for _ in range(4)]
        return ints, arrs

    def test_seeded_fuzz_preserves_channel_fifo(self):
        expected = run_spmd(4, self._ring)
        held_total = 0
        for seed in range(5):
            try:
                install(timeout=10.0, fuzz_seed=seed)
                results, comms = run_spmd_with_comms(4, self._ring)
            finally:
                uninstall()
            assert results == expected, f"fuzz seed {seed} changed results"
            held_total += sum(c.n_held for c in comms)
        assert held_total > 0  # the fuzzer actually perturbed delivery

    def test_fuzz_is_deterministic_per_seed(self):
        def run(seed):
            try:
                install(timeout=10.0, fuzz_seed=seed)
                _, comms = run_spmd_with_comms(4, self._ring)
            finally:
                uninstall()
            return [(c.n_held, c.n_shuffles) for c in comms]

        assert run(7) == run(7)

    def test_finalize_flushes_unreceived_messages(self):
        def kernel(comm):
            if comm.rank == 0:
                comm.send("tail", 1, tag=9)
            return None

        try:
            install(timeout=10.0, fuzz_seed=3)
            _, comms = run_spmd_with_comms(2, kernel)
        finally:
            uninstall()
        assert not comms[0]._pending  # _finalize drained held channels


# --------------------------------------------------------------------------
# freeze / verify primitives


class TestFreezeVerify:
    def test_roundtrip_unchanged(self):
        val = {"a": np.arange(5, dtype=np.float64), "b": [np.eye(2)]}
        tok = freeze(val)
        verify_frozen(val, tok, context="t")  # no raise

    def test_detects_array_mutation(self):
        a = np.arange(4, dtype=np.float64)
        tok = freeze(a)
        a[2] = 99.0
        with pytest.raises(CacheMutationError, match="mutated in place"):
            verify_frozen(a, tok)

    def test_detects_sparse_data_mutation(self):
        A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
        tok = freeze(A)
        A.data[0] = -1.0
        with pytest.raises(CacheMutationError):
            verify_frozen(A, tok)

    def test_detects_sparse_structure_mutation(self):
        A = sp.coo_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
        tok = freeze(A)
        A.row[0] = 1
        with pytest.raises(CacheMutationError):
            verify_frozen(A, tok)

    def test_none_token_is_noop(self):
        a = np.zeros(3)
        verify_frozen(a, None)  # unsanitized call sites pass through

    def test_maybe_variants_follow_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert maybe_freeze(np.zeros(2)) is None
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        a = np.zeros(2)
        tok = maybe_freeze(a)
        assert isinstance(tok, str)
        a += 1
        with pytest.raises(CacheMutationError):
            maybe_verify(a, tok)


# --------------------------------------------------------------------------
# guards wired into the cache layers


class TestOpcacheGuard:
    def test_mutating_cached_geometry_fires_on_next_access(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        mesh = _mesh()
        sizes = mesh.element_sizes()
        mesh.element_sizes()  # clean hit verifies fine
        sizes *= 2.0  # in-place write to the memoized array
        with pytest.raises(CacheMutationError, match="element_sizes"):
            mesh.element_sizes()

    def test_mutating_cached_dataclass_fires_on_next_access(self, monkeypatch):
        # the boundary-condition record is a dataclass: the fingerprint
        # must cover the arrays in its fields
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        mesh = _mesh()
        velocity_bcs(mesh, "free_slip").dofs[0] = -7
        with pytest.raises(CacheMutationError, match="stokes_bcs"):
            velocity_bcs(mesh, "free_slip")

    def test_token_adopted_for_pre_sanitize_entries(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        mesh = _mesh()
        centers = mesh.element_centers()  # cached without a token
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        mesh.element_centers()  # hit adopts a fingerprint
        centers[0, 0] += 1.0  # deliberate mutation
        with pytest.raises(CacheMutationError):
            mesh.element_centers()

    def test_unsanitized_mutation_goes_unchecked(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        mesh = _mesh()
        mesh.element_sizes()[:] = -1.0
        mesh.element_sizes()  # no guard without REPRO_SANITIZE


class TestGatherGuard:
    def test_gather_mutation_detected(self, monkeypatch):
        from repro.fem import assemble_scalar
        from repro.fem.hexops import ElementOps

        monkeypatch.setenv("REPRO_SANITIZE", "1")
        mesh = _mesh()
        elem = ElementOps().mass(mesh.element_sizes())
        assemble_scalar(mesh, elem)  # builds and fingerprints the gather
        assemble_scalar(mesh, elem)  # clean replay
        operator_cache(mesh).store[("gather", "scalar")].GT.indices[0] += 1
        with pytest.raises(CacheMutationError, match="gather"):
            assemble_scalar(mesh, elem)


class TestLaggedPrecGuard:
    def test_hierarchy_mutation_detected_on_reuse(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        st = _stokes()
        lag = LaggedStokesPreconditioner(rtol=0.5)
        prec = lag.get(st)
        assert lag.get(st) is prec and lag.n_reuses == 1  # clean reuse
        prec.gmg.levels[0].op.A.data[0] += 1.0  # poison the lagged setup
        with pytest.raises(CacheMutationError, match="GMG hierarchy"):
            lag.get(st)

    @pytest.mark.parametrize("poison", ["R", "free", "fixed", "fixed_diag"])
    def test_split_state_mutation_detected(self, monkeypatch, poison):
        """The stored restriction and the free/fixed bookkeeping of the
        AMG cycle are part of its fingerprinted state (the AMG block
        oracle's hierarchies; the lagged wrapper holds GMG only)."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        st = _stokes(level=2)  # 75 free dofs per component: two levels
        amg = StokesBlockPreconditioner(st).amg[0]
        token = maybe_freeze(amg.frozen_state())
        maybe_verify(amg.frozen_state(), token, context="AMG hierarchy")  # clean
        target = amg.levels[1].R.data if poison == "R" else getattr(amg, poison)
        target[0] += 1
        with pytest.raises(CacheMutationError, match="AMG hierarchy"):
            maybe_verify(amg.frozen_state(), token, context="AMG hierarchy")

    def test_gmg_restriction_mutation_detected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        st = _stokes(level=2)
        lag = LaggedStokesPreconditioner(rtol=0.5)
        prec = lag.get(st)
        prec.gmg.levels[1].R.data[0] += 1.0
        with pytest.raises(CacheMutationError, match="GMG hierarchy"):
            lag.get(st)

    def test_invalidate_clears_guard(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        st = _stokes()
        lag = LaggedStokesPreconditioner(rtol=0.5)
        prec = lag.get(st)
        prec.gmg.levels[0].op.A.data[0] += 1.0
        lag.invalidate()
        assert lag.get(st) is not prec  # rebuild, no stale token to trip
        assert lag.n_builds == 2


class TestStructuralInvalidation:
    def test_adapt_still_invalidates_under_sanitizer(self, monkeypatch):
        from repro.rhea import MantleConvection, RheaConfig

        monkeypatch.setenv("REPRO_SANITIZE", "1")
        cfg = RheaConfig(
            initial_level=2,
            picard_iterations=2,
            adapt_every=1,
            stokes_tol=1e-8,
            max_level=3,
            target_elements=100,
        )
        sim = MantleConvection(cfg)
        sim.solve_stokes()
        old_mesh = sim.mesh
        assert len(operator_cache(old_mesh).tokens) > 0
        sim.adapt()
        assert sim.mesh is not old_mesh
        cache = operator_cache(sim.mesh)
        assert cache is not operator_cache(old_mesh)
        # nothing carries over: only what adapt() itself rebuilt is present
        assert "Z3" not in cache.store
        assert set(cache.tokens) == set(cache.store)
        sim.solve_stokes()  # repopulates cleanly: no mutation alarms


# --------------------------------------------------------------------------
# direct construction (no factory) still works


class TestDirectConstruction:
    def test_checked_comm_single_rank_inline(self):
        from repro.parallel.simcomm import SimWorld

        world = SimWorld(1)
        comm = CheckedComm(world, 0, timeout=1.0)
        assert comm.allreduce(3) == 3
        assert comm.allgather("x") == ["x"]
        comm.barrier()

    def test_factory_builds_configured_comms(self):
        from repro.parallel.simcomm import SimWorld

        f = checked_comm_factory(timeout=2.5, fuzz_seed=11)
        comm = f(SimWorld(1), 0)
        assert comm.timeout == 2.5
        assert comm._rng is not None


# --------------------------------------------------------------------------
# REPRO_SANITIZE_TIMEOUT environment override


class TestTimeoutEnv:
    def test_env_overrides_default(self, monkeypatch):
        from repro.parallel.simcomm import SimWorld

        monkeypatch.setenv("REPRO_SANITIZE_TIMEOUT", "3.5")
        comm = CheckedComm(SimWorld(1), 0)
        assert comm.timeout == 3.5

    def test_explicit_argument_wins_over_env(self, monkeypatch):
        from repro.parallel.simcomm import SimWorld

        monkeypatch.setenv("REPRO_SANITIZE_TIMEOUT", "3.5")
        comm = CheckedComm(SimWorld(1), 0, timeout=1.0)
        assert comm.timeout == 1.0

    def test_unset_env_keeps_default(self, monkeypatch):
        from repro.parallel.simcomm import SimWorld

        monkeypatch.delenv("REPRO_SANITIZE_TIMEOUT", raising=False)
        comm = CheckedComm(SimWorld(1), 0)
        assert comm.timeout == CheckedComm.DEFAULT_TIMEOUT

    def test_garbage_env_raises(self, monkeypatch):
        from repro.parallel.simcomm import SimWorld

        monkeypatch.setenv("REPRO_SANITIZE_TIMEOUT", "soon")
        with pytest.raises(ValueError, match="REPRO_SANITIZE_TIMEOUT.*'soon'"):
            CheckedComm(SimWorld(1), 0)

    @pytest.mark.parametrize("value", ["0", "-2", "inf", "nan"])
    def test_nonpositive_or_nonfinite_env_raises(self, monkeypatch, value):
        # a zero or negative timeout would fail every barrier at once and
        # report a false CollectiveMismatch on every collective
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        monkeypatch.setenv("REPRO_SANITIZE_TIMEOUT", value)
        with pytest.raises(ValueError, match="REPRO_SANITIZE_TIMEOUT"):
            run_spmd(2, lambda comm: comm.allreduce(1))
