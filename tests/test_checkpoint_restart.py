"""Fault-injected crash / restart determinism tests.

The paper's production requirement: a run killed mid-flight must resume
from its last snapshot — possibly on a different rank count — and
reproduce the uninterrupted trajectory.  Same-rank-count restarts are
bitwise; restarts onto a *different* rank count keep the octree bitwise
and temperature within FP-reassociation noise of ghost-exchange
summation (the same 1e-11 envelope the seed's P-invariance test uses).
"""

import dataclasses
import json
import os
import pathlib

import numpy as np
import pytest

from repro.amr import ParAmrPipeline
from repro.checkpoint import (
    CheckpointError,
    Checkpointer,
    ShardIntegrityError,
    list_checkpoints,
    save_pipeline,
)
from repro.checkpoint.format import MANIFEST_NAME, shard_name, step_dirname
from repro.fleet import FleetService, ScenarioSpec
from repro.mesh import node_keys
from repro.octree import gather_tree
from repro.parallel import InjectedFault, fault_injection, run_spmd
from repro.rhea import MantleConvection, RheaConfig

CYCLES, STEPS, TARGET = 4, 3, 400  # formerly P-variant; see quantized marking
FAIL_STEP = 6  # steps_taken at the start of cycle 3


def _state(comm, pipe):
    g = gather_tree(pipe.pt)
    pm = pipe.pm
    ks = node_keys(pm.mesh.node_coords_int[pm.mesh.indep_nodes])
    mine = pm.node_owner[pm.mesh.indep_nodes] == comm.rank
    return {
        "keys": g.octs.keys().copy(),
        "levels": g.octs.level.copy(),
        "node_keys": ks[mine],
        "T": pipe.T[mine].copy(),
        "steps": pipe.steps_taken,
    }


def _field_map(outs):
    fm = {}
    for o in outs:
        for k, v in zip(o["node_keys"], o["T"]):
            fm[int(k)] = v
    return fm


def _uninterrupted(p):
    def kernel(comm):
        pipe = ParAmrPipeline(comm, coarse_level=2, max_level=4)
        pipe.run_cycles(CYCLES, STEPS, TARGET)
        return _state(comm, pipe)

    return run_spmd(p, kernel)


def _crash(p, root, fail_rank):
    """Run with per-cycle checkpointing, killing ``fail_rank`` at
    FAIL_STEP.  Returns the checkpoints left on disk."""

    def kernel(comm):
        pipe = ParAmrPipeline(comm, coarse_level=2, max_level=4)
        pipe.run_cycles(CYCLES, STEPS, TARGET,
                        checkpoint=Checkpointer(root, every=1))
        return None

    with fault_injection(rank=fail_rank, step=FAIL_STEP):
        with pytest.raises(InjectedFault):
            run_spmd(p, kernel)
    return [s for s, _ in list_checkpoints(root)]


def _resume(m, root):
    def kernel(comm):
        pipe = ParAmrPipeline.resume_from(comm, root)
        pipe.run_cycles(CYCLES - pipe.cycles_done, STEPS, TARGET)
        return _state(comm, pipe)

    return run_spmd(m, kernel)


class TestPipelineRestart:
    @pytest.fixture(scope="class")
    def crashed(self, tmp_path_factory):
        """One crashed 2-rank run + its uninterrupted reference."""
        root = str(tmp_path_factory.mktemp("crash") / "ck")
        steps_on_disk = _crash(2, root, fail_rank=1)
        ref = _uninterrupted(2)
        return root, steps_on_disk, ref

    def test_crash_leaves_complete_checkpoints(self, crashed):
        _, steps_on_disk, _ = crashed
        # cycles 1 and 2 completed before the injected kill at cycle 3
        assert steps_on_disk == [3, 6]

    def test_same_rank_count_resume_is_bitwise(self, crashed):
        root, _, ref = crashed
        outs = _resume(2, root)
        for o, r in zip(outs, ref):
            np.testing.assert_array_equal(o["keys"], r["keys"])
            np.testing.assert_array_equal(o["levels"], r["levels"])
            assert o["steps"] == r["steps"]
        got, want = _field_map(outs), _field_map(ref)
        assert got.keys() == want.keys()
        assert all(got[k] == want[k] for k in want)  # bitwise

    @pytest.mark.parametrize("m", [1, 3])
    def test_resume_on_different_rank_count(self, m, crashed):
        root, _, ref = crashed
        outs = _resume(m, root)
        for o in outs:
            # octree trajectory is bitwise even across rank counts
            np.testing.assert_array_equal(o["keys"], ref[0]["keys"])
            np.testing.assert_array_equal(o["levels"], ref[0]["levels"])
            assert o["steps"] == ref[0]["steps"]
        got, want = _field_map(outs), _field_map(ref)
        assert got.keys() == want.keys()
        for k in want:
            # ghost-exchange reassociation bound (seed P-invariance test)
            assert got[k] == pytest.approx(want[k], abs=1e-11)


class TestCorruptedRestore:
    def test_corrupted_shard_refused_with_named_shard(self, tmp_path):
        root = str(tmp_path / "ck")

        def save_kernel(comm):
            pipe = ParAmrPipeline(comm, coarse_level=2, max_level=4)
            pipe.run_cycles(1, STEPS, TARGET)
            save_pipeline(pipe, root)

        run_spmd(2, save_kernel)
        shard = tmp_path / "ck" / step_dirname(STEPS) / shard_name(1)
        raw = bytearray(shard.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        shard.write_bytes(bytes(raw))

        def restore_kernel(comm):
            ParAmrPipeline.resume_from(comm, root)

        with pytest.raises(ShardIntegrityError) as exc:
            run_spmd(1, restore_kernel)
        assert exc.value.shard == shard_name(1)
        assert shard_name(1) in str(exc.value)


def _small_cfg():
    return RheaConfig(
        Ra=1e4,
        initial_level=2,
        min_level=1,
        max_level=4,
        adapt_every=4,
        picard_iterations=2,
        stokes_tol=1e-6,
        stokes_maxiter=300,
    )


class TestConvectionRestart:
    def test_crash_resume_reproduces_trajectory(self, tmp_path):
        root = str(tmp_path / "ck")
        cfg = _small_cfg()

        ref = MantleConvection(_small_cfg())
        ref.run(4)

        sim = MantleConvection(cfg)
        with fault_injection(rank=0, step=8):
            with pytest.raises(InjectedFault):
                sim.run(4, checkpoint=Checkpointer(root, every=1))
        assert [s for s, _ in list_checkpoints(root)] == [4, 8]

        res = MantleConvection.resume_from(root, config=_small_cfg())
        assert res.step_count == 8 and len(res.history) == 2
        res.run(2)

        assert len(res.history) == len(ref.history) == 4
        for d, rd in zip(res.history, ref.history):
            assert d.step == rd.step
            assert d.vrms == pytest.approx(rd.vrms, rel=1e-10)
            assert d.nusselt == pytest.approx(rd.nusselt, rel=1e-10)
            # warm-start state (lagged preconditioner, pressure guess)
            # was restored exactly, so Krylov iteration counts match too
            assert d.minres_iterations == rd.minres_iterations
        np.testing.assert_array_equal(res.T, ref.T)
        np.testing.assert_array_equal(res.mesh.leaves.keys(), ref.mesh.leaves.keys())

    def test_restored_solver_state_reproduces_next_cycle(self, tmp_path):
        """A restore with the solver state re-assembles the lagged GMG
        levels from the saved reference viscosity, so the next cycle on
        the restored mesh makes the uninterrupted run's MINRES iterations
        and its preconditioner builds and reuses."""
        root = str(tmp_path / "ck")
        ref = MantleConvection(_small_cfg())
        ref.run(2, checkpoint=Checkpointer(root, every=1))
        res = MantleConvection.resume_from(
            root, config=_small_cfg(), include_solver_state=True
        )
        cycles = []
        for sim in (ref, res):
            before = sim.cache_stats()
            sim.run(1, adapt=False)
            after = sim.cache_stats()
            cycles.append((
                sim.history[-1].minres_iterations,
                after["prec_builds"] - before["prec_builds"],
                after["prec_reuses"] - before["prec_reuses"],
            ))
        assert cycles[1] == cycles[0]
        assert res.history[-1].vrms == ref.history[-1].vrms
        np.testing.assert_array_equal(res.T, ref.T)

    def test_mismatched_config_refused(self, tmp_path):
        """A restore under a config that differs in a field the manifest
        records is an error naming every differing field, not a run on a
        silently different domain; ``config=None`` means the defaults."""
        root = str(tmp_path / "ck")
        saved = dataclasses.replace(_small_cfg(), Ra=1e5, domain=(2.0, 1.0, 1.0))
        MantleConvection(saved).run(1, checkpoint=Checkpointer(root, every=1))
        other = dataclasses.replace(_small_cfg(), Ra=1e3, adapt_every=2)
        with pytest.raises(CheckpointError) as exc:
            MantleConvection.resume_from(root, config=other)
        msg = str(exc.value)
        for name in ("Ra", "domain", "adapt_every"):
            assert f"{name} (saved" in msg
        assert "velocity_bc" not in msg
        with pytest.raises(CheckpointError, match="adapt_every"):
            MantleConvection.resume_from(root)
        res = MantleConvection.resume_from(root, config=saved)
        assert res.mesh.domain[0] == 2.0 and res.step_count == 4

    def test_resume_without_solver_state_still_tracks(self, tmp_path):
        """Dropping the warm-start payload changes iteration counts at
        most — the trajectory itself stays within solver tolerance."""
        root = str(tmp_path / "ck")
        cfg = _small_cfg()
        ref = MantleConvection(_small_cfg())
        ref.run(3)

        sim = MantleConvection(cfg)
        sim.run(2, checkpoint=Checkpointer(root, every=1))
        res = MantleConvection.resume_from(
            root, config=_small_cfg(), include_solver_state=False
        )
        res.run(1)
        assert res.history[-1].vrms == pytest.approx(
            ref.history[-1].vrms, rel=1e-6
        )


def _add_retired_timings(root):
    """Give every convection history entry under ``root`` the ``timings``
    dict that format-version-1 checkpoints carried before the drivers'
    per-cycle wall-time dict was retired; returns the entries touched."""
    n = 0
    for dirpath, _, files in os.walk(root):
        if MANIFEST_NAME not in files:
            continue
        path = os.path.join(dirpath, MANIFEST_NAME)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        for d in doc["meta"].get("history", []):
            d["timings"] = {"AMR": 0.1, "Stokes": 1.0, "TimeIntegration": 0.2}
            n += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return n


class TestRetiredTimingsKey:
    def test_serial_resume(self, tmp_path):
        root = str(tmp_path / "ck")
        ref = MantleConvection(_small_cfg())
        ref.run(2, checkpoint=Checkpointer(root, every=2))
        assert _add_retired_timings(root) == 2
        res = MantleConvection.resume_from(root, config=_small_cfg())
        assert res.history == ref.history

    def test_fleet_resume(self, tmp_path):
        root = str(tmp_path / "fleet")
        svc = FleetService(root=root)
        svc.admit(ScenarioSpec(job_id="a", tenant="t0", initial_level=2,
                               max_level=3, cycles=2))
        svc.arm_budget(1)
        svc.run()
        assert _add_retired_timings(root) == 1
        svc = FleetService.resume(root)
        svc.run()
        assert svc.statuses() == {"a": "done"}
        assert len(svc.jobs["a"].sim.history) == 2


# a path, its bytes spelling and a Path: none of them is a policy
NOT_A_CHECKPOINTER = ["ck", b"ck", pathlib.Path("ck")]


class TestCheckpointArgument:
    @pytest.mark.parametrize("spec", NOT_A_CHECKPOINTER, ids=repr)
    def test_serial_run_refuses_non_checkpointer(self, spec, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        sim = MantleConvection(_small_cfg())
        with pytest.raises(TypeError, match="Checkpointer"):
            sim.run(1, checkpoint=spec)
        assert sim.history == [] and os.listdir(tmp_path) == []

    @pytest.mark.parametrize("spec", NOT_A_CHECKPOINTER, ids=repr)
    def test_pipeline_refuses_non_checkpointer(self, spec, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

        def kernel(comm):
            pipe = ParAmrPipeline(comm, coarse_level=2, max_level=3)
            pipe.run_cycles(1, 1, 100, checkpoint=spec)

        with pytest.raises(TypeError, match="Checkpointer"):
            run_spmd(1, kernel)
        assert os.listdir(tmp_path) == []
