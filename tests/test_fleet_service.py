"""Tests for the fleet service: interning, scheduling, preemption."""

import inspect
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from repro import obs
from repro.checkpoint.format import CheckpointError
from repro.fem import AdvectionDiffusion, element_velocity_from_nodal
from repro.fem.matfree import saddle_apply_flops
from repro.fleet import (
    FleetJob,
    FleetScheduler,
    FleetService,
    MeshRegistry,
    ScenarioSpec,
    SpecError,
)
from repro.mesh.opcache import operator_cache
from repro.parallel import SimComm
from repro.rhea import ConfigError, RheaConfig
from repro.rhea.convection import MantleConvection


def spec(job_id, tenant="t0", level=2, cycles=2, **kw):
    kw.setdefault("Ra", 1e4)
    kw.setdefault("activation_energy", 3.0)
    return ScenarioSpec(job_id=job_id, tenant=tenant, initial_level=level,
                        max_level=level + 1, cycles=cycles, **kw)


class TestMeshRegistry:
    def test_uniform_interns_same_structure(self):
        reg = MeshRegistry()
        m1 = reg.uniform(RheaConfig(initial_level=2))
        m2 = reg.uniform(RheaConfig(initial_level=2, Ra=9e9))  # physics differs
        assert m2 is m1
        assert (reg.built, reg.shared) == (1, 1)

    def test_different_structures_stay_distinct(self):
        reg = MeshRegistry()
        m1 = reg.uniform(RheaConfig(initial_level=2))
        m2 = reg.uniform(RheaConfig(initial_level=3))
        assert m2 is not m1
        assert (reg.built, reg.shared) == (2, 0)

    def test_intern_maps_equal_structure_to_canonical(self):
        reg = MeshRegistry()
        m1 = reg.uniform(RheaConfig(initial_level=2))
        # an independently extracted, structurally identical mesh
        other = MeshRegistry().uniform(RheaConfig(initial_level=2))
        assert other is not m1
        assert reg.structure_key(other) == reg.structure_key(m1)
        assert reg.intern(other) is m1
        assert reg.shared == 1


class TestAdmission:
    def test_invalid_spec_rejected_before_state(self):
        svc = FleetService()
        with pytest.raises(SpecError):
            svc.admit(ScenarioSpec(job_id="bad", Ra=-1.0))
        assert svc.jobs == {}

    def test_too_deep_max_level_reported_at_admission(self):
        """``RheaConfig``'s ``ConfigError`` comes through ``to_config``."""
        svc = FleetService()
        with pytest.raises(ConfigError) as exc:
            svc.admit(ScenarioSpec(job_id="deep", max_level=30))
        assert "max_level" in {f for f, _ in exc.value.errors}
        assert svc.jobs == {}

    def test_duplicate_job_id_rejected(self):
        svc = FleetService()
        svc.admit(spec("a"))
        with pytest.raises(SpecError, match="already admitted"):
            svc.admit(spec("a", tenant="t9"))

    def test_same_structure_tenants_share_mesh_and_cache(self):
        """Satellite 3: one interned mesh means one operator cache."""
        svc = FleetService()
        ja = svc.admit(spec("a", tenant="t0"))
        jb = svc.admit(spec("b", tenant="t1"))
        assert ja.sim.mesh is jb.sim.mesh
        assert operator_cache(ja.sim.mesh) is operator_cache(jb.sim.mesh)
        assert (svc.registry.built, svc.registry.shared) == (1, 1)


def run_and_count_misses(specs):
    """Run a fleet to completion; return total opcache misses over the
    distinct meshes the jobs ended on."""
    svc = FleetService()
    jobs = [svc.admit(s) for s in specs]
    svc.run()
    caches = {id(j.sim.mesh): operator_cache(j.sim.mesh) for j in jobs}
    return sum(c.misses for c in caches.values()), svc


class TestCacheSharing:
    def test_pinned_hit_miss_counters(self):
        """Satellite 3: a same-structure pair builds each operator once
        (misses match a single-job run); a different-structure pair pays
        both structures' builds."""
        m_single2, _ = run_and_count_misses([spec("s", level=2, cycles=1)])
        m_single3, _ = run_and_count_misses([spec("s", level=3, cycles=1)])
        m_same, svc_same = run_and_count_misses(
            [spec("a", "t0", level=2, cycles=1),
             spec("b", "t1", level=2, cycles=1)]
        )
        m_diff, svc_diff = run_and_count_misses(
            [spec("a", "t0", level=2, cycles=1),
             spec("b", "t1", level=3, cycles=1)]
        )
        assert m_same == m_single2
        assert m_diff == m_single2 + m_single3
        assert (svc_same.registry.built, svc_same.registry.shared) == (1, 1)
        assert (svc_diff.registry.built, svc_diff.registry.shared) == (2, 0)

    def test_adaptation_invalidates_only_the_adapting_tenant(self):
        """Satellite 3: after one job adapts, it leaves the batch group;
        the other tenant keeps its mesh object and cache untouched."""
        svc = FleetService()
        ja = svc.admit(spec("adaptive", "t0", cycles=2, adapt_cycles=1,
                            Ra=1e5))
        jb = svc.admit(spec("steady", "t1", cycles=2))
        shared = jb.sim.mesh
        assert ja.sim.mesh is shared
        cache_b = operator_cache(shared)
        svc.run()
        assert set(svc.statuses().values()) == {"done"}
        # the adapting tenant moved to a refined structure...
        assert ja.sim.mesh is not shared
        assert ja.sim.mesh.n_elements > shared.n_elements
        assert svc.registry.built >= 2
        # ...while the steady tenant's mesh and cache were isolated
        assert jb.sim.mesh is shared
        assert operator_cache(shared) is cache_b


def fake_job(job_id, mesh, seq, tenant="t0", priority=0, deadline=None,
             cycles=2):
    sp = ScenarioSpec(job_id=job_id, tenant=tenant, priority=priority,
                      deadline=deadline, cycles=cycles)
    return FleetJob(spec=sp, sim=SimpleNamespace(mesh=mesh), seq=seq,
                    status="queued")


class TestScheduler:
    mesh_a = object()
    mesh_b = object()

    def test_empty_when_nothing_runnable(self):
        sched = FleetScheduler()
        assert sched.select([]) == []
        done = fake_job("a", self.mesh_a, 0)
        done.status = "done"
        unmat = fake_job("b", self.mesh_a, 1)
        unmat.sim = None
        assert sched.select([done, unmat]) == []

    def test_priority_picks_lead_and_its_mesh_group(self):
        sched = FleetScheduler()
        jobs = [
            fake_job("a0", self.mesh_a, 0),
            fake_job("b0", self.mesh_b, 1, priority=1),
            fake_job("a1", self.mesh_a, 2),
            fake_job("b1", self.mesh_b, 3, priority=0),
        ]
        # the priority-1 job leads; only its mesh's runnable jobs join,
        # in admission order
        group = sched.select(jobs)
        assert [j.job_id for j in group] == ["b0", "b1"]

    def test_fair_share_prefers_starved_tenant(self):
        sched = FleetScheduler()
        jobs = [
            fake_job("hog", self.mesh_a, 0, tenant="big"),
            fake_job("small", self.mesh_b, 1, tenant="small"),
        ]
        assert sched.select(jobs)[0].job_id == "hog"  # seq tiebreak
        sched.charge([jobs[0]] * 3)
        assert sched.tenant_quanta == {"big": 3}
        assert sched.select(jobs)[0].job_id == "small"

    def test_deadline_breaks_priority_and_share_ties(self):
        sched = FleetScheduler()
        jobs = [
            fake_job("late", self.mesh_a, 0, deadline=100.0),
            fake_job("soon", self.mesh_b, 1, deadline=5.0),
            fake_job("never", self.mesh_b, 2),  # None = never urgent
        ]
        group = sched.select(jobs)
        assert group[0].job_id == "soon"

    def test_charge_bills_job_and_tenant(self):
        sched = FleetScheduler()
        j = fake_job("a", self.mesh_a, 0, tenant="geo")
        sched.charge([j, j])
        assert j.quanta == 2
        assert sched.tenant_quanta == {"geo": 2}


class TestPreemptResume:
    def fleet_specs(self, cycles=3):
        return [
            spec("a", "t0", cycles=cycles),
            spec("b", "t1", cycles=cycles, Ra=3e4),
            spec("c", "t1", cycles=cycles, viscosity_law="yielding",
                 yield_stress=4.0),
        ]

    def test_resume_reproduces_uninterrupted_diagnostics(self, tmp_path):
        """The deterministic per-cycle solver schedule makes the resumed
        fleet's per-job diagnostics exactly reproduce an uninterrupted
        run -- not just to tolerance."""
        ref = FleetService()
        for s in self.fleet_specs():
            ref.admit(s)
        ref.run()

        root = str(tmp_path / "fleet")
        svc = FleetService(root=root)
        for s in self.fleet_specs():
            svc.admit(s)
        svc.arm_budget(1)
        svc.run()
        assert set(svc.statuses().values()) == {"preempted"}
        assert os.path.exists(os.path.join(root, "fleet.json"))

        svc = FleetService.resume(root)
        svc.run()
        assert set(svc.statuses().values()) == {"done"}
        for jid, job in svc.jobs.items():
            ref_hist = ref.jobs[jid].sim.history
            hist = job.sim.history
            assert len(hist) == len(ref_hist)
            for got, want in zip(hist, ref_hist):
                assert got.vrms == want.vrms
                assert got.nusselt == want.nusselt
                assert got.mean_T == want.mean_T
                assert got.minres_iterations == want.minres_iterations

    def test_resumed_tenants_batch_together_again(self, tmp_path):
        root = str(tmp_path / "fleet")
        svc = FleetService(root=root)
        for s in self.fleet_specs():
            svc.admit(s)
        svc.arm_budget(1)
        svc.run()
        svc = FleetService.resume(root)
        meshes = {id(j.sim.mesh) for j in svc.jobs.values()}
        assert len(meshes) == 1  # re-interned to one shared structure

    def test_cross_job_restore_refused(self, tmp_path):
        root = str(tmp_path / "fleet")
        svc = FleetService(root=root)
        for s in self.fleet_specs(cycles=2):
            svc.admit(s)
        svc.arm_budget(1)
        svc.run()
        # swap two jobs' checkpoint namespaces behind the manifest's back
        os.rename(os.path.join(root, "a"), os.path.join(root, "swap"))
        os.rename(os.path.join(root, "b"), os.path.join(root, "a"))
        os.rename(os.path.join(root, "swap"), os.path.join(root, "b"))
        with pytest.raises(CheckpointError, match="stamped for job"):
            FleetService.resume(root)

    def test_mismatched_config_refused(self, tmp_path):
        """A resumed spec whose config differs from the one its job's
        checkpoint was written under is refused, naming the field."""
        root = str(tmp_path / "fleet")
        svc = FleetService(root=root)
        for s in self.fleet_specs(cycles=2):
            svc.admit(s)
        svc.arm_budget(1)
        svc.run()
        path = os.path.join(root, "fleet.json")
        with open(path) as f:
            state = json.load(f)
        (b,) = [d for d in state["specs"] if d["job_id"] == "b"]
        b["Ra"] = 1e3
        with open(path, "w") as f:
            json.dump(state, f)
        with pytest.raises(CheckpointError, match=r"Ra \(saved 30000\.0, given 1000\.0\)"):
            FleetService.resume(root)

    def test_truncated_tmp_manifest_is_ignored(self, tmp_path):
        """A crash mid-write leaves a torn ``fleet.json.tmp`` beside the
        last good ``fleet.json``; resume reads the good one only, and the
        next save replaces the torn file."""
        root = str(tmp_path / "fleet")
        svc = FleetService(root=root)
        for s in self.fleet_specs(cycles=2):
            svc.admit(s)
        svc.arm_budget(1)
        svc.run()
        path = os.path.join(root, "fleet.json")
        with open(path, "rb") as f:
            good = f.read()
        with open(path + ".tmp", "wb") as f:
            f.write(good[: len(good) // 2])
        svc = FleetService.resume(root)
        assert set(svc.statuses().values()) == {"preempted"}
        assert all(j.cycles_done == 1 for j in svc.jobs.values())
        svc.arm_budget(1)
        svc.run()
        assert not os.path.exists(path + ".tmp")
        with open(path) as f:
            state = json.load(f)
        assert {d["status"] for d in state["status"].values()} == {"done"}

    def test_preempt_requires_root(self):
        svc = FleetService()
        svc.admit(spec("a"))
        with pytest.raises(ValueError, match="root directory"):
            svc.preempt_all()


class TestAccounting:
    def test_ledgers_meter_work_and_survive_resume(self, tmp_path):
        root = str(tmp_path / "fleet")
        svc = FleetService(root=root)
        svc.admit(spec("a", "geo", cycles=2))
        svc.admit(spec("b", "plates", cycles=2, Ra=3e4))
        svc.arm_budget(1)
        svc.run()
        svc = FleetService.resume(root)
        svc.run()
        report = svc.report()
        for jid in ("a", "b"):
            led = report["jobs"][jid]
            # full lifetime, not just post-resume: both cycles and the
            # preemption are on the ledger
            assert led["cycles"] == 2
            assert led["preemptions"] == 1
            assert led["minres_iterations"] > 0
            assert led["flops"] > 0
            assert led["wall_s"] > 0
        tenants = report["tenants"]
        assert tenants["geo"]["jobs"] == 1
        assert tenants["plates"]["cycles"] == 2

    def test_job_tagged_obs_phases_fold_into_exclusive_wall(self, tmp_path):
        timer = obs.enable()
        try:
            svc = FleetService(root=str(tmp_path / "fleet"))
            svc.admit(spec("a", cycles=1))
            svc.run()
            svc.preempt_all()  # opens fleet/job:a/checkpoint
            report = svc.report()
        finally:
            obs.disable()
        assert "fleet/job:a/checkpoint" in timer.results()
        assert report["jobs"]["a"]["exclusive_wall_s"] > 0

    def test_flops_are_priced_per_apply(self):
        """One quantum of one job: the saddle kernel's flops per MINRES
        iteration, plus two advection applies per step at a multiply-add
        per nonzero of the job's SUPG CSR, exactly."""
        svc = FleetService()
        svc.admit(spec("a", cycles=1))
        assert svc.step()
        sim = svc.jobs["a"].sim
        cfg, mesh = sim.config, sim.mesh
        vel = element_velocity_from_nodal(mesh, sim.u)
        (A,) = AdvectionDiffusion(mesh, cfg.kappa, vel).A
        want = saddle_apply_flops(mesh.n_elements) * sim.history[-1].minres_iterations
        want += 2 * (2 * A.nnz) * cfg.adapt_every
        assert svc.accountant.ledgers["a"].flops == want

    def test_markdown_report_lists_tenants_and_jobs(self):
        svc = FleetService()
        svc.admit(spec("a", "geo", cycles=1))
        svc.run()
        md = svc.accountant.markdown_report(title="T")
        assert "## T" in md
        assert "| geo |" in md
        assert "| a | geo |" in md


class TestServiceDrive:
    def test_step_serves_one_quantum_at_a_time(self):
        svc = FleetService()
        svc.admit(spec("a", cycles=2))
        served = []
        while svc.step():
            served.append(svc.quanta_served)
        assert served == [1, 2]
        assert svc.statuses() == {"a": "done"}

    def test_run_max_quanta(self):
        svc = FleetService()
        svc.admit(spec("a", cycles=3))
        assert svc.run(max_quanta=2) == 2
        assert svc.jobs["a"].status == "running"
        assert svc.run() == 1

    def test_serial_reference_matches_service_single_job(self):
        """A one-job fleet is just the serial stepper in batch clothing."""
        s = spec("solo", cycles=2)
        svc = FleetService()
        svc.admit(s)
        svc.run()
        serial = MantleConvection(s.to_config(), s.t_init())
        serial.run(2, adapt=False)
        got = svc.jobs["solo"].sim.history[-1]
        want = serial.history[-1]
        assert abs(got.vrms - want.vrms) / want.vrms < 1e-4
        assert np.isfinite(got.nusselt)


class TestNoCommunication:
    def test_serial_run_and_fleet_quantum_make_no_comm_call(self, monkeypatch):
        """The serial driver and the fleet run on one rank: the transport
        solver they share with the distributed pipeline gets no
        ``ParMesh`` from them, so neither constructs or calls a
        ``SimComm``."""
        calls = []
        for name, fn in list(vars(SimComm).items()):
            if inspect.isfunction(fn):

                def record(*args, _name=name, _fn=fn, **kwargs):
                    calls.append(_name)
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(SimComm, name, record)
        config = RheaConfig(Ra=1e4, initial_level=2, min_level=1, max_level=3, adapt_every=2)
        MantleConvection(config).run(1)
        svc = FleetService()
        svc.admit(spec("a", cycles=1))
        assert svc.step()
        assert calls == []
