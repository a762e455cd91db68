"""The fleet service: admission, mesh interning, quanta, preemption.

:class:`FleetService` is the front door of the multi-tenant runner: it
admits :class:`~repro.fleet.spec.ScenarioSpec` jobs (eager validation —
a bad spec never touches a mesh), interns their meshes through a
:class:`MeshRegistry` so same-structure tenants share one
:class:`~repro.mesh.Mesh` object (and therefore one operator cache and
one batch group), and serves cooperative scheduling quanta: each
:meth:`~FleetService.step` runs one lockstep
:meth:`~repro.fleet.batch.BatchGroup.cycle` for the group the
:class:`~repro.fleet.scheduler.FleetScheduler` picks.  No threads — a
caller interleaves fleet progress with other work by calling
:meth:`~FleetService.step` once per quantum.

Preemption is checkpoint-based, mirroring the ``arm_fault`` discipline
of :mod:`repro.parallel.simcomm`: :meth:`~FleetService.arm_budget` arms
a quantum budget; when it exhausts, every started job is snapshotted
into its own namespace ``<root>/<job_id>/`` (stamped with job id and
tenant via ``extra_meta``) and the fleet manifest ``<root>/fleet.json``
records specs and statuses.  :meth:`FleetService.resume` rebuilds the
whole fleet from that manifest — restored meshes re-intern, so resumed
tenants batch together again — and the deterministic per-cycle solver
schedule makes the resumed diagnostics reproduce the uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import numpy as np

from .. import obs
from ..checkpoint import resolve_checkpoint, restore_convection, save_convection
from ..checkpoint.format import CheckpointError, read_manifest, write_json
from ..forest import Forest, unit_cube
from ..mesh import extract_mesh
from ..mesh.opcache import operator_cache
from ..rhea.convection import MantleConvection
from .accounting import FleetAccountant, JobLedger
from .batch import BatchGroup
from .scheduler import FleetJob, FleetScheduler
from .spec import ScenarioSpec, SpecError

__all__ = ["MeshRegistry", "FleetService"]

FLEET_MANIFEST = "fleet.json"


class MeshRegistry:
    """Interns meshes by octree structure so tenants share objects.

    Mesh extraction is deterministic, so two meshes with identical leaf
    octants and domain have identical node numbering — interning them to
    one object is value-transparent and is what makes cross-tenant
    operator-cache sharing and lockstep batching sound (both key on mesh
    *identity*).  ``shared``/``built`` count interning hits and distinct
    structures built, the cache-efficiency counters the fleet tests pin.

    Example::

        reg = MeshRegistry()
        m1 = reg.uniform(cfg_a)     # built
        m2 = reg.uniform(cfg_b)     # same level/domain -> m2 is m1
    """

    def __init__(self):
        self._by_key: dict[str, object] = {}
        self._uniform: dict[tuple, object] = {}
        self.shared = 0
        self.built = 0

    @staticmethod
    def structure_key(mesh) -> str:
        """Digest of the leaf octants + domain (the batching identity)."""
        h = hashlib.blake2b(digest_size=16)
        lv = mesh.leaves
        for arr in (lv.x, lv.y, lv.z, lv.level):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(np.asarray(mesh.domain, dtype=np.float64).tobytes())
        return h.hexdigest()

    def uniform(self, cfg):
        """The interned uniform mesh for a config's initial level/domain."""
        key = (int(cfg.initial_level), tuple(float(d) for d in cfg.domain))
        if key in self._uniform:
            self.shared += 1
            return self._uniform[key]
        mesh = extract_mesh(Forest.uniform(unit_cube(), cfg.initial_level), cfg.domain)
        self._uniform[key] = mesh
        self._by_key[self.structure_key(mesh)] = mesh
        self.built += 1
        return mesh

    def intern(self, mesh):
        """The canonical mesh of this structure (registering if new).

        Used after adaptation or restore: if another tenant already holds
        a structurally identical mesh, the caller should swap to the
        returned canonical object so the two batch together again.
        """
        key = self.structure_key(mesh)
        found = self._by_key.get(key)
        if found is not None:
            if found is not mesh:
                self.shared += 1
            return found
        self._by_key[key] = mesh
        self.built += 1
        return mesh


class FleetService:
    """Multi-tenant scenario runner over shared batched kernels.

    Example::

        svc = FleetService(root="fleet_state")
        for spec in specs:
            svc.admit(spec)
        svc.arm_budget(3)          # preempt-to-checkpoint after 3 quanta
        svc.run()                  # serve until preempted or drained
        svc = FleetService.resume("fleet_state")
        svc.run()                  # finish; diagnostics match uninterrupted
    """

    def __init__(self, root: str | None = None, keep_checkpoints: int | None = 2):
        self.root = root
        self.keep_checkpoints = keep_checkpoints
        self.registry = MeshRegistry()
        self.scheduler = FleetScheduler()
        self.accountant = FleetAccountant()
        self.jobs: dict[str, FleetJob] = {}
        self._seq = 0
        self._budget: int | None = None
        self.quanta_served = 0

    # -- admission ------------------------------------------------------

    def admit(self, spec: ScenarioSpec) -> FleetJob:
        """Validate and materialize a scenario; raises
        :class:`~repro.fleet.spec.SpecError` /
        :class:`~repro.rhea.ConfigError` with *every* violated field
        before any state is created."""
        spec.validate()
        if spec.job_id in self.jobs:
            raise SpecError(spec.job_id, [("job_id", "already admitted")])
        cfg = spec.to_config()
        job = FleetJob(spec=spec, seq=self._seq)
        self._seq += 1
        job.sim = MantleConvection(cfg, spec.t_init(), mesh=self.registry.uniform(cfg))
        self.jobs[spec.job_id] = job
        return job

    # -- quanta ---------------------------------------------------------

    def arm_budget(self, quanta: int) -> None:
        """Preempt the whole fleet to checkpoints after ``quanta`` more
        served quanta (the scheduling analogue of ``arm_fault``)."""
        if quanta < 1:
            raise ValueError("budget must be >= 1 quantum")
        self._budget = int(quanta)

    def step(self) -> bool:
        """Serve one quantum: pick a group, run one lockstep cycle, bill
        it.  Returns False when nothing is runnable (drained or fully
        preempted)."""
        group = self.scheduler.select(list(self.jobs.values()))
        if not group:
            return False
        sims = [j.sim for j in group]
        cache = operator_cache(sims[0].mesh)
        h0, m0 = cache.hits, cache.misses
        t0 = time.perf_counter()
        bg = BatchGroup(sims)
        diags = bg.cycle()
        wall = time.perf_counter() - t0
        self.scheduler.charge(group)
        self.accountant.charge_cycle(
            group, diags, bg.mesh.n_elements, bg.advection_nnz, wall,
            cache.hits - h0, cache.misses - m0,
        )
        for job in group:
            job.cycles_done += 1
            job.status = "done" if job.remaining == 0 else "running"
            if (
                job.status == "running"
                and job.spec.adapt_cycles
                and job.cycles_done % job.spec.adapt_cycles == 0
            ):
                self._adapt(job)
        self.quanta_served += 1
        if self._budget is not None:
            self._budget -= 1
            if self._budget <= 0:
                self.preempt_all()
        return True

    def run(self, max_quanta: int | None = None) -> int:
        """Serve quanta until drained/preempted (or ``max_quanta``);
        returns the number served by this call."""
        n = 0
        while (max_quanta is None or n < max_quanta) and self.step():
            n += 1
        return n

    def _adapt(self, job: FleetJob) -> None:
        """Per-job mesh adaptation (tagged to the job in the obs stream),
        then re-intern: the job leaves its old batch group and joins — or
        founds — the group of its new structure.  Other tenants on the
        old mesh are untouched (structural invalidation is per-job)."""
        with obs.phase(f"fleet/job:{job.job_id}/amr"):
            job.sim.adapt()
        job.sim.rebind_mesh(self.registry.intern(job.sim.mesh))

    # -- preemption / resume --------------------------------------------

    def preempt_all(self) -> None:
        """Snapshot every started job into ``<root>/<job_id>/`` and mark
        runnable ones preempted; writes the fleet manifest."""
        if self.root is None:
            raise ValueError("preemption requires a service root directory")
        self._budget = None
        for job in self.jobs.values():
            if job.sim is None or job.cycles_done == 0:
                continue  # unstarted: the spec alone reconstructs it
            with obs.phase(f"fleet/job:{job.job_id}/checkpoint"):
                job.checkpoint_dir = save_convection(
                    job.sim,
                    os.path.join(self.root, job.job_id),
                    keep=self.keep_checkpoints,
                    extra_meta={
                        "job_id": job.job_id,
                        "tenant": job.tenant,
                        "cycles_done": job.cycles_done,
                    },
                )
            if job.status != "done":
                job.status = "preempted"
                self.accountant.charge_preemption(job)
            job.sim = None  # state now lives in the snapshot
        self.save_manifest()

    def save_manifest(self) -> None:
        """Atomically persist specs + statuses to ``<root>/fleet.json``."""
        if self.root is None:
            raise ValueError("fleet manifest requires a service root directory")
        os.makedirs(self.root, exist_ok=True)
        ordered = sorted(self.jobs.values(), key=lambda j: j.seq)
        state = {
            "specs": [j.spec.to_json() for j in ordered],
            "status": {
                j.job_id: {
                    "status": j.status,
                    "cycles_done": j.cycles_done,
                    "quanta": j.quanta,
                }
                for j in ordered
            },
            "tenant_quanta": dict(self.scheduler.tenant_quanta),
            "quanta_served": self.quanta_served,
            # ledgers ride along so a resumed fleet's usage reports cover
            # the whole job lifetime, not just the post-resume cycles
            "accounting": self.accountant.json_report()["jobs"],
        }
        write_json(os.path.join(self.root, FLEET_MANIFEST), state)

    @classmethod
    def resume(cls, root: str) -> "FleetService":
        """Rebuild a preempted fleet from ``<root>/fleet.json``.

        Preempted/done jobs restore from their per-job checkpoint
        namespaces (verifying the ``extra_meta`` job-id/tenant stamp —
        a cross-job restore is a hard error); unstarted jobs re-admit
        from their specs.  Restored meshes re-intern so same-structure
        tenants batch together again.
        """
        svc = cls(root=root)
        with open(os.path.join(root, FLEET_MANIFEST)) as f:
            state = json.load(f)
        svc.scheduler.tenant_quanta = {
            k: int(v) for k, v in state.get("tenant_quanta", {}).items()
        }
        svc.quanta_served = int(state.get("quanta_served", 0))
        for jid, led in state.get("accounting", {}).items():
            svc.accountant.ledgers[jid] = JobLedger(**led)
        for d in state["specs"]:
            spec = ScenarioSpec.from_json(d).validate()
            st = state["status"][spec.job_id]
            ckpt_root = os.path.join(root, spec.job_id)
            if st["cycles_done"] > 0 and os.path.isdir(ckpt_root):
                job = FleetJob(spec=spec, seq=svc._seq)
                svc._seq += 1
                job.status = st["status"]
                job.cycles_done = int(st["cycles_done"])
                job.quanta = int(st.get("quanta", 0))
                job.sim = svc._restore_job_sim(spec, ckpt_root)
                svc.jobs[spec.job_id] = job
            else:
                job = svc.admit(spec)
                job.status = st["status"]
                job.quanta = int(st.get("quanta", 0))
        return svc

    def _restore_job_sim(self, spec: ScenarioSpec, ckpt_root: str):
        """Restore one job's sim, verify its namespace stamp, intern."""
        extra = (read_manifest(resolve_checkpoint(ckpt_root)).meta or {}).get(
            "extra"
        ) or {}
        if extra.get("job_id", spec.job_id) != spec.job_id:
            raise CheckpointError(
                f"checkpoint under {ckpt_root!r} is stamped for job "
                f"{extra.get('job_id')!r}, not {spec.job_id!r} — refusing "
                "a cross-job restore"
            )
        if extra.get("tenant", spec.tenant) != spec.tenant:
            raise CheckpointError(
                f"checkpoint under {ckpt_root!r} is stamped for tenant "
                f"{extra.get('tenant')!r}, not {spec.tenant!r}"
            )
        with obs.phase(f"fleet/job:{spec.job_id}/restore"):
            sim = restore_convection(ckpt_root, config=spec.to_config())
        sim.rebind_mesh(self.registry.intern(sim.mesh))
        return sim

    # -- introspection --------------------------------------------------

    def statuses(self) -> dict[str, str]:
        """``{job_id: status}`` snapshot."""
        return {j.job_id: j.status for j in self.jobs.values()}

    def report(self, md_path: str | None = None, json_path: str | None = None):
        """Finalize accounting (folding job-tagged obs phases from the
        bound timer, if any) and return / optionally write the reports."""
        timer = obs.active()
        if timer is not None:
            self.accountant.merge_obs(timer.results())
        if md_path is not None and json_path is not None:
            self.accountant.write_reports(md_path, json_path)
        return self.accountant.json_report()
