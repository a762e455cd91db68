"""Per-tenant metering: job ledgers and usage reports.

Every fleet quantum advances a *group* of tenants through shared
kernels, so attribution needs a policy.  The accountant uses the work
counters the solvers already report per job — MINRES iterations, Picard
passes, advection steps — and prices them with the analytic per-apply
flop counts of the matrix-free kernels
(:func:`repro.fem.matfree.saddle_apply_flops` /
:func:`~repro.fem.matfree.advection_apply_flops`), so a tenant whose
stiff rheology needs 3x the iterations is billed 3x the flops even
though the wall clock ran once for the whole group.  Batch wall time and
operator-cache hits are split evenly across the group (they are true
shared costs); communication bytes are zero in this serial offline
reproduction and the field is kept so paper-scale SPMD runs can fill it
from :class:`~repro.parallel.stats.CommStats`.

Job-id-tagged observability phases (``fleet/job:<id>/...``, grouped by
:func:`repro.obs.job_phases`) carry the per-job *exclusive* operations —
checkpoint saves, restores — and are merged into the ledger walls.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from ..fem.matfree import advection_apply_flops, saddle_apply_flops
from ..obs import job_phases

__all__ = ["JobLedger", "FleetAccountant"]


@dataclass
class JobLedger:
    """Accumulated usage of one job across its whole fleet lifetime."""

    job_id: str
    tenant: str
    cycles: int = 0
    minres_iterations: int = 0
    picard_iterations: int = 0
    advection_steps: int = 0
    wall_s: float = 0.0  # evenly-split share of group wall time
    exclusive_wall_s: float = 0.0  # job-tagged phases (checkpoint etc.)
    flops: float = 0.0  # attributed by per-job iteration counts
    comm_bytes: float = 0.0  # serial offline: 0 (kept for SPMD runs)
    cache_hits: float = 0.0  # evenly-split share of shared-cache hits
    cache_misses: float = 0.0
    preemptions: int = 0


class FleetAccountant:
    """Meters jobs as the service advances them and renders reports.

    Example::

        acct = FleetAccountant()
        acct.charge_cycle(group, diags, mesh.n_elements, wall, hits, misses)
        print(acct.markdown_report())
    """

    def __init__(self):
        self.ledgers: dict[str, JobLedger] = {}

    def ledger(self, job_id: str, tenant: str) -> JobLedger:
        """The (created-on-first-use) ledger of a job."""
        if job_id not in self.ledgers:
            self.ledgers[job_id] = JobLedger(job_id=job_id, tenant=tenant)
        return self.ledgers[job_id]

    # -- charging -------------------------------------------------------

    def charge_cycle(
        self,
        group: list,
        diags: list,
        n_elements: int,
        wall_s: float,
        cache_hits: int = 0,
        cache_misses: int = 0,
    ) -> None:
        """Bill one lockstep cycle: per-job work counters price the
        flops; shared wall time and cache traffic split evenly."""
        nb = max(len(group), 1)
        for job, d in zip(group, diags):
            led = self.ledger(job.job_id, job.tenant)
            led.cycles += 1
            led.minres_iterations += d.minres_iterations
            led.picard_iterations += d.picard_iterations
            steps = int(job.spec.adapt_every)
            led.advection_steps += steps
            led.wall_s += wall_s / nb
            # one saddle apply per MINRES iteration; Heun takes two
            # advection applies per step
            led.flops += saddle_apply_flops(n_elements) * d.minres_iterations
            led.flops += 2 * advection_apply_flops(n_elements) * steps
            led.cache_hits += cache_hits / nb
            led.cache_misses += cache_misses / nb

    def charge_preemption(self, job) -> None:
        """Record a budget-exhaustion snapshot of a job."""
        self.ledger(job.job_id, job.tenant).preemptions += 1

    def merge_obs(self, results: dict) -> None:
        """Fold job-id-tagged phase walls (``fleet/job:<id>/...``) from a
        :meth:`~repro.obs.timer.PhaseTimer.results` dict into the
        ledgers' exclusive wall time."""
        for job_id, phases in job_phases(results).items():
            if job_id not in self.ledgers:
                continue
            led = self.ledgers[job_id]
            roots = [p for p in phases if "/" not in p and p]
            led.exclusive_wall_s += sum(
                phases[p].get("wall_s", 0.0) for p in (roots or phases)
            )

    # -- reporting ------------------------------------------------------

    def tenant_totals(self) -> dict[str, dict]:
        """Per-tenant sums over that tenant's job ledgers."""
        out: dict[str, dict] = {}
        for led in self.ledgers.values():
            t = out.setdefault(
                led.tenant,
                {
                    "jobs": 0,
                    "cycles": 0,
                    "minres_iterations": 0,
                    "advection_steps": 0,
                    "wall_s": 0.0,
                    "exclusive_wall_s": 0.0,
                    "flops": 0.0,
                    "comm_bytes": 0.0,
                    "cache_hits": 0.0,
                    "preemptions": 0,
                },
            )
            t["jobs"] += 1
            t["cycles"] += led.cycles
            t["minres_iterations"] += led.minres_iterations
            t["advection_steps"] += led.advection_steps
            t["wall_s"] += led.wall_s
            t["exclusive_wall_s"] += led.exclusive_wall_s
            t["flops"] += led.flops
            t["comm_bytes"] += led.comm_bytes
            t["cache_hits"] += led.cache_hits
            t["preemptions"] += led.preemptions
        return out

    def json_report(self) -> dict:
        """Machine-readable report: per-job ledgers + per-tenant totals."""
        return {
            "jobs": {jid: asdict(led) for jid, led in sorted(self.ledgers.items())},
            "tenants": self.tenant_totals(),
        }

    def markdown_report(self, title: str = "Fleet usage") -> str:
        """Per-tenant and per-job usage tables (the billing view)."""
        lines = [
            f"## {title}",
            "",
            "| Tenant | jobs | cycles | minres iters | wall s | GF | "
            "cache hits | preemptions |",
            "|---|---:|---:|---:|---:|---:|---:|---:|",
        ]
        for tenant, t in sorted(self.tenant_totals().items()):
            lines.append(
                f"| {tenant} | {t['jobs']} | {t['cycles']} "
                f"| {t['minres_iterations']} "
                f"| {t['wall_s'] + t['exclusive_wall_s']:.3f} "
                f"| {t['flops'] / 1e9:.3f} | {t['cache_hits']:.1f} "
                f"| {t['preemptions']} |"
            )
        lines += [
            "",
            "| Job | tenant | cycles | minres | picard | adv steps "
            "| wall s | GF |",
            "|---|---|---:|---:|---:|---:|---:|---:|",
        ]
        for jid, led in sorted(self.ledgers.items()):
            lines.append(
                f"| {jid} | {led.tenant} | {led.cycles} "
                f"| {led.minres_iterations} | {led.picard_iterations} "
                f"| {led.advection_steps} "
                f"| {led.wall_s + led.exclusive_wall_s:.3f} "
                f"| {led.flops / 1e9:.3f} |"
            )
        lines += [
            "",
            "Wall time is the even group split plus job-tagged exclusive "
            "phases; flops are attributed by per-job solver iteration "
            "counts; comm bytes are zero in the serial offline runner.",
        ]
        return "\n".join(lines)

    def write_reports(self, md_path: str, json_path: str) -> None:
        """Write both report flavors to disk."""
        with open(md_path, "w") as f:
            f.write(self.markdown_report() + "\n")
        with open(json_path, "w") as f:
            json.dump(self.json_report(), f, indent=2, sort_keys=True)
            f.write("\n")
