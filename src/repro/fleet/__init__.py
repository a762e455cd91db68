"""repro.fleet — multi-tenant batched scenario service (DESIGN.md 4g).

The paper's Sec. VI production campaigns sweep parameters (Rayleigh
number, yield stress, activation energy) across many scenario runs; this
package turns the serial one-scenario loop into a multi-tenant *fleet*
that advances same-mesh-structure scenarios in lockstep through the
batched matrix-free kernels:

- :mod:`repro.fleet.spec` — :class:`ScenarioSpec`: the serializable,
  eagerly validated admission unit (physics + levels + scheduling).
- :mod:`repro.fleet.batch` — :class:`BatchGroup`: the batch-axis engine
  (one wide GEMM advances ``B`` tenants; per-job convergence masks;
  columns packed law by law, one GMG hierarchy per viscosity law and
  one V-cycle per law over its ``(3n, B_law)`` column slice, with a
  per-column viscosity congruence) over
  :func:`batched_minres`, which lives in :mod:`repro.solvers.minres` and
  is re-exported here.
- :mod:`repro.fleet.scheduler` — priority + fair-share + deadline group
  selection over :class:`FleetJob` records.
- :mod:`repro.fleet.service` — :class:`FleetService` (admission, quanta,
  checkpoint-based preempt/resume) and :class:`MeshRegistry` (structure
  interning for cross-tenant operator-cache sharing).
- :mod:`repro.fleet.accounting` — per-tenant metering and reports.

Quick use::

    from repro import fleet

    svc = fleet.FleetService(root="fleet_state")
    for i in range(16):
        svc.admit(fleet.ScenarioSpec(job_id=f"j{i}", Ra=1e4 * (i + 1)))
    svc.run()
    print(svc.accountant.markdown_report())
"""

from .accounting import FleetAccountant, JobLedger
from .batch import BatchedMinresResult, BatchGroup, batched_minres
from .scheduler import FleetJob, FleetScheduler
from .service import FleetService, MeshRegistry
from .spec import ScenarioSpec, SpecError

__all__ = [
    "ScenarioSpec",
    "SpecError",
    "BatchGroup",
    "BatchedMinresResult",
    "batched_minres",
    "FleetJob",
    "FleetScheduler",
    "FleetAccountant",
    "JobLedger",
    "FleetService",
    "MeshRegistry",
]
