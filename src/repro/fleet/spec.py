"""Scenario specifications and admission-time validation.

A :class:`ScenarioSpec` is the serializable unit of work the fleet
service accepts: the physical parameters the SC'08 parameter studies
vary (Rayleigh number, viscosity law, yield stress), the mesh levels,
the run length, and the scheduling metadata (tenant, priority,
deadline).  Validation is *eager* — :meth:`ScenarioSpec.validate`
collects every violated constraint into a :class:`SpecError` at
admission, and :meth:`ScenarioSpec.to_config` additionally runs the
spec through :class:`repro.rhea.RheaConfig`'s own ``__post_init__``
checks — so a bad spec is rejected before it ever touches a mesh.

Specs round-trip through JSON (:meth:`to_json` / :meth:`from_json`):
the viscosity *law* is named, not pickled, so a fleet manifest written
at preemption can be re-admitted by a later process on any rank count.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np

from ..rhea import ArrheniusViscosity, RheaConfig, YieldingViscosity
from ..rhea.convection import _finite, conductive_profile

__all__ = ["ScenarioSpec", "SpecError", "VISCOSITY_LAWS"]

#: admissible viscosity-law names -> constructor from a spec
VISCOSITY_LAWS = ("arrhenius", "yielding")


class SpecError(ValueError):
    """Structured admission failure: ``errors`` lists every
    ``(field, message)`` pair violated by the spec."""

    def __init__(self, job_id, errors: list):
        self.job_id = job_id
        self.errors = list(errors)
        detail = "; ".join(f"{f}: {m}" for f, m in self.errors)
        super().__init__(f"invalid ScenarioSpec {job_id!r}: {detail}")


@dataclass(frozen=True)
class ScenarioSpec:
    """One tenant scenario: physics, mesh, run length, scheduling.

    ``seed`` deterministically perturbs the initial temperature so a
    parameter study's members decorrelate; ``priority`` (higher first),
    ``deadline`` (earliest-deadline-first tiebreak, abstract units) and
    ``tenant`` (fair-share accounting key) drive the scheduler.
    ``adapt_cycles > 0`` lets the job adapt its mesh every that many
    cycles, after which it leaves its batch group (structure changed)
    and is regrouped.
    """

    job_id: str
    tenant: str = "default"
    Ra: float = 1e5
    viscosity_law: str = "arrhenius"
    eta0: float = 1.0
    activation_energy: float = 0.0
    yield_stress: float | None = None
    initial_level: int = 2
    max_level: int = 4
    cycles: int = 2
    adapt_cycles: int = 0
    seed: int = 0
    priority: int = 0
    deadline: float | None = None
    domain: tuple = (1.0, 1.0, 1.0)
    kappa: float = 1.0
    cfl: float = 0.4
    adapt_every: int = 4
    picard_iterations: int = 2
    picard_tol: float = 1e-2
    stokes_tol: float = 1e-6
    stokes_maxiter: int = 500

    # -- validation -----------------------------------------------------

    def validate(self) -> "ScenarioSpec":
        """Collect every constraint violation; raise :class:`SpecError`
        if any, else return ``self`` (chainable at admission)."""
        errors: list[tuple[str, str]] = []
        if not isinstance(self.job_id, str) or not self.job_id:
            errors.append(("job_id", f"must be a non-empty string, got {self.job_id!r}"))
        elif "/" in self.job_id or self.job_id != self.job_id.strip():
            errors.append((
                "job_id",
                f"must not contain '/' or surrounding whitespace, got {self.job_id!r}",
            ))
        if not isinstance(self.tenant, str) or not self.tenant:
            errors.append(("tenant", f"must be a non-empty string, got {self.tenant!r}"))
        if self.viscosity_law not in VISCOSITY_LAWS:
            opts = " or ".join(repr(v) for v in VISCOSITY_LAWS)
            errors.append(("viscosity_law", f"must be {opts}, got {self.viscosity_law!r}"))
        if not _finite(self.Ra) or float(self.Ra) < 0:
            errors.append(("Ra", f"must be a finite number >= 0, got {self.Ra!r}"))
        if not _finite(self.eta0) or float(self.eta0) <= 0:
            errors.append(("eta0", f"must be > 0, got {self.eta0!r}"))
        if self.viscosity_law == "yielding":
            if self.yield_stress is not None and (
                not _finite(self.yield_stress) or float(self.yield_stress) <= 0
            ):
                errors.append(("yield_stress", f"must be > 0, got {self.yield_stress!r}"))
        elif self.yield_stress is not None:
            errors.append((
                "yield_stress",
                "only meaningful for viscosity_law='yielding'",
            ))
        if not isinstance(self.cycles, (int, np.integer)) or self.cycles < 1:
            errors.append(("cycles", f"must be an integer >= 1, got {self.cycles!r}"))
        if not isinstance(self.adapt_cycles, (int, np.integer)) or self.adapt_cycles < 0:
            errors.append(("adapt_cycles", f"must be an integer >= 0, got {self.adapt_cycles!r}"))
        if not isinstance(self.priority, (int, np.integer)):
            errors.append(("priority", f"must be an integer, got {self.priority!r}"))
        if self.deadline is not None and (
            not _finite(self.deadline) or float(self.deadline) <= 0
        ):
            errors.append(("deadline", f"must be > 0 (or None), got {self.deadline!r}"))
        if errors:
            raise SpecError(self.job_id, errors)
        return self

    # -- materialization ------------------------------------------------

    def viscosity(self):
        """Instantiate the named viscosity law."""
        if self.viscosity_law == "yielding":
            kw = {} if self.yield_stress is None else {"sigma_y": float(self.yield_stress)}
            return YieldingViscosity(E=float(self.activation_energy) or 6.9, **kw)
        return ArrheniusViscosity(eta0=float(self.eta0), E=float(self.activation_energy))

    def to_config(self) -> RheaConfig:
        """Materialize the :class:`RheaConfig` (running its eager
        validation too — :class:`repro.rhea.ConfigError` propagates)."""
        self.validate()
        return RheaConfig(
            Ra=float(self.Ra),
            domain=tuple(self.domain),
            kappa=float(self.kappa),
            viscosity=self.viscosity(),
            initial_level=int(self.initial_level),
            min_level=min(1, int(self.initial_level)),
            max_level=int(self.max_level),
            adapt_every=int(self.adapt_every),
            cfl=float(self.cfl),
            picard_iterations=int(self.picard_iterations),
            picard_tol=float(self.picard_tol),
            stokes_tol=float(self.stokes_tol),
            stokes_maxiter=int(self.stokes_maxiter),
        )

    def t_init(self) -> Callable[[np.ndarray], np.ndarray]:
        """Seed-perturbed initial temperature: the conductive profile
        with a deterministic seed-dependent perturbation amplitude, so
        study members decorrelate reproducibly."""
        frac = (int(self.seed) * 2654435761 % 1000) / 1000.0
        amp = 0.03 + 0.04 * frac
        domain = tuple(self.domain)
        return lambda c: conductive_profile(c, perturbation=amp, domain=domain)

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        """Plain-dict form (JSON-serializable; laws are named)."""
        d = asdict(self)
        d["domain"] = list(self.domain)
        return d

    @classmethod
    def from_json(cls, d: dict) -> "ScenarioSpec":
        """Inverse of :meth:`to_json`; unknown keys are rejected."""
        names = {f.name for f in fields(cls)}
        unknown = sorted(set(d) - names)
        if unknown:
            raise SpecError(d.get("job_id"), [(k, "unknown field") for k in unknown])
        kw = dict(d)
        if "domain" in kw:
            kw["domain"] = tuple(kw["domain"])
        return cls(**kw)
