"""Tests for fleet scenario specs and config admission validation."""

import numpy as np
import pytest

from repro.fleet import ScenarioSpec, SpecError
from repro.rhea import ArrheniusViscosity, RheaConfig, YieldingViscosity
from repro.rhea.convection import ConfigError


class TestScenarioSpecValidation:
    def test_valid_spec_is_chainable(self):
        spec = ScenarioSpec(job_id="a", Ra=1e4)
        assert spec.validate() is spec

    def test_collects_every_violation(self):
        """Admission reports all problems at once, not just the first."""
        spec = ScenarioSpec(
            job_id="", viscosity_law="banana", Ra=-1.0, cycles=0,
        )
        with pytest.raises(SpecError) as exc:
            spec.validate()
        fields = {f for f, _ in exc.value.errors}
        assert {"job_id", "viscosity_law", "Ra", "cycles"} <= fields

    def test_error_messages_name_field_and_value(self):
        with pytest.raises(SpecError, match=r"viscosity_law: must be "
                           r"'arrhenius' or 'yielding', got 'maxwell'"):
            ScenarioSpec(job_id="a", viscosity_law="maxwell").validate()
        with pytest.raises(SpecError, match=r"Ra: must be a finite number"):
            ScenarioSpec(job_id="a", Ra=float("nan")).validate()

    def test_job_id_shape(self):
        # '/' would collide with per-job checkpoint namespaces
        with pytest.raises(SpecError, match="must not contain '/'"):
            ScenarioSpec(job_id="a/b").validate()
        with pytest.raises(SpecError, match="surrounding whitespace"):
            ScenarioSpec(job_id=" a ").validate()
        with pytest.raises(SpecError, match="non-empty string"):
            ScenarioSpec(job_id=7).validate()

    def test_yield_stress_only_for_yielding(self):
        with pytest.raises(SpecError, match="only meaningful"):
            ScenarioSpec(job_id="a", viscosity_law="arrhenius",
                         yield_stress=5.0).validate()
        with pytest.raises(SpecError, match="yield_stress: must be > 0"):
            ScenarioSpec(job_id="a", viscosity_law="yielding",
                         yield_stress=-2.0).validate()
        ScenarioSpec(job_id="a", viscosity_law="yielding",
                     yield_stress=4.0).validate()

    def test_scheduling_fields(self):
        with pytest.raises(SpecError, match="deadline: must be > 0"):
            ScenarioSpec(job_id="a", deadline=0.0).validate()
        with pytest.raises(SpecError, match="priority: must be an integer"):
            ScenarioSpec(job_id="a", priority=1.5).validate()
        with pytest.raises(SpecError, match="adapt_cycles"):
            ScenarioSpec(job_id="a", adapt_cycles=-1).validate()


class TestScenarioSpecMaterialization:
    def test_to_config_builds_named_law(self):
        cfg = ScenarioSpec(job_id="a", viscosity_law="yielding",
                           yield_stress=4.5, activation_energy=5.0).to_config()
        assert isinstance(cfg.viscosity, YieldingViscosity)
        assert cfg.viscosity.sigma_y == 4.5
        cfg = ScenarioSpec(job_id="a", eta0=2.0).to_config()
        assert isinstance(cfg.viscosity, ArrheniusViscosity)

    def test_to_config_propagates_config_error(self):
        """Fields the spec passes through verbatim still hit RheaConfig's
        own eager validation."""
        spec = ScenarioSpec(job_id="a", cfl=-0.5)
        with pytest.raises(ConfigError) as exc:
            spec.to_config()
        assert "cfl" in {f for f, _ in exc.value.errors}

    def test_t_init_is_seed_deterministic(self):
        coords = np.random.default_rng(0).random((50, 3))
        a = ScenarioSpec(job_id="a", seed=3).t_init()(coords)
        b = ScenarioSpec(job_id="b", seed=3).t_init()(coords)
        c = ScenarioSpec(job_id="c", seed=4).t_init()(coords)
        np.testing.assert_array_equal(a, b)
        assert np.any(a != c)


class TestScenarioSpecSerialization:
    def test_json_roundtrip(self):
        spec = ScenarioSpec(
            job_id="j1", tenant="geo", Ra=3e4, viscosity_law="yielding",
            yield_stress=5.0, activation_energy=4.0, cycles=3, seed=7,
            priority=2, deadline=12.0, domain=(1.0, 2.0, 1.0),
        )
        d = spec.to_json()
        assert d["domain"] == [1.0, 2.0, 1.0]  # JSON-serializable
        assert ScenarioSpec.from_json(d) == spec

    def test_unknown_field_rejected(self):
        d = ScenarioSpec(job_id="j1").to_json()
        d["turbo"] = True
        with pytest.raises(SpecError, match="turbo: unknown field"):
            ScenarioSpec.from_json(d)


class TestRheaConfigValidation:
    def test_default_config_valid(self):
        RheaConfig()

    def test_collects_every_violation(self):
        with pytest.raises(ConfigError) as exc:
            RheaConfig(Ra=-1.0, cfl=0.0, stokes_preconditioner="banana")
        fields = {f for f, _ in exc.value.errors}
        assert {"Ra", "cfl", "stokes_preconditioner"} <= fields

    def test_choice_message(self):
        # "gmg" is the one legal value: the AMG kind is gone
        for removed in ("banana", "amg"):
            with pytest.raises(ConfigError, match=r"stokes_preconditioner: must be "
                               rf"'gmg', got '{removed}'"):
                RheaConfig(stokes_preconditioner=removed)
        # a removed selector is not accepted and ignored
        with pytest.raises(TypeError, match="face_algorithm"):
            RheaConfig(face_algorithm="recursive")
        with pytest.raises(ConfigError, match=r"velocity_bc: must be "
                           r"'free_slip' or 'no_slip'"):
            RheaConfig(velocity_bc="periodic")

    def test_max_level_capped_at_balance_keys(self):
        """Balance encodes 19 levels (``FOREST_MAX_LEVEL``): a deeper cap
        fails here, not with ``cannot refine past MAX_LEVEL`` mid-run."""
        with pytest.raises(ConfigError, match=r"max_level: must be <= 19") as exc:
            RheaConfig(max_level=30, initial_level=3)
        assert [f for f, _ in exc.value.errors] == ["max_level"]
        RheaConfig(max_level=19)
        with pytest.raises(ConfigError, match="max_level"):
            ScenarioSpec(job_id="a", max_level=30).to_config()

    def test_level_ordering(self):
        with pytest.raises(ConfigError, match=r"min_level <= initial_level "
                           r"<= max_level"):
            RheaConfig(min_level=3, initial_level=2, max_level=4)
        with pytest.raises(ConfigError, match="levels must be integers"):
            RheaConfig(initial_level=2.5)

    @pytest.mark.parametrize("field, bad", [
        ("picard_iterations", 2.5),
        ("stokes_maxiter", 10.5),
        ("adapt_every", 1.5),
    ])
    def test_budgets_are_integers(self, field, bad):
        """A fractional budget fails at construction, not with a
        ``TypeError`` from ``range`` mid-run; so does one below 1."""
        with pytest.raises(ConfigError, match=rf"{field}: must be an integer >= 1, "
                           rf"got {bad}") as exc:
            RheaConfig(**{field: bad})
        assert [f for f, _ in exc.value.errors] == [field]
        with pytest.raises(ConfigError, match=field):
            RheaConfig(**{field: 0})
        RheaConfig(**{field: np.int64(2)})

    def test_domain_and_viscosity(self):
        with pytest.raises(ConfigError, match="3 positive extents"):
            RheaConfig(domain=(1.0, 2.0))
        with pytest.raises(ConfigError, match="3 positive extents"):
            RheaConfig(domain=(1.0, -1.0, 1.0))
        with pytest.raises(ConfigError, match="must be callable"):
            RheaConfig(viscosity=42)

    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigError, match="stokes_tol"):
            RheaConfig(stokes_tol=float("inf"))
