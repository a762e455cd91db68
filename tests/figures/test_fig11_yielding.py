"""Figures 1 & 11 / Section VI: mantle convection with plastic yielding.

Paper: 8 x 4 x 1 Cartesian domain, three-layer temperature-dependent
viscosity with lithospheric yielding (4 orders of magnitude variation);
AMR spans 14 octree levels, resolves yielding zones at ~1.5 km, and uses
19.2M elements where a uniform level-13 mesh would need 34B — a more than
1,000-fold reduction.

Executed: the same physics at shrunk resolution (max level scaled down),
measuring (a) the viscosity range, (b) that yielding zones exist and are
refined to the finest level, and (c) the element-reduction factor vs the
uniform mesh at the same finest resolution."""

import numpy as np

from repro.rhea import MantleConvection, RheaConfig, YieldingViscosity
from repro.rhea.viscosity import element_temperature, strain_rate_invariant

from .harness import format_table

DOMAIN = (8.0, 4.0, 1.0)
MAX_LEVEL = 6  # paper: 14; shrunk for pure-Python runtime
DOMAIN_KM = 2900.0  # mantle depth the unit z maps to


def slab_initial(coords):
    """Cold downwelling slab + hot base: drives localized yielding."""
    x, y, z = coords[:, 0] / 8.0, coords[:, 1] / 4.0, coords[:, 2]
    base = 1.0 - z
    slab = -0.45 * np.exp(-(((x - 0.5) / 0.06) ** 2)) * (z > 0.55)
    blob = 0.35 * np.exp(-(((x - 0.25) / 0.1) ** 2 + ((z - 0.15) / 0.15) ** 2))
    return np.clip(base + slab + blob, 0.0, 1.0)


def run_yielding(n_cycles=3):
    cfg = RheaConfig(
        Ra=1e5,
        domain=DOMAIN,
        viscosity=YieldingViscosity(sigma_y=500.0),
        initial_level=3,
        min_level=2,
        max_level=MAX_LEVEL,
        adapt_every=4,
        picard_iterations=2,
        stokes_tol=1e-5,
        stokes_maxiter=600,
        target_elements=1400,
        viscosity_weight=0.8,
        yield_weight=1.5,
    )
    sim = MantleConvection(cfg, T_init=slab_initial)
    sim.adapt_initial(rounds=2, target=1400)
    sim.run(n_cycles)
    return sim


def test_fig11_yielding_simulation():
    sim = run_yielding()
    mesh = sim.mesh
    law = sim.config.viscosity

    T_e = element_temperature(mesh, sim.T)
    z_e = mesh.element_centers()[:, 2]
    edot = strain_rate_invariant(mesh, sim.u)
    eta = law(T_e, z_e, edot)
    yielded = law.yielded_mask(T_e, z_e, edot)
    levels = mesh.leaves.level.astype(int)

    finest = levels.max()
    n_uniform = 8.0**finest
    reduction = n_uniform / mesh.n_elements
    # fronts/weak zones are surfaces: adaptive count scales like 4^L while
    # uniform scales like 8^L, so the reduction doubles per extra level.
    # Extrapolate the measured constant to the paper's 14 levels.
    c_surface = mesh.n_elements / 4.0**finest
    reduction_14 = 8.0**14 / (c_surface * 4.0**14)
    finest_km = DOMAIN_KM / (2.0**finest)
    paper_scale_km = DOMAIN_KM / 2.0**14

    rows = [
        ["elements (adaptive)", mesh.n_elements],
        ["octree levels spanned", f"{levels.min()}..{finest}"],
        ["uniform-equivalent elements", f"{n_uniform:.3g}"],
        ["element reduction factor", f"{reduction:.1f}x"],
        ["extrapolated reduction at 14 levels", f"{reduction_14:.3g}x (paper: >1000x)"],
        ["finest resolution (km-equivalent)", f"{finest_km:.1f}"],
        ["paper finest at level 14 (km)", f"{paper_scale_km * 8:.1f} (x-dir ~1.4)"],
        ["viscosity range (orders of magnitude)", f"{np.log10(eta.max() / eta.min()):.1f}"],
        ["yielded elements", int(yielded.sum())],
        ["mean level (yielded)", f"{levels[yielded].mean():.2f}" if yielded.any() else "n/a"],
        ["mean level (elsewhere)", f"{levels[~yielded].mean():.2f}"],
        ["vrms", f"{sim.vrms():.3g}"],
    ]
    print(format_table(["quantity", "value"], rows,
                       title="Fig. 11 / Sec. VI — mantle convection with yielding (shrunk levels)"))

    # shape assertions vs the paper (the full 4 orders of magnitude need
    # the paper's 14-level resolution; the shrunk run still spans ~3)
    assert np.log10(eta.max() / eta.min()) >= 2.5
    assert yielded.any()                            # yielding zones exist
    assert reduction > 15                           # large reduction vs uniform
    assert reduction_14 > 1000                      # paper-scale reduction
    if yielded.any():
        # yielding zones are refined beyond the base lithosphere level and
        # sit near the overall refinement level despite being thin
        assert levels[yielded].max() > 3
        assert levels[yielded].mean() >= levels.mean() - 0.5
