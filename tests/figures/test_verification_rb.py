"""Verification against CitcomCU-style Rayleigh-Benard behavior.

The paper states: "We have verified RHEA with the widely used, validated,
static mesh mantle convection code CitcomCU."  Without that code we verify
against the community-benchmark *behavior* of isoviscous Rayleigh-Benard
convection (Blankenbach et al. 1989 family):

- below the critical Rayleigh number (~779 for free-slip) perturbations
  decay: no convection, Nusselt number ~ 1;
- above it, convection sets in; both the Nusselt number and the rms
  velocity increase monotonically with Ra (classical scalings
  Nu ~ Ra^(1/3), vrms ~ Ra^(2/3));
- published steady values for comparison: Ra = 1e4 -> Nu = 4.88,
  vrms = 42.86; Ra = 1e5 -> Nu = 10.53, vrms = 193.2 (unit cube,
  isoviscous, free-slip; our short coarse-mesh runs approach these from
  below rather than matching them).
"""

from repro.rhea import ArrheniusViscosity, MantleConvection, RheaConfig

from .harness import format_table


def run_rb(Ra, n_cycles=5, level=3):
    cfg = RheaConfig(
        Ra=Ra,
        viscosity=ArrheniusViscosity(eta0=1.0, E=0.0),  # isoviscous
        initial_level=level,
        min_level=2,
        max_level=level + 1,
        adapt_every=8,
        picard_iterations=1,
        stokes_tol=1e-6,
        stokes_maxiter=400,
        target_elements=8**level,
    )
    sim = MantleConvection(cfg)
    sim.run(n_cycles, adapt=False)  # static mesh, like CitcomCU
    d = sim.history[-1]
    return d.nusselt, d.vrms, d.minres_iterations


def test_verification_rayleigh_benard():
    rows = []
    results = {}
    for Ra in [300.0, 1e4, 1e5]:
        nu, vrms, its = run_rb(Ra)
        results[Ra] = (nu, vrms)
        rows.append([f"{Ra:.0e}", round(nu, 2), round(vrms, 2), its])
    table = format_table(
        ["Ra", "Nu", "vrms", "MINRES its"],
        rows,
        title="Verification — isoviscous Rayleigh-Benard (short coarse runs)",
    )
    table += (
        "\npublished steady-state references (Blankenbach et al. 1989):"
        "\n  Ra=1e4: Nu=4.88, vrms=42.86;  Ra=1e5: Nu=10.53, vrms=193.2"
        "\nsub-critical Ra=300: no convection (vrms ~ perturbation decay)\n"
    )
    print(table)

    # sub-critical: essentially no flow compared to the convecting cases
    assert results[300.0][1] < 0.05 * results[1e4][1]
    # convecting: vigor increases with Ra
    assert results[1e5][1] > results[1e4][1] > 1.0
    # heat transport enhanced over conduction and ordered by Ra
    assert results[1e5][0] > results[1e4][0] > 0.8
