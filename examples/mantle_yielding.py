"""Section VI scenario: regional mantle convection with plastic yielding.

A shrunk version of the paper's 8 x 4 x 1 run: three-layer
temperature-dependent viscosity with a lithospheric yield stress, a cold
downwelling slab, and AMR that tracks thermal fronts, viscosity collapse,
and the yielding (weak plate boundary) zones.

Checkpoint/restart: ``--checkpoint-every N`` snapshots the full solver
state (fields, counters, diagnostics, warm-start data) every N cycles
into ``--checkpoint-dir``; ``--resume`` continues from the newest
checkpoint there with a bitwise-identical trajectory.

Observability (see OBSERVABILITY.md): ``--trace trace.json`` writes a
Chrome-trace timeline of the AMR / Stokes / advection phases;
``--report report.md`` writes the Table IV-style breakdown with solver
counters (MINRES iterations, GMG preconditioner builds, cache hits).
The Stokes solve is MINRES with the geometric-multigrid block
preconditioner, lagged between mesh adaptations.

Run:  python examples/mantle_yielding.py [--trace T] [--report R]
"""

import argparse

import numpy as np

from repro.rhea import MantleConvection, RheaConfig, YieldingViscosity
from repro.rhea.viscosity import element_temperature, strain_rate_invariant


def slab_and_plume(coords):
    x, z = coords[:, 0] / 8.0, coords[:, 2]
    base = 1.0 - z
    slab = -0.45 * np.exp(-(((x - 0.5) / 0.06) ** 2)) * (z > 0.55)
    plume = 0.35 * np.exp(-(((x - 0.25) / 0.1) ** 2 + ((z - 0.15) / 0.15) ** 2))
    return np.clip(base + slab + plume, 0.0, 1.0)


def make_config(initial_level=3, max_level=6, target_elements=1400):
    return RheaConfig(
        Ra=1e5,
        domain=(8.0, 4.0, 1.0),
        viscosity=YieldingViscosity(sigma_y=500.0),
        initial_level=initial_level,
        min_level=2,
        max_level=max_level,
        adapt_every=4,
        picard_iterations=2,
        stokes_tol=1e-5,
        target_elements=target_elements,
        viscosity_weight=0.8,
        yield_weight=1.5,
    )


def main(cycles=4, checkpoint_every=None, checkpoint_dir="checkpoints_yielding",
         resume=False, initial_level=3, max_level=6, target_elements=1400,
         trace=None, report=None):
    from repro import obs

    cfg = make_config(initial_level, max_level, target_elements)
    timer = obs.enable() if (trace is not None or report is not None) else None
    checkpoint = None
    if checkpoint_every:
        from repro.checkpoint import Checkpointer

        checkpoint = Checkpointer(checkpoint_dir, every=checkpoint_every)

    if resume:
        from repro.checkpoint import restore_convection

        sim = restore_convection(checkpoint_dir, config=cfg)
        print(f"resumed from checkpoint in {checkpoint_dir!r} at "
              f"step {sim.step_count} (t = {sim.sim_time:.3e}, "
              f"{len(sim.history)} cycles recorded)")
    else:
        sim = MantleConvection(cfg, T_init=slab_and_plume)
        sim.adapt_initial(rounds=2, target=target_elements)

    print(f"{'cycle':>5} {'#elem':>6} {'vrms':>9} {'Nu':>7} {'MINRES':>7} "
          f"{'eta range':>16} {'yielded':>8}")
    for _ in range(cycles):
        sim.run(1, checkpoint=checkpoint)
        d = sim.history[-1]
        law = cfg.viscosity
        mesh = sim.mesh
        T_e = element_temperature(mesh, sim.T)
        z_e = mesh.element_centers()[:, 2]
        edot = strain_rate_invariant(mesh, sim.u)
        yielded = int(law.yielded_mask(T_e, z_e, edot).sum())
        print(
            f"{len(sim.history):>5} {d.n_elements:>6} {d.vrms:>9.3g} {d.nusselt:>7.2f} "
            f"{d.minres_iterations:>7} "
            f"{d.eta_min:>7.1e}..{d.eta_max:<7.1e} {yielded:>8}"
        )

    levels = sim.mesh.leaves.level.astype(int)
    print(f"\nfinal octree levels {levels.min()}..{levels.max()}; "
          f"uniform mesh at level {levels.max()} would need "
          f"{8 ** int(levels.max()):,} elements "
          f"({8 ** int(levels.max()) / sim.mesh.n_elements:.0f}x more)")

    if timer is not None:
        obs.disable()
        if trace is not None:
            obs.chrome_trace([timer], trace)
            print(f"chrome trace written to {trace!r} "
                  "(open at https://ui.perfetto.dev)")
        if report is not None:
            rep = obs.generate_report([timer.results()], executed_ranks=1)
            with open(report, "w", encoding="utf-8") as f:
                f.write(obs.markdown_report(rep) + "\n")
            print(f"phase report written to {report!r} "
                  f"(Stokes fraction {100 * rep['fractions']['stokes']:.1f}%)")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cycles", type=int, default=4,
                    help="convection cycles to run (default 4)")
    ap.add_argument("--checkpoint-every", type=int, default=None, metavar="N",
                    help="snapshot the solver state every N cycles")
    ap.add_argument("--checkpoint-dir", default="checkpoints_yielding",
                    help="checkpoint root directory (default checkpoints_yielding)")
    ap.add_argument("--resume", action="store_true",
                    help="resume from the newest checkpoint in --checkpoint-dir")
    ap.add_argument("--trace", default=None, metavar="PATH",
                    help="write a Chrome-trace JSON timeline (Perfetto)")
    ap.add_argument("--report", default=None, metavar="PATH",
                    help="write the Table IV-style phase report (markdown)")
    args = ap.parse_args()
    main(cycles=args.cycles, checkpoint_every=args.checkpoint_every,
         checkpoint_dir=args.checkpoint_dir, resume=args.resume,
         trace=args.trace, report=args.report)
