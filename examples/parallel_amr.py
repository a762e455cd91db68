"""Section V scenario: the distributed AMR pipeline on simulated ranks.

Runs the full Figure-4 cycle (MarkElements -> Coarsen/Refine -> Balance ->
Partition -> ExtractMesh -> InterpolateFields -> TransferFields) on P
simulated MPI ranks, advecting a thin spherical front with a rotating
velocity, then prints the per-function timing breakdown (the obs phases
of every rank, see OBSERVABILITY.md) and communication totals the
Section-V benchmarks are built on.

Checkpoint/restart: ``--checkpoint-every N`` snapshots the distributed
state every N cycles into ``--checkpoint-dir``; ``--resume`` restarts
from the newest checkpoint there — on *any* rank count, since shards
concatenate along the Morton curve and repartition on load.

Observability (see OBSERVABILITY.md): ``--trace trace.json`` writes a
Chrome-trace timeline (one track per rank, open at
https://ui.perfetto.dev); ``--report report.md`` writes the paper's
Table IV-style per-phase breakdown.

Run:  python examples/parallel_amr.py [P] [--trace T] [--report R]
"""

import argparse

from repro.amr import ParAmrPipeline, RotatingFrontWorkload, rotating_velocity
from repro.parallel import run_spmd_with_comms


def main(p=4, cycles=3, checkpoint_every=None, checkpoint_dir="checkpoints_amr",
         resume=False, target=600, max_level=6, trace=None, report=None):
    from repro import obs

    workload = RotatingFrontWorkload(velocity=rotating_velocity(scale=3.0))
    checkpoint = None
    if checkpoint_every:
        from repro.checkpoint import Checkpointer

        checkpoint = Checkpointer(checkpoint_dir, every=checkpoint_every)

    def kernel(comm):
        timer = obs.enable(comm, record_events=trace is not None)
        if resume:
            from repro.checkpoint import restore_pipeline

            pipe = restore_pipeline(comm, checkpoint_dir, workload=workload)
        else:
            pipe = ParAmrPipeline(
                comm, workload=workload, coarse_level=2, max_level=max_level
            )
        start_cycle = pipe.cycles_done
        for _ in range(cycles):
            pipe.adapt(target=target)
            pipe.advance_time(0.1, cfl=0.5)
            pipe.cycles_done += 1
            if checkpoint is not None and checkpoint.due(pipe.cycles_done):
                checkpoint.save_pipeline(pipe)
        obs.disable()
        # collect global quantities while the SPMD world is still alive
        # (collectives cannot be issued after run_spmd returns)
        return {
            "n_global": pipe.pt.global_count(),
            "levels": pipe.pt.level_histogram(),
            "steps": pipe.steps_taken,
            "sim_time": pipe.sim_time,
            "start_cycle": start_cycle,
            "history": pipe.adapt_history,
            "phase_results": timer.results(),
            "trace_data": timer.trace_data(),
        }

    print(f"running the SPMD AMR pipeline on {p} simulated ranks ...")
    results, comms = run_spmd_with_comms(p, kernel)
    pipe = results[0]

    if resume:
        print(f"resumed from checkpoint in {checkpoint_dir!r} "
              f"at cycle {pipe['start_cycle']}")
    print(f"\nglobal elements: {pipe['n_global']}, levels {pipe['levels']}")
    print(f"steps taken: {pipe['steps']} (t = {pipe['sim_time']:.3f})")

    rep = obs.generate_report(
        [r["phase_results"] for r in results], executed_ranks=p
    )
    print("\nper-function timing (max over ranks, seconds):")
    roots = [(name, e) for name, e in rep["phases"].items() if e["root"]]
    for name, e in sorted(roots, key=lambda kv: -kv[1]["wall_s"]["max"]):
        print(f"  {name:<18} {e['wall_s']['max']:8.4f}")
    print(f"  AMR fraction of total: {100 * rep['amr_fraction']:.1f}%")

    print("\nadaptation history (global):")
    for i, h in enumerate(pipe["history"]):
        print(
            f"  step {i + 1}: {h.n_before} -> {h.n_after} "
            f"(+{h.n_refined} refined, -{h.n_coarsened} coarsened, "
            f"+{h.n_balance_added} balance)"
        )

    s = comms[0].stats
    print(f"\nrank-0 communication: {s.total_collective_calls} collectives, "
          f"{s.p2p_messages} p2p messages, {s.total_bytes / 1e6:.2f} MB total")

    if trace is not None:
        obs.chrome_trace([r["trace_data"] for r in results], trace)
        print(f"chrome trace written to {trace!r} "
              "(open at https://ui.perfetto.dev)")
    if report is not None:
        with open(report, "w", encoding="utf-8") as f:
            f.write(obs.markdown_report(rep) + "\n")
        print(f"phase report written to {report!r}")

if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ranks", nargs="?", type=int, default=4,
                    help="simulated rank count (default 4)")
    ap.add_argument("--cycles", type=int, default=3,
                    help="adapt+advance cycles to run (default 3)")
    ap.add_argument("--checkpoint-every", type=int, default=None, metavar="N",
                    help="snapshot the distributed state every N cycles")
    ap.add_argument("--checkpoint-dir", default="checkpoints_amr",
                    help="checkpoint root directory (default checkpoints_amr)")
    ap.add_argument("--resume", action="store_true",
                    help="resume from the newest checkpoint in --checkpoint-dir")
    ap.add_argument("--trace", default=None, metavar="PATH",
                    help="write a Chrome-trace JSON timeline (Perfetto)")
    ap.add_argument("--report", default=None, metavar="PATH",
                    help="write the Table IV-style phase report (markdown)")
    args = ap.parse_args()
    main(args.ranks, cycles=args.cycles, checkpoint_every=args.checkpoint_every,
         checkpoint_dir=args.checkpoint_dir, resume=args.resume,
         trace=args.trace, report=args.report)
