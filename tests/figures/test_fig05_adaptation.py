"""Figure 5: extent of mesh adaptation per step.

Paper (left panel): under advection-dominated transport, typically half
the elements are coarsened or refined at every adaptation step, balance
additions are barely visible, and MARKELEMENTS keeps the total element
count roughly constant.  (Right panel): elements spread over many octree
levels as the run progresses.

We execute the same workload (thin rotating front) through the SPMD
pipeline and print both panels' data."""

from repro.amr import ParAmrPipeline, RotatingFrontWorkload, rotating_velocity
from repro.parallel import run_spmd

from .harness import format_table


def run_adaptation_series(n_cycles=6, p=4, target=500):
    # fast rotation so the front sweeps several cells between adaptations
    workload = RotatingFrontWorkload(velocity=rotating_velocity(scale=4.0))

    def kernel(comm):
        pipe = ParAmrPipeline(comm, workload=workload, coarse_level=2, max_level=6)
        for _ in range(n_cycles):
            pipe.adapt(target)
            # sweep the front several fine cells between adaptations
            pipe.advance_time(0.15, cfl=0.5)
        return pipe.adapt_history

    return run_spmd(p, kernel)[0]


def test_fig05_adaptation_extent():
    history = run_adaptation_series()
    table = format_table(
        ["step", "before", "refined", "coarsened", "balance+", "unchanged", "after", "changed"],
        [[i + 1, h.n_before, h.n_refined, h.n_coarsened, h.n_balance_added,
          h.n_unchanged, h.n_after, h.n_refined + h.n_coarsened]
         for i, h in enumerate(history)],
        title="Fig. 5 (left) — elements refined/coarsened/balance-added/unchanged per adaptation step",
    )
    # right panel: level histograms at every step
    levels = sorted({l for h in history for l in h.level_histogram})
    table += "\n\n" + format_table(
        ["step"] + [f"lvl{l}" for l in levels],
        [[i + 1] + [h.level_histogram.get(l, 0) for l in levels]
         for i, h in enumerate(history)],
        title="Fig. 5 (right) — elements per octree level",
    )
    print(table)

    # shape assertions vs the paper:
    later = history[2:]
    # 1. substantial adaptation every step once the front moves
    changed = [(h.n_refined + h.n_coarsened) / h.n_before for h in later]
    assert max(changed) > 0.1
    # 2. total element count held ~constant by MarkElements
    totals = [h.n_after for h in history]
    assert max(totals) < 2.5 * min(totals)
    # 3. balance additions never dominate the marked changes (at paper
    # scale they are barely visible; at ~500 elements the 2:1 closure of
    # a moving front is proportionally larger but still a correction)
    for h in later:
        assert h.n_balance_added <= max(h.n_refined + h.n_coarsened, 1)
    # 4. multiple levels populated
    assert len(history[-1].level_histogram) >= 3
