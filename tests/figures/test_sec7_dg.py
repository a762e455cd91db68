"""Section VII: high-order DG — element derivative kernels and weak scaling.

Kernels.  Paper: the matrix-based gradient costs 6(p+1)^6 flops/element
but runs as one large BLAS matmul; the tensor-product variant costs
6(p+1)^4 but is less cache friendly.  On Ranger the runtime crossover fell
between p = 2 and p = 4; at p = 6 the tensor variant performs ~20x fewer
flops in the full operator and runs about twice as fast despite a far
lower flop rate.  Executed here: both kernels over p = 1..8, timed by obs
phases and printed with analytic flop counts and effective flop rates;
asserted: the two gradients agree, and the crossover modeled by
:func:`kernels.t_element_kernel` falls between p = 2 and p = 4.

Weak scaling.  Paper: "for order p = 4, we observe 90% parallel
efficiency on 16,384 cores relative to 64 cores, and for order p = 6 we
found 83% parallel efficiency on 32,768 cores compared to 32 cores",
adapting every 32 steps.  High order helps weak scaling for two reasons
the model captures: most dofs are interior to elements (communication is
only the element-surface trace), and per-element work grows like
(p+1)^4 while the face payload grows like (p+1)^2.  Executed: DG
advection on the cubed sphere at p in {2, 4, 6}; modeled: efficiency at
the paper's core counts."""

import numpy as np

from repro import obs
from repro.forest import Forest, cubed_sphere_connectivity
from repro.mangll import DerivativeKernel, DGAdvection, solid_body_rotation
from repro.parallel import RANGER

from .harness import format_table, model_dg_weak_scaling
from .kernels import gradient, matrix_flops, t_element_kernel, tensor_flops

ORDERS = [1, 2, 3, 4, 6, 8]
TOTAL_NODES = 300_000  # ~0.3M nodal values per measurement


def test_sec7_kernel_crossover():
    rows, modeled = [], {}
    for p in ORDERS:
        kern = DerivativeKernel(p)
        ne = max(TOTAL_NODES // (p + 1) ** 3, 4)
        u = np.random.default_rng(p).standard_normal((ne, (p + 1) ** 3))
        with obs.attached(obs.PhaseTimer(record_events=False)) as timer:
            grads = {}
            for variant in ("matrix", "tensor"):
                with obs.phase(variant):
                    grads[variant] = gradient(kern, u, variant)
        gm, gt = (np.stack(grads[v]) for v in ("matrix", "tensor"))
        assert np.abs(gm - gt).max() <= 1e-12 * np.abs(gm).max()
        t_mat, t_ten = (timer.results()[v]["wall_s"] for v in ("matrix", "tensor"))
        modeled[p] = (t_element_kernel(RANGER, p, "matrix", ne)
                      / t_element_kernel(RANGER, p, "tensor", ne))
        rows.append(
            [
                p, ne,
                round(1e3 * t_mat, 2), round(1e3 * t_ten, 2),
                f"{matrix_flops(p) * ne / t_mat / 1e9:.2f}",
                f"{tensor_flops(p) * ne / t_ten / 1e9:.2f}",
                f"{matrix_flops(p) / tensor_flops(p):.0f}x",
                round(t_mat / t_ten, 2), round(modeled[p], 2),
            ]
        )
    table = format_table(
        ["p", "#elem", "matrix ms", "tensor ms", "matrix GF/s", "tensor GF/s",
         "flop ratio", "t_mat/t_ten", "Ranger model"],
        rows,
        title="Sec. VII — matrix vs tensor-product derivative kernels (this host)",
    )
    table += (
        "\npaper (Ranger + GotoBLAS): crossover between p=2 and p=4; at p=6"
        "\nthe tensor variant does ~20x fewer flops in the full operator and"
        "\nruns ~2x faster despite a much lower sustained flop rate.\n"
    )
    print(table)

    # the modeled matrix/tensor time ratio crosses 1 between p = 2 and
    # p = 4, and the tensor advantage grows with order from there on
    assert modeled[2] < 1.0 < modeled[4]
    assert all(modeled[a] < modeled[b] for a, b in zip(ORDERS[1:], ORDERS[2:]))


def test_sec7_dg_weak_scaling():
    conn = cubed_sphere_connectivity(r_inner=0.6, r_outer=1.0)
    rows = []
    for p_order in [2, 4, 6]:
        dg = DGAdvection(Forest.uniform(conn, 1), p_order, solid_body_rotation())
        u = np.exp(-np.sum((dg.nodes() - 0.5) ** 2, axis=1) / 0.05)
        with obs.attached(obs.PhaseTimer(record_events=False)) as timer:
            with obs.phase("advance"):
                dg.advance(u, dg.cfl_dt(0.3), 3)
        assert (dg.ne, dg.n_dof) == (192, 192 * (p_order + 1) ** 3)
        wall = timer.results()["advance"]["wall_s"]
        rows.append([p_order, dg.ne, dg.n_dof, round(wall, 3), "executed"])
    table = format_table(
        ["p", "#elem", "#dof", "3 RK steps s", "kind"],
        rows,
        title="Sec. VII — executed DG advection on the 24-tree cubed sphere",
    )

    effs = {}
    for p_order, cores in [(4, [64, 1024, 16384]), (6, [32, 1024, 32768])]:
        mrows = model_dg_weak_scaling(p_order, cores)
        effs[p_order] = mrows[-1]["eff_rel"]
        table += "\n\n" + format_table(
            ["cores", "modeled s", "efficiency vs first"],
            [[r["cores"], round(r["t"], 3), round(r["eff_rel"], 3)] for r in mrows],
            title=f"modeled weak scaling, p = {p_order} (paper: "
            f"{'90% at 16,384' if p_order == 4 else '83% at 32,768'})",
        )
    print(table)

    # shape assertions: high efficiency at the paper's endpoints
    assert effs[4] > 0.8
    assert effs[6] > 0.7
