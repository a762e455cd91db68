"""Parity and accounting tests for the matrix-free apply engine.

The matrix-free applies must agree with the assembled-CSR operators
(the ``A`` / ``B`` / ``C`` blocks of ``tests/oracles/stokes_blocks.py``
and the SUPG operator of ``tests/oracles/supg.py``) to machine
precision (the 2-point Gauss rule is exact for every Q1 integrand), on
hanging-node meshes, under both BC kinds, and across extreme viscosity
contrast.
"""

import numpy as np
import pytest

from repro.fem import (
    AdvectionDiffusion,
    StokesSystem,
    apply_dirichlet,
    assemble_scalar,
    assemble_vector,
    assembly_counts,
    lumped_mass,
    reset_assembly_counts,
)
from repro.fem.hexops import ElementOps
from repro.fem.matfree import (
    MatFreeAdvectionOperator,
    MatFreeStokesOperator,
    advection_apply_flops,
    lumped_scalar_mass,
    saddle_apply_bytes,
    saddle_apply_flops,
)
from repro.mangll.tensor import (
    matrix_bytes,
    matrix_flops,
    tensor_bytes,
    tensor_flops,
)
from repro.forest import Forest, unit_cube
from repro.mesh import extract_mesh
from repro.parallel.machine import RANGER

from .oracles.stokes_blocks import (
    divergence_block,
    saddle_matrix,
    stabilization_block,
    velocity_divergence_norm,
    viscous_block,
)
from .oracles.saddle_tensor import TensorSaddleOperator
from .oracles.supg import assembled_operator

_OPS = ElementOps()


def make_mesh(level=2, seed=0, domain=(1.0, 1.0, 1.0)):
    tree = Forest.uniform(unit_cube(), level)
    rng = np.random.default_rng(seed)
    tree = tree.refine(rng.random(len(tree)) < 0.25)
    tree = tree.balance("corner")[0]
    return extract_mesh(tree, domain)


def viscosity(mesh, contrast):
    if contrast == 1.0:
        return np.ones(mesh.n_elements)
    rng = np.random.default_rng(7)
    return np.exp(rng.uniform(0.0, np.log(contrast), mesh.n_elements))


@pytest.mark.parametrize("bc", ["free_slip", "no_slip"])
@pytest.mark.parametrize("contrast", [1.0, 1e6])
def test_saddle_apply_parity(bc, contrast):
    mesh = make_mesh(level=2)
    st = StokesSystem(mesh, viscosity(mesh, contrast), bc=bc)
    x = np.random.default_rng(1).standard_normal(st.n_dof)
    ref = saddle_matrix(st) @ x
    assert np.max(np.abs(st.matvec(x) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_saddle_parity_anisotropic_domain():
    mesh = make_mesh(level=3, seed=3, domain=(1.0, 1.3, 0.7))
    st = StokesSystem(mesh, viscosity(mesh, 1e4), bc="free_slip")
    x = np.random.default_rng(2).standard_normal(st.n_dof)
    ref = saddle_matrix(st) @ x
    assert np.max(np.abs(st.matvec(x) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_divergence_and_schur_parity():
    mesh = make_mesh(level=2, seed=1)
    eta = viscosity(mesh, 1e6)
    st = StokesSystem(mesh, eta, bc="free_slip")
    x = np.random.default_rng(3).standard_normal(st.n_dof)
    assert np.isclose(
        velocity_divergence_norm(st, x),
        np.linalg.norm(divergence_block(st) @ x[: st.n_u]),
        rtol=1e-12,
    )
    d_ref = lumped_mass(mesh, _OPS.mass(mesh.element_sizes(), 1.0 / eta))
    np.testing.assert_allclose(st.schur_diagonal(), d_ref, rtol=1e-12)


@pytest.mark.parametrize("bc", ["free_slip", "no_slip"])
@pytest.mark.parametrize("nb", [1, 3])
def test_element_matrix_apply_parity(bc, nb):
    """The element-matrix apply equals the assembled ``[[A, B^T], [B, -C]]``
    (identity Dirichlet rows) to 1e-14 on a hanging-node mesh at 1e4
    contrast, batched or not; every batched column equals its serial
    apply."""
    mesh = make_mesh(level=2, seed=6)
    assert mesh.hanging.any()
    rng = np.random.default_rng(11)
    eta = np.exp(rng.uniform(0.0, np.log(1e4), (nb, mesh.n_elements)))
    bc_dofs = StokesSystem(mesh, eta[0], bc=bc).bc.dofs
    X = rng.standard_normal((4 * mesh.n_independent, nb))
    op = MatFreeStokesOperator(mesh, eta if nb > 1 else eta[0], bc, bc_dofs)
    got = op.apply(X) if nb > 1 else op.apply(X[:, 0])[:, None]
    for j in range(nb):
        ref = saddle_matrix(StokesSystem(mesh, eta[j], bc=bc)) @ X[:, j]
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(got[:, j] - ref)) <= 1e-14 * scale
        serial = MatFreeStokesOperator(mesh, eta[j], bc, bc_dofs).apply(X[:, j])
        assert np.max(np.abs(got[:, j] - serial)) <= 1e-14 * scale


def test_element_matrix_apply_matches_tensor_oracle():
    """The element-matrix apply and the reduced-grid sum-factorised apply
    it replaced agree to rounding, serial and batched."""
    mesh = make_mesh(level=3, seed=3, domain=(1.0, 1.3, 0.7))
    rng = np.random.default_rng(12)
    eta = np.exp(rng.uniform(0.0, np.log(1e4), (4, mesh.n_elements)))
    bc_dofs = StokesSystem(mesh, eta[0], bc="free_slip").bc.dofs
    X = rng.standard_normal((4 * mesh.n_independent, 4))
    for e, x in ((eta[0], X[:, 0]), (eta, X)):
        ref = TensorSaddleOperator(mesh, e, "free_slip", bc_dofs).apply(x)
        got = MatFreeStokesOperator(mesh, e, "free_slip", bc_dofs).apply(x)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_element_matrix_needs_similar_boxes(monkeypatch):
    mesh = make_mesh(level=2, seed=7)
    sizes = mesh.element_sizes().copy()
    sizes[0, 2] *= 1.5  # one element no longer a scaled copy of the others
    monkeypatch.setattr(mesh, "element_sizes", lambda: sizes)
    with pytest.raises(ValueError, match="scaled copy of one box"):
        MatFreeStokesOperator(mesh, np.ones(mesh.n_elements), "free_slip",
                              np.zeros(0, dtype=np.int64))


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_bad_viscosity_is_rejected_serial(bad):
    mesh = make_mesh(level=2)
    eta = np.ones(mesh.n_elements)
    dofs = StokesSystem(mesh, eta).bc.dofs
    op = MatFreeStokesOperator(mesh, eta, "free_slip", dofs)
    eta[[7, 9]] = bad
    with pytest.raises(ValueError, match=r"finite and positive: element 7 has"):
        op.update_viscosity(eta)
    with pytest.raises(ValueError, match="element 7 has"):
        MatFreeStokesOperator(mesh, eta, "free_slip", dofs)


def test_bad_viscosity_is_rejected_batched():
    """The fleet builds the operator directly from per-scenario
    viscosities, so the operator itself names the offending column."""
    mesh = make_mesh(level=2)
    eta = np.ones((4, mesh.n_elements))
    dofs = StokesSystem(mesh, eta[0]).bc.dofs
    op = MatFreeStokesOperator(mesh, eta, "free_slip", dofs)
    eta[2, 5] = np.nan
    eta[3, 1] = -1.0
    with pytest.raises(ValueError, match="scenario column 2, element 5 has nan"):
        op.update_viscosity(eta)
    with pytest.raises(ValueError, match="scenario column 2, element 5"):
        MatFreeStokesOperator(mesh, eta, "free_slip", dofs)


def test_minres_residual_history_matches_assembled_operator():
    """Preconditioned MINRES through the matrix-free apply and through the
    assembled saddle walks the same residual history to the same solution
    in the same number of iterations.

    The two applies agree to ~5e-16 per call, but the Lanczos recurrence
    amplifies that rounding.  Under the AMG block preconditioner (82
    iterations) the sum-factorised apply sat at 8.2e-11 of the initial
    residual and the element-matrix apply at 1.3e-10: the same exact
    quadrature summed in another order lands either side of 1e-10, so
    the bound is 1e-9 of the initial residual.  Under GMG (80 iterations)
    the histories agree to 3.2e-12 and the solutions to 7.9e-10."""
    from repro.solvers import GMGStokesPreconditioner, minres

    mesh = make_mesh(level=2)
    # layered-viscosity buoyancy problem (~55x contrast)
    eta = np.exp(4.0 * mesh.element_centers()[:, 2])
    c = mesh.node_coords()
    bf = np.zeros((mesh.n_nodes, 3))
    bf[:, 2] = np.sin(np.pi * c[:, 0]) * np.cos(np.pi * c[:, 2])
    st = StokesSystem(mesh, eta, bf, bc="free_slip")
    prec = GMGStokesPreconditioner(st)
    K = saddle_matrix(st)
    res_t = minres(st.matvec, st.rhs(), M=prec.apply, tol=1e-8, maxiter=500)
    res_m = minres(lambda x: K @ x, st.rhs(), M=prec.apply, tol=1e-8, maxiter=500)
    assert res_t.converged and res_m.converged
    assert res_t.iterations == res_m.iterations
    hist_t, hist_m = np.asarray(res_t.residuals), np.asarray(res_m.residuals)
    assert np.max(np.abs(hist_t - hist_m)) <= 1e-9 * hist_m[0]
    assert np.max(np.abs(res_t.x - res_m.x)) <= 1e-8 * np.max(np.abs(res_m.x))


def test_tensor_mode_skips_saddle_assembly():
    mesh = make_mesh(level=2)
    reset_assembly_counts()
    st = StokesSystem(mesh, viscosity(mesh, 1.0))
    x = np.random.default_rng(0).standard_normal(st.n_dof)
    st.matvec(x)
    # neither the build nor matvec triggers assembly
    assert assembly_counts() == {"scalar": 0, "vector": 0, "divergence": 0}
    # the assembled blocks are the parity tests' oracle
    assert viscous_block(st).shape == (st.n_u, st.n_u)
    assert stabilization_block(st).shape == (st.n_p, st.n_p)


def test_dirichlet_rows_are_identity():
    mesh = make_mesh(level=2)
    st = StokesSystem(mesh, viscosity(mesh, 100.0), bc="no_slip")
    x = np.random.default_rng(4).standard_normal(st.n_dof)
    out = st.matvec(x)
    np.testing.assert_allclose(out[st.bc.dofs], x[st.bc.dofs], rtol=0, atol=0)


def test_rhs_dirichlet_zeroed_matches_matrix_path():
    """Zeroing the constrained load entries is what symmetric Dirichlet
    elimination of the assembled system does to the consistent load."""
    mesh = make_mesh(level=2)
    rng = np.random.default_rng(5)
    bf = rng.standard_normal((mesh.n_nodes, 3))
    eta = viscosity(mesh, 10.0)
    st = StokesSystem(mesh, eta, bf, bc="free_slip")
    sizes = mesh.element_sizes()
    M_node = assemble_scalar(mesh, _OPS.mass(sizes), constrain=False)
    load = np.concatenate([mesh.Z.T @ (M_node @ bf[:, a]) for a in range(3)])
    A_raw = assemble_vector(mesh, _OPS.strain_stiffness(sizes, eta))
    _, f_ref = apply_dirichlet(A_raw, load, st.bc.dofs)
    np.testing.assert_allclose(st.rhs()[: st.n_u], f_ref, rtol=0, atol=1e-14)
    assert not st.rhs()[st.n_u :].any()


def test_supg_rate_parity():
    mesh = make_mesh(level=2, seed=2)
    rng = np.random.default_rng(6)
    vel = rng.standard_normal((mesh.n_elements, 3))
    eq = AdvectionDiffusion(mesh, 1e-3, vel, source=0.7,
                            dirichlet=[(2, 0, 1.0), (2, 1, 0.0)])
    A = assembled_operator(eq)

    def rate_assembled(T):
        r = (eq.b - A @ T) / eq.ML
        r[eq._bc_mask] = 0.0
        return r

    T = rng.standard_normal(mesh.n_independent)
    ref = rate_assembled(T)
    got = eq.rate(T)
    assert np.max(np.abs(got - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1e-30)
    # one full Heun step through the matrix-free rate
    dt = 1e-4
    T0 = eq.apply_bcs(T)
    k1 = rate_assembled(T0)
    k2 = rate_assembled(eq.apply_bcs(T0 + dt * k1))
    np.testing.assert_allclose(
        eq.step(T, dt), eq.apply_bcs(T0 + 0.5 * dt * (k1 + k2)), rtol=0, atol=1e-12
    )


def test_scalar_mass_parity_plain_and_supg():
    mesh = make_mesh(level=2, seed=4)
    sizes = mesh.element_sizes()
    rng = np.random.default_rng(8)
    coeff = np.exp(rng.standard_normal(mesh.n_elements))
    np.testing.assert_allclose(
        lumped_scalar_mass(mesh, coeff), lumped_mass(mesh, _OPS.mass(sizes, coeff)),
        rtol=1e-12,
    )


def test_lumped_scalar_mass_takes_a_batch_axis():
    """``(nb, ne)`` coefficients give one Schur diagonal per column: at
    nb = 1 bit for bit the ``(ne,)`` call, at nb = 3 each column its own
    call to GEMM reassociation."""
    mesh = make_mesh(level=2, seed=6)
    rng = np.random.default_rng(9)
    coeff = np.exp(rng.standard_normal((3, mesh.n_elements)))
    one = lumped_scalar_mass(mesh, coeff[:1])
    assert one.shape == (mesh.n_independent, 1)
    np.testing.assert_array_equal(one[:, 0], lumped_scalar_mass(mesh, coeff[0]))
    three = lumped_scalar_mass(mesh, coeff)
    for j in range(3):
        np.testing.assert_allclose(three[:, j], lumped_scalar_mass(mesh, coeff[j]), rtol=1e-12)
    with pytest.raises(ValueError, match="coeff"):
        lumped_scalar_mass(mesh, coeff[:, :-1])


def test_operator_objects_are_rebindable():
    mesh = make_mesh(level=2)
    eta = viscosity(mesh, 1.0)
    st = StokesSystem(mesh, eta, bc="free_slip")
    mf = MatFreeStokesOperator(mesh, eta, "free_slip", st.bc.dofs)
    eta2 = viscosity(mesh, 1e3)
    mf.update_viscosity(eta2)
    st2 = StokesSystem(mesh, eta2, bc="free_slip")
    x = np.random.default_rng(9).standard_normal(st.n_dof)
    ref = saddle_matrix(st2) @ x
    assert np.max(np.abs(mf.apply(x) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_flop_accounting_sane():
    ne = 1000
    assert saddle_apply_flops(ne) == saddle_apply_flops(1) * ne
    assert advection_apply_flops(ne) == advection_apply_flops(1) * ne
    # at the default discretization the assembled saddle has ~190 nnz per
    # element row-block; the element kernel trades those sparse flops for
    # one 32x32 GEMM plus the two-sided scaling, ~2.2k dense flops
    assert saddle_apply_flops(1) == 2 * 32 * 32 + 4 * 32
    assert saddle_apply_bytes(ne, gather_nnz=40 * ne) > 0


def test_variant_validation():
    """There is one apply path: the removed selector is not accepted and
    ignored, it is an error."""
    mesh = make_mesh(level=2)
    with pytest.raises(TypeError, match="variant"):
        StokesSystem(mesh, viscosity(mesh, 1.0), variant="matrix")
    with pytest.raises(TypeError, match="variant"):
        AdvectionDiffusion(mesh, 1.0, np.zeros((mesh.n_elements, 3)),
                           variant="matrix")


def test_advection_operator_direct_apply_matches_assembled():
    mesh = make_mesh(level=3, seed=5)
    rng = np.random.default_rng(10)
    vel = rng.standard_normal((mesh.n_elements, 3))
    eq = AdvectionDiffusion(mesh, 0.02, vel)
    op = MatFreeAdvectionOperator(mesh, 0.02, vel, eq.tau)
    T = rng.standard_normal(mesh.n_independent)
    ref = assembled_operator(eq) @ T
    assert np.max(np.abs(op.apply(T) - ref)) <= 1e-12 * np.max(np.abs(ref))


# -- Section VII kernel-count model -------------------------------------------


def test_kernel_flop_counts_match_paper():
    # Section VII: matrix-based gradient costs 6(p+1)^6 flops/element,
    # sum-factorized costs 6(p+1)^4; the ratio is (p+1)^2.
    for p in (1, 2, 4, 6, 8):
        n1 = p + 1
        assert matrix_flops(p) == 6 * n1**6
        assert tensor_flops(p) == 6 * n1**4
        assert matrix_flops(p) == tensor_flops(p) * n1**2


def test_kernel_bytes_model():
    # both kernels stream one field read and one gradient write per axis;
    # the dense operator / 1-D factors are cache-resident and not charged
    for p in (1, 2, 4):
        assert matrix_bytes(p) == tensor_bytes(p) == 8 * 6 * (p + 1) ** 3


def test_machine_model_crossover_in_paper_band():
    # With Ranger's observed sustained rates (~4.4 Gflop/s dense vs an
    # order of magnitude less for short tensor contractions), the modeled
    # crossover must land between p = 2 and p = 4 as reported on Ranger.
    ne = 1024
    t2_m = RANGER.t_element_kernel(2, "matrix", ne)
    t2_t = RANGER.t_element_kernel(2, "tensor", ne)
    t4_m = RANGER.t_element_kernel(4, "matrix", ne)
    t4_t = RANGER.t_element_kernel(4, "tensor", ne)
    assert t2_m <= t2_t  # matrix kernel wins at low order
    assert t4_t <= t4_m  # tensor kernel wins at high order


def test_machine_model_uses_selected_variant_counts():
    # in the compute-bound regime the modeled time must equal the selected
    # variant's flop count divided by that variant's sustained rate
    ne = 1
    p = 6
    t_m = RANGER.t_element_kernel(p, "matrix", ne)
    t_t = RANGER.t_element_kernel(p, "tensor", ne)
    assert t_m >= matrix_flops(p) * ne / RANGER.flop_rate_dense * (1 - 1e-12)
    assert t_t >= tensor_flops(p) * ne / RANGER.flop_rate_tensor * (1 - 1e-12)
    # and never below the streaming bound
    assert t_m >= RANGER.t_stream(matrix_bytes(p) * ne)
    assert t_t >= RANGER.t_stream(tensor_bytes(p) * ne)
    with pytest.raises(ValueError, match="variant"):
        RANGER.t_element_kernel(2, "banana", 1)
