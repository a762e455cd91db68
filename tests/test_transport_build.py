"""The per-adaptation transport set-up against its straightforward forms.

- ``ElementOps.supg_operator`` (one GEMM over nine shape matrices) == the
  term-by-term sum of ``tests/oracles/supg.py``;
- ``_find_hanging_constraints`` (probes only where a smaller element
  touches) == the probe of every edge and face of every element
  (``tests/oracles/constraints.py``), on serial meshes and on the
  owned + ghost unions of a distributed mesh, where the fine element on
  the far half of a coarse edge can be missing;
- the constraint operator's invariants on the same meshes: rows of ``Z``
  sum to one, no column of ``Z`` is a hanging node, trilinear fields pass
  through ``Mesh.expand`` exactly;
- ``ParAdvectionDiffusion._assemble_owned`` (the Galerkin product over
  the owned elements' constraint-folded gather) == the COO paths it
  replaced (``tests/oracles/assembly.py``): hanging-free elements
  straight into dof numbering, and ``Z^T A Z`` of the node-numbered
  scatter; same pattern, entries within 1e-14 of their row's largest;
- the build holds no COO triple: its allocation peak stays within 3x
  the element matrices plus the operator;
- ``advection/build`` and ``amr/extract_mesh`` report their sub-phases.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.amr import ParAmrPipeline, RotatingFrontWorkload
from repro.amr.pardriver import rotating_velocity
from repro.fem import ParAdvectionDiffusion
from repro.fem.hexops import ElementOps
from repro.mesh import extract_mesh, node_keys
from repro.mesh.extract import _find_hanging_constraints, _first_discovery
from repro.mesh.parmesh import extract_parmesh
from repro.octree import ROOT_LEN, LinearOctree, balance, new_tree
from repro.parallel import run_spmd

from .oracles.assembly import assemble_owned_nodal, assemble_owned_split
from .oracles.constraints import find_hanging_full
from .oracles.supg import supg_operator_termwise
from .test_forest_recursive import build_ptree
from .test_incremental_cycle import hanging_kinds
from .test_fem_assembly import assert_same_operator
from .test_mesh_extract import refined_tree

OPS = ElementOps()
seeds = st.integers(0, 2**32 - 1)


class TestSupgOperator:
    @pytest.mark.parametrize("kappa", [0.0, 1e-3, 2.5])
    @pytest.mark.parametrize("still", [False, True])
    def test_matches_termwise_sum(self, kappa, still):
        rng = np.random.default_rng(3)
        n = 200
        sizes = 2.0 ** -rng.integers(1, 8, n)[:, None] * np.array([8.0, 4.0, 1.0])
        sizes *= 0.5 + rng.random((n, 3))
        vel = np.zeros((n, 3)) if still else 10.0 * rng.standard_normal((n, 3))
        tau = rng.random(n)
        got = OPS.supg_operator(sizes, vel, kappa, tau)
        want = supg_operator_termwise(OPS, sizes, vel, kappa, tau)
        assert got.shape == want.shape == (n, 8, 8)
        scale = np.abs(want).max(axis=(1, 2), keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-14 * scale)
        assert scale.min() > 0 or (kappa == 0.0 and still)

    def test_streamline_load_is_the_supg_weight_of_a_unit_source(self):
        rng = np.random.default_rng(4)
        sizes = 0.1 + rng.random((50, 3))
        vel = rng.standard_normal((50, 3))
        load = OPS.streamline_load(sizes, vel)
        want = OPS.supg_mass(sizes, vel).sum(axis=2)  # int (a.grad N_i) * 1
        np.testing.assert_allclose(load, want, rtol=0, atol=1e-14 * np.abs(want).max())
        assert np.abs(load).min() > 0
        np.testing.assert_allclose(load.sum(axis=1), 0.0, atol=1e-14)


def check_constraints(mesh) -> int:
    """New search == full probe, then the invariants of ``Z``; returns the
    number of hanging nodes."""
    keys = node_keys(mesh.node_coords_int)
    got = _first_discovery(
        *_find_hanging_constraints(keys, mesh.leaves, mesh.element_nodes)
    )
    want = _first_discovery(*find_hanging_full(keys, mesh.leaves))
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    assert np.array_equal(np.unique(got[0]), np.flatnonzero(mesh.hanging))

    Z = mesh.Z
    assert Z.shape == (mesh.n_nodes, mesh.n_independent)
    assert not mesh.hanging[mesh.indep_nodes].any()
    row_sums = np.asarray(Z.sum(axis=1)).ravel()
    np.testing.assert_allclose(row_sums, 1.0, rtol=0, atol=1e-15)
    x, y, z = mesh.node_coords().T
    trilinear = 0.3 + x - 2 * y + z / 2 + x * y - 3 * y * z + 0.7 * x * z + 5 * x * y * z
    np.testing.assert_allclose(
        mesh.expand(trilinear[mesh.indep_nodes]), trilinear, rtol=0, atol=1e-13
    )
    return int(mesh.hanging.sum())


def union_mesh(comm, seed):
    return extract_parmesh(build_ptree(comm, 2, refine_seed=seed)).mesh


class TestHangingSearch:
    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_serial_meshes(self, seed):
        check_constraints(extract_mesh(refined_tree(seed=seed, rounds=2, frac=0.25)))

    @pytest.mark.parametrize("p", [1, 2, 3])
    @given(seeds)
    @settings(max_examples=5, deadline=None)
    def test_owned_plus_ghost_unions(self, p, seed):
        hanging = run_spmd(p, lambda comm: check_constraints(union_mesh(comm, seed)))
        assert sum(hanging) > 0

    def test_union_misses_the_far_half_of_a_coarse_edge(self):
        """The case that separates *any* from *all*: hanging nodes on a
        coarse edge with an endpoint that no smaller element of the union
        touches (on a complete mesh both halves of the edge are there)."""

        def one_sided(mesh):
            child, parent, weight = _first_discovery(
                *find_hanging_full(node_keys(mesh.node_coords_int), mesh.leaves)
            )
            h = mesh.leaves.lengths()
            h_node = np.full(mesh.n_nodes, h.max())
            np.minimum.at(h_node, mesh.element_nodes.ravel(), np.repeat(h, 8))
            edge = weight == 0.5
            # the fine element at an edge node has half the coarse edge's length
            return int((h_node[parent[edge]] == 2 * h_node[child[edge]]).sum())

        assert sum(run_spmd(2, lambda comm: one_sided(union_mesh(comm, 5)))) > 0
        assert one_sided(extract_mesh(refined_tree(seed=5))) == 0

    def test_keys_next_to_the_far_corner(self):
        """Node keys there are close to 2**63: the sum of two overflows."""
        tree = LinearOctree.uniform(1)
        far = tree.find_containing(*(np.array([ROOT_LEN - 1]),) * 3)[0]
        tree = balance(tree.refine(np.arange(len(tree)) == far), "corner").tree
        assert check_constraints(extract_mesh(tree)) == 12

    def test_no_hanging_nodes(self):
        assert check_constraints(extract_mesh(LinearOctree.uniform(2))) == 0


def check_assembly(pm, seed=0):
    """``_assemble_owned`` == the free/hanging split COO and ``Z^T A Z`` of
    the nodal scatter, for random element matrices and for the operator
    the solver steps with; returns the owned element count and how many
    of them have a hanging corner."""
    eq = ParAdvectionDiffusion(pm, 1e-3, rotating_velocity())
    n = pm.n_owned_elements
    supg = OPS.supg_operator(eq._owned_sizes, eq._owned_vel, eq.kappa, eq.tau)
    random = np.random.default_rng(seed).standard_normal((n, 8, 8))
    for got, elem in [(eq._assemble_owned(random), random), (eq.A, supg)]:
        want = assemble_owned_split(pm, elem)
        want.eliminate_zeros()
        assert got.nnz == want.nnz
        assert_same_operator(got, want)
        assert_same_operator(got, assemble_owned_nodal(pm, elem))
    en = pm.mesh.element_nodes[pm.owned_elements]
    return n, int(pm.mesh.hanging[en].any(axis=1).sum())


class TestAssembleOwned:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_mesh_with_edge_and_face_hanging_nodes(self, p):
        def kernel(comm):
            pm = extract_parmesh(build_ptree(comm, 2, refine_seed=5))
            assert hanging_kinds(pm.mesh) == {2, 4}
            return check_assembly(pm, seed=comm.rank)

        for n_owned, n_hanging in run_spmd(p, kernel):
            assert 0 < n_hanging < n_owned

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_mesh_without_hanging_nodes(self, p):
        def kernel(comm):
            return check_assembly(extract_parmesh(new_tree(comm, 2)))

        assert all(n_hanging == 0 for _, n_hanging in run_spmd(p, kernel))

    def test_every_owned_element_has_a_hanging_corner(self):
        def kernel(comm):
            pm = extract_parmesh(build_ptree(comm, 2, refine_seed=5))
            mesh = pm.mesh
            constrained = mesh.hanging[mesh.element_nodes].any(axis=1)
            return check_assembly(replace(pm, owned_elements=constrained))

        ((n_owned, n_hanging),) = run_spmd(1, kernel)
        assert n_owned == n_hanging > 0


class TestBuildMemory:
    def test_peak_within_three_times_element_matrices_plus_operator(self):
        """On a 6 028-element front mesh the allocation peak of the
        transport build is 2.4x the bytes of its element matrices plus its
        CSR operator; the COO build it replaced peaked at 3.4x."""
        workload = RotatingFrontWorkload(velocity=rotating_velocity(scale=3.0))

        def kernel(comm):
            pipe = ParAmrPipeline(comm, workload=workload, coarse_level=2, max_level=6)
            for _ in range(4):
                pipe.adapt(6000)
            tracemalloc.start()
            try:
                eq = ParAdvectionDiffusion(pipe.pm, workload.kappa, workload.velocity)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            elem = 8 * 64 * pipe.pm.n_owned_elements
            A = eq.A
            return pipe.pm, peak / (elem + A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)

        ((pm, ratio),) = run_spmd(1, kernel)
        assert pm.n_owned_elements > 5000 and pm.mesh.hanging.any()
        assert ratio <= 3.0


class TestSubPhases:
    def test_build_and_extract_mesh_decompose(self):
        def kernel(comm):
            pipe = ParAmrPipeline(comm, coarse_level=2, max_level=4)
            timer = obs.enable(comm)
            try:
                pipe.adapt(400)
                pipe.advance(1)
            finally:
                obs.disable()
            return timer.results()

        tree = {
            "advection/build": [
                "geometry", "element_matrices", "assemble", "lumped_mass_exchange"
            ],
            "amr/extract_mesh": ["ghost", "nodes", "hanging", "closure", "numbering"],
        }
        for res in run_spmd(2, kernel):
            for parent, children in tree.items():
                nested = {p for p in res if p.startswith(parent + "/")}
                assert nested == {f"{parent}/{c}" for c in children}
                assert all(res[p]["count"] == 1 for p in nested)
                inside = sum(res[p]["wall_s"] for p in nested)
                assert 0 < inside <= res[parent]["wall_s"]
            # both shared-dof exchanges of the build, none elsewhere in it
            exchange = res["advection/build/lumped_mass_exchange"]
            assert exchange["collective_calls"] == res["advection/build"]["collective_calls"]
            assert exchange["collective_calls"] == 4
