"""Tests for VTK export."""

import numpy as np
import pytest

from repro.forest import Forest, unit_cube
from repro.mesh import extract_mesh, write_vtk


def small_mesh():
    t = Forest.uniform(unit_cube(), 1)
    mask = np.zeros(8, dtype=bool)
    mask[0] = True
    return extract_mesh(t.refine(mask).balance("corner")[0])


class TestWriteVtk:
    def test_structure(self, tmp_path):
        mesh = small_mesh()
        path = tmp_path / "mesh.vtk"
        T = mesh.node_coords()[:, 2]
        write_vtk(
            str(path), mesh,
            point_fields={"T": T},
            cell_fields={"level": mesh.leaves.level.astype(float)},
        )
        text = path.read_text().splitlines()
        assert text[0].startswith("# vtk DataFile")
        assert "DATASET UNSTRUCTURED_GRID" in text
        assert f"POINTS {mesh.n_nodes} double" in text
        assert f"CELLS {mesh.n_elements} {mesh.n_elements * 9}" in text
        assert f"CELL_TYPES {mesh.n_elements}" in text
        assert f"POINT_DATA {mesh.n_nodes}" in text
        assert f"CELL_DATA {mesh.n_elements}" in text
        # every cell line lists 8 vertices with valid indices
        start = text.index(f"CELLS {mesh.n_elements} {mesh.n_elements * 9}") + 1
        for line in text[start : start + mesh.n_elements]:
            parts = line.split()
            assert parts[0] == "8"
            idx = list(map(int, parts[1:]))
            assert len(idx) == 8
            assert max(idx) < mesh.n_nodes and min(idx) >= 0

    def test_vtk_hex_ordering_is_right_handed(self, tmp_path):
        """The bottom quad (first 4 vertices) must be CCW seen from above
        (VTK_HEXAHEDRON convention) — signed volume positive."""
        mesh = extract_mesh(Forest.uniform(unit_cube(), 0))
        path = tmp_path / "one.vtk"
        write_vtk(str(path), mesh)
        lines = path.read_text().splitlines()
        cell_line = lines[lines.index("CELLS 1 9") + 1]
        order = list(map(int, cell_line.split()[1:]))
        pts = mesh.node_coords()[order]
        # bottom face CCW: cross product of consecutive edges points +z
        e1 = pts[1] - pts[0]
        e2 = pts[2] - pts[1]
        assert np.cross(e1, e2)[2] > 0
        # top directly above bottom
        np.testing.assert_allclose(pts[4:, :2], pts[:4, :2])

    def test_field_length_validation(self, tmp_path):
        mesh = small_mesh()
        with pytest.raises(ValueError):
            write_vtk(str(tmp_path / "x.vtk"), mesh, point_fields={"b": np.zeros(3)})
        with pytest.raises(ValueError):
            write_vtk(str(tmp_path / "y.vtk"), mesh, cell_fields={"c": np.zeros(3)})


class TestStepTimeMetadata:
    def test_field_block_written(self, tmp_path):
        mesh = small_mesh()
        path = tmp_path / "m.vtk"
        write_vtk(str(path), mesh, step=42, time=0.125)
        lines = path.read_text().splitlines()
        i = lines.index("FIELD FieldData 2")
        assert i == lines.index("DATASET UNSTRUCTURED_GRID") + 1
        assert lines[i + 1] == "CYCLE 1 1 int"
        assert lines[i + 2] == "42"
        assert lines[i + 3] == "TIME 1 1 double"
        assert float(lines[i + 4]) == 0.125

    def test_time_round_trips_at_full_precision(self, tmp_path):
        mesh = small_mesh()
        t = 0.1 + 0.2  # not exactly representable in decimal
        path = tmp_path / "m.vtk"
        write_vtk(str(path), mesh, step=0, time=t)
        lines = path.read_text().splitlines()
        assert float(lines[lines.index("TIME 1 1 double") + 1]) == t

    def test_omitted_when_not_given(self, tmp_path):
        mesh = small_mesh()
        path = tmp_path / "m.vtk"
        write_vtk(str(path), mesh)
        assert "FIELD" not in path.read_text()


class TestVtkSeries:
    def test_monotone_steps_enforced(self, tmp_path):
        from repro.mesh import VtkSeries

        mesh = small_mesh()
        s = VtkSeries(str(tmp_path / "run"))
        s.write(mesh, step=3, time=0.3)
        s.write(mesh, step=5, time=0.5)
        with pytest.raises(ValueError, match="does not extend"):
            s.write(mesh, step=5, time=0.6)
        with pytest.raises(ValueError, match="restored counters"):
            s.write(mesh, step=0, time=0.6)
        with pytest.raises(ValueError, match="moves backwards"):
            s.write(mesh, step=6, time=0.4)

    def test_resume_scans_existing_files(self, tmp_path):
        """A resumed run reopening the series cannot clobber outputs a
        previous run already wrote."""
        from repro.mesh import VtkSeries

        mesh = small_mesh()
        s1 = VtkSeries(str(tmp_path / "run"))
        s1.write(mesh, step=1, time=0.1)
        s1.write(mesh, step=2, time=0.2)
        s2 = VtkSeries(str(tmp_path / "run"))  # fresh object, same prefix
        assert s2.last_step == 2
        with pytest.raises(ValueError):
            s2.write(mesh, step=2, time=0.3)
        path = s2.write(mesh, step=7, time=0.3)
        assert path.endswith("run_000007.vtk")
        # metadata inside the file carries the restored counters
        lines = open(path).read().splitlines()
        assert lines[lines.index("CYCLE 1 1 int") + 1] == "7"

    def test_unrelated_files_ignored(self, tmp_path):
        from repro.mesh import VtkSeries

        (tmp_path / "other_000099.vtk").write_text("")
        (tmp_path / "run_bad.vtk").write_text("")
        s = VtkSeries(str(tmp_path / "run"))
        assert s.last_step is None
