"""Tests for the rank-sharded checkpoint container format: pack/unpack
round trips, digest verification, manifest validation, atomicity of the
write protocol, retention, and the pinned bytes of two whole snapshots."""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.amr import ParAmrPipeline
from repro.checkpoint import (
    FORMAT_VERSION,
    ManifestError,
    ShardIntegrityError,
    latest_checkpoint,
    list_checkpoints,
    save_convection,
    save_pipeline,
)
from repro.checkpoint.format import (
    FORMAT_NAME,
    MANIFEST_NAME,
    Manifest,
    apply_retention,
    pack_arrays,
    read_manifest,
    read_shard,
    shard_name,
    step_dirname,
    unpack_arrays,
    write_manifest,
    write_shard,
)
from repro.parallel import run_spmd
from repro.rhea.convection import MantleConvection, RheaConfig


def _sample_arrays(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "octants/x": rng.integers(0, 2**20, 37, dtype=np.int64),
        "octants/level": rng.integers(0, 8, 37, dtype=np.int64),
        "field/T": rng.random((37, 8)),
    }


class TestPackUnpack:
    def test_round_trip_bitwise(self):
        arrays = _sample_arrays()
        payload, entries = pack_arrays(arrays)
        out = unpack_arrays(payload, entries)
        assert set(out) == set(arrays)
        for name in arrays:
            assert out[name].dtype == arrays[name].dtype
            assert out[name].shape == arrays[name].shape
            assert np.array_equal(
                out[name].view(np.uint8), arrays[name].view(np.uint8)
            )

    def test_layout_is_name_sorted(self):
        # byte layout must not depend on dict insertion order
        a = _sample_arrays()
        b = {k: a[k] for k in reversed(list(a))}
        pa, ea = pack_arrays(a)
        pb, eb = pack_arrays(b)
        assert pa == pb
        assert [e.name for e in ea] == sorted(a)
        assert [e.to_json() for e in ea] == [e.to_json() for e in eb]

    def test_truncated_payload_rejected(self):
        payload, entries = pack_arrays(_sample_arrays())
        with pytest.raises(Exception):
            unpack_arrays(payload[:-8], entries)


class TestShardIO:
    def test_write_read_round_trip(self, tmp_path):
        arrays = _sample_arrays()
        info = write_shard(tmp_path / shard_name(0), arrays)
        assert info.file == shard_name(0)
        out = read_shard(tmp_path, info)
        for name in arrays:
            assert np.array_equal(out[name], arrays[name])

    def test_corrupted_shard_rejected_with_named_shard(self, tmp_path):
        arrays = _sample_arrays()
        info = write_shard(tmp_path / shard_name(2), arrays)
        path = tmp_path / shard_name(2)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # flip one bit mid-payload
        path.write_bytes(bytes(raw))
        with pytest.raises(ShardIntegrityError) as exc:
            read_shard(tmp_path, info)
        # structured error: names the shard and refuses the restore
        assert exc.value.shard == shard_name(2)
        assert shard_name(2) in str(exc.value)
        assert "refused" in str(exc.value)
        assert exc.value.expected != exc.value.actual

    def test_truncated_shard_rejected(self, tmp_path):
        arrays = _sample_arrays()
        info = write_shard(tmp_path / shard_name(0), arrays)
        path = tmp_path / shard_name(0)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ShardIntegrityError):
            read_shard(tmp_path, info)


class TestManifest:
    def _manifest(self, tmp_path):
        info = write_shard(tmp_path / shard_name(0), _sample_arrays())
        return Manifest(
            nranks=1, step=3, time=0.5, meta={"kind": "test"}, shards=[info]
        )

    def test_round_trip(self, tmp_path):
        m = self._manifest(tmp_path)
        write_manifest(tmp_path, m)
        m2 = read_manifest(tmp_path)
        assert m2.nranks == 1 and m2.step == 3 and m2.time == 0.5
        assert m2.version == FORMAT_VERSION
        assert m2.shards[0].digest == m.shards[0].digest

    def test_unknown_format_rejected(self, tmp_path):
        m = self._manifest(tmp_path)
        write_manifest(tmp_path, m)
        doc = json.loads((tmp_path / MANIFEST_NAME).read_text())
        doc["format"] = "not-a-checkpoint"
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(doc))
        with pytest.raises(ManifestError):
            read_manifest(tmp_path)

    def test_future_version_rejected(self, tmp_path):
        m = self._manifest(tmp_path)
        write_manifest(tmp_path, m)
        doc = json.loads((tmp_path / MANIFEST_NAME).read_text())
        doc["version"] = FORMAT_VERSION + 1
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(doc))
        with pytest.raises(ManifestError):
            read_manifest(tmp_path)

    def test_format_name_written(self, tmp_path):
        write_manifest(tmp_path, self._manifest(tmp_path))
        doc = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert doc["format"] == FORMAT_NAME


class TestDirectoryLayout:
    def test_step_dirname_zero_padded_and_sortable(self):
        assert step_dirname(7) == "step_00000007"
        assert step_dirname(123456) == "step_00123456"

    def _make_checkpoint(self, root, step):
        d = root / step_dirname(step)
        d.mkdir()
        info = write_shard(d / shard_name(0), _sample_arrays(step))
        write_manifest(d, Manifest(1, step, float(step), {}, [info]))
        return d

    def test_list_and_latest(self, tmp_path):
        for s in (4, 2, 8):
            self._make_checkpoint(tmp_path, s)
        # incomplete directory (no manifest) is invisible
        (tmp_path / step_dirname(16)).mkdir()
        # unrelated entries are ignored
        (tmp_path / "notes.txt").write_text("hi")
        cps = list_checkpoints(tmp_path)
        assert [s for s, _ in cps] == [2, 4, 8]
        path = latest_checkpoint(tmp_path)
        assert os.path.basename(path) == step_dirname(8)

    def test_latest_of_empty_root(self, tmp_path):
        assert latest_checkpoint(tmp_path) is None
        assert latest_checkpoint(tmp_path / "missing") is None

    def test_retention_keeps_newest_k(self, tmp_path):
        for s in range(1, 6):
            self._make_checkpoint(tmp_path, s)
        apply_retention(tmp_path, keep=2)
        assert [s for s, _ in list_checkpoints(tmp_path)] == [4, 5]

    def test_retention_disabled(self, tmp_path):
        for s in range(1, 4):
            self._make_checkpoint(tmp_path, s)
        apply_retention(tmp_path, keep=None)
        apply_retention(tmp_path, keep=0)
        assert len(list_checkpoints(tmp_path)) == 3


def _file_digests(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.blake2b(fh.read(), digest_size=16).hexdigest()
    return out


class TestPinnedSnapshotBytes:
    """Every byte of two deterministic snapshots, pinned: a change to the
    writer or the format that moves one byte fails here.  Sanitizing is
    switched off so the manifests carry no ``frozen`` token."""

    def test_convection_snapshot(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        sim = MantleConvection(RheaConfig(
            Ra=1e4, initial_level=2, min_level=1, max_level=4, adapt_every=4,
            picard_iterations=2, stokes_tol=1e-6, stokes_maxiter=300,
        ))
        sim.run(1)
        path = save_convection(sim, str(tmp_path))
        assert os.path.basename(path) == step_dirname(4)
        assert _file_digests(path) == {
            "manifest.json": "555941c7fd5808572703320f5f195ef2",
            "shard_0000.bin": "2c31657503419e7be7a2ced6e071539e",
        }

    def test_pipeline_snapshot_two_ranks(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "0")

        def kernel(comm):
            pipe = ParAmrPipeline(comm, coarse_level=2, max_level=4)
            pipe.run_cycles(n_cycles=1, steps_per_cycle=2, target=250)
            return save_pipeline(pipe, str(tmp_path))

        path = run_spmd(2, kernel)[0]
        assert os.path.basename(path) == step_dirname(2)
        assert _file_digests(path) == {
            "manifest.json": "33a9764fcbe89320ec3f0f53f85d0468",
            "shard_0000.bin": "2f5ca1af156b2063bdf1bf9e5f1dec47",
            "shard_0001.bin": "593048dd5a81aa87fd06facae2817b6e",
        }
