"""Property tests for checkpoint save -> restore round trips.

The contract under test: a snapshot taken on N ranks restores onto M
ranks for any N, M with the *identical* global octree (shards
concatenate in Morton order and repartition over the SFC) and bitwise
identical element-corner temperature — corner values replicate exactly
across ranks, so resharding never rounds.
"""

import numpy as np
import pytest

from repro.amr import ParAmrPipeline
from repro.checkpoint import (
    ShardIntegrityError,
    load_checkpoint,
    restore_pipeline,
    save_pipeline,
    sfc_segment,
)
from repro.mesh import node_keys
from repro.octree import gather_tree
from repro.parallel import run_spmd

# Parameters for which the adapted tree is bitwise P-invariant (the
# same regime as test_amr_pipeline::test_p_invariant_global_tree).
CYCLES, STEPS, TARGET = 2, 2, 250


def _state(comm, pipe):
    """Rank-count-independent fingerprint of the distributed state:
    gathered global tree + owned (node Morton key -> T) pairs."""
    g = gather_tree(pipe.pt)
    pm = pipe.pm
    ks = node_keys(pm.mesh.node_coords_int[pm.mesh.indep_nodes])
    mine = pm.node_owner[pm.mesh.indep_nodes] == comm.rank
    return {
        "keys": g.octs.keys().copy(),
        "levels": g.octs.level.copy(),
        "node_keys": ks[mine],
        "T": pipe.T[mine].copy(),
        "steps": pipe.steps_taken,
        "cycles": pipe.cycles_done,
        "time": pipe.sim_time,
    }


def _field_map(outs):
    fm = {}
    for o in outs:
        for k, v in zip(o["node_keys"], o["T"]):
            fm[int(k)] = v
    return fm


def _run_and_save(n_ranks, root):
    def kernel(comm):
        pipe = ParAmrPipeline(comm, coarse_level=2, max_level=4)
        pipe.run_cycles(n_cycles=CYCLES, steps_per_cycle=STEPS, target=TARGET)
        save_pipeline(pipe, root)
        return _state(comm, pipe)

    return run_spmd(n_ranks, kernel)


def _restore(m_ranks, root):
    def kernel(comm):
        return _state(comm, restore_pipeline(comm, root))

    return run_spmd(m_ranks, kernel)


class TestSfcSegment:
    @pytest.mark.parametrize("total", [0, 1, 7, 64, 251])
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 7])
    def test_partition_is_contiguous_and_balanced(self, total, size):
        hi_prev = 0
        for rank in range(size):
            lo, hi = sfc_segment(total, size, rank)
            assert lo == hi_prev  # contiguous, in rank order
            assert 0 <= hi - lo <= total // size + 1
            hi_prev = hi
        assert hi_prev == total  # full cover


class TestIdentityRoundTrip:
    def test_serial_save_restore_is_bitwise(self, tmp_path):
        root = str(tmp_path / "ck")
        saved = _run_and_save(1, root)[0]
        out = _restore(1, root)[0]
        np.testing.assert_array_equal(out["keys"], saved["keys"])
        np.testing.assert_array_equal(out["levels"], saved["levels"])
        np.testing.assert_array_equal(out["node_keys"], saved["node_keys"])
        # identity: every temperature dof bit-for-bit
        np.testing.assert_array_equal(out["T"], saved["T"])
        assert out["steps"] == saved["steps"]
        assert out["cycles"] == saved["cycles"]
        assert out["time"] == saved["time"]


class TestReshardRoundTrip:
    @pytest.mark.parametrize("n_save", [1, 2, 3, 4])
    def test_restore_on_any_rank_count(self, n_save, tmp_path):
        root = str(tmp_path / "ck")
        saved = _run_and_save(n_save, root)
        ref_map = _field_map(saved)
        for m in [1, 2, 3, 4]:
            outs = _restore(m, root)
            for o in outs:
                # Morton-order preservation: the concatenated global
                # tree is identical whatever the restore rank count
                np.testing.assert_array_equal(o["keys"], saved[0]["keys"])
                np.testing.assert_array_equal(o["levels"], saved[0]["levels"])
                assert o["steps"] == saved[0]["steps"]
                assert o["cycles"] == saved[0]["cycles"]
            got_map = _field_map(outs)
            assert got_map.keys() == ref_map.keys()
            # bitwise: element-corner replication makes resharding exact
            assert all(got_map[k] == ref_map[k] for k in ref_map)


class TestSanitizeIntegration:
    def test_frozen_token_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        root = str(tmp_path / "ck")
        saved = _run_and_save(2, root)
        manifest, _ = load_checkpoint(root)
        assert all(s.frozen is not None for s in manifest.shards)
        outs = _restore(3, root)
        assert _field_map(outs).keys() == _field_map(saved).keys()

    def test_tampered_frozen_token_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        root = str(tmp_path / "ck")
        _run_and_save(1, root)
        import json
        import os

        from repro.checkpoint import resolve_checkpoint
        from repro.checkpoint.format import MANIFEST_NAME

        path = resolve_checkpoint(root)
        mpath = os.path.join(path, MANIFEST_NAME)
        with open(mpath) as fh:
            doc = json.load(fh)
        doc["shards"][0]["frozen"] = "0" * len(doc["shards"][0]["frozen"])
        with open(mpath, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(ShardIntegrityError):
            load_checkpoint(root)
