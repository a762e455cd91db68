"""Pin the CommStats payload accounting and the cross-rank merging.

The machine model prices recorded byte counts, so the accounting must be
position-independent (a value costs the same bare or inside a
container) and deterministic; these tests pin the rules of
``payload_nbytes`` and the semantics of ``merge_stats``.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.parallel import CommStats, merge_stats, payload_nbytes, run_spmd


class TestPayloadNbytes:
    def test_none_is_zero(self):
        assert payload_nbytes(None) == 0

    def test_ndarray_exact_buffer(self):
        assert payload_nbytes(np.zeros(5, dtype=np.float64)) == 40
        assert payload_nbytes(np.zeros((2, 3), dtype=np.int32)) == 24
        assert payload_nbytes(np.zeros(0, dtype=np.float64)) == 0

    def test_numpy_scalar_itemsize(self):
        # itemsize, not a flat 8: float32 is 4 bytes, int16 is 2
        assert payload_nbytes(np.float64(1.0)) == 8
        assert payload_nbytes(np.float32(1.0)) == 4
        assert payload_nbytes(np.int16(3)) == 2
        assert payload_nbytes(np.bool_(True)) == 1

    def test_numpy_scalar_consistent_through_containers(self):
        # the historical inconsistency: scalars reached through a
        # container must cost exactly what the bare scalar costs
        for s in (np.float32(2.0), np.int64(7), np.float64(0.5)):
            bare = payload_nbytes(s)
            assert payload_nbytes([s]) == bare
            assert payload_nbytes((s,)) == bare
            assert payload_nbytes({s}) == bare
            assert payload_nbytes({0: s}) == bare + payload_nbytes(0)

    def test_python_scalars_flat_8(self):
        assert payload_nbytes(3) == 8
        assert payload_nbytes(3.5) == 8
        assert payload_nbytes(True) == 8
        assert payload_nbytes(1 + 2j) == 8

    def test_bytes_like(self):
        assert payload_nbytes(b"abcd") == 4
        assert payload_nbytes(bytearray(3)) == 3
        assert payload_nbytes(memoryview(b"xy")) == 2

    def test_containers_sum_recursively(self):
        a = np.zeros(4, dtype=np.float64)  # 32
        assert payload_nbytes([a, a]) == 64
        assert payload_nbytes((a, [a, 1])) == 32 + 32 + 8
        assert payload_nbytes({"k": a}) == payload_nbytes("k") + 32

    def test_dataclass_sums_fields(self):
        @dataclass
        class Msg:
            arr: np.ndarray
            n: int
            tag: np.float32

        m = Msg(arr=np.zeros(3, dtype=np.float64), n=1, tag=np.float32(0.0))
        expected = 24 + 8 + 4
        assert payload_nbytes(m) == expected
        # and through a container, identically
        assert payload_nbytes([m]) == expected

    def test_nested_dataclass(self):
        @dataclass
        class Inner:
            x: np.ndarray

        @dataclass
        class Outer:
            inner: Inner
            items: list = field(default_factory=list)

        o = Outer(inner=Inner(x=np.zeros(2, dtype=np.int64)), items=[1, 2])
        assert payload_nbytes(o) == 16 + 16

    def test_dataclass_type_not_instance_falls_back(self):
        @dataclass
        class D:
            x: int = 0

        # the class object itself is not a payload; getsizeof fallback
        assert payload_nbytes(D) > 0


class TestCommStatsMerging:
    def _stats(self, msgs, nbytes, coll):
        s = CommStats()
        for _ in range(msgs):
            s.record_p2p(nbytes)
        for name, (calls, b) in coll.items():
            for _ in range(calls):
                s.record_collective(name, b)
        return s

    def test_merge_stats_sums_over_ranks(self):
        a = self._stats(2, 10, {"allreduce": (3, 8)})
        b = self._stats(1, 5, {"allreduce": (1, 8), "allgather": (2, 16)})
        m = merge_stats([a, b])
        assert m.p2p_messages == 3
        assert m.p2p_bytes == 25
        assert m.collective_calls == {"allreduce": 4, "allgather": 2}
        assert m.collective_bytes == {"allreduce": 32, "allgather": 32}
        assert m.total_collective_calls == 6
        assert m.total_bytes == 25 + 64

    def test_merge_stats_empty(self):
        m = merge_stats([])
        assert m.p2p_messages == 0 and m.total_bytes == 0

    def test_snapshot_is_deep(self):
        s = self._stats(1, 4, {"bcast": (1, 8)})
        snap = s.snapshot()
        s.record_collective("bcast", 8)
        assert snap.collective_calls["bcast"] == 1
        assert s.collective_calls["bcast"] == 2

    def test_merge_from_spmd_run(self):
        def kernel(comm):
            comm.allreduce(np.float64(comm.rank))
            if comm.rank == 0:
                comm.send(np.zeros(4, dtype=np.float64), dest=1)
            if comm.rank == 1:
                comm.recv(source=0)
            return comm.stats.snapshot()

        per_rank = run_spmd(2, kernel)
        m = merge_stats(per_rank)
        assert m.collective_calls["allreduce"] == 2
        # each rank contributed one float64 scalar -> 8 bytes
        assert m.collective_bytes["allreduce"] == 16
        assert m.p2p_messages == 1
        assert m.p2p_bytes == 32

    def test_flops_accumulate_and_merge(self):
        a = CommStats()
        a.add_flops(100)
        b = CommStats()
        b.add_flops(50)
        assert merge_stats([a, b]).flops == pytest.approx(150.0)


class TestPairwiseMerge:
    """``merge_stats`` sums rank tallies: the result neither depends on
    the order or grouping of its operands nor double-counts an operand
    that appears twice."""

    def _stats(self, msgs, nbytes, coll):
        s = CommStats()
        for _ in range(msgs):
            s.record_p2p(nbytes)
        for name, (calls, b) in coll.items():
            for _ in range(calls):
                s.record_collective(name, b)
        return s

    def _key(self, s):
        return (
            s.p2p_messages,
            s.p2p_bytes,
            dict(s.collective_calls),
            dict(s.collective_bytes),
            s.flops,
        )

    def test_merge_is_pure(self):
        a = self._stats(2, 10, {"allreduce": (3, 8)})
        b = self._stats(1, 5, {"allgather": (2, 16)})
        ka, kb = self._key(a), self._key(b)
        m = merge_stats([a, b])
        assert self._key(a) == ka and self._key(b) == kb  # operands intact
        assert m is not a and m is not b
        assert m.p2p_messages == 3
        assert m.collective_calls == {"allreduce": 3, "allgather": 2}

    def test_commutative(self):
        a = self._stats(2, 10, {"allreduce": (3, 8)})
        b = self._stats(1, 5, {"allreduce": (1, 4), "barrier": (2, 0)})
        assert self._key(merge_stats([a, b])) == self._key(merge_stats([b, a]))

    def test_associative_any_fold_order(self):
        parts = [
            self._stats(1, 8, {"allreduce": (1, 8)}),
            self._stats(2, 4, {"allgather": (2, 16)}),
            self._stats(0, 0, {"barrier": (3, 0)}),
        ]
        want = self._key(merge_stats(parts))
        for x, y, z in itertools.permutations(parts):
            assert self._key(merge_stats([x, y, z])) == want
            assert self._key(merge_stats([merge_stats([x, y]), z])) == want
            assert self._key(merge_stats([x, merge_stats([y, z])])) == want

    def test_iadd_accumulates_in_place(self):
        acc = CommStats()
        acc += self._stats(1, 8, {"allreduce": (1, 8)})
        acc += self._stats(2, 4, {"allreduce": (1, 8)})
        assert acc.p2p_messages == 3
        assert acc.collective_calls == {"allreduce": 2}
        assert acc.collective_bytes == {"allreduce": 16}

    def test_self_merge_doubles_without_runaway(self):
        # the aliasing trap: s += s must exactly double, not loop or
        # double-count through the shared dicts
        s = self._stats(2, 10, {"allreduce": (3, 8), "barrier": (1, 0)})
        s += s
        assert s.p2p_messages == 4
        assert s.p2p_bytes == 40
        assert s.collective_calls == {"allreduce": 6, "barrier": 2}
        assert s.collective_bytes == {"allreduce": 48, "barrier": 0}
        m = merge_stats([s, s])
        assert m.collective_calls == {"allreduce": 12, "barrier": 4}
