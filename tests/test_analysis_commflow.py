"""Tests for the interprocedural comm-flow analyzer (repro.analysis.commflow)
and the runtime schedule-conformance monitor (repro.analysis.conformance).

Synthetic-package fixtures pin R7/R8/R9 true positives (with call-chain
attribution), laundered negatives, suppression and the baseline
workflow; the ScheduleNFA and the conformance monitor get unit tests;
and the real AMR pipeline is run under REPRO_SANITIZE at P=1 and P=3
against its own generated schedule, including a seeded violation (a
skipped collective) that must produce a structured mismatch.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.commflow import (
    ScheduleNFA,
    build_program,
    build_schedule,
    commflow_findings,
)
from repro.analysis.conformance import (
    ScheduleMismatch,
    install_schedule,
    observe_collective,
    schedule_installed,
    schedule_phase,
    uninstall_schedule,
)
from repro.analysis.lint import main as lint_main
from repro.analysis.sanitize import install as sanitize_install
from repro.analysis.sanitize import uninstall as sanitize_uninstall

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def _clean():
    """Never leak an installed schedule or comm factory into other tests."""
    yield
    uninstall_schedule()
    sanitize_uninstall()


def write_pkg(tmp_path, **files) -> str:
    pkg = tmp_path / "pkg"
    pkg.mkdir(exist_ok=True)
    (pkg / "__init__.py").write_text("")
    for name, src in files.items():
        (pkg / f"{name}.py").write_text(textwrap.dedent(src))
    return str(pkg)


def analyze(tmp_path, **files):
    return commflow_findings([write_pkg(tmp_path, **files)])


def rules(tmp_path, **files) -> list:
    return [f.rule for f in analyze(tmp_path, **files)]


# --------------------------------------------------------------------------
# call graph + summaries


class TestCallGraph:
    def test_cross_module_collective_summary(self, tmp_path):
        pkg = write_pkg(
            tmp_path,
            a="""
            from .b import helper

            def f(comm):
                helper(comm)
            """,
            b="""
            def helper(comm):
                comm.barrier()
            """,
        )
        prog = build_program([pkg])
        s = prog.summary("pkg.a.f")
        assert s.has_collective
        assert s.chain[0][0] == "pkg.b.helper"
        assert s.chain[-1][0] == "barrier"

    def test_method_resolution_through_constructor_type(self, tmp_path):
        pkg = write_pkg(
            tmp_path,
            a="""
            from .b import Helper

            def f(comm):
                h = Helper(comm)
                return h.gather_all()
            """,
            b="""
            class Helper:
                def __init__(self, comm):
                    self.comm = comm

                def gather_all(self):
                    return self.comm.allgather(1)
            """,
        )
        prog = build_program([pkg])
        s = prog.summary("pkg.a.f")
        assert s.has_collective
        assert s.chain[0][0] == "pkg.b.Helper.gather_all"

    def test_annotation_resolves_through_function_local_import(self, tmp_path):
        """A class imported inside the function (an import cycle at module
        level) types the annotated local."""
        pkg = write_pkg(
            tmp_path,
            a="""
            def make(comm):
                return comm

            def f(comm):
                from .b import Helper

                h: Helper = make(comm)
                return h.gather_all()
            """,
            b="""
            class Helper:
                def gather_all(self):
                    return self.comm.allgather(1)
            """,
        )
        s = build_program([pkg]).summary("pkg.a.f")
        assert s.has_collective
        assert s.chain[0][0] == "pkg.b.Helper.gather_all"

    def test_return_annotation_resolves_through_type_checking_import(self, tmp_path):
        """A class imported under ``if TYPE_CHECKING:`` (an import cycle at
        run time) types a callee's return value, as ``new_tree`` and the
        other octree functions type the one-tree ``ParForest``."""
        pkg = write_pkg(
            tmp_path,
            a="""
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from .b import Helper

            def make(h) -> Helper:
                return h

            def f(h):
                return make(h).gather_all()
            """,
            b="""
            class Helper:
                def gather_all(self):
                    return self.comm.allgather(1)
            """,
        )
        s = build_program([pkg]).summary("pkg.a.f")
        assert s.has_collective
        assert s.chain[0][0] == "pkg.b.Helper.gather_all"

    def test_function_argument_called_by_callee(self, tmp_path):
        """A bound method handed to a stepper (``heun_step(self.rate, ..)``)
        is called where the stepper calls its parameter: twice, in order,
        between the stepper's own collectives."""
        pkg = write_pkg(
            tmp_path,
            a="""
            from .b import twice

            class Eq:
                def __init__(self, comm):
                    self.comm = comm

                def rate(self, u):
                    return self.comm.allreduce(u)

                def step(self, u):
                    return twice(self.rate, u, self.comm)

            def plain(u, comm):
                return twice(abs, u, comm)
            """,
            b="""
            def twice(rate, u, comm):
                k = rate(u)
                comm.barrier()
                return rate(u + k)
            """,
        )
        prog = build_program([pkg])
        assert prog.summary("pkg.a.Eq.step").has_collective
        tree = prog.schedule_tree("pkg.a.Eq.step")
        assert [n["op"] for n in tree["seq"]] == ["allreduce", "barrier", "allreduce"]
        # an argument that is not a known function binds nothing
        assert prog.schedule_tree("pkg.a.plain") == {
            "op": "barrier", "site": "b.py:4"
        }

    def test_convenience_ops_canonicalized(self, tmp_path):
        pkg = write_pkg(
            tmp_path,
            a="""
            def f(comm, n):
                comm.global_offsets(n)
            """,
        )
        prog = build_program([pkg])
        tree = prog.schedule_tree("pkg.a.f")
        assert tree["op"] == "allgather"


class TestScheduleTree:
    def test_loop_and_choice_structure(self, tmp_path):
        pkg = write_pkg(
            tmp_path,
            a="""
            def f(comm, n, flag):
                comm.barrier()
                for i in range(n):
                    comm.allreduce(i)
                if flag:
                    comm.allgather(n)
            """,
        )
        tree = build_program([pkg]).schedule_tree("pkg.a.f")
        kinds = [next(iter(node)) for node in tree["seq"]]
        assert kinds == ["op", "loop", "choice"]
        assert tree["seq"][1]["loop"]["op"] == "allreduce"
        arms = tree["seq"][2]["choice"]
        assert {"seq": []} in arms  # the guard may be skipped

    def test_raising_branch_excluded(self, tmp_path):
        pkg = write_pkg(
            tmp_path,
            a="""
            def f(comm, ok):
                if not ok:
                    comm.barrier()
                    raise RuntimeError("diverged")
                comm.allreduce(1)
            """,
        )
        tree = build_program([pkg]).schedule_tree("pkg.a.f")
        assert json.dumps(tree).count('"barrier"') == 0

    def test_while_else_keeps_postloop_reachable(self, tmp_path):
        # the else clause only runs when the loop never breaks, so the
        # trailing collective must stay in the schedule
        pkg = write_pkg(
            tmp_path,
            a="""
            def f(comm, n):
                while n > 0:
                    if comm.allreduce(n) == 0:
                        break
                    n -= 1
                else:
                    raise RuntimeError("no convergence")
                return comm.allgather(n)
            """,
        )
        tree = build_program([pkg]).schedule_tree("pkg.a.f")
        assert '"allgather"' in json.dumps(tree)


# --------------------------------------------------------------------------
# R7: rank-dependent call chains reaching a collective


class TestR7TruePositives:
    def test_guarded_call_depth_one(self, tmp_path):
        fs = analyze(
            tmp_path,
            a="""
            def helper(comm):
                comm.barrier()

            def f(comm):
                if comm.rank == 0:
                    helper(comm)
            """,
        )
        assert [f.rule for f in fs] == ["R7"]
        assert "helper" in fs[0].message and "barrier" in fs[0].message

    def test_chain_attribution_depth_two(self, tmp_path):
        fs = analyze(
            tmp_path,
            a="""
            from .b import outer

            def f(comm):
                if comm.rank > 0:
                    outer(comm)
            """,
            b="""
            def inner(comm):
                comm.allreduce(1)

            def outer(comm):
                inner(comm)
            """,
        )
        assert [f.rule for f in fs] == ["R7"]
        assert "outer" in fs[0].message
        assert "inner" in fs[0].message
        assert "allreduce" in fs[0].message

    def test_param_rank_taint_lexically_invisible(self, tmp_path):
        # the guard is tainted through a parameter named rank, which the
        # lexical R1 rule cannot see — R7 must pick it up
        fs = analyze(
            tmp_path,
            a="""
            def g(comm, rank):
                if rank == 0:
                    comm.barrier()
            """,
        )
        assert [f.rule for f in fs] == ["R7"]
        assert "R1" in fs[0].message


class TestR7Negatives:
    def test_lexical_rank_guard_left_to_r1(self, tmp_path):
        # R1 already flags this exact line; commflow must stay silent
        assert (
            rules(
                tmp_path,
                a="""
                def f(comm):
                    if comm.rank == 0:
                        comm.barrier()
                """,
            )
            == []
        )

    def test_symmetric_guard_is_fine(self, tmp_path):
        assert (
            rules(
                tmp_path,
                a="""
                def helper(comm):
                    comm.barrier()

                def f(comm, x):
                    flag = comm.allreduce(x)
                    if flag:
                        helper(comm)
                """,
            )
            == []
        )

    def test_unguarded_call_is_fine(self, tmp_path):
        assert (
            rules(
                tmp_path,
                a="""
                def helper(comm):
                    comm.barrier()

                def f(comm, n):
                    if n > 3:
                        helper(comm)
                """,
            )
            == []
        )

    def test_guarded_call_without_collective_is_fine(self, tmp_path):
        assert (
            rules(
                tmp_path,
                a="""
                def helper(x):
                    return x + 1

                def f(comm):
                    if comm.rank == 0:
                        helper(1)
                """,
            )
            == []
        )

    def test_suppression_comment(self, tmp_path):
        assert (
            rules(
                tmp_path,
                a="""
                def helper(comm):
                    comm.barrier()

                def f(comm):
                    if comm.rank == 0:
                        helper(comm)  # lint: disable=R7
                """,
            )
            == []
        )


# --------------------------------------------------------------------------
# R8: p2p pairing & deadlock


class TestR8:
    def test_ring_recv_before_send_deadlocks(self, tmp_path):
        fs = analyze(
            tmp_path,
            a="""
            def shift(comm, x):
                got = comm.recv(comm.rank + 1)
                comm.send(x, comm.rank - 1)
                return got
            """,
        )
        assert "R8" in [f.rule for f in fs]
        f = [f for f in fs if "precedes" in f.message][0]
        assert "rank+1" in f.message

    def test_send_first_ring_is_fine(self, tmp_path):
        assert (
            rules(
                tmp_path,
                a="""
                def shift(comm, x):
                    comm.send(x, comm.rank - 1)
                    return comm.recv(comm.rank + 1)
                """,
            )
            == []
        )

    def test_sendrecv_is_fine(self, tmp_path):
        assert (
            rules(
                tmp_path,
                a="""
                def shift(comm, x):
                    return comm.sendrecv(x, comm.rank - 1, comm.rank + 1)
                """,
            )
            == []
        )

    def test_guarded_master_worker_is_fine(self, tmp_path):
        assert (
            rules(
                tmp_path,
                a="""
                def funnel(comm, x):
                    if comm.rank == 1:  # lint: disable=R7
                        comm.send(x, 0)
                        return x
                    return comm.recv(1)
                """,
            )
            == []
        )

    def test_unmatched_recv_reported(self, tmp_path):
        fs = analyze(
            tmp_path,
            a="""
            def lonely(comm):
                return comm.recv(comm.rank + 1)
            """,
        )
        assert [f.rule for f in fs] == ["R8"]
        assert "no matching send" in fs[0].message

    def test_tag_mismatch_reported_both_ways(self, tmp_path):
        fs = analyze(
            tmp_path,
            a="""
            def tags(comm, x):
                comm.send(x, 0, tag=7)
                return comm.recv(0, tag=3)
            """,
        )
        msgs = " | ".join(f.message for f in fs)
        assert [f.rule for f in fs] == ["R8", "R8"]
        assert "no matching recv" in msgs and "no matching send" in msgs

    def test_interprocedural_deadlock_through_helper(self, tmp_path):
        fs = analyze(
            tmp_path,
            a="""
            def pull(comm):
                return comm.recv(comm.rank + 1)

            def push(comm, x):
                comm.send(x, comm.rank - 1)

            def step(comm, x):
                got = pull(comm)
                push(comm, x)
                return got
            """,
        )
        assert any("precedes" in f.message for f in fs)


# --------------------------------------------------------------------------
# R9: shared-buffer publication


class TestR9:
    def test_mutate_after_alltoall(self, tmp_path):
        fs = analyze(
            tmp_path,
            a="""
            def exchange(comm, bufs):
                out = comm.alltoall(bufs)
                bufs[0] = None
                return out
            """,
        )
        assert [f.rule for f in fs] == ["R9"]
        assert "alltoall" in fs[0].message

    def test_mutate_after_send(self, tmp_path):
        fs = analyze(
            tmp_path,
            a="""
            def push(comm, buf):
                comm.send(buf, comm.rank - 1)
                buf.fill(0.0)
                return comm.recv(comm.rank + 1)
            """,
        )
        assert "R9" in [f.rule for f in fs]

    def test_published_copy_is_fine(self, tmp_path):
        assert (
            rules(
                tmp_path,
                a="""
                def exchange(comm, bufs):
                    out = comm.alltoall(list(bufs))
                    bufs[0] = None
                    return out
                """,
            )
            == []
        )

    def test_rebind_clears_publication(self, tmp_path):
        assert (
            rules(
                tmp_path,
                a="""
                def exchange(comm, bufs, fresh):
                    out = comm.alltoall(bufs)
                    bufs = fresh()
                    bufs[0] = None
                    return out
                """,
            )
            == []
        )

    def test_mutation_of_cached_return_through_call(self, tmp_path):
        fs = analyze(
            tmp_path,
            a="""
            def fetch(cache, key):
                val = cache.get(key)
                return val

            def use(cache, key):
                op = fetch(cache, key)
                op[0] = 2.0
                return op
            """,
        )
        assert [f.rule for f in fs] == ["R9"]
        assert "fetch" in fs[0].message and "cached" in fs[0].message

    def test_copy_of_cached_return_is_fine(self, tmp_path):
        assert (
            rules(
                tmp_path,
                a="""
                def fetch(cache, key):
                    val = cache.get(key)
                    return val

                def use(cache, key):
                    op = fetch(cache, key).copy()
                    op[0] = 2.0
                    return op
                """,
            )
            == []
        )


# --------------------------------------------------------------------------
# lint CLI integration (--commflow merge + baseline)


class TestLintIntegration:
    BAD = """
    def helper(comm):
        comm.barrier()

    def f(comm):
        if comm.rank == 0:
            helper(comm)
    """

    def test_commflow_findings_merged(self, tmp_path, capsys):
        pkg = write_pkg(tmp_path, a=self.BAD)
        assert lint_main([pkg, "--commflow", "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "R7" in out

    def test_without_flag_commflow_rules_silent(self, tmp_path, capsys):
        pkg = write_pkg(tmp_path, a=self.BAD)
        assert lint_main([pkg, "--no-baseline"]) == 0

    def test_baseline_workflow(self, tmp_path, capsys):
        pkg = write_pkg(tmp_path, a=self.BAD)
        bl = tmp_path / "bl.json"
        assert lint_main([pkg, "--commflow", "--write-baseline", str(bl)]) == 0
        assert any(
            e["rule"] == "R7" for e in json.loads(bl.read_text())["findings"]
        )
        assert lint_main([pkg, "--commflow", "--baseline", str(bl)]) == 0

    def test_repo_src_is_baseline_clean(self, capsys):
        # the acceptance gate: commflow over the real tree, no findings
        assert commflow_findings([SRC]) == []


# --------------------------------------------------------------------------
# ScheduleNFA


def _t(op, site=None):
    return {"op": op, "site": site}


class TestScheduleNFA:
    def test_sequence(self):
        nfa = ScheduleNFA.from_tree({"seq": [_t("a"), _t("b")]})
        st = nfa.initial()
        assert not nfa.accepts(st)
        st = nfa.feed(st, "a", "x.py:1")
        assert st and not nfa.accepts(st)
        assert nfa.feed(st, "a", "x.py:1") == set()
        st = nfa.feed(st, "b", "x.py:2")
        assert nfa.accepts(st)

    def test_choice_including_empty_arm(self):
        nfa = ScheduleNFA.from_tree(
            {"seq": [_t("a"), {"choice": [_t("b"), {"seq": []}]}]}
        )
        st = nfa.feed(nfa.initial(), "a", "s")
        assert nfa.accepts(st)  # skip the optional arm
        st2 = nfa.feed(st, "b", "s")
        assert nfa.accepts(st2)

    def test_loop_zero_or_more(self):
        nfa = ScheduleNFA.from_tree({"seq": [{"loop": _t("a")}, _t("b")]})
        st = nfa.initial()
        for _ in range(3):
            st = nfa.feed(st, "a", "s")
            assert st
        st = nfa.feed(st, "b", "s")
        assert nfa.accepts(st)
        assert nfa.accepts(nfa.feed(nfa.initial(), "b", "s"))

    def test_site_must_match_when_given(self):
        nfa = ScheduleNFA.from_tree(_t("a", "x.py:3"))
        assert nfa.feed(nfa.initial(), "a", "y.py:9") == set()
        assert nfa.accepts(nfa.feed(nfa.initial(), "a", "x.py:3"))

    def test_expected_lists_frontier(self):
        nfa = ScheduleNFA.from_tree({"choice": [_t("a", "s1"), _t("b", "s2")]})
        exp = nfa.expected(nfa.initial())
        assert ("a", "s1") in exp and ("b", "s2") in exp


# --------------------------------------------------------------------------
# conformance monitor (unit)


def _doc(tree, phase="p", qname="q.f"):
    return {"version": 1, "entries": {phase: {"qname": qname, "tree": tree}}}


class TestConformanceMonitor:
    def test_inert_without_schedule(self):
        uninstall_schedule()
        assert not schedule_installed()
        with schedule_phase("p"):
            observe_collective("anything", "x.py:1")  # must not raise

    def test_matching_stream_passes(self):
        install_schedule(_doc({"seq": [_t("allreduce"), _t("barrier")]}))
        with schedule_phase("p"):
            observe_collective("allreduce", "a.py:1")
            observe_collective("barrier", "a.py:2")

    def test_unknown_phase_is_noop(self):
        install_schedule(_doc(_t("allreduce")))
        with schedule_phase("other"):
            observe_collective("gather", "a.py:1")

    def test_wrong_op_raises_with_structured_diff(self):
        install_schedule(_doc({"seq": [_t("allreduce"), _t("barrier")]}))
        with pytest.raises(ScheduleMismatch) as exc:
            with schedule_phase("p"):
                observe_collective("allreduce", "a.py:1")
                observe_collective("allgather", "a.py:2")
        d = exc.value.diff
        assert d["phase"] == "p"
        assert d["entry"] == "q.f"
        assert d["position"] == 1
        assert d["observed"] == {"op": "allgather", "site": "a.py:2"}
        assert {"op": "barrier", "site": None} in d["expected"]
        assert d["history"] == [("allreduce", "a.py:1")]
        assert "barrier" in exc.value.report()

    def test_skipped_collective_raises_on_exit(self):
        install_schedule(_doc({"seq": [_t("allreduce"), _t("barrier")]}))
        with pytest.raises(ScheduleMismatch) as exc:
            with schedule_phase("p"):
                observe_collective("allreduce", "a.py:1")
        assert exc.value.diff["observed"] is None
        assert "skipped" in str(exc.value)

    def test_body_exception_not_masked(self):
        install_schedule(_doc({"seq": [_t("allreduce"), _t("barrier")]}))
        with pytest.raises(ValueError):
            with schedule_phase("p"):
                raise ValueError("boom")

    def test_nested_phases_both_observe(self):
        install_schedule(
            {
                "entries": {
                    "outer": {"qname": "q.o", "tree": {"seq": [_t("a"), _t("b")]}},
                    "inner": {"qname": "q.i", "tree": _t("b")},
                }
            }
        )
        with schedule_phase("outer"):
            observe_collective("a", "s")
            with schedule_phase("inner"):
                observe_collective("b", "s")

    def test_env_autoload(self, tmp_path, monkeypatch):
        p = tmp_path / "sched.json"
        p.write_text(json.dumps(_doc(_t("allreduce"))))
        uninstall_schedule()
        monkeypatch.setenv("REPRO_COMMFLOW_SCHEDULE", str(p))
        import repro.analysis.conformance as conf

        monkeypatch.setattr(conf, "_ENV_TRIED", False)
        monkeypatch.setattr(conf, "_COMPILED", None)
        assert schedule_installed()


# --------------------------------------------------------------------------
# end-to-end: the real pipeline against its own schedule


@pytest.fixture(scope="module")
def schedule_doc():
    return build_schedule([SRC])


def _run_pipeline(p, schedule, cycles=1):
    from repro.amr import ParAmrPipeline
    from repro.parallel import run_spmd

    install_schedule(schedule)
    sanitize_install(timeout=30.0)

    def kernel(comm):
        pipe = ParAmrPipeline(comm, coarse_level=2, max_level=4)
        for _ in range(cycles):
            pipe.adapt(target=300)
            pipe.advance(2)
        pipe.advance_time(0.05)
        return pipe.pt.global_count()

    return run_spmd(p, kernel)


class TestPipelineConformance:
    def test_schedule_has_all_entries(self, schedule_doc):
        assert set(schedule_doc["entries"]) == {
            "init",
            "adapt",
            "advance",
            "advance_time",
        }
        for entry in schedule_doc["entries"].values():
            assert entry["tree"] is not None

    def test_conforms_one_rank(self, schedule_doc):
        counts = _run_pipeline(1, schedule_doc)
        assert counts[0] > 0

    def test_conforms_three_ranks(self, schedule_doc):
        counts = _run_pipeline(3, schedule_doc)
        assert len(set(counts)) == 1

    def test_seeded_skipped_collective_detected(self, schedule_doc, monkeypatch):
        from repro.amr import ParAmrPipeline
        from repro.fem import ParAdvectionDiffusion
        from repro.parallel import run_spmd

        # skip the CFL allreduce[min] — a classic divergence seed
        monkeypatch.setattr(
            ParAdvectionDiffusion, "cfl_dt", lambda self, cfl=0.4: 1e-3
        )
        install_schedule(schedule_doc)
        sanitize_install(timeout=30.0)

        def kernel(comm):
            pipe = ParAmrPipeline(comm, coarse_level=2, max_level=4)
            try:
                pipe.advance(1)
            except ScheduleMismatch as e:
                return e.diff
            return None

        diffs = run_spmd(1, kernel)
        assert diffs[0] is not None
        assert diffs[0]["phase"] == "advance"
        assert any(
            e["op"] == "allreduce" and "paradvection" in (e["site"] or "")
            for e in diffs[0]["expected"]
        )
