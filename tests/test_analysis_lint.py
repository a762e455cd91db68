"""Unit tests for the SPMD correctness linter (tools/lint.py).

Every rule (R3-R6, R10) is pinned with true-positive fixtures (the
defect MUST be flagged) and false-positive fixtures (legitimate idioms
that MUST NOT be flagged), plus the suppression and baseline workflows.
"""

import json
import textwrap

from tools.lint import (
    Finding,
    apply_baseline,
    lint_source,
    load_baseline,
    main,
    write_baseline,
)

HOT = "src/repro/fem/fixture.py"  # R3 active (fem/)
HOT_LOOP = "src/repro/fem/assembly.py"  # R4 active (vectorized module stem)
COLD = "src/repro/octree/fixture.py"  # R3/R4 inactive


def rules(src: str, path: str = COLD) -> list[str]:
    return [f.rule for f in lint_source(textwrap.dedent(src), path)]


def findings(src: str, path: str = COLD) -> list[Finding]:
    return lint_source(textwrap.dedent(src), path)


# --------------------------------------------------------------------------
# R3: dtype discipline


class TestR3TruePositives:
    def test_zeros_without_dtype(self):
        assert rules("import numpy as np\nb = np.zeros(10)\n", HOT) == ["R3"]

    def test_array_without_dtype(self):
        assert rules("import numpy as np\na = np.array([1.0, 2.0])\n", HOT) == ["R3"]

    def test_empty_without_dtype(self):
        assert rules("import numpy as np\ne = np.empty((3, 3))\n", HOT) == ["R3"]

    def test_float32_mixed_into_literal_accumulator(self):
        src = """
        import numpy as np
        def f(n):
            data = np.zeros(n, dtype=np.float32)
            acc = 0.0
            acc += data.sum()
            return acc
        """
        assert rules(src, HOT) == ["R3"]


class TestR3FalsePositives:
    def test_explicit_dtype_passes(self):
        src = """
        import numpy as np
        a = np.zeros(10, dtype=np.float64)
        b = np.array([1.0], dtype=np.float64)
        c = np.empty(3, dtype=np.int64)
        """
        assert rules(src, HOT) == []

    def test_cold_path_not_checked(self):
        assert rules("import numpy as np\nb = np.zeros(10)\n", COLD) == []

    def test_like_constructors_inherit_dtype(self):
        src = """
        import numpy as np
        def f(x):
            return np.zeros_like(x) + np.empty_like(x)
        """
        assert rules(src, HOT) == []

    def test_float64_accumulation_is_fine(self):
        src = """
        import numpy as np
        def f(n):
            data = np.zeros(n, dtype=np.float64)
            acc = 0.0
            acc += data.sum()
            return acc
        """
        assert rules(src, HOT) == []


# --------------------------------------------------------------------------
# R4: hot-loop hygiene


class TestR4TruePositives:
    def test_range_over_elements(self):
        src = """
        def f(n_elements):
            for e in range(n_elements):
                pass
        """
        assert rules(src, HOT_LOOP) == ["R4"]

    def test_enumerate_loop(self):
        src = """
        def f(rows):
            for i, r in enumerate(rows):
                pass
        """
        assert rules(src, HOT_LOOP) == ["R4"]

    def test_nested_per_entry_loop(self):
        src = """
        def f(mats):
            for e in range(len(mats)):
                for k in range(mats[e].size):
                    pass
        """
        assert sorted(rules(src, HOT_LOOP)) == ["R4", "R4"]


class TestR4FalsePositives:
    def test_small_constant_range(self):
        src = """
        def f():
            for a in range(3):
                for c in range(8):
                    pass
        """
        assert rules(src, HOT_LOOP) == []

    def test_allow_loop_marker(self):
        src = """
        def f(ne):
            for e in range(ne):  # lint: allow-loop (legacy path)
                pass
        """
        assert rules(src, HOT_LOOP) == []

    def test_allow_loop_marker_on_previous_line(self):
        src = """
        def f(ne):
            # lint: allow-loop
            for e in range(ne):
                pass
        """
        assert rules(src, HOT_LOOP) == []

    def test_cold_module_not_checked(self):
        src = """
        def f(ne):
            for e in range(ne):
                pass
        """
        assert rules(src, COLD) == []

    def test_plain_iteration_not_flagged(self):
        src = """
        def f(items):
            for x in items:
                pass
        """
        assert rules(src, HOT_LOOP) == []


# --------------------------------------------------------------------------
# suppression, baseline, CLI


class TestSuppression:
    def test_disable_comment(self):
        src = """
        _registry = {}

        def f(comm):
            return _registry.get(comm.rank)  # lint: disable=R10
        """
        assert rules(src) == []

    def test_disable_wrong_rule_keeps_finding(self):
        src = """
        _registry = {}

        def f(comm):
            return _registry.get(comm.rank)  # lint: disable=R3
        """
        assert rules(src) == ["R10"]

    def test_disable_list(self):
        src = "import numpy as np\nb = np.zeros(10)  # lint: disable=R10, R3\n"
        assert rules(src, HOT) == []


class TestBaseline:
    def test_roundtrip_and_new_finding(self, tmp_path):
        old = findings("import numpy as np\nb = np.zeros(10)\n", HOT)
        bl_file = tmp_path / "baseline.json"
        write_baseline(old, bl_file)
        baseline = load_baseline(bl_file)
        # identical findings are fully grandfathered
        assert apply_baseline(old, baseline) == []
        # a new finding (different snippet) is reported
        new = findings(
            "import numpy as np\nb = np.zeros(10)\nc = np.empty(4)\n", HOT
        )
        fresh = apply_baseline(new, baseline)
        assert [f.snippet for f in fresh] == ["c = np.empty(4)"]

    def test_baseline_survives_line_shift(self, tmp_path):
        old = findings("import numpy as np\nb = np.zeros(10)\n", HOT)
        bl_file = tmp_path / "baseline.json"
        write_baseline(old, bl_file)
        shifted = findings(
            "import numpy as np\n\n\n# comment\nb = np.zeros(10)\n", HOT
        )
        assert apply_baseline(shifted, load_baseline(bl_file)) == []

    def test_baseline_is_a_multiset(self, tmp_path):
        one = findings("import numpy as np\nb = np.zeros(10)\n", HOT)
        bl_file = tmp_path / "b.json"
        write_baseline(one, bl_file)
        twice = findings(
            "import numpy as np\nb = np.zeros(10)\nb = np.zeros(10)\n", HOT
        )
        fresh = apply_baseline(twice, load_baseline(bl_file))
        assert len(fresh) == 1  # only the second occurrence is new


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        f = tmp_path / "src" / "repro" / "fem" / "ok.py"
        f.parent.mkdir(parents=True)
        f.write_text("import numpy as np\na = np.zeros(3, dtype=np.float64)\n")
        assert main([str(tmp_path / "src"), "--no-baseline"]) == 0

    def test_finding_exits_nonzero_and_prints_location(self, tmp_path, capsys):
        f = tmp_path / "src" / "repro" / "fem" / "bad.py"
        f.parent.mkdir(parents=True)
        f.write_text("import numpy as np\na = np.zeros(3)\n")
        assert main([str(tmp_path / "src"), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "bad.py:2" in out and "R3" in out

    def test_write_then_check_baseline(self, tmp_path, capsys):
        f = tmp_path / "bad.py"
        # path component 'fem' puts the file in R3 scope
        fem = tmp_path / "fem"
        fem.mkdir()
        f = fem / "bad.py"
        f.write_text("import numpy as np\na = np.zeros(3)\n")
        bl = tmp_path / "bl.json"
        assert main([str(fem), "--write-baseline", str(bl)]) == 0
        assert json.loads(bl.read_text())["findings"]
        assert main([str(fem), "--baseline", str(bl)]) == 0

    def test_missing_required_baseline_errors(self, tmp_path):
        fem = tmp_path / "fem"
        fem.mkdir()
        (fem / "x.py").write_text("pass\n")
        assert main([str(fem), "--baseline", str(tmp_path / "nope.json")]) == 2

    def test_syntax_error_reported(self, tmp_path):
        f = tmp_path / "broken.py"
        f.write_text("def f(:\n")
        assert main([str(f), "--no-baseline"]) == 1


# --------------------------------------------------------------------------
# R5: unordered dict iteration while serializing state (checkpoint scope)

CKPT = "src/repro/checkpoint/fixture.py"  # R5 + R6 active (checkpoint/)
OBS = "src/repro/obs/fixture.py"  # R6 active (obs/)


def r5(src: str) -> list[str]:
    """R5 findings on a checkpoint-path fixture (the path also activates
    R6, which these bare fixtures trip by design — filter it out)."""
    return [r for r in rules(src, CKPT) if r != "R6"]


class TestR5TruePositives:
    def test_items_in_for_loop(self):
        src = """
        def pack(arrays):
            for name, arr in arrays.items():
                emit(name, arr)
        """
        assert r5(src) == ["R5"]

    def test_keys_in_for_loop(self):
        src = """
        def pack(arrays):
            for name in arrays.keys():
                emit(name)
        """
        assert r5(src) == ["R5"]

    def test_values_through_enumerate(self):
        src = """
        def pack(arrays):
            for i, arr in enumerate(arrays.values()):
                emit(i, arr)
        """
        assert r5(src) == ["R5"]

    def test_items_in_comprehension(self):
        src = """
        def digest(arrays):
            return [h(a) for _, a in arrays.items()]
        """
        assert r5(src) == ["R5"]

    def test_message_mentions_sorted_and_digests(self):
        src = """
        def pack(arrays):
            for k in arrays.keys():
                emit(k)
        """
        f = [x for x in findings(src, CKPT) if x.rule == "R5"][0]
        assert "sorted" in f.message and "digest" in f.message


class TestR5FalsePositives:
    def test_sorted_items_is_fine(self):
        src = """
        def pack(arrays):
            for name in sorted(arrays):
                emit(name)
            for name, arr in sorted(arrays.items()):
                emit(name, arr)
        """
        assert r5(src) == []

    def test_inactive_outside_checkpoint_paths(self):
        src = """
        def pack(arrays):
            for name, arr in arrays.items():
                emit(name, arr)
        """
        assert rules(src, COLD) == []
        assert rules(src, HOT) == []

    def test_iteration_without_serialization_views(self):
        src = """
        def pack(names):
            for name in names:
                emit(name)
        """
        assert r5(src) == []

    def test_suppression_comment(self):
        src = """
        def pack(arrays):
            for name, arr in arrays.items():  # lint: disable=R5
                emit(name, arr)
        """
        assert r5(src) == []


# --------------------------------------------------------------------------
# R6: public-API docstrings (documented packages only)


class TestR6TruePositives:
    def test_missing_module_docstring(self):
        src = """
        X = 1
        """
        assert rules(src, OBS) == ["R6"]

    def test_missing_function_docstring(self):
        src = '''
        """Module."""

        def public():
            return 1
        '''
        f = findings(src, OBS)
        assert [x.rule for x in f] == ["R6"]
        assert "public function 'public'" in f[0].message

    def test_missing_class_and_method_docstrings(self):
        src = '''
        """Module."""

        class Thing:
            def run(self):
                return 1
        '''
        msgs = [x.message for x in findings(src, OBS)]
        assert len(msgs) == 2
        assert any("public class 'Thing'" in m for m in msgs)
        assert any("public method 'run'" in m for m in msgs)

    def test_active_in_solvers_and_checkpoint_paths(self):
        src = """
        def public():
            return 1
        """
        assert rules(src, "src/repro/solvers/fixture.py") == ["R6", "R6"]
        assert rules(src, CKPT) == ["R6", "R6"]


class TestR6FalsePositives:
    def test_documented_symbols_pass(self):
        src = '''
        """Module."""

        class Thing:
            """A thing."""

            def run(self):
                """Run it."""
                return 1

        def public():
            """Do it."""
            return 1
        '''
        assert rules(src, OBS) == []

    def test_private_and_dunder_names_exempt(self):
        src = '''
        """Module."""

        class _Internal:
            def anything(self):
                return 1

        class Thing:
            """A thing."""

            def __init__(self):
                self.x = 1

            def _helper(self):
                return 2
        '''
        assert rules(src, OBS) == []

    def test_nested_functions_exempt(self):
        src = '''
        """Module."""

        def public():
            """Documented."""
            def inner():
                return 1
            return inner
        '''
        assert rules(src, OBS) == []

    def test_methods_of_private_class_exempt(self):
        src = '''
        """Module."""

        class _Hidden:
            class Inner:
                def run(self):
                    return 1
        '''
        assert rules(src, OBS) == []

    def test_inactive_outside_documented_packages(self):
        src = """
        def public():
            return 1
        """
        assert rules(src, COLD) == []
        assert rules(src, HOT) == []

    def test_suppression_comment(self):
        src = '''
        """Module."""

        def public():  # lint: disable=R6
            return 1
        '''
        assert rules(src, OBS) == []


# --------------------------------------------------------------------------
# R5 on sets: salted iteration order while serializing state


class TestR5SetTruePositives:
    def test_set_literal_iteration(self):
        src = """
        def pack(emit):
            names = {"T", "keys", "levels"}
            for name in names:
                emit(name)
        """
        assert r5(src) == ["R5"]

    def test_set_call_iteration(self):
        src = """
        def pack(arrays, emit):
            pending = set(arrays)
            for name in pending:
                emit(name)
        """
        assert r5(src) == ["R5"]

    def test_set_comprehension_iteration(self):
        src = """
        def pack(arrays, emit):
            stems = {n.split("/")[0] for n in arrays}
            for s in stems:
                emit(s)
        """
        assert r5(src) == ["R5"]

    def test_set_union_iteration(self):
        src = """
        def pack(a, b, emit):
            left = set(a)
            right = set(b)
            both = left | right
            for name in both:
                emit(name)
        """
        assert r5(src) == ["R5"]

    def test_set_method_union_iteration(self):
        src = """
        def pack(a, b, emit):
            left = set(a)
            for name in left.union(b):
                emit(name)
        """
        assert r5(src) == ["R5"]

    def test_set_through_enumerate(self):
        src = """
        def pack(arrays, emit):
            names = set(arrays)
            for i, name in enumerate(names):
                emit(i, name)
        """
        assert r5(src) == ["R5"]

    def test_message_mentions_sorted(self):
        src = """
        def pack(emit):
            names = {"a", "b"}
            for n in names:
                emit(n)
        """
        f = [x for x in findings(src, CKPT) if x.rule == "R5"][0]
        assert "sorted" in f.message


class TestR5SetFalsePositives:
    def test_sorted_set_is_fine(self):
        src = """
        def pack(arrays, emit):
            names = set(arrays)
            for name in sorted(names):
                emit(name)
        """
        assert r5(src) == []

    def test_rebound_to_list_is_fine(self):
        src = """
        def pack(arrays, emit):
            names = set(arrays)
            names = sorted(names)
            for name in names:
                emit(name)
        """
        assert r5(src) == []

    def test_membership_test_is_fine(self):
        src = """
        def pack(arrays, emit):
            skip = {"tmp"}
            for name in sorted(arrays):
                if name in skip:
                    continue
                emit(name)
        """
        assert r5(src) == []

    def test_inactive_outside_checkpoint(self):
        src = """
        def pack(emit):
            names = {"a", "b"}
            for n in names:
                emit(n)
        """
        assert rules(src, COLD) == []


# --------------------------------------------------------------------------
# --format=github annotations


class TestGithubFormat:
    def test_annotations_emitted(self, tmp_path, capsys):
        fem = tmp_path / "fem"
        fem.mkdir()
        (fem / "bad.py").write_text("import numpy as np\na = np.zeros(3)\n")
        assert main([str(fem), "--no-baseline", "--format=github"]) == 1
        out = capsys.readouterr().out
        line = [ln for ln in out.splitlines() if ln.startswith("::error ")][0]
        assert "file=" in line and "line=2" in line and "repro-lint R3" in line

    def test_newlines_escaped(self, tmp_path, capsys):
        fem = tmp_path / "fem"
        fem.mkdir()
        (fem / "bad.py").write_text("import numpy as np\na = np.zeros(3)\n")
        main([str(fem), "--no-baseline", "--format=github"])
        out = capsys.readouterr().out
        for ln in out.splitlines():
            if ln.startswith("::error "):
                assert "\n" not in ln[1:]

    def test_clean_tree_emits_nothing(self, tmp_path, capsys):
        fem = tmp_path / "fem"
        fem.mkdir()
        (fem / "ok.py").write_text("x = 1\n")
        assert main([str(fem), "--no-baseline", "--format=github"]) == 0
        assert "::error" not in capsys.readouterr().out


# --------------------------------------------------------------------------
# R10: module-global mutable state inside SPMD kernels


class TestR10TruePositives:
    def test_read_of_module_dict_in_kernel(self):
        src = """
        _registry = {}

        def kernel(comm, x):
            return _registry.get(comm.rank)
        """
        assert rules(src) == ["R10"]

    def test_global_declared_none_still_flagged(self):
        # the seeded bug: `_fault` is None at module scope but rebound
        # through `global` — reading it in a kernel is still stale-prone
        src = """
        _fault = None

        def arm(rank):
            global _fault
            _fault = {"rank": rank}

        def kernel(comm):
            if _fault is not None:
                raise RuntimeError
        """
        assert rules(src) == ["R10"]

    def test_global_statement_inside_kernel_does_not_launder(self):
        src = """
        _state = None

        def setup():
            global _state
            _state = {}

        def kernel(comm):
            global _state
            return _state
        """
        assert rules(src) == ["R10"]

    def test_mutable_ctor_call_counts(self):
        src = """
        import collections
        _cache = collections.OrderedDict()

        def kernel(my_comm):
            return len(_cache)
        """
        assert rules(src) == ["R10"]

    def test_comm_like_param_anywhere(self):
        src = """
        _seen = []

        def kernel(a, b, *, checked_comm):
            _seen.append(a)
        """
        assert rules(src) == ["R10"]

    def test_finding_names_kernel_and_global(self):
        src = """
        _slots = []

        def exchange(comm):
            return _slots[comm.rank]
        """
        (f,) = findings(src)
        assert f.rule == "R10"
        assert "'exchange'" in f.message and "'_slots'" in f.message

    def test_all_caps_table_written_by_a_function(self):
        # ALL_CAPS is no promise of immutability once a function writes
        # into the name: a parent-side configure() never reaches workers
        src = """
        _STATE = {"scale": 1.0}

        def configure(**kw):
            for k, v in kw.items():
                _STATE[k] = v

        def kernel(comm):
            return comm.allreduce(_STATE["scale"])
        """
        (f,) = findings(src)
        assert f.rule == "R10" and "'_STATE'" in f.message

    def test_all_caps_rebound_or_mutated_by_method(self):
        src = """
        _SEEN = []
        _MODE = None

        def record(x):
            _SEEN.append(x)

        def arm(mode):
            global _MODE
            _MODE = mode

        def kernel(comm):
            return len(_SEEN), _MODE
        """
        assert rules(src) == ["R10", "R10"]


class TestR10FalsePositives:
    def test_all_caps_constant_exempt(self):
        src = """
        TABLE = {"a": 1}

        def kernel(comm):
            return TABLE["a"]
        """
        assert rules(src) == []

    def test_all_caps_read_only_table_exempt(self):
        # functions only read the table; a local of the same name being
        # written does not make the module's table mutable
        src = """
        WEIGHTS = {"face": 1.0, "edge": 0.5}

        def lookup(kind):
            return WEIGHTS.get(kind, 0.0)

        def scratch():
            WEIGHTS = {}
            WEIGHTS["x"] = 1.0
            return WEIGHTS

        def kernel(comm, kind):
            return comm.allreduce(WEIGHTS[kind] + lookup(kind))
        """
        assert rules(src) == []

    def test_function_without_comm_param_ignored(self):
        src = """
        _registry = {}

        def helper(x):
            return _registry.get(x)
        """
        assert rules(src) == []

    def test_local_shadow_not_flagged(self):
        src = """
        _buf = []

        def kernel(comm):
            _buf = [comm.rank]
            return _buf
        """
        assert rules(src) == []

    def test_immutable_global_not_flagged(self):
        src = """
        _tag = 7

        def kernel(comm):
            return _tag
        """
        assert rules(src) == []

    def test_nested_helper_judged_separately(self):
        # the nested def has no comm param; the outer kernel never reads
        # the global itself
        src = """
        _registry = {}

        def kernel(comm):
            def fmt(x):
                return x
            return fmt(comm.rank)
        """
        assert rules(src) == []

    def test_disable_comment(self):
        src = """
        _fault = None

        def arm():
            global _fault
            _fault = {}

        def kernel(comm):
            f = _fault  # lint: disable=R10
            return f
        """
        assert rules(src) == []
