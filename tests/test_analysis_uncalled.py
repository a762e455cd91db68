"""Uncalled-function probe (tools/uncalled.py), without running a target."""

import importlib
import sys
import textwrap
import threading
from pathlib import Path

from tools.uncalled import (
    DEFAULT_BASELINE,
    TARGETS,
    load_baseline,
    outermost_functions,
    record_entries,
    uncalled,
    unset_options,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

_PLANTED = '''
import functools


def used():
    def inner():
        return 1
    return inner()


def unused():
    return 2


def in_thread():
    return 3


@functools.lru_cache(maxsize=None)
def decorated_used():
    return 4


class Box:
    def method_used(self):
        return 5

    @property
    def prop_unused(self):
        return 6

    class Inner:
        def deep_unused(self):
            return 7


if True:
    def guarded_unused():
        return 8


def tuned(x, scale=2.0, *, mode="fast", limit=None):
    return x
'''


def _plant(root: Path) -> Path:
    pkg = root / "plantpkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(textwrap.dedent(_PLANTED))
    return root


class TestPlantedPackage:
    def test_outermost_functions_keys(self, tmp_path):
        funcs = outermost_functions(_plant(tmp_path), "plantpkg")
        assert set(funcs) == {
            "plantpkg.mod:used",
            "plantpkg.mod:unused",
            "plantpkg.mod:in_thread",
            "plantpkg.mod:decorated_used",
            "plantpkg.mod:Box.method_used",
            "plantpkg.mod:Box.prop_unused",
            "plantpkg.mod:Box.Inner.deep_unused",
            "plantpkg.mod:guarded_unused",
            "plantpkg.mod:tuned",
        }  # the nested ``inner`` is part of ``used``, not a key of its own
        f = funcs["plantpkg.mod:decorated_used"]
        assert (f.path, f.lines) == ("plantpkg/mod.py", 3)  # from the decorator line
        assert funcs["plantpkg.mod:tuned"].options == ("scale", "mode", "limit")
        assert funcs["plantpkg.mod:used"].options == ()

    def test_never_entered_function_is_reported(self, tmp_path):
        src = _plant(tmp_path)
        sys.path.insert(0, str(src))
        try:
            mod = importlib.import_module("plantpkg.mod")
            with record_entries(src) as rec:
                mod.used()
                mod.decorated_used()
                mod.Box().method_used()
                t = threading.Thread(target=mod.in_thread)
                t.start()
                t.join()
        finally:
            sys.path.remove(str(src))
            for name in ("plantpkg.mod", "plantpkg"):
                sys.modules.pop(name, None)
        assert uncalled(outermost_functions(src, "plantpkg"), rec.entries) == [
            "plantpkg.mod:Box.Inner.deep_unused",
            "plantpkg.mod:Box.prop_unused",
            "plantpkg.mod:guarded_unused",
            "plantpkg.mod:tuned",
            "plantpkg.mod:unused",
        ]

    def test_option_no_call_overrides_is_unset(self, tmp_path):
        """``scale`` is overridden in one call of two; ``mode`` is passed
        only as its default value and ``limit`` never: both are unset."""
        src = _plant(tmp_path)
        funcs = outermost_functions(src, "plantpkg")
        sys.path.insert(0, str(src))
        try:
            mod = importlib.import_module("plantpkg.mod")
            with record_entries(src, funcs) as rec:
                mod.tuned(1)
                mod.tuned(1, 3.0, mode="fast")
                mod.used()
        finally:
            sys.path.remove(str(src))
            for name in ("plantpkg.mod", "plantpkg"):
                sys.modules.pop(name, None)
        assert unset_options(funcs, rec.entries, rec.overridden) == [
            "plantpkg.mod:tuned(limit)",
            "plantpkg.mod:tuned(mode)",
        ]  # the options of functions nobody enters are not listed

    def test_record_restores_the_previous_profiler(self, tmp_path):
        def mine(frame, event, arg):
            pass

        old = sys.getprofile()
        sys.setprofile(mine)
        try:
            with record_entries(tmp_path):
                pass
            assert sys.getprofile() is mine
        finally:
            sys.setprofile(old)


class TestCommittedBaseline:
    def test_every_key_names_an_existing_function(self):
        funcs = outermost_functions(REPO_ROOT / "src", "repro")
        base = load_baseline(REPO_ROOT / DEFAULT_BASELINE)["uncalled"]
        assert base, "the baseline is empty"
        assert sorted(base - set(funcs)) == []

    def test_every_unset_key_names_an_option(self):
        funcs = outermost_functions(REPO_ROOT / "src", "repro")
        unset = load_baseline(REPO_ROOT / DEFAULT_BASELINE)["unset"]
        assert unset, "the baseline lists no unset option"
        options = {f"{k}({name})" for k, f in funcs.items() for name in f.options}
        assert sorted(unset - options) == []

    def test_ten_targets(self):
        kinds = [kind for kind, _, _ in TARGETS.values()]
        assert kinds.count("bench") == 5 and len(TARGETS) == 10
        for kind, what, _ in TARGETS.values():
            if kind != "bench":
                assert (REPO_ROOT / what).is_file()
