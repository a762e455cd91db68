"""Doc-vs-argparse flag consistency checker (tools/docflags.py)."""

from pathlib import Path

from tools.docflags import check_repo, example_flags, main

REPO_ROOT = Path(__file__).resolve().parent.parent


def _write_repo(root: Path, readme: str) -> Path:
    (root / "examples").mkdir()
    (root / "examples" / "demo.py").write_text(
        "import argparse\n"
        "ap = argparse.ArgumentParser()\n"
        'ap.add_argument("--cycles", type=int)\n'
        'ap.add_argument("--trace", default=None)\n'
    )
    (root / "examples" / "plain.py").write_text('print("no args")\n')
    (root / "README.md").write_text(readme)
    return root


class TestExampleFlags:
    def test_parses_argparse_flags(self, tmp_path):
        _write_repo(tmp_path, "")
        flags = example_flags(tmp_path)
        assert flags["demo"] == {"--cycles", "--trace"}
        assert flags["plain"] is None  # no parser at all


class TestCheckRepo:
    def test_clean_repo(self, tmp_path):
        _write_repo(
            tmp_path,
            "Run `examples/demo.py --cycles 3 --trace t.json`.\n"
            "`examples/plain.py` needs no arguments.\n",
        )
        assert check_repo(tmp_path) == []

    def test_unknown_flag_on_command_line(self, tmp_path):
        _write_repo(tmp_path, "Run `examples/demo.py --bogus 1`.\n")
        (d,) = check_repo(tmp_path)
        assert "--bogus" in d.message and d.line == 1

    def test_flag_on_wrapped_bullet_line(self, tmp_path):
        # the README style that drifted: a bullet whose flags sit on the
        # soft-wrapped continuation line
        _write_repo(
            tmp_path,
            "- `examples/demo.py` — a demo; supports\n"
            "  `--cycles` and `--missing`.\n",
        )
        (d,) = check_repo(tmp_path)
        assert "--missing" in d.message

    def test_backslash_continuation(self, tmp_path):
        _write_repo(
            tmp_path,
            "```sh\npython examples/demo.py \\\n    --bogus2 1\n```\n",
        )
        (d,) = check_repo(tmp_path)
        assert "--bogus2" in d.message

    def test_flagless_example_with_documented_flag(self, tmp_path):
        _write_repo(tmp_path, "`examples/plain.py` takes `--anything`.\n")
        (d,) = check_repo(tmp_path)
        assert "takes no flags" in d.message

    def test_next_sentence_not_charged(self, tmp_path):
        # flags in a later sentence belong to some other tool, not to
        # the example mentioned earlier in the bullet
        _write_repo(
            tmp_path,
            "- `examples/demo.py --cycles 2` runs the demo.  The lint\n"
            "  job uses `--baseline` separately.\n",
        )
        assert check_repo(tmp_path) == []

    def test_unknown_example_reported(self, tmp_path):
        _write_repo(tmp_path, "See `examples/ghost.py --cycles 1`.\n")
        (d,) = check_repo(tmp_path)
        assert "unknown example" in d.message


class TestRealRepo:
    def test_repo_docs_are_clean(self):
        assert check_repo(REPO_ROOT) == []

    def test_cli_exit_codes(self, tmp_path, capsys):
        _write_repo(tmp_path, "Run `examples/demo.py --bogus 1`.\n")
        assert main([str(tmp_path)]) == 1
        assert "--bogus" in capsys.readouterr().out
        assert main([str(REPO_ROOT)]) == 0
