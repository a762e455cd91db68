"""Unit tests for the markdown link checker (tools/linkcheck.py)."""

import textwrap

from tools.linkcheck import (
    check_file,
    check_paths,
    extract_links,
    github_slug,
    heading_slugs,
    main,
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(textwrap.dedent(text), encoding="utf-8")
    return p


# -- slugs -------------------------------------------------------------------


class TestSlugs:
    def test_basic_lowercase_hyphens(self):
        assert github_slug("Quick start") == "quick-start"

    def test_punctuation_stripped_hyphens_kept(self):
        assert github_slug("Phase timers & traces") == "phase-timers--traces"
        assert github_slug("Measured-vs-modeled policy") == "measured-vs-modeled-policy"

    def test_markup_stripped(self):
        assert github_slug("The `repro.obs` package") == "the-reproobs-package"
        assert github_slug("See [docs](x.md) here") == "see-docs-here"

    def test_duplicate_headings_suffixed(self):
        md = "# A\n## A\n### B\n# A\n"
        assert heading_slugs(md) == {"a", "a-1", "a-2", "b"}

    def test_headings_inside_fences_ignored(self):
        md = "# Real\n```\n# Fake\n```\n"
        assert heading_slugs(md) == {"real"}


# -- extraction --------------------------------------------------------------


class TestExtraction:
    def test_inline_reference_and_image_links(self):
        md = textwrap.dedent("""
            see [a](one.md) and ![img](pic.png)
            [ref]: two.md
        """)
        assert [t for _, t in extract_links(md)] == ["one.md", "pic.png", "two.md"]

    def test_code_fences_and_spans_skipped(self):
        md = textwrap.dedent("""
            `[not](a-link.md)` but [yes](real.md)
            ```
            [also not](fenced.md)
            ```
        """)
        assert [t for _, t in extract_links(md)] == ["real.md"]

    def test_line_numbers_reported(self):
        md = "x\n[a](one.md)\n"
        assert extract_links(md) == [(2, "one.md")]


# -- checking ----------------------------------------------------------------


class TestChecking:
    def test_live_relative_link_and_anchor(self, tmp_path):
        write(tmp_path, "target.md", "# Hello World\n")
        a = write(tmp_path, "a.md", "[t](target.md) [h](target.md#hello-world) [s](#local)\n\n# Local\n")
        assert check_file(a, root=tmp_path) == []

    def test_dead_file_reported_with_location(self, tmp_path):
        a = write(tmp_path, "a.md", "x\n\n[t](missing.md)\n")
        dead = check_file(a, root=tmp_path)
        assert len(dead) == 1
        assert dead[0].line == 3
        assert "missing.md" in dead[0].message

    def test_dead_anchor_reported(self, tmp_path):
        write(tmp_path, "target.md", "# Hello\n")
        a = write(tmp_path, "a.md", "[h](target.md#nope)\n")
        dead = check_file(a, root=tmp_path)
        assert len(dead) == 1
        assert "nope" in dead[0].message

    def test_external_links_never_checked(self, tmp_path):
        a = write(
            tmp_path, "a.md",
            "[w](https://example.com/x) [m](mailto:x@y.z) [c](http://dead.invalid)\n",
        )
        assert check_file(a, root=tmp_path) == []

    def test_links_resolve_relative_to_linking_file(self, tmp_path):
        write(tmp_path, "docs/inner.md", "[up](../top.md)\n")
        write(tmp_path, "top.md", "# Top\n")
        assert check_paths([tmp_path], root=tmp_path) == []

    def test_directory_links_allowed(self, tmp_path):
        (tmp_path / "sub").mkdir()
        a = write(tmp_path, "a.md", "[d](sub)\n")
        assert check_file(a, root=tmp_path) == []

    def test_skip_dirs_not_descended(self, tmp_path):
        write(tmp_path, ".git/junk.md", "[x](gone.md)\n")
        write(tmp_path, "a.md", "fine\n")
        assert check_paths([tmp_path], root=tmp_path) == []

    def test_main_exit_codes(self, tmp_path, capsys):
        write(tmp_path, "a.md", "[ok](#a)\n\n# A\n")
        assert main([str(tmp_path)]) == 0
        write(tmp_path, "b.md", "[bad](missing.md)\n")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "missing.md" in out


class TestRepoDocs:
    def test_repo_markdown_has_no_dead_links(self):
        assert check_paths(["."], root=".") == []
