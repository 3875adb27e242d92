"""Documentation guardrails: required docs exist, intra-repo links resolve.

Runs the same check as ``tools/check_docs.py`` (and the CI docs job)
inside the tier-1 suite, so a renamed doc or a typoed relative link
fails before it reaches CI.  Also checks that the ``serve`` flag
table in docs/operations.md lists exactly the options the CLI defines.
"""

from __future__ import annotations

import argparse
import importlib.util
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_docs", module)
    spec.loader.exec_module(module)
    return module


check_docs = _load_check_docs()


def test_required_documentation_exists():
    for relative in (
        "README.md",
        "docs/architecture.md",
        "docs/api.md",
        "docs/performance.md",
        "docs/operations.md",
        "docs/artifact-format.md",
        "CHANGES.md",
        "ROADMAP.md",
    ):
        assert (REPO_ROOT / relative).is_file(), f"missing {relative}"


def test_markdown_files_discovered():
    files = {p.name for p in check_docs.markdown_files(REPO_ROOT)}
    assert {"README.md", "architecture.md", "api.md"} <= files


def test_no_broken_intra_repo_links():
    problems = check_docs.broken_links(REPO_ROOT)
    assert not problems, "\n".join(problems)


def test_link_extraction_handles_anchors_and_externals(tmp_path):
    (tmp_path / "real.md").write_text("target\n", encoding="utf-8")
    (tmp_path / "doc.md").write_text(
        "[ok](real.md) [anchored](real.md#section) [page](#local)\n"
        "[ext](https://example.com/x.md) [bad](missing.md)\n",
        encoding="utf-8",
    )
    problems = check_docs.broken_links(tmp_path)
    assert len(problems) == 1
    assert "missing.md" in problems[0]


def test_readme_links_into_docs():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for target in ("docs/architecture.md", "docs/api.md",
                   "docs/performance.md", "docs/operations.md",
                   "docs/artifact-format.md"):
        assert target in text, f"README.md does not link {target}"


def _serve_flag_table() -> set[str]:
    """Flags listed in the ``serve`` flag reference of operations.md."""
    text = (REPO_ROOT / "docs" / "operations.md").read_text(encoding="utf-8")
    section = text.split("## `serve` flag reference", 1)[1]
    section = section.split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(--[a-z0-9-]+)`", section, re.MULTILINE))


def test_serve_flag_table_matches_cli():
    """Every ``repro serve`` option has a row, and every row an option."""
    from repro.cli import build_parser

    (subcommands,) = (
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    options = {
        option
        for action in subcommands.choices["serve"]._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    documented = _serve_flag_table()
    assert options - documented == set(), "undocumented serve flags"
    assert documented - options == set(), "documented flags serve lacks"


class TestSnippetChecker:
    """The fenced-```python``` compile check (snippet-rot guard)."""

    def test_all_repo_snippets_compile(self):
        problems = check_docs.broken_snippets(REPO_ROOT)
        assert not problems, "\n".join(problems)

    def test_repo_docs_actually_contain_snippets(self):
        """The guard must be exercising real blocks, not vacuously
        passing because extraction silently matched nothing."""
        total = sum(
            len(
                check_docs.extract_python_snippets(
                    path.read_text(encoding="utf-8")
                )
            )
            for path in check_docs.markdown_files(REPO_ROOT)
        )
        assert total >= 5, f"only {total} python snippets found"

    def test_extraction_ignores_other_languages(self):
        text = (
            "```sh\nnot = python +\n```\n"
            "```json\n{\"a\": 1}\n```\n"
            "```\nplain fence\n```\n"
            "```python\nx = 1\n```\n"
        )
        snippets = check_docs.extract_python_snippets(text)
        assert len(snippets) == 1
        assert snippets[0][1] == "x = 1\n"

    def test_syntax_error_is_reported_with_location(self, tmp_path):
        (tmp_path / "bad.md").write_text(
            "intro\n\n```python\ndef broken(:\n```\n", encoding="utf-8"
        )
        problems = check_docs.broken_snippets(tmp_path)
        assert len(problems) == 1
        assert "bad.md:4" in problems[0]
        assert "does not compile" in problems[0]

    def test_doctest_blocks_are_reassembled(self, tmp_path):
        (tmp_path / "doctest.md").write_text(
            "```python\n"
            ">>> x = [1, 2]\n"
            ">>> for item in x:\n"
            "...     print(item)\n"
            "1\n"
            "2\n"
            "```\n",
            encoding="utf-8",
        )
        assert check_docs.broken_snippets(tmp_path) == []

    def test_ellipsis_and_annotations_compile(self, tmp_path):
        (tmp_path / "frag.md").write_text(
            "```python\n"
            "def handler(payload: dict) -> dict:\n"
            "    ...\n"
            "```\n",
            encoding="utf-8",
        )
        assert check_docs.broken_snippets(tmp_path) == []

    def test_main_exit_code_covers_snippets(self, tmp_path, monkeypatch,
                                            capsys):
        (tmp_path / "bad.md").write_text(
            "```python\n1 +\n```\n", encoding="utf-8"
        )
        monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
        assert check_docs.main() == 1
        assert "snippet does not compile" in capsys.readouterr().out
