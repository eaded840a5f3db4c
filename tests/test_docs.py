"""Documentation gates: intra-repo links and ``repro.…`` references, the
metric inventory, and serve-API docstrings.

CI runs ``tools/check_docs_links.py`` and ``tools/check_metric_inventory.py``
directly (docs job) and ruff's pydocstyle ``D1`` codes over
``src/repro/serve/`` (lint job).  These tests keep all three gates
enforceable from the tier-1 suite alone, so a container without ruff
still catches a missing docstring, a broken link or a stale inventory row
before it reaches CI.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs_links  # noqa: E402
import check_metric_inventory  # noqa: E402

DOCS = ["docs/architecture.md", "docs/serving.md", "docs/benchmarks.md"]


class TestDocsTree:
    def test_docs_files_exist(self):
        for rel in DOCS:
            path = REPO_ROOT / rel
            assert path.is_file(), f"missing {rel}"
            assert path.stat().st_size > 1000, f"{rel} is a stub"

    def test_readme_links_every_docs_page(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for rel in DOCS:
            assert f"({rel})" in readme, f"README does not link {rel}"

    def test_no_broken_intra_repo_links(self):
        problems = []
        for path in check_docs_links.default_files():
            problems.extend(check_docs_links.check_file(path))
        assert not problems, "\n".join(problems)

    def test_link_checker_flags_a_broken_link(self, tmp_path):
        bad = tmp_path / "bad.md"
        bad.write_text("see [gone](no/such/file.md)\n", encoding="utf-8")
        # tmp_path is outside the repo, so fake an in-repo location.
        doc = REPO_ROOT / "docs" / "_linkcheck_selftest.md"
        doc.write_text(bad.read_text(encoding="utf-8"), encoding="utf-8")
        try:
            problems = check_docs_links.check_file(doc)
        finally:
            doc.unlink()
        assert len(problems) == 1 and "no/such/file.md" in problems[0]

    def test_reference_checker_flags_a_stale_name(self, tmp_path):
        doc = tmp_path / "refs.md"
        doc.write_text(
            "`repro.serve`, `repro.linalg.polar`, `repro.obs.trace.Span.annotate`\n"
            "and `repro.serve.start_server_in_thread(registry)` resolve.\n"
            "```\n`repro.in_a_fence_is_an_example`\n```\n"
            "`repro.no_such_module` and `repro.obs.trace.Span.no_such_member`\n",
            encoding="utf-8",
        )
        problems = check_docs_links.check_file(doc)
        assert problems == [
            f"{doc}:6: unresolved reference `repro.no_such_module`",
            f"{doc}:6: unresolved reference `repro.obs.trace.Span.no_such_member`",
        ]


class TestMetricInventory:
    def test_inventory_matches_code(self):
        problems = check_metric_inventory.check(
            REPO_ROOT / "src", REPO_ROOT / "docs" / "observability.md"
        )
        assert not problems, "\n".join(problems)

    def test_checker_flags_drift(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "m.py").write_text(
            "def f(registry, other):\n"
            "    registry.counter('repro_ok_total', 'documented')\n"
            "    registry.gauge('repro_kind', 'documented as a histogram')\n"
            "    registry.histogram(name='repro_undocumented_seconds')\n"
            "    registry.counter('repro_twice', 'a counter here')\n"
            "    registry.gauge('repro_twice', 'and a gauge here')\n"
            "    other.counter('not_a_repro_metric')\n",
            encoding="utf-8",
        )
        doc = tmp_path / "observability.md"
        doc.write_text(
            "| Metric | Kind | Tier | Meaning |\n|---|---|---|---|\n"
            "| `repro_ok_total` | counter | t | fine |\n"
            "| `repro_kind` | histogram | t | wrong kind |\n"
            "| `repro_twice` | counter | t | two kinds in code |\n"
            "| `repro_gone_total` | counter | t | not in code |\n"
            "| `repro_gone_total` | counter | t | and listed twice |\n",
            encoding="utf-8",
        )
        problems = check_metric_inventory.check(src, doc)
        assert len(problems) == 5, problems
        text = "\n".join(problems)
        assert "repro_gone_total is listed twice" in text
        assert "repro_gone_total (counter) is registered nowhere" in text
        assert "repro_kind is a histogram in observability.md but a gauge at src/m.py:3" in text
        assert "repro_twice is registered as more than one kind: counter at" in text
        assert "repro_undocumented_seconds (histogram at src/m.py:4) is missing" in text
        assert "repro_ok_total" not in text and "not_a_repro_metric" not in text


def _defined_in_source(func) -> bool:
    """True for functions ruff would see (dataclass-generated ones have no source)."""
    try:
        inspect.getsource(func)
    except (OSError, TypeError):
        return False
    return True


def _public_members(cls) -> list[tuple[str, object]]:
    members = []
    for name, member in vars(cls).items():
        if name.startswith("_") and name not in ("__len__", "__repr__", "__iter__"):
            continue
        if isinstance(member, (staticmethod, classmethod)):
            member = member.__func__
        if isinstance(member, property):
            members.append((f"{cls.__name__}.{name}", member))
        elif inspect.isfunction(member) and _defined_in_source(member):
            members.append((f"{cls.__name__}.{name}", member))
    return members


class TestServeDocstrings:
    """Fallback for the ruff ``D1`` gate: docstring *presence* on the
    public serve API, checkable without ruff installed."""

    def test_public_serve_api_is_documented(self):
        import repro.serve as serve

        assert serve.__doc__ and len(serve.__doc__) > 40
        undocumented = []
        for name in serve.__all__:
            obj = getattr(serve, name)
            if not (getattr(obj, "__doc__", None) or "").strip():
                undocumented.append(name)
            if inspect.isclass(obj):
                for qualname, member in _public_members(obj):
                    if isinstance(member, property):
                        doc = member.fget.__doc__ if member.fget else None
                    else:
                        doc = member.__doc__
                    if not (doc or "").strip():
                        undocumented.append(qualname)
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_serve_modules_have_docstrings(self):
        from repro.serve import queries, service, store

        for module in (queries, service, store):
            assert module.__doc__ and len(module.__doc__.strip()) > 40

    def test_cli_serve_commands_have_help(self):
        from repro import cli

        parser = cli.build_parser()
        sub = next(
            a for a in parser._actions
            if a.__class__.__name__ == "_SubParsersAction"
        )
        for command in ("publish", "serve", "query"):
            assert command in sub.choices, f"missing CLI subcommand {command}"
            assert sub.choices[command].description or sub.choices[command].format_help()
