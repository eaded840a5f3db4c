"""Fail on broken intra-repo links and stale ``repro.…`` names in README.md and docs/.

Scans markdown files for inline links/images ``[text](target)`` and
verifies every *intra-repo* target resolves to an existing file:

* ``http(s)://`` and ``mailto:`` targets are skipped (external);
* targets that resolve outside the repository root are skipped — the CI
  badge's ``../../actions/...`` path is a GitHub-side URL, not a file;
* ``#fragment`` suffixes are checked against the GitHub-style anchor
  slugs of the target file's headings (pure ``#anchor`` links check the
  current file).

Every inline code span that starts with a dotted ``repro.…`` name must
name something in ``src/``: the longest prefix of the name is a module
file or package, and the rest (if any) is a top-level def, class,
assignment or import of that module, or a member of a class defined
there.  The check parses the source with ``ast`` and imports nothing.

Usage::

    python tools/check_docs_links.py            # README.md + docs/*.md
    python tools/check_docs_links.py FILE...    # explicit file list

Exits non-zero listing every broken link and unresolved reference.  Used
by the CI docs job and ``tests/test_docs.py``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"

# Inline links and images.  [text](target "title") keeps only the target.
_LINK = re.compile(r"!?\[[^\]]*\]\(\s*<?([^)<>\s]+)>?(?:\s+\"[^\"]*\")?\s*\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_CODE_FENCE = re.compile(r"```.*?```", re.DOTALL)
_INLINE_CODE = re.compile(r"`[^`]*`")
_REFERENCE = re.compile(r"`(repro(?:\.\w+)+)[^`]*`")


def _anchor_slug(heading: str) -> str:
    """GitHub's heading → anchor transform (close enough for our docs)."""
    text = re.sub(r"[`*_\[\]()]", "", heading).strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors_of(path: Path) -> set[str]:
    return {
        _anchor_slug(match)
        for match in _HEADING.findall(path.read_text(encoding="utf-8"))
    }


def _bound_names(body: list[ast.stmt]) -> dict[str, ast.stmt]:
    """Names a module or class body binds by def, class, assignment or import."""
    names = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[(alias.asname or alias.name).split(".")[0]] = node
        elif isinstance(node, ast.Assign):
            names.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names[node.target.id] = node
    return names


def resolves(dotted: str) -> bool:
    """Whether a dotted ``repro.…`` name names a module, or a name in one."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        base = SRC_ROOT.joinpath(*parts[:cut])
        module = next(
            (f for f in (base.with_suffix(".py"), base / "__init__.py") if f.is_file()),
            None,
        )
        if module is not None:
            break
    else:
        return False
    rest = parts[cut:]
    if not rest:
        return True
    node = _bound_names(ast.parse(module.read_text(encoding="utf-8")).body).get(rest[0])
    if node is None or len(rest) > 2:
        return False
    return len(rest) == 1 or (
        isinstance(node, ast.ClassDef) and rest[1] in _bound_names(node.body)
    )


def check_file(path: Path) -> list[str]:
    """Return a list of broken-link and unresolved-reference descriptions
    for one markdown file."""
    text = path.read_text(encoding="utf-8")
    # Links inside code blocks/spans are examples, not navigation.  Fences
    # become blank lines so reference line numbers stay true.
    text = _CODE_FENCE.sub(lambda m: "\n" * m.group().count("\n"), text)
    problems = []
    for match in _REFERENCE.finditer(text):
        if not resolves(match.group(1)):
            line = text.count("\n", 0, match.start()) + 1
            problems.append(f"{path}:{line}: unresolved reference `{match.group(1)}`")
    text = _INLINE_CODE.sub("", text)
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        raw, _, fragment = target.partition("#")
        if not raw:  # same-file anchor
            if fragment and _anchor_slug(fragment) not in _anchors_of(path):
                problems.append(f"{path}: broken anchor #{fragment}")
            continue
        resolved = (path.parent / raw).resolve()
        if REPO_ROOT not in resolved.parents and resolved != REPO_ROOT:
            continue  # points outside the repo (e.g. the CI badge URL)
        if not resolved.exists():
            problems.append(f"{path}: broken link -> {target}")
            continue
        if fragment and resolved.suffix == ".md":
            if _anchor_slug(fragment) not in _anchors_of(resolved):
                problems.append(f"{path}: broken anchor -> {target}")
    return problems


def default_files() -> list[Path]:
    """README.md plus every markdown file under docs/."""
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("**/*.md")))
    return [f for f in files if f.exists()]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    files = [Path(a).resolve() for a in argv] if argv else default_files()
    problems = []
    for path in files:
        problems.extend(check_file(path))
    for problem in problems:
        print(f"BROKEN: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"docs links and references ok ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
