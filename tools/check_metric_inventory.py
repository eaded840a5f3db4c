"""Fail when docs/observability.md's metric inventory and the code disagree.

Scans every Python file under ``src/`` for metric registrations — calls
``<registry>.counter(...)``, ``.gauge(...)`` or ``.histogram(...)`` whose
name is a string literal starting with ``repro_`` — and compares them with
the rows of the inventory table in ``docs/observability.md``
(``| `name` | kind | tier | meaning |``).  It reports:

* a metric registered in code but missing from the table;
* a table row naming a metric no code registers;
* a metric whose kind differs between the table and the code;
* a metric the code registers under two kinds, or the table lists twice.

Usage::

    python tools/check_metric_inventory.py

Exits non-zero listing every disagreement.  Stdlib only.  Used by the CI
docs job and ``tests/test_docs.py``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
KINDS = ("counter", "gauge", "histogram")

_ROW = re.compile(r"^\|\s*`(repro_[A-Za-z0-9_]+)`\s*\|\s*([a-z]+)\s*\|")


def code_metrics(src: Path) -> dict[str, dict[str, str]]:
    """``{name: {kind: "file:line" of its first registration}}`` under ``src``."""
    found: dict[str, dict[str, str]] = {}
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in KINDS
            ):
                continue
            name = node.args[0] if node.args else next(
                (kw.value for kw in node.keywords if kw.arg == "name"), None
            )
            if (
                isinstance(name, ast.Constant)
                and isinstance(name.value, str)
                and name.value.startswith("repro_")
            ):
                site = f"{path.relative_to(src.parent)}:{node.lineno}"
                found.setdefault(name.value, {}).setdefault(node.func.attr, site)
    return found


def doc_metrics(doc: Path) -> tuple[dict[str, str], list[str]]:
    """``{name: kind}`` from the inventory table, plus duplicate-row problems."""
    rows: dict[str, str] = {}
    problems = []
    for line in doc.read_text(encoding="utf-8").splitlines():
        match = _ROW.match(line.strip())
        if match is None:
            continue
        name, kind = match.groups()
        if name in rows:
            problems.append(f"{doc.name}: {name} is listed twice")
        rows[name] = kind
    return rows, problems


def check(src: Path, doc: Path) -> list[str]:
    """Every disagreement between the registrations under ``src`` and ``doc``."""
    in_code = code_metrics(src)
    in_doc, problems = doc_metrics(doc)
    for name in sorted(in_code.keys() | in_doc.keys()):
        kinds = in_code.get(name, {})
        doc_kind = in_doc.get(name)
        where = ", ".join(f"{kind} at {site}" for kind, site in sorted(kinds.items()))
        if not kinds:
            problems.append(f"{doc.name}: {name} ({doc_kind}) is registered nowhere in code")
        elif doc_kind is None:
            problems.append(f"{name} ({where}) is missing from the {doc.name} inventory")
        elif len(kinds) > 1:
            problems.append(f"{name} is registered as more than one kind: {where}")
        elif doc_kind not in kinds:
            problems.append(f"{name} is a {doc_kind} in {doc.name} but a {where}")
    return problems


def main() -> int:
    doc = REPO_ROOT / "docs" / "observability.md"
    problems = check(REPO_ROOT / "src", doc)
    for problem in problems:
        print(f"INVENTORY: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"metric inventory ok ({len(doc_metrics(doc)[0])} metrics)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
