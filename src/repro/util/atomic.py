"""Durable writes: the one place the library commits files to disk.

* :func:`write_text_atomic` replaces a small text file (the registry
  marker, a slice-store manifest, a ``LATEST`` pointer): readers see the
  old content or the new, never a torn file.  :func:`read_json` is the
  reading side; a damaged file raises a ``ValueError`` that names it.
* :class:`NumberedDirs` holds immutable numbered entries (registry
  versions ``v0000001``…, stream checkpoints ``ckpt-0000001``…) and a
  ``LATEST`` pointer.  A commit stages the payload in a hidden directory,
  renames it to the next free number and then replaces the pointer — the
  pointer replace is the commit point.

Both hold for a writer killed at any instant; nothing is ``fsync``-ed,
so power loss is not covered.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Callable

from repro.util import faults

_DIGITS = 7


def write_text_atomic(path, text: str) -> None:
    """Replace ``path`` with ``text`` via a hidden temp file and ``os.replace``."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}-", dir=path.parent)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_json(path) -> dict:
    """Parse the JSON file at ``path``; a decode error names the file."""
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON (truncated write?): {exc}") from exc


class NumberedDirs:
    """Entries ``<prefix>0000001``, … in ``directory`` plus a ``LATEST`` pointer.

    An entry is complete once its ``marker`` file exists (payload writers
    create it last).  :meth:`commit` checks the fault sites
    ``<site>.staged`` and ``<site>.renamed``.  ``pointer`` defaults to
    ``directory / "LATEST"``.
    """

    def __init__(self, directory, *, prefix: str, marker: str, site: str, pointer=None) -> None:
        self.directory = Path(directory)
        self.prefix = prefix
        self.marker = marker
        self.site = site
        self.pointer = self.directory / "LATEST" if pointer is None else Path(pointer)

    def path(self, number: int) -> Path:
        """Directory of entry ``number``, complete or not."""
        return self.directory / f"{self.prefix}{int(number):0{_DIGITS}d}"

    def numbers(self) -> list[int]:
        """Numbers of the complete entries, ascending."""
        if not self.directory.is_dir():
            return []
        found = []
        for entry in self.directory.iterdir():
            digits = entry.name[len(self.prefix):]
            if (
                entry.name.startswith(self.prefix)
                and digits.isdigit()
                and (entry / self.marker).exists()
            ):
                found.append(int(digits))
        return sorted(found)

    def latest(self) -> int | None:
        """The pointed-to entry, or None when no entry is complete.

        Falls back to the highest complete entry when the pointer is
        missing, unreadable, or stale (a writer killed between the rename
        and the pointer replace).
        """
        complete = self.numbers()
        if not complete:
            return None
        try:
            pointed = int(self.pointer.read_text().strip())
        except (OSError, ValueError):
            return complete[-1]
        return pointed if pointed in complete else complete[-1]

    def commit(self, fill: Callable[[Path, int], None]) -> int:
        """Add one entry and point ``LATEST`` at it; return its number.

        ``fill(staging, number)`` writes the payload, marker last.
        ``number`` is the next number on disk; should a concurrent writer
        take it first, the entry gets the next free one.  A writer killed
        before the rename leaves a hidden staging directory; killed after
        it, a complete entry the pointer does not name, which the next
        commit numbers past.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        number = (self.numbers() or [0])[-1] + 1
        staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=self.directory))
        try:
            fill(staging, number)
            faults.check(f"{self.site}.staged")
            while True:
                target = self.path(number)
                try:
                    staging.rename(target)
                    break
                except OSError:
                    if not target.exists():
                        raise
                    number += 1
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        faults.check(f"{self.site}.renamed")
        write_text_atomic(self.pointer, f"{number}\n")
        return number

    def prune(self, keep: int) -> list[int]:
        """Delete all but the newest ``keep`` complete entries; return those removed.

        The pointed-to entry is always kept; incomplete entries are never touched.
        """
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        live = self.latest()
        doomed = [number for number in self.numbers()[:-keep] if number != live]
        for number in doomed:
            shutil.rmtree(self.path(number))
        return doomed
