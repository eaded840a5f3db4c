"""Tests for the shared durable-write module (repro.util.atomic)."""

import pytest

from repro.util.atomic import NumberedDirs, write_text_atomic


def _entries(tmp_path):
    return NumberedDirs(tmp_path, prefix="e-", marker="done", site="test.commit")


def _fill(staging, number):
    (staging / "payload").write_text(str(number))
    (staging / "done").write_text("")


class TestWriteTextAtomic:
    def test_replaces_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_text_atomic(path, "old")
        write_text_atomic(path, "new")
        assert path.read_text() == "new"
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


class TestNumberedDirs:
    def test_commit_numbers_from_disk_and_points_latest(self, tmp_path):
        entries = _entries(tmp_path)
        assert entries.latest() is None
        assert [entries.commit(_fill) for _ in range(3)] == [1, 2, 3]
        assert _entries(tmp_path).numbers() == [1, 2, 3]
        assert (tmp_path / "LATEST").read_text() == "3\n"
        assert (entries.path(2) / "payload").read_text() == "2"

    def test_commit_skips_an_occupied_number(self, tmp_path):
        entries = _entries(tmp_path)
        entries.commit(_fill)
        # An incomplete, non-empty entry sits on the next number: it is not
        # listed, and the rename onto it fails, so the commit moves on.
        entries.path(2).mkdir()
        (entries.path(2) / "partial").write_text("")
        assert entries.commit(_fill) == 3
        assert entries.numbers() == [1, 3]
        assert (entries.path(2) / "partial").exists()

    def test_failed_fill_leaves_nothing_behind(self, tmp_path):
        entries = _entries(tmp_path)
        entries.commit(_fill)

        def broken(staging, number):
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError, match="disk full"):
            entries.commit(broken)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["LATEST", "e-0000001"]

    def test_prune_keeps_the_pointed_entry(self, tmp_path):
        entries = _entries(tmp_path)
        for _ in range(4):
            entries.commit(_fill)
        (tmp_path / "LATEST").write_text("1\n")
        assert entries.prune(1) == [2, 3]
        assert entries.numbers() == [1, 4]
        with pytest.raises(ValueError, match="keep must be >= 1"):
            entries.prune(0)
