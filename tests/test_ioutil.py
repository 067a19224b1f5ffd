"""Tests for atomic artifact writes (repro.ioutil)."""

import os

import pytest

from repro.ioutil import atomic_open, atomic_write_text


def test_atomic_write_text_roundtrip(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "hello\n")
    assert path.read_text() == "hello\n"


def test_atomic_write_replaces_existing(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    atomic_write_text(path, "new")
    assert path.read_text() == "new"


def test_atomic_open_creates_parent_dirs(tmp_path):
    path = tmp_path / "deep" / "nested" / "out.txt"
    atomic_write_text(path, "x")
    assert path.read_text() == "x"


def test_failed_write_leaves_target_and_no_temp(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("precious")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write("partial garbage")
            raise RuntimeError("simulated crash mid-write")
    # The original survives untouched and the temp file is cleaned up.
    assert path.read_text() == "precious"
    assert os.listdir(tmp_path) == ["out.txt"]
