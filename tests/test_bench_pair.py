"""The accuracy comparison of tools/bench_pair.py: which result files of two runs match."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "bench_pair", Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)


def _dir(path, files):
    path.mkdir()
    for name, text in files.items():
        (path / name).write_text(text)
    return path


def test_files_of_either_side_are_compared(tmp_path):
    a = _dir(tmp_path / "a", {"same.csv": "1\n", "moved.csv": "1\n", "gone.json": "{}"})
    b = _dir(tmp_path / "b", {"same.csv": "1\n", "moved.csv": "2\n", "new.csv": "1\n"})
    want = {"gone.json": False, "moved.csv": False, "new.csv": False, "same.csv": True}
    assert bench_pair.files_identical(a, b) == want
    assert bench_pair.files_identical(b, a) == want


def test_a_missing_directory_holds_no_files(tmp_path):
    # a run stopped by an ERROR line leaves no --out directory
    a = _dir(tmp_path / "a", {"track.csv": "1\n"})
    none = tmp_path / "none"
    assert bench_pair.files_identical(none, a) == {"track.csv": False}
    assert bench_pair.files_identical(a, none) == {"track.csv": False}
    assert bench_pair.files_identical(none, tmp_path / "none either") == {}
