"""scripts/compare_reports.py, the byte-identity gate for refactors, and the file part of
scripts/run_full_suite.py that it checks."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_REPO = Path(__file__).resolve().parents[1]
_SCRIPTS = _REPO / "scripts"


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_reports = _load_script("compare_reports")


def _report(wall: float, value: float = 1.5) -> str:
    return f'{{\n "experiment_id": "x",\n "values": {{\n  "v": {value}\n }},\n "wall_time_s": {wall}\n}}\n'


@pytest.fixture
def dirs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "verify").mkdir(parents=True)
        (root / "files").mkdir()
        (root / "files" / "field.sk").write_text("SYMKIT-FIELD 1\n1\n2\n0.5\n1.5\n-1.5\n")
    return a, b


def test_equal_directories(dirs):
    a, b = dirs
    for root in dirs:
        (root / "verify" / "x.json").write_text(_report(0.25))
    assert compare_reports.main([str(a), str(b)]) == 0


def test_only_wall_time_differs(dirs):
    a, b = dirs
    (a / "verify" / "x.json").write_text(_report(0.25))
    (b / "verify" / "x.json").write_text(_report(3.75))
    assert compare_reports.main([str(a), str(b)]) == 0


def test_changed_value_is_named(dirs, capsys):
    a, b = dirs
    (a / "verify" / "x.json").write_text(_report(0.25, 1.5))
    (b / "verify" / "x.json").write_text(_report(0.25, 1.5000000000000002))
    assert compare_reports.main([str(a), str(b)]) == 1
    assert "differs: verify/x.json at values.v: 1.5 vs 1.5000000000000002\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "left, right, where",
    [
        # the first differing path in the left file's key order, then keys only on the right
        ({"a": [1.0, {"b": 0.0}], "c": 1}, {"a": [1.0, {"b": -0.0}], "c": 2}, "a[1].b: 0.0 vs -0.0"),
        ({"a": [1.0]}, {"a": [1.0, 2.0]}, "a[1]: <missing> vs 2.0"),
        ({"a": 1, "wall_time_s": 0.5}, {"a": 1, "wall_time_s": 0.7, "z": None}, "z: <missing> vs null"),
        ({"a": float("nan"), "b": 1}, {"a": float("nan"), "b": 1.0}, "b: 1 vs 1.0"),
    ],
)
def test_first_differing_key_path(dirs, capsys, left, right, where):
    a, b = dirs
    (a / "verify" / "x.json").write_text(json.dumps(left))
    (b / "verify" / "x.json").write_text(json.dumps(right))
    assert compare_reports.compare(a, b) == [f"differs: verify/x.json at {where}"]


def test_differing_bytes_without_a_differing_key(dirs):
    # key order, or a file that does not parse: the file alone is named
    a, b = dirs
    (a / "verify" / "x.json").write_text('{"a": 1, "b": 2}')
    (b / "verify" / "x.json").write_text('{"b": 2, "a": 1}')
    (a / "verify" / "y.json").write_text('{"a": 1')
    (b / "verify" / "y.json").write_text('{"a": 2')
    assert compare_reports.compare(a, b) == ["differs: verify/x.json", "differs: verify/y.json"]


def test_file_on_one_side_only(dirs, capsys):
    a, b = dirs
    (a / "verify" / "x.json").write_text(_report(0.25))
    assert compare_reports.main([str(a), str(b)]) == 1
    assert f"only in {a}: verify/x.json" in capsys.readouterr().out


def test_non_directory_argument(dirs, capsys):
    a, _ = dirs
    assert compare_reports.main([str(a), str(a / "files" / "field.sk")]) == 2
    assert "not a directory" in capsys.readouterr().err


def test_field_files_are_reproducible(tmp_path):
    run_full_suite = _load_script("run_full_suite")
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        assert run_full_suite.write_field_files(root) == 0
    names = {p.name for p in a.iterdir()}
    assert names == {
        f"{stem}{suffix}"
        for stem in ("field", "field.rearranged", "set", "set.rearranged")
        for suffix in (".sk", ".info.json")
    }
    assert '"kind": "set"' in (a / "set.rearranged.info.json").read_text()
    assert compare_reports.compare(a, b) == []


def test_runs_under_different_thread_settings_differ(tmp_path, monkeypatch, capsys):
    run_full_suite = _load_script("run_full_suite")
    a, b, old = tmp_path / "a", tmp_path / "b", tmp_path / "old"
    old.mkdir()  # a run by a script that wrote no threads.txt
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    assert run_full_suite.write_threads(a) == "OPENBLAS_NUM_THREADS=2 OMP_NUM_THREADS=unset"
    run_full_suite.write_threads(b)
    assert compare_reports.compare(a, b) == []
    assert compare_reports.compare(old, a) == [f"only in {a}: threads.txt"]
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    run_full_suite.write_threads(b)
    assert compare_reports.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == ["differs: threads.txt", "1 files compared, 1 differences"]


def test_full_suite_imports_its_own_tree(tmp_path):
    # A decoy package ahead on PYTHONPATH stands for another tree's or an installed symkit.
    decoy = tmp_path / "decoy" / "symkit"
    decoy.mkdir(parents=True)
    (decoy / "__init__.py").write_text("raise ImportError('decoy symkit')\n")
    code = (
        "import runpy, sys\n"
        f"runpy.run_path({str(_SCRIPTS / 'run_full_suite.py')!r})\n"
        "print(sys.modules['symkit'].__file__)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(decoy.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, check=True
    ).stdout
    assert Path(out.strip()) == _REPO / "src" / "symkit" / "__init__.py"
