"""scripts/compare_reports.py, the byte-identity gate for refactors, and the file part of
scripts/run_full_suite.py that it checks."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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
    assert "differs: verify/x.json" in capsys.readouterr().out


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
