"""scripts/compare_reports.py, the byte-identity gate for refactors."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"
_spec = importlib.util.spec_from_file_location("compare_reports", _SCRIPT)
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)


def _report(wall: float, value: float = 1.5) -> str:
    return f'{{\n "experiment_id": "x",\n "values": {{\n  "v": {value}\n }},\n "wall_time_s": {wall}\n}}\n'


@pytest.fixture
def dirs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "verify").mkdir(parents=True)
        (root / "verify" / "summary.csv").write_text("id,verdict,value,tolerance\nx,pass,1.5,\n")
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
    assert compare_reports.main([str(a), str(a / "verify" / "summary.csv")]) == 2
    assert "not a directory" in capsys.readouterr().err
