import dataclasses
import json
import math
import re

import numpy as np
import pytest

import symkit.experiments as experiments
from symkit import Grid, GridSet, ScalarField, cell_order, load, rearrange, save, set_symmetrize
from symkit.cli import main
from symkit.experiments import run_verify
from symkit.report import SCHEMA_TAG, ExperimentReport, SuiteConfig, load_config, write_reports


_DEFAULT_LADDER = [list(rung) for rung in SuiteConfig().ladder]


def _with_rung(i, rung):
    """The default ladder with rung i replaced (or, at its end, appended)."""
    return _DEFAULT_LADDER[:i] + [rung] + _DEFAULT_LADDER[i + 1 :]


def _corrupt_every_other_rearrange(monkeypatch):
    """Swap the first and last cells in cell order on every other ``rearrange`` call.

    ``verify`` rearranges f and then g for each case, so only f* is corrupted.
    """
    calls = [0]

    def mutant(f):
        out = rearrange(f)
        calls[0] += 1
        if calls[0] % 2 == 1 and out.grid.ncells >= 2:
            v = out.values.copy().ravel()
            order = cell_order(out.grid.shape)
            v[order[0]], v[order[-1]] = v[order[-1]], v[order[0]]
            out = ScalarField(out.grid, v.reshape(out.grid.shape))
        return out

    monkeypatch.setattr(experiments, "rearrange", mutant)


@pytest.fixture
def tiny_config(tmp_path):
    cfg = {
        "schema": SCHEMA_TAG,
        "seed": 11,
        "verify_cases": 15,
        "verify_shape_1d": 32,
        "verify_shape_2d": 8,
        "out_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestConfig:
    def test_schema_tag_required(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"seed": 1}))
        with pytest.raises(ValueError, match="schema"):
            load_config(p)

    def test_unknown_keys_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"schema": SCHEMA_TAG, "bogus": 1}))
        with pytest.raises(ValueError, match="unknown config keys"):
            load_config(p)

    def test_largest_seed_is_accepted(self):
        assert SuiteConfig(seed=2**64 - 1).seed == 2**64 - 1

    def test_ladder_must_halve(self):
        with pytest.raises(ValueError, match="halving"):
            SuiteConfig(ladder=((1, 128, 1 / 16), (1, 256, 1 / 16), (1, 512, 1 / 64)))


class TestFileVerbs:
    def test_rearrange_field_file(self, tmp_path):
        g = Grid((12,), 0.5)
        rng = np.random.default_rng(4)
        f = ScalarField(g, rng.normal(size=12))
        src, dst = tmp_path / "in.sk", tmp_path / "out.sk"
        save(f, src)
        assert main(["rearrange", str(src), str(dst)]) == 0
        out = load(dst)
        assert np.array_equal(out.values, rearrange(f).values)

    def test_rearrange_set_file(self, tmp_path):
        g = Grid((6, 6), 0.5)
        A = GridSet(g, np.arange(36).reshape(6, 6) % 5 == 0)
        src, dst = tmp_path / "a.sk", tmp_path / "b.sk"
        save(A, src)
        assert main(["rearrange", str(src), str(dst)]) == 0
        out = load(dst)
        assert np.array_equal(out.mask, set_symmetrize(A).mask)

    def test_bad_file_exit_code(self, tmp_path):
        bad = tmp_path / "bad.sk"
        bad.write_text("garbage\n")
        assert main(["rearrange", str(bad), str(tmp_path / "o.sk")]) == 2
        assert main(["info", str(bad)]) == 2

    def test_cell_count_beyond_int64_exit_code(self, tmp_path, capsys):
        big = tmp_path / "big.sk"
        big.write_text("SYMKIT-FIELD 1\n2\n4294967296 4294967296\n1.0\n")
        assert main(["info", str(big)]) == 2
        assert "cell-count mismatch" in capsys.readouterr().err

    def test_invalid_utf8_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bytes.sk"
        bad.write_bytes(b"SYMKIT-FIELD 1\n1\n2\n0.5\n\xc3(\n2.0\n")
        assert main(["info", str(bad)]) == 2
        assert main(["rearrange", str(bad), str(tmp_path / "o.sk")]) == 2
        assert "line 5: invalid UTF-8" in capsys.readouterr().err

    def test_info(self, tmp_path, capsys):
        g = Grid((8,), 0.25)
        save(ScalarField(g, np.arange(8.0)), tmp_path / "f.sk")
        assert main(["info", str(tmp_path / "f.sk")]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["dim"] == 1 and stats["shape"] == [8] and stats["kind"] == "field"


class TestSuiteVerbs:
    def test_verify_writes_reports_and_passes(self, tiny_config, tmp_path, capsys):
        assert main(["--config", str(tiny_config), "verify"]) == 0
        out = tmp_path / "out"
        summary = (out / "summary.csv").read_text().strip().splitlines()
        assert summary[0] == "id,verdict,value,tolerance"
        assert len(summary) > 5
        one = json.loads((out / "verify-pairing.json").read_text())
        assert one["verdict"] == "pass"
        assert "wall_time_s" in one

    def test_determinism_excluding_wall_time(self, tiny_config, tmp_path):
        cfg = load_config(tiny_config)
        a = dataclasses.replace(cfg, out_dir=str(tmp_path / "a"))
        b = dataclasses.replace(cfg, out_dir=str(tmp_path / "b"))
        write_reports(run_verify(a), a.out_dir)
        write_reports(run_verify(b), b.out_dir)
        for name in sorted(p.name for p in (tmp_path / "a").glob("*.json")):
            da = json.loads((tmp_path / "a" / name).read_text())
            db = json.loads((tmp_path / "b" / name).read_text())
            da.pop("wall_time_s"), db.pop("wall_time_s")
            assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)

    def test_corrupted_rearrange_fails_pairing(self, tiny_config, monkeypatch):
        cfg = load_config(tiny_config)
        _corrupt_every_other_rearrange(monkeypatch)
        reports = run_verify(cfg)
        by_id = {r.experiment_id: r for r in reports}
        assert by_id["verify-pairing"].verdict == "fail"
        assert by_id["verify-norm_preservation"].verdict == "pass"

    def test_empty_suite_vacuous_pass(self, tiny_config):
        cfg = dataclasses.replace(load_config(tiny_config), verify_cases=0)
        reports = run_verify(cfg)
        assert len(reports) == 1
        assert reports[0].verdict == "pass"
        assert reports[0].warnings

    def test_seed_override_changes_digest(self, tiny_config):
        cfg = load_config(tiny_config)
        a = run_verify(cfg)[0]
        b = run_verify(dataclasses.replace(cfg, seed=99))[0]
        assert a.inputs_digest != b.inputs_digest

    def test_bad_config_exit_code(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"schema": "nope"}))
        assert main(["--config", str(p), "verify"]) == 2

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("verify_shape_2d", 0, "verify_shape_2d must be at least 1"),
            ("seed", 1.5, "seed must be an integer"),
            ("n_bumps", 0, "n_bumps must be at least 1"),
        ],
        ids=["zero_2d_shape", "fractional_seed", "zero_bumps"],
    )
    def test_bad_integer_key_exit_code(self, tiny_config, capsys, key, value, message):
        cfg = json.loads(tiny_config.read_text())
        cfg[key] = value
        tiny_config.write_text(json.dumps(cfg))
        assert main(["--config", str(tiny_config), "verify"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("contraction_factor", "0.7", "contraction_factor must be a real number"),
            ("final_violation_fraction", math.nan, "final_violation_fraction must be finite"),
            ("support_fraction", True, "support_fraction must be a real number"),
            ("contraction_factor", 1.5, "contraction_factor must be finite and in (0, 1]"),
        ],
        ids=[
            "string_contraction", "nan_violation_fraction", "bool_support", "contraction_above_one"
        ],
    )
    def test_bad_float_key_exit_code(self, tiny_config, capsys, key, value, message):
        cfg = json.loads(tiny_config.read_text())
        cfg[key] = value
        tiny_config.write_text(json.dumps(cfg))
        assert main(["--config", str(tiny_config), "verify"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            (None, [], "config must be a JSON object, got list"),
            ("out_dir", 5, "out_dir must be a string"),
            ("ladder", 5, "ladder must be a list of (d, n, h) rungs"),
            ("ladder", [[1, 128, None]], "ladder spacing must be a real number"),
            ("ladder", _with_rung(0, [1, 128, 0.0625, 1]), "ladder rung must be a (d, n, h) triple"),
            ("ladder", _with_rung(0, [1, 128.9, 0.0625]), "ladder extent must be an integer"),
            ("ladder", _with_rung(0, [True, 128, 0.0625]), "ladder dimension must be 1 or 2"),
            ("ladder", _with_rung(6, [4, 8, 0.5]), "ladder dimension must be 1 or 2"),
            ("ladder", _with_rung(0, [1, 128, math.nan]), "ladder spacing must be a finite"),
            ("ladder", _DEFAULT_LADDER[3:], "ladder for d=1 must have at least 3 rungs"),
            # a Philox key has 64 bits: 2^64 would run the inputs of seed 0
            ("seed", 2**64, "seed must be at most 2**64 - 1"),
            ("--seed", 2**64, "seed must be at most 2**64 - 1"),
        ],
        ids=[
            "top_level_list", "integer_out_dir", "integer_ladder", "null_spacing",
            "four_entry_rung", "fractional_extent", "bool_dimension", "dimension_four",
            "nan_spacing", "no_1d_rungs", "seed_above_64_bits", "seed_flag_above_64_bits",
        ],
    )
    def test_bad_config_document_exit_code(self, tiny_config, capsys, key, value, message):
        # a key starting with "--" is a command-line flag, not a config key
        cfg = json.loads(tiny_config.read_text())
        flags = []
        if key is None:
            cfg = value
        elif key.startswith("--"):
            flags = [key, str(value)]
        else:
            cfg[key] = value
        tiny_config.write_text(json.dumps(cfg))
        assert main(["--config", str(tiny_config), *flags, "verify"]) == 2
        assert message in capsys.readouterr().err

    def test_unknown_inequality_exit_code(self, tiny_config):
        assert main(["--config", str(tiny_config), "refine", "--inequality", "bogus"]) == 2

    def test_repeated_inequality_runs_once(self, tiny_config, tmp_path, capsys):
        argv = ["--config", str(tiny_config), "refine"]
        for ineq in ("hls-quotient", "young-quotient", "hls-quotient", "young-quotient"):
            argv += ["--inequality", ineq]
        assert main(argv) == 0
        printed = [ln.split()[-1] for ln in capsys.readouterr().out.splitlines()[:-1]]
        assert printed == ["refine-hls-quotient-1d", "refine-young-quotient-1d"]
        rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == printed

    def test_usage_error_creates_no_output_directory(self, tiny_config, tmp_path):
        assert main(["--config", str(tiny_config), "refine", "--inequality", "bogus"]) == 2
        assert not (tmp_path / "out").exists()

    def test_jobs_flag_accepted(self, tiny_config):
        assert main(["--config", str(tiny_config), "--jobs", "2", "verify"]) == 0

    def test_out_naming_a_file_exits_before_running(self, tiny_config, tmp_path, monkeypatch, capsys):
        import symkit.cli as cli_mod

        def no_run(config):
            raise AssertionError("an experiment ran")

        monkeypatch.setattr(cli_mod.experiments, "run_verify", no_run)
        afile = tmp_path / "afile"
        afile.write_text("not a directory\n")
        assert main(["--config", str(tiny_config), "--out", str(afile), "verify"]) == 2
        assert "symkit: output directory" in capsys.readouterr().err
        assert afile.read_text() == "not a directory\n"

    def test_runner_is_looked_up_when_the_verb_runs(self, tmp_path, monkeypatch, capsys):
        canned = ExperimentReport(experiment_id="canned-spectral", values={"x": 1.0})
        monkeypatch.setattr(experiments, "run_spectral", lambda config: [canned])
        assert main(["--out", str(tmp_path), "spectral"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "pass       canned-spectral"
        assert lines[1].endswith("(1 experiments, 0 failures)")
        assert json.loads((tmp_path / "canned-spectral.json").read_text())["values"] == {"x": 1.0}

    def test_help_lists_the_verb_table_then_the_file_verbs(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        listed = re.search(r"\{([^}]*)\}", capsys.readouterr().out).group(1).split(",")
        assert listed == [*experiments.VERBS, "rearrange", "info"]

    def test_exit_code_propagates_failures(self, tiny_config, tmp_path, monkeypatch):
        _corrupt_every_other_rearrange(monkeypatch)
        assert main(["--config", str(tiny_config), "verify"]) == 1
