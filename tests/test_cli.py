import importlib.util
import json
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import symkit.experiments as experiments
from symkit.cli import DEFAULT_SEED, main
from symkit.experiments import _contract_report, _refine_bll, _refine_young, run_verify
from symkit.field import Grid, GridSet, ScalarField, load, save
from symkit.rearrange import cell_order, rearrange, set_symmetrize
from symkit.report import ExperimentReport, write_reports

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


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


def _stub_verify(monkeypatch, verdict="pass"):
    """Replace ``run_verify`` by a one-report stub; returns the seeds it was called with."""
    seeds = []

    def stub(seed):
        seeds.append(seed)
        return [ExperimentReport(experiment_id="stub-verify", verdict=verdict)]

    monkeypatch.setattr(experiments, "run_verify", stub)
    return seeds


def _exit_code(argv) -> int:
    """The exit code of ``main``, whether it returns it or argparse raises it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestConfig:
    """The seed is the one suite input a run sets; sizes and tolerances are constants."""

    def test_largest_seed_is_accepted(self, tmp_path, monkeypatch):
        seeds = _stub_verify(monkeypatch)
        assert main(["--seed", str(2**64 - 1), "--out", str(tmp_path), "verify"]) == 0
        assert seeds == [2**64 - 1]

    def test_default_seed_reports_match_the_benchmark_reference(self):
        # These reports carry every suite constant in their digests, tolerances,
        # standard errors or values (VERIFY_SHAPE only in the rounding of
        # verify-norm_preservation), so a moved constant shows here.
        spec = importlib.util.spec_from_file_location("workloads", BENCH_DIR / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        reference = workloads.load_reference("audit")[str(DEFAULT_SEED)]
        reports = run_verify(DEFAULT_SEED)
        reports += [_contract_report(DEFAULT_SEED, "gradient", d) for d in (1, 2)]
        reports += [_refine_young(DEFAULT_SEED), _refine_bll(DEFAULT_SEED)]
        assert len(reports) == 15
        for rep in reports:
            payload = json.loads(json.dumps(asdict(rep)))
            payload.pop("wall_time_s")
            ref = reference[rep.experiment_id]
            if rep.experiment_id == "refine-young-quotient-1d":
                # its quotients sit one ulp from the stored ones; the benchmark's rule accepts that
                scale = workloads._scale(ref)
                assert workloads.compare(rep.experiment_id, payload, ref, scale) is None
            else:
                assert payload == ref, rep.experiment_id


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
    def test_verify_writes_reports_and_passes(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--out", str(out), "verify"]) == 0
        # one JSON per report and nothing else (DECISIONS.md D16)
        names = sorted(p.name for p in out.iterdir())
        assert len(names) == 11 and all(re.fullmatch(r"verify-\w+\.json", n) for n in names)
        one = json.loads((out / "verify-pairing.json").read_text())
        assert one["verdict"] == "pass"
        assert "wall_time_s" in one

    def test_determinism_excluding_wall_time(self, tmp_path):
        write_reports(run_verify(11), tmp_path / "a")
        write_reports(run_verify(11), tmp_path / "b")
        for name in sorted(p.name for p in (tmp_path / "a").glob("*.json")):
            da = json.loads((tmp_path / "a" / name).read_text())
            db = json.loads((tmp_path / "b" / name).read_text())
            da.pop("wall_time_s"), db.pop("wall_time_s")
            assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)

    def test_corrupted_rearrange_fails_pairing(self, monkeypatch):
        _corrupt_every_other_rearrange(monkeypatch)
        by_id = {r.experiment_id: r for r in run_verify(DEFAULT_SEED)}
        assert by_id["verify-pairing"].verdict == "fail"
        assert by_id["verify-norm_preservation"].verdict == "pass"

    def test_seed_override_changes_digest(self, tmp_path):
        digests = []
        for flags in ([], ["--seed", "99"]):
            out = tmp_path / str(len(digests))
            # exit 1 is a fail verdict, not a usage error: spectral-heat-trace-random is red at seed 99
            assert main([*flags, "--out", str(out), "spectral"]) in (0, 1)
            rep = json.loads((out / "spectral-heat-trace-random.json").read_text())
            digests.append(rep["inputs_digest"])
        assert digests[0] != digests[1]

    def test_bad_config_exit_code(self, tmp_path):
        # the config file is gone (DECISIONS.md D15): --config is a usage error
        assert _exit_code(["--config", "x", "--out", str(tmp_path / "out"), "verify"]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seed", "-1"], "seed must be at least 0"),
            # a Philox key has 64 bits: 2^64 would run the inputs of seed 0
            (["--seed", str(2**64)], "seed must be at most 2**64 - 1"),
            (["--seed", "1.5"], "invalid int value"),
            (["--jobs", "0"], "jobs must be at least 1"),
        ],
        ids=["negative_seed", "seed_above_64_bits", "fractional_seed", "zero_jobs"],
    )
    def test_bad_flag_exit_code(self, tmp_path, monkeypatch, capsys, flags, message):
        seeds = _stub_verify(monkeypatch)
        assert _exit_code([*flags, "--out", str(tmp_path / "out"), "verify"]) == 2
        assert message in capsys.readouterr().err
        assert seeds == []
        assert not (tmp_path / "out").exists()

    def test_usage_error_creates_no_output_directory(self, tmp_path, monkeypatch):
        # refine takes no --inequality ids (DECISIONS.md D16): every verb runs whole
        seeds = []
        monkeypatch.setattr(experiments, "run_refine", lambda seed: seeds.append(seed) or [])
        argv = ["--out", str(tmp_path / "out"), "refine", "--inequality", "gradient"]
        assert _exit_code(argv) == 2
        assert not (tmp_path / "out").exists()
        assert seeds == []

    def test_jobs_flag_accepted(self, tmp_path, monkeypatch):
        seeds = _stub_verify(monkeypatch)
        assert main(["--out", str(tmp_path), "--jobs", "2", "verify"]) == 0
        assert seeds == [DEFAULT_SEED]

    def test_out_naming_a_file_exits_before_running(self, tmp_path, monkeypatch, capsys):
        seeds = _stub_verify(monkeypatch)
        afile = tmp_path / "afile"
        afile.write_text("not a directory\n")
        assert main(["--out", str(afile), "verify"]) == 2
        assert "symkit: output directory" in capsys.readouterr().err
        assert afile.read_text() == "not a directory\n"
        assert seeds == []

    def test_runner_is_looked_up_when_the_verb_runs(self, tmp_path, monkeypatch, capsys):
        canned = ExperimentReport(experiment_id="canned-spectral", values={"x": 1.0})
        monkeypatch.setattr(experiments, "run_spectral", lambda seed: [canned])
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

    def test_exit_code_propagates_failures(self, tmp_path, monkeypatch):
        _stub_verify(monkeypatch, verdict="fail")
        assert main(["--out", str(tmp_path), "verify"]) == 1
