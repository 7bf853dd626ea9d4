import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import symkit.experiments as experiments
import symkit.field as field
from symkit.cli import DEFAULT_SEED, main
from symkit.experiments import run_verify
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

    def test_default_seed_reports_match_the_benchmark_reference(self, default_seed_run):
        # Every default-seed report of every suite verb against perfbench/reference,
        # under the benchmark's own rule: ids, verdicts and digests exactly, numbers
        # to 1e-9.  The verify, gradient and BLL reports carry every suite constant
        # in their digests, tolerances, standard errors or values (VERIFY_SHAPE only
        # in the rounding of verify-norm_preservation), so they stay pinned byte
        # for byte.
        workloads = _perfbench_module()
        assert sorted(v for verbs in workloads.SUITE_VERBS.values() for v in verbs) == sorted(experiments.VERBS)
        total = 0
        for workload, verbs in workloads.SUITE_VERBS.items():
            ids = _check_against_reference(workloads, workload, verbs, DEFAULT_SEED, default_seed_run)
            assert sorted(ids) == sorted(workloads.load_reference(workload)[str(DEFAULT_SEED)]), workload
            total += len(ids)
        assert total == 41

    @pytest.mark.parametrize("cseed", range(DEFAULT_SEED + 1, DEFAULT_SEED + 8))
    def test_pool_seed_reports_match_the_benchmark_reference(self, cseed, default_seed_run):
        # The other seven config seeds of the benchmark pool, under the same rule.
        # choquard, the slowest verb, stays at the default seed.
        workloads = _perfbench_module()
        assert cseed in map(workloads.config_seed, range(workloads.POOL))
        for workload, verbs in workloads.SUITE_VERBS.items():
            fast = [verb for verb in verbs if verb != "choquard"]
            _check_against_reference(workloads, workload, fast, cseed, default_seed_run)

    def test_refine_on_one_blas_thread_meets_the_benchmark_rule(self, tmp_path):
        # On one OpenBLAS thread refine-heat-trace-2d moves by about 1e-13 relative,
        # so its bytes are not kept (DECISIONS.md D22); every report must still
        # meet workloads.compare's rule against the benchmark reference.
        workloads = _perfbench_module()
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
        argv = [sys.executable, "-m", "symkit.cli", "--seed", str(DEFAULT_SEED), "--out", str(tmp_path), "refine"]
        run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        want = workloads.expected_verdicts("refine", DEFAULT_SEED)
        assert run.returncode == workloads.expected_exit(want), run.stderr
        assert sorted(p.stem for p in tmp_path.glob("*.json")) == sorted(want)
        reference = workloads.load_reference("audit")[str(DEFAULT_SEED)]
        for rep_id, verdict in want.items():
            rep = workloads.read_report(tmp_path / f"{rep_id}.json")
            assert rep["verdict"] == verdict, rep_id
            ref = reference[rep_id]
            assert workloads.compare(rep_id, rep, ref, workloads._scale(ref)) is None, rep_id

    def test_session_runs_raise_on_floating_point_errors(self, default_seed_run, monkeypatch):
        # __wrapped__ skips the session cache, so the stub runs and nothing is cached
        states = []
        monkeypatch.setattr(experiments, "run_verify", lambda seed: states.append(np.geterr()) or [])
        default_seed_run.__wrapped__("verify")
        assert states == [{"divide": "raise", "over": "raise", "under": "ignore", "invalid": "raise"}]


def _perfbench_module(name="workloads"):
    """A module of ``perfbench/``, loaded from its file without entering ``sys.modules``."""
    spec = importlib.util.spec_from_file_location(name, BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check_against_reference(workloads, workload, verbs, cseed, suite_run) -> list[str]:
    """Runs ``verbs`` at config seed ``cseed`` and checks every report against the
    benchmark: its id and verdict against ``expected_verdicts.json``, its payload
    against ``perfbench/reference`` by ``workloads.compare``, and the verify, gradient
    and BLL reports byte for byte.  Returns the report ids."""
    pinned = {"refine-gradient-1d", "refine-gradient-2d", "refine-bll-1d"}
    reference = workloads.load_reference(workload)[str(cseed)]
    ids = []
    for verb in verbs:
        want = workloads.expected_verdicts(verb, cseed)
        reports = suite_run(verb, cseed)[0]
        assert sorted(rep.experiment_id for rep in reports) == sorted(want), (verb, cseed)
        for rep in reports:
            assert rep.verdict == want[rep.experiment_id], (rep.experiment_id, cseed)
            payload = json.loads(json.dumps(asdict(rep)))
            payload.pop("wall_time_s")
            ref = reference[rep.experiment_id]
            diff = workloads.compare(rep.experiment_id, payload, ref, workloads._scale(ref))
            assert diff is None, f"{rep.experiment_id} at {cseed}: {diff}"
            if verb == "verify" or rep.experiment_id in pinned:
                assert payload == ref, (rep.experiment_id, cseed)
            ids.append(rep.experiment_id)
    return ids


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

    @pytest.mark.parametrize("chunk", [64, field._CHUNK])
    def test_file_verbs_match_the_benchmark_oracle(self, tmp_path, monkeypatch, capsys, chunk):
        # The audit workload's three inputs at small sizes, built by perfbench's
        # fieldio; its own oracle gives the bytes rearrange must write and the
        # values info must print, l1 and l2 to its INFO_RTOL.
        fieldio = _perfbench_module("fieldio")
        monkeypatch.setattr(field, "_CHUNK", chunk)
        rng = np.random.default_rng(5)
        for name, tag, shape, h in [
            ("plane", fieldio.FIELD_TAG, (40, 30), 0.004),
            ("cube", fieldio.FIELD_TAG, (9, 8, 7), 0.08),
            ("cube-set", fieldio.SET_TAG, (9, 8, 7), 0.08),
        ]:
            values = fieldio._make_values(rng, name, shape)
            lines = fieldio._lines(tag, values)
            src, dst = tmp_path / f"{name}.txt", tmp_path / f"{name}-out.txt"
            src.write_bytes(fieldio._text(tag, shape, h, lines))
            assert main(["rearrange", str(src), str(dst)]) == 0
            assert dst.read_bytes() == fieldio._text(tag, shape, h, fieldio._rearranged_lines(tag, values, lines))
            assert main(["info", str(dst)]) == 0
            got, want = json.loads(capsys.readouterr().out), fieldio._info(tag, shape, h, values)
            assert sorted(got) == sorted(want)
            for key, value in want.items():
                rtol = fieldio.INFO_RTOL.get(key)
                assert got[key] == value if rtol is None else math.isclose(got[key], value, rel_tol=rtol), key

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
