"""scripts/bench.py loads and records its environment without scipy, the tests' oracle."""

import importlib.util
import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"

# BENCH files are compared case by case, by these names
CASE_NAMES = [
    "cli_import",
    "convolve_128x128.reused_kernel",
    "convolve_128x128.fresh_kernel",
    "convolve_32x32x32.reused_kernel",
    "convolve_32x32x32.fresh_kernel",
    "convolve_32x32x32.shared_helper",
    "forward_diffs_kinetic_gradient_of_32x32x32",
    "gradient_pnorm_32x32x32",
    "choquard_descent_32x32x32.10_steps",
    "rearrange_1000x1000",
    "dirichlet_lambda1_disk_4104",
    "dirichlet_lambda1_disk_h128",
    "dirichlet_lambda1_square_4096",
    "dirichlet_eigenvalues_64x64",
    "dirichlet_eigenvalues_dense_disk_1605",
    "bll_integral_1e6_samples",
    "bump_field_64x64.heat_trace_v",
    "bump_field_16x16.verify",
    "fractional_seminorm_64x64.fft",
    "continuity_probe_64x64.plateau_wsp",
    "field_save_1e6",
    "field_load_1e6",
    "field_save_1e6.plane",
    "field_load_1e6.plane",
    "field_save_set_1e6",
    "field_load_set_1e6",
]


def test_loads_without_scipy(monkeypatch):
    # a None entry makes every `import scipy` raise ImportError, as on an
    # install without the test extra
    monkeypatch.setitem(sys.modules, "scipy", None)
    spec = importlib.util.spec_from_file_location("bench", _BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench._scipy_version() is None
    assert list(bench.CASES) == CASE_NAMES
