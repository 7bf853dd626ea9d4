"""One workload process: time ``import symkit.cli``, then run one pass of CLI calls.

Usage: ``python3 perfbench/child.py PASS_DIR`` with ``PYTHONPATH=src``.  The
parent writes ``PASS_DIR/job.json`` ({"ops": [argv, ...], "trace": bool,
"run_id": str}); this process writes ``PASS_DIR/result.json`` and, when
tracing, ``PASS_DIR/spans.json``.  An empty op list only measures set-up.

Nothing heavier than ``sys``, ``os`` and ``time`` is imported before the
timed import, so the set-up sample is what a fresh ``symkit`` process pays.
"""

import os
import sys
import time

t_import = time.perf_counter()
import symkit.cli  # noqa: E402

setup_s = time.perf_counter() - t_import

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import traceback  # noqa: E402

def _openblas_libs() -> list[dict]:
    """Version and thread count of every OpenBLAS loaded (numpy and scipy each bundle one)."""
    with open("/proc/self/maps") as fh:
        paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in itertools.product(("openblas_", "scipy_openblas_"), ("", "64_")):
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                out.append(
                    {
                        "library": os.path.basename(path),
                        "config": get_config().decode(),
                        "threads": get_threads(),
                    }
                )
                break
    return out


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_libs(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if "THREADS" in k},
    }


def run_ops(ops: list) -> tuple[list, float]:
    """Call ``symkit.cli.main`` for each argv; returns per-op records and the pass wall time."""
    records = []
    t0 = time.perf_counter()
    for argv in ops:
        buf = io.StringIO()
        rec = {"argv": argv, "exit_code": None, "error": None}
        t_op = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rec["exit_code"] = symkit.cli.main(argv)
        except SystemExit as exc:
            rec["exit_code"] = exc.code
        except Exception:
            rec["error"] = traceback.format_exc()
        rec["wall_s"] = time.perf_counter() - t_op
        rec["stdout"] = buf.getvalue()
        records.append(rec)
    return records, time.perf_counter() - t0


def main(pass_dir: str) -> int:
    with open(os.path.join(pass_dir, "job.json")) as fh:
        job = json.load(fh)
    env = environment()
    result = {"setup_s": setup_s, "env": env, "refused": None}
    blas_threads = max((lib["threads"] for lib in env["openblas"]), default=0)
    if blas_threads > env["nproc"]:
        result["refused"] = f"BLAS uses {blas_threads} threads but nproc is {env['nproc']}"
    elif job["ops"]:
        tracer = None
        if job["trace"]:
            import spans

            tracer = spans.Tracer(job["run_id"])
            spans.install(tracer)
        result["ops"], result["wall_s"] = run_ops(job["ops"])
        if tracer is not None:
            cell_order = sys.modules["symkit.rearrange"].cell_order
            result["cell_order_cache"] = cell_order.cache_info()._asdict()
            tracer.dump(os.path.join(pass_dir, "spans.json"))
    with open(os.path.join(pass_dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 3 if result["refused"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
