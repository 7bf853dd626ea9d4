"""Spans around calls into each symkit layer, and the per-layer metrics derived from them.

``install`` wraps every public function of every layer module and rebinds the
wrapper wherever the original is bound in a ``symkit`` module, so that
``from .functionals import convolve`` in ``choquard`` is traced as well as
``functionals.convolve``.  Spans stay in memory and are written out once, at
the end of the pass.  A span's self time is its duration minus the time its
child spans cover.  Nothing here changes what the program computes.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import statistics
import sys
import time

import workloads

LAYERS = (
    "rearrange",
    "functionals",
    "kernels",
    "spectral",
    "stability",
    "choquard",
    "random_fields",
    "field",
    "report",
    "sharp",
    "experiments",
    "cli",
)


def _convolve_attrs(tracer, args, kwargs, result):
    kernel = kwargs["kernel"] if "kernel" in kwargs else args[0]
    f = kwargs["f"] if "f" in kwargs else args[1]
    points = 1
    for n, k in zip(f.grid.shape, kernel.grid.shape):
        points *= n + k - 1
    return {"fft_points": points, "kernel": tracer.kernel_digest(kernel)}


def _cells_of_domain(tracer, args, kwargs, result):
    omega = kwargs["omega"] if "omega" in kwargs else args[0]
    return {"cells": omega.count()}


def _file_bytes(path):
    return os.path.getsize(path)


def _payload_bytes(out_dir):
    """Bytes of the written reports without their ``wall_time_s`` lines, which vary."""
    return sum(len(b) for b in workloads.payload_bytes(out_dir).values())


# Work counters recorded at the layer boundary, from the arguments and results.
ATTRS = {
    "functionals.convolve": _convolve_attrs,
    "functionals.bll_integral": lambda t, a, k, r: {
        "samples": k["samples"] if "samples" in k else a[1]
    },
    "spectral.dirichlet_spectrum": _cells_of_domain,
    "spectral.dirichlet_eigenvalues": _cells_of_domain,
    "rearrange.rearrange": lambda t, a, k, r: {"cells": r.grid.ncells},
    "field.load": lambda t, a, k, r: {"values": r.grid.ncells, "bytes": _file_bytes(a[0])},
    "field.save": lambda t, a, k, r: {"bytes": _file_bytes(a[1])},
    "report.write_reports": lambda t, a, k, r: {"bytes": _payload_bytes(r)},
}


class Tracer:
    """Records (name, start, end, parent, run id, counters) for every wrapped call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._kernels: dict[int, tuple[object, str]] = {}

    def kernel_digest(self, kernel) -> str:
        """Content digest of a kernel field; the object is kept so its id is not reused."""
        key = id(kernel.values)
        if key not in self._kernels:
            h = hashlib.blake2b(digest_size=16)
            h.update(repr((kernel.grid.shape, kernel.grid.h)).encode())
            h.update(kernel.values.tobytes())
            self._kernels[key] = (kernel.values, h.hexdigest())
        return self._kernels[key][1]

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "run_id": self.run_id,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(self, args, kwargs, result))
            return result

        if hasattr(fn, "cache_info"):  # keep an lru_cache's statistics reachable
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer, at every binding inside ``symkit``."""
    modules = {layer: importlib.import_module(f"symkit.{layer}") for layer in LAYERS}
    wrapped: dict[int, tuple[object, object]] = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            wrapped[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
    for mod in [sys.modules["symkit"], *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])


# ----------------------------------------------------------------------------
# per-layer metrics (computed from a spans file, in the benchmark's parent)
# ----------------------------------------------------------------------------

# Self-time buckets: metric prefix -> span names whose self time it sums.
GROUPS = {
    "functionals.convolve": ("functionals.convolve",),
    "functionals.bll_integral": ("functionals.bll_integral",),
    "functionals.gradient": (
        "functionals.gradient_pnorm",
        "functionals.kinetic_gradient",
        "functionals.gradient_magnitude",
    ),
    "kernels.sample_kernel": ("kernels.sample_kernel",),
    "spectral.dirichlet_spectrum": ("spectral.dirichlet_spectrum",),
    "spectral.dirichlet_eigenvalues": ("spectral.dirichlet_eigenvalues",),
    "rearrange.rearrange": ("rearrange.rearrange",),
    "rearrange.set_symmetrize": ("rearrange.set_symmetrize",),
    "stability.asymmetry": ("stability.asymmetry", "stability.asymmetry_search"),
    "stability.asymmetry_bruteforce": ("stability.asymmetry_bruteforce",),
    "stability.continuity_probe": ("stability.continuity_probe",),
    "choquard.choquard_descent": ("choquard.choquard_descent",),
    "field.load": ("field.load",),
    "field.save": ("field.save",),
    "report.write_reports": ("report.write_reports",),
}
# Layers reported as one self-time total; the rest get an ".other" bucket for
# the public functions no group above names.
WHOLE_LAYERS = ("random_fields", "sharp", "experiments", "cli")
OTHER_LAYERS = ("functionals", "kernels", "spectral", "rearrange", "stability", "field", "report")
RUNNERS = (
    "run_verify",
    "run_refine",
    "run_stability",
    "run_probe_continuity",
    "run_spectral",
    "run_choquard",
)

# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer list.
METRICS: dict[str, tuple[str, str]] = {
    "functionals.convolve.calls": ("count", "lower"),
    "functionals.convolve.self_s": ("s", "lower"),
    "functionals.convolve.fft_points": ("points", "lower"),
    "functionals.convolve.kernel_reuse_ratio": ("ratio", "higher"),
    "kernels.sample_kernel.calls": ("count", "lower"),
    "kernels.sample_kernel.self_s": ("s", "lower"),
    "functionals.fractional_seminorm.direct.calls": ("count", "lower"),
    "functionals.fractional_seminorm.direct.self_s": ("s", "lower"),
    "functionals.fractional_seminorm.fft.calls": ("count", "lower"),
    "functionals.fractional_seminorm.fft.self_s": ("s", "lower"),
    "functionals.bll_integral.calls": ("count", "lower"),
    "functionals.bll_integral.samples": ("count", "lower"),
    "functionals.bll_integral.self_s": ("s", "lower"),
    "functionals.gradient.self_s": ("s", "lower"),
    "functionals.other.self_s": ("s", "lower"),
    "spectral.dirichlet_spectrum.calls": ("count", "lower"),
    "spectral.dirichlet_spectrum.self_s": ("s", "lower"),
    "spectral.dirichlet_spectrum.max_cells": ("cells", "lower"),
    "spectral.dirichlet_eigenvalues.calls": ("count", "lower"),
    "spectral.dirichlet_eigenvalues.self_s": ("s", "lower"),
    "spectral.dirichlet_eigenvalues.cells": ("cells", "lower"),
    "spectral.dense_bytes": ("bytes-computed", "lower"),
    "rearrange.rearrange.calls": ("count", "lower"),
    "rearrange.rearrange.cells": ("cells", "lower"),
    "rearrange.rearrange.self_s": ("s", "lower"),
    "rearrange.set_symmetrize.self_s": ("s", "lower"),
    "rearrange.cell_order.misses": ("count", "lower"),
    "rearrange.cell_order.hit_ratio": ("ratio", "higher"),
    "stability.asymmetry.self_s": ("s", "lower"),
    "stability.asymmetry_bruteforce.self_s": ("s", "lower"),
    "stability.continuity_probe.self_s": ("s", "lower"),
    "choquard.choquard_descent.self_s": ("s", "lower"),
    "field.load.calls": ("count", "lower"),
    "field.load.values": ("count", "lower"),
    "field.load.bytes": ("bytes", "lower"),
    "field.load.self_s": ("s", "lower"),
    "field.save.calls": ("count", "lower"),
    "field.save.bytes": ("bytes", "lower"),
    "field.save.self_s": ("s", "lower"),
    "random_fields.self_s": ("s", "lower"),
    "sharp.self_s": ("s", "lower"),
    "report.write_reports.self_s": ("s", "lower"),
    "report.write_reports.bytes": ("bytes", "lower"),
    **{f"experiments.{r}.wall_s": ("s", "lower") for r in RUNNERS},
    "experiments.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    **{f"{layer}.other.self_s": ("s", "lower") for layer in OTHER_LAYERS if layer != "functionals"},
    "trace.layer_coverage": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}

# Counts that must repeat exactly between two traced passes of the same inputs.
COUNTS = tuple(
    name
    for name, (unit, _) in METRICS.items()
    if unit in ("count", "points", "cells", "bytes", "bytes-computed")
)


def load_spans(path: str) -> list[dict]:
    with open(path) as fh:
        return json.load(fh)["spans"]


def layer_metrics(spans: list[dict], pass_wall_s: float, cell_order_cache: dict) -> dict:
    """Every per-layer metric but ``trace.overhead_s``, from one traced pass."""
    child_time = [0.0] * len(spans)
    children: list[list[str]] = [[] for _ in spans]
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
            children[s["parent"]].append(s["name"])
    self_s = {}
    for s in spans:
        self_s[s["id"]] = (s["end"] - s["start"]) - child_time[s["id"]]

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def total_self(group):
        return sum(self_s[s["id"]] for s in group)

    m: dict[str, float] = {}
    grouped = set()
    for prefix, names in GROUPS.items():
        m[f"{prefix}.self_s"] = total_self(named(*names))
        grouped.update(names)

    conv = named("functionals.convolve")
    m["functionals.convolve.calls"] = len(conv)
    m["functionals.convolve.fft_points"] = sum(s["fft_points"] for s in conv)
    distinct = len({s["kernel"] for s in conv})
    m["functionals.convolve.kernel_reuse_ratio"] = 1.0 - distinct / len(conv) if conv else 0.0
    m["kernels.sample_kernel.calls"] = len(named("kernels.sample_kernel"))

    # the route is read from the trace: the fft route makes child convolve calls
    semi = named("functionals.fractional_seminorm")
    for route, is_fft in (("direct", False), ("fft", True)):
        group = [s for s in semi if ("functionals.convolve" in children[s["id"]]) == is_fft]
        m[f"functionals.fractional_seminorm.{route}.calls"] = len(group)
        m[f"functionals.fractional_seminorm.{route}.self_s"] = total_self(group)
    grouped.add("functionals.fractional_seminorm")

    bll = named("functionals.bll_integral")
    m["functionals.bll_integral.calls"] = len(bll)
    m["functionals.bll_integral.samples"] = sum(s["samples"] for s in bll)

    spec = named("spectral.dirichlet_spectrum")
    eig = named("spectral.dirichlet_eigenvalues")
    m["spectral.dirichlet_spectrum.calls"] = len(spec)
    m["spectral.dirichlet_spectrum.max_cells"] = max((s["cells"] for s in spec), default=0)
    m["spectral.dirichlet_eigenvalues.calls"] = len(eig)
    m["spectral.dirichlet_eigenvalues.cells"] = sum(s["cells"] for s in eig)
    m["spectral.dense_bytes"] = sum(8 * s["cells"] ** 2 for s in spec + eig)

    rea = named("rearrange.rearrange")
    m["rearrange.rearrange.calls"] = len(rea)
    m["rearrange.rearrange.cells"] = sum(s["cells"] for s in rea)
    hits, misses = cell_order_cache["hits"], cell_order_cache["misses"]
    m["rearrange.cell_order.misses"] = misses
    m["rearrange.cell_order.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    for kind in ("load", "save"):
        group = named(f"field.{kind}")
        m[f"field.{kind}.calls"] = len(group)
        m[f"field.{kind}.bytes"] = sum(s["bytes"] for s in group)
    m["field.load.values"] = sum(s["values"] for s in named("field.load"))
    m["report.write_reports.bytes"] = sum(s["bytes"] for s in named("report.write_reports"))

    def in_layer(layer):
        return [s for s in spans if s["name"].split(".", 1)[0] == layer]

    for layer in WHOLE_LAYERS:
        m[f"{layer}.self_s"] = total_self(in_layer(layer))
    for layer in OTHER_LAYERS:
        m[f"{layer}.other.self_s"] = total_self(
            [s for s in in_layer(layer) if s["name"] not in grouped]
        )
    for runner in RUNNERS:
        m[f"experiments.{runner}.wall_s"] = sum(
            s["end"] - s["start"] for s in named(f"experiments.{runner}")
        )
    library = total_self([s for s in spans if s["name"].split(".", 1)[0] not in ("cli", "experiments")])
    m["trace.layer_coverage"] = library / pass_wall_s
    return m


def median_metrics(per_pass: list[dict]) -> dict:
    """Median of each metric over traced passes; counts come from the first pass."""
    return {
        k: per_pass[0][k] if k in COUNTS else statistics.median(p[k] for p in per_pass)
        for k in per_pass[0]
    }
