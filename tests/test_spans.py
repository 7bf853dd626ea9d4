"""The benchmark's span tables name symkit functions that exist.

``perfbench/spans.py`` names layer functions by dotted path in ``ATTRS``,
``GROUPS`` and ``RUNNERS``; a name that no longer resolves records nothing,
silently.  The file is only read here, never changed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"

# Stale since earlier renames; ROADMAP item 1a renames or drops them, which
# must empty this set.
KNOWN_STALE = {
    "functionals.gradient_magnitude",
    "functionals.kinetic_gradient",
    "spectral.dirichlet_spectrum",
    "stability.asymmetry_search",
}


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # spans imports workloads by name
    spec.loader.exec_module(module)
    return module


def test_every_span_name_resolves_but_the_known_stale(monkeypatch):
    _load("workloads", monkeypatch)
    spans = _load("spans", monkeypatch)
    names = set(spans.ATTRS) | {n for group in spans.GROUPS.values() for n in group}
    names |= {f"experiments.{runner}" for runner in spans.RUNNERS}
    unresolved = set()
    for name in names:
        layer, attr = name.split(".", 1)
        assert layer in spans.LAYERS, name
        if not callable(getattr(importlib.import_module(f"symkit.{layer}"), attr, None)):
            unresolved.add(name)
    assert unresolved == KNOWN_STALE
