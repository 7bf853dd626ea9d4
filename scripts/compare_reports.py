#!/usr/bin/env python3
"""Compare two report directories byte for byte, ignoring only wall times.

    python scripts/compare_reports.py A B

Walks both directories recursively (the layout written by
``scripts/run_full_suite.py`` has one subdirectory per verb).  Every file
must exist on both sides and match byte for byte once the ``"wall_time_s"``
lines of the report JSONs are dropped; the ``.sk`` field files carry no
wall time and are compared whole, as is ``threads.txt``, the BLAS thread
setting of the run, so two runs under different settings differ in that
file.  Exits 0 when the directories agree, 1 when they differ (listing each
missing or differing file) and 2 on a usage error.  For a differing report
JSON the line also names the first key path whose values differ, with both
values, e.g. ``differs: verify/x.json at values.v: 1.5 vs 1.5000000000000002``.
"""

import json
import sys
from pathlib import Path


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def _payload(path: Path) -> bytes:
    lines = path.read_bytes().splitlines(keepends=True)
    if path.suffix == ".json":
        lines = [ln for ln in lines if not ln.lstrip().startswith(b'"wall_time_s":')]
    return b"".join(lines)


_MISSING = object()  # a key or list entry on one side only


def _show(value) -> str:
    return "<missing>" if value is _MISSING else json.dumps(value)


def _first_difference(a, b, path: str = "") -> str | None:
    """``"<path>: <a> vs <b>"`` for the first key path at which two parsed reports differ, or None.

    Leaves compare by their JSON text, so 1 and 1.0, 0.0 and -0.0 differ and
    NaN equals NaN; ``wall_time_s`` is skipped, as in the byte comparison.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        keys = [k for k in a if k != "wall_time_s"] + [k for k in b if k not in a and k != "wall_time_s"]
        steps = [(f"{path}.{k}" if path else k, a.get(k, _MISSING), b.get(k, _MISSING)) for k in keys]
    elif isinstance(a, list) and isinstance(b, list):
        pad = [_MISSING] * abs(len(a) - len(b))
        steps = [(f"{path}[{i}]", x, y) for i, (x, y) in enumerate(zip(a + pad, b + pad))]
    elif _show(a) == _show(b):
        return None
    else:
        return f"{path or '<top>'}: {_show(a)} vs {_show(b)}"
    return next(filter(None, (_first_difference(x, y, p) for p, x, y in steps)), None)


def _difference(a: Path, b: Path, name: str) -> str:
    """The line naming a differing file, with its first differing key path when both sides parse as JSON."""
    line = f"differs: {name}"
    if not name.endswith(".json"):
        return line
    try:
        where = _first_difference(json.loads((a / name).read_bytes()), json.loads((b / name).read_bytes()))
    except ValueError:
        return line
    return f"{line} at {where}" if where else line


def compare(a: Path, b: Path) -> list[str]:
    """One line per difference between the two directories; empty when they agree."""
    fa, fb = _files(a), _files(b)
    problems = [f"only in {a}: {name}" for name in sorted(fa - fb)]
    problems += [f"only in {b}: {name}" for name in sorted(fb - fa)]
    problems += [_difference(a, b, name) for name in sorted(fa & fb) if _payload(a / name) != _payload(b / name)]
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = (Path(p) for p in argv)
    for d in (a, b):
        if not d.is_dir():
            print(f"compare_reports: not a directory: {d}", file=sys.stderr)
            return 2
    problems = compare(a, b)
    for line in problems:
        print(line)
    n = len(_files(a) | _files(b))
    print(f"{n} files compared, {len(problems)} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
