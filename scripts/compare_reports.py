#!/usr/bin/env python3
"""Compare two report directories byte for byte, ignoring only wall times.

    python scripts/compare_reports.py A B

Walks both directories recursively (the layout written by
``scripts/run_full_suite.py`` has one subdirectory per verb).  Every file
must exist on both sides and match byte for byte once the ``"wall_time_s"``
lines of the report JSONs are dropped; the ``.sk`` field files carry no
wall time and are compared whole.  Exits 0 when the directories agree, 1
when they differ (listing each missing or differing file) and 2 on a usage
error.
"""

import sys
from pathlib import Path


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def _payload(path: Path) -> bytes:
    lines = path.read_bytes().splitlines(keepends=True)
    if path.suffix == ".json":
        lines = [ln for ln in lines if not ln.lstrip().startswith(b'"wall_time_s":')]
    return b"".join(lines)


def compare(a: Path, b: Path) -> list[str]:
    """One line per difference between the two directories; empty when they agree."""
    fa, fb = _files(a), _files(b)
    problems = [f"only in {a}: {name}" for name in sorted(fa - fb)]
    problems += [f"only in {b}: {name}" for name in sorted(fb - fa)]
    problems += [f"differs: {name}" for name in sorted(fa & fb) if _payload(a / name) != _payload(b / name)]
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
