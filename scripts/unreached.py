#!/usr/bin/env python3
"""Print the lines of ``src/symkit`` that no verb runs.

    python scripts/unreached.py [DIR]

Runs every suite verb of ``symkit.experiments.VERBS`` and the file verbs
(``rearrange`` and ``info``, through ``scripts/run_full_suite.py``'s
``write_field_files``) in this process, writing their outputs under DIR (a
temporary directory by default).  It traces them with ``sys.settrace`` and
``threading.settrace``, so threads started during the run, such as the
Choquard descent's helper, are traced too.  ``symkit`` is imported only once
the tracer runs, so module-level lines count.  Then, for each module of
``src/symkit``, it prints the executable lines that no verb ran.  A line is
executable when the compiled module maps an instruction to it.

This is the evidence of a D10 round (DECISIONS.md): a line listed here is
reached by tests at most.  Only frames of ``src/symkit`` are traced, so the
run takes a few seconds (2.2 s on a 2-core host).  The trace shows which
lines ran, not with which arguments: a parameter that every call sets to
one value still needs a look at the calls.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import sys
import tempfile
import threading
import types
from pathlib import Path

_REPO = Path(__file__).resolve().parents[1]
_PACKAGE = _REPO / "src" / "symkit"


def executable_lines(path) -> set[int]:
    """Every line of the source file that an instruction of its compiled code maps to."""
    todo = [compile(Path(path).read_text(), str(path), "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


class LineCollector:
    """The lines run from files under ``root``, by this thread and by threads started while it collects.

    Used as a context manager: ``lines`` maps each file's path, as its code
    objects name it, to the set of its line numbers that ran.
    """

    def __init__(self, root):
        self.root = str(root)
        self.lines: dict[str, set[int]] = {}
        self._local: dict[types.CodeType, object] = {}

    def _trace(self, frame, event, arg):
        code = frame.f_code
        if code in self._local:
            return self._local[code]
        local = None
        if code.co_filename.startswith(self.root):
            lines = self.lines.setdefault(code.co_filename, set())

            def local(frame, event, arg):
                if event == "line":
                    lines.add(frame.f_lineno)
                return local

        self._local[code] = local
        return local

    def __enter__(self):
        self._saved = sys.gettrace(), threading.gettrace()
        threading.settrace(self._trace)
        sys.settrace(self._trace)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._saved[0])
        threading.settrace(self._saved[1])


def _run_verbs(out: Path) -> int:
    """Every suite verb, then the file verbs; returns the worst exit code."""
    spec = importlib.util.spec_from_file_location("run_full_suite", _REPO / "scripts" / "run_full_suite.py")
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    codes = [suite.main(["--out", str(out / verb), verb]) for verb in suite.VERBS]
    return max(codes + [suite.write_field_files(out / "files")])


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(argv[0]) if argv else Path(tmp)
        with LineCollector(_PACKAGE) as collector, contextlib.redirect_stdout(io.StringIO()):
            worst = _run_verbs(out)
    print(f"verbs ran with worst exit code {worst}", file=sys.stderr)
    for path in sorted(_PACKAGE.glob("*.py")):
        executable = executable_lines(path)
        missed = sorted(executable - collector.lines.get(str(path), set()))
        print(f"{path.name}: {len(missed)} of {len(executable)} executable lines unreached")
        source = path.read_text().splitlines()
        for line in missed:
            print(f"  {line}: {source[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
