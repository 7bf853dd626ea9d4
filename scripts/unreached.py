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
executable when the compiled module maps an instruction to it.  Next comes
the argument census: for each function of ``src/symkit`` that the verbs
called, its call count and each parameter that got one value over all the
calls.  Two values count as one when they are the same object, or equal
hashable values of one type; so a field (unhashable) counts as one only
when every call passed the same object.  Each resumption of a generator
counts as a call.  Last, it prints how many ``ScalarField``s each function
of ``src/symkit`` built, most first, and their total: a field counts for the
nearest calling frame of ``src/symkit`` of its ``__post_init__``.

This is the evidence of a D10 round (DECISIONS.md): a line listed here is
reached by tests at most, and a parameter listed here is set by tests at
most to another value.  Only frames of ``src/symkit`` are traced, so the
run takes a few seconds: 7.6 s on a busy 2-core host, where the line trace
alone took 6.6 s.
"""

from __future__ import annotations

import contextlib
import importlib.util
import inspect
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


_VARIED = object()  # a parameter that got two values


def _same(a, b) -> bool:
    """Whether two argument values count as one: the same object, or equal hashable values of one type."""
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    try:
        hash(a), hash(b)
    except TypeError:
        return False
    return bool(a == b)


class LineCollector:
    """The lines and calls run from files under ``root``, by this thread and by threads started while it collects.

    Used as a context manager: ``lines`` maps each file's path, as its code
    objects name it, to the set of its line numbers that ran; ``calls``
    counts the calls of each code object, and ``arguments`` maps each one to
    its parameters, each to the value of its first call, or to ``_VARIED``
    once a call passed another.  ``callers`` counts the calls of each code
    object by its caller: the code of the nearest calling frame under
    ``root``, so code generated outside it (a dataclass's ``__init__``) is
    passed over, or None when no frame under ``root`` made the call.
    """

    def __init__(self, root):
        self.root = str(root)
        self.lines: dict[str, set[int]] = {}
        self.calls: dict[types.CodeType, int] = {}
        self.arguments: dict[types.CodeType, dict[str, object]] = {}
        self.callers: dict[types.CodeType, dict[types.CodeType | None, int]] = {}
        self._local: dict[types.CodeType, object] = {}
        self._lock = threading.Lock()

    def _note_call(self, frame):
        code = frame.f_code
        nparams = code.co_argcount + code.co_kwonlyargcount
        nparams += bool(code.co_flags & inspect.CO_VARARGS) + bool(code.co_flags & inspect.CO_VARKEYWORDS)
        values = frame.f_locals
        caller = frame.f_back
        while caller is not None and not caller.f_code.co_filename.startswith(self.root):
            caller = caller.f_back
        caller = None if caller is None else caller.f_code
        with self._lock:
            self.calls[code] = self.calls.get(code, 0) + 1
            by_caller = self.callers.setdefault(code, {})
            by_caller[caller] = by_caller.get(caller, 0) + 1
            first = self.arguments.setdefault(code, {})
            for name in code.co_varnames[:nparams]:
                value = values.get(name, _VARIED)
                if name not in first:
                    first[name] = value
                elif first[name] is not _VARIED and not _same(first[name], value):
                    first[name] = _VARIED

    def _trace(self, frame, event, arg):
        code = frame.f_code
        if code in self._local:
            if self._local[code] is not None:
                self._note_call(frame)
            return self._local[code]
        local = None
        if code.co_filename.startswith(self.root):
            self._note_call(frame)
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


_NOT_FUNCTIONS = {"<module>", "<genexpr>", "<listcomp>", "<dictcomp>", "<setcomp>"}


def single_valued(path, collector: LineCollector) -> list[str]:
    """One line per function of the file that ran: its first line, name, calls and one-valued parameters."""
    out = []
    codes = [c for c in collector.calls if c.co_filename == str(path) and c.co_name not in _NOT_FUNCTIONS]
    for code in sorted(codes, key=lambda c: c.co_firstlineno):
        one = [f"{name}={_short(value)}" for name, value in collector.arguments[code].items() if value is not _VARIED]
        if one:
            calls = collector.calls[code]
            out.append(f"  {code.co_firstlineno}: {code.co_qualname}, {calls} call{'s' * (calls != 1)}: {', '.join(one)}")
    return out


def built_by(init: types.CodeType | None, collector: LineCollector) -> list[str]:
    """One line per function that ran ``init`` (a class's ``__post_init__``): file, first line, name and count.

    Most constructions first, then a total; None (a class never built) gives the total 0 alone.
    """
    counts = collector.callers.get(init, {})
    rows = []
    for caller, n in counts.items():
        where = "outside the traced files"
        if caller is not None:
            where = f"{Path(caller.co_filename).name}:{caller.co_firstlineno}: {caller.co_qualname}"
        rows.append((-n, where))
    return [f"  {where}, {-n} built" for n, where in sorted(rows)] + [f"  total {sum(counts.values())}"]


def _short(value, width: int = 40) -> str:
    text = repr(value)
    return text if len(text) <= width else text[: width - 3] + "..."


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
    print("parameters that got one value over all calls:")
    for path in sorted(_PACKAGE.glob("*.py")):
        lines = single_valued(path, collector)
        print(f"{path.name}: {len(lines)} functions")
        for line in lines:
            print(line)
    print("ScalarFields built, by calling function:")
    field_py = str(_PACKAGE / "field.py")
    inits = [c for c in collector.calls if c.co_filename == field_py and c.co_qualname == "ScalarField.__post_init__"]
    for line in built_by(inits[0] if inits else None, collector):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
