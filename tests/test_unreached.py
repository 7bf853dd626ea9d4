"""scripts/unreached.py: its line collector and its table of executable lines, on a small module."""

import importlib.util
import sys
import threading
from pathlib import Path


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


unreached = _load("unreached", Path(__file__).resolve().parents[1] / "scripts" / "unreached.py")

SOURCE = """\
def sign(x):
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0
"""


def test_collector_sees_lines_run_here_and_in_a_thread_started_while_collecting(tmp_path):
    path = tmp_path / "small.py"
    path.write_text(SOURCE)
    before = sys.gettrace(), threading.gettrace()
    with unreached.LineCollector(tmp_path) as collector:
        small = _load("small", path)  # runs line 1, the def
        small.sign(2)  # lines 2 and 3
        worker = threading.Thread(target=small.sign, args=(0,))  # lines 2, 4 and 6
        worker.start()
        worker.join()
    assert (sys.gettrace(), threading.gettrace()) == before
    assert unreached.executable_lines(path) == {1, 2, 3, 4, 5, 6}
    assert collector.lines == {str(path): {1, 2, 3, 4, 6}}


def test_census_lists_each_parameter_that_got_one_value(tmp_path):
    path = tmp_path / "small.py"
    path.write_text(SOURCE)
    with unreached.LineCollector(tmp_path) as collector:
        small = _load("small", path)  # the module's own code is no function
        small.sign(2)
        small.sign(2)
    assert unreached.single_valued(path, collector) == ["  1: sign, 2 calls: x=2"]
    with unreached.LineCollector(tmp_path) as collector:
        small = _load("small", path)
        small.sign(2)
        small.sign(2.0)  # equal, but of another type
    assert unreached.single_valued(path, collector) == []


BOXES = """\
from dataclasses import dataclass


@dataclass
class Box:
    x: int

    def __post_init__(self):
        pass


def pair(x):
    return Box(x), Box(-x)
"""


def test_each_construction_counts_for_the_function_that_built_it(tmp_path):
    # the dataclass's generated __init__ lies outside the traced files, so a
    # Box counts for the function that called Box(...), as a ScalarField does
    path = tmp_path / "boxes.py"
    path.write_text(BOXES)
    with unreached.LineCollector(tmp_path) as collector:
        boxes = _load("boxes", path)
        boxes.pair(1)
        boxes.pair(2)
        boxes.Box(3)  # built here, by no function of the traced files
    init = next(c for c in collector.calls if c.co_qualname == "Box.__post_init__")
    assert unreached.built_by(init, collector) == [
        "  boxes.py:12: pair, 4 built",
        "  outside the traced files, 1 built",
        "  total 5",
    ]
    assert unreached.built_by(None, collector) == ["  total 0"]
