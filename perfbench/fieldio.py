"""Inputs and an independent oracle for the file verbs of the audit workload.

The three input files are generated from the seed, outside the timed region,
in the documented text format (tag, dimension, extents, spacing, then one
value per line, row-major, shortest round-trip decimals).  The oracle computes
what ``symkit rearrange`` must write, byte for byte, and what ``symkit info``
must print for the written file, without calling symkit.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

FIELD_TAG = "SYMKIT-FIELD 1"
SET_TAG = "SYMKIT-SET 1"

# (name, tag, shape, h): ~10^6 values each
INPUTS = (
    ("plane", FIELD_TAG, (1000, 1000), 0.004),
    ("cube", FIELD_TAG, (100, 100, 100), 0.08),
    ("cube-set", SET_TAG, (100, 100, 100), 0.08),
)


def _make_values(rng: np.random.Generator, name: str, shape) -> np.ndarray:
    if name == "plane":  # fully supported, every value a full-length decimal
        return rng.uniform(0.05, 1.0, size=shape)
    if name == "cube":  # about 60% support
        v = rng.uniform(0.0, 1.0, size=shape)
        v[v < 0.4] = 0.0
        return v
    return rng.uniform(0.0, 1.0, size=shape) < 0.3


def _lines(tag: str, values: np.ndarray) -> np.ndarray:
    """One text line per cell, row-major: 0/1 for sets, ``repr`` for fields."""
    flat = values.ravel()
    if tag == SET_TAG:
        return np.where(flat, "1", "0").astype(object)
    return np.array(list(map(repr, flat.tolist())), dtype=object)


def _text(tag: str, shape, h: float, lines: np.ndarray) -> bytes:
    header = "\n".join([tag, str(len(shape)), " ".join(str(n) for n in shape), repr(h)])
    return (header + "\n" + "\n".join(lines) + "\n").encode()


def cell_order(shape) -> np.ndarray:
    """Ascending integer squared center distance, ties by row-major index (README, Design)."""
    axes = [2 * np.arange(n, dtype=np.int64) - (n - 1) for n in shape]
    r2 = sum(g**2 for g in np.meshgrid(*axes, indexing="ij")).ravel()
    return np.argsort(r2, kind="stable")


def _rearranged_lines(tag: str, values: np.ndarray, lines: np.ndarray) -> np.ndarray:
    """The lines the rearranged object is written as: the input's lines, permuted.

    The inputs are nonnegative, so |v| prints as v, and equal values print alike.
    """
    order = cell_order(values.shape)
    flat = values.ravel()
    if tag == SET_TAG:
        mask = np.zeros(flat.size, dtype=bool)
        mask[order[: int(flat.sum())]] = True
        return _lines(tag, mask)
    out = np.empty(flat.size, dtype=object)
    out[order] = lines[np.argsort(flat, kind="stable")[::-1]]
    return out


def _info(tag: str, shape, h: float, values: np.ndarray) -> dict:
    """``symkit info`` of the rearranged object; every entry is permutation invariant."""
    v = values.astype(np.float64)
    vol = h ** len(shape)
    return {
        "kind": "set" if tag == SET_TAG else "field",
        "dim": len(shape),
        "shape": list(shape),
        "h": h,
        "min": float(v.min()),
        "max": float(v.max()),
        "l1": float(np.sum(np.abs(v)) * vol),
        "l2": float(np.sum(v * v) * vol) ** 0.5,
        "support_fraction": float((v != 0).mean()),
    }


def prepare(seed: int, in_dir: Path) -> list[dict]:
    """Write the inputs; return per file the input path and the expected outputs."""
    rng = np.random.default_rng(abs(seed))
    in_dir.mkdir(parents=True, exist_ok=True)
    cases = []
    for name, tag, shape, h in INPUTS:
        values = _make_values(rng, name, shape)
        lines = _lines(tag, values)
        path = in_dir / f"{name}.txt"
        path.write_bytes(_text(tag, shape, h, lines))
        expected = _text(tag, shape, h, _rearranged_lines(tag, values, lines))
        cases.append(
            {
                "name": name,
                "input": str(path),
                "output_sha256": hashlib.sha256(expected).hexdigest(),
                "info": _info(tag, shape, h, values),
            }
        )
    return cases


def ops(cases: list[dict], out_dir: Path) -> list[list[str]]:
    """``rearrange IN OUT`` then ``info OUT`` for each input."""
    argv = []
    for c in cases:
        out = str(out_dir / f"{c['name']}.txt")
        argv += [["rearrange", c["input"], out], ["info", out]]
    return argv


# l1 and l2 are sums whose order is the program's choice; everything else is exact.
INFO_RTOL = {"l1": 1e-12, "l2": 1e-12}


def check_pass(cases: list[dict], records: list[dict], out_dir: Path) -> tuple[int, dict]:
    """Returns (operations attempted, {failed operation: reason})."""
    failures = {}
    for c, (re_rec, info_rec) in zip(cases, zip(records[0::2], records[1::2])):
        out = out_dir / f"{c['name']}.txt"
        op = f"rearrange {c['name']}"
        if re_rec["error"] or re_rec["exit_code"] != 0:
            failures[op] = f"exit {re_rec['exit_code']} {re_rec['error'] or ''}"
        elif hashlib.sha256(out.read_bytes()).hexdigest() != c["output_sha256"]:
            failures[op] = "written bytes differ from the oracle"
        op = f"info {c['name']}"
        if info_rec["error"] or info_rec["exit_code"] != 0:
            failures[op] = f"exit {info_rec['exit_code']} {info_rec['error'] or ''}"
            continue
        try:
            got = json.loads(info_rec["stdout"])
        except json.JSONDecodeError:
            failures[op] = "output is not JSON"
            continue
        for key, want in c["info"].items():
            have = got.get(key)
            rtol = INFO_RTOL.get(key)
            ok = (
                have == want
                if rtol is None
                else isinstance(have, float) and math.isclose(have, want, rel_tol=rtol)
            )
            if not ok:
                failures[op] = f"{key} = {have!r}, expected {want!r}"
    return 2 * len(cases), failures


class FieldIO:
    """The file verbs at one seed; the inputs are written on construction."""

    def __init__(self, seed: int, work: Path):
        self.cases = prepare(seed, work / "inputs")
        self.n_ops = 2 * len(self.cases)

    def ops(self, out_dir: Path) -> list:
        return ops(self.cases, out_dir)

    def check(self, records: list, out_dir: Path) -> tuple[int, dict]:
        return check_pass(self.cases, records, out_dir)

    def payload(self, out_dir: Path) -> dict:
        return {p.name: hashlib.sha256(p.read_bytes()).digest() for p in sorted(out_dir.glob("*"))}
