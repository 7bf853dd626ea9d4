"""Command-line driver.

Verbs: verify, refine, spectral, stability, choquard, probe-continuity,
rearrange (file to file), info.  Global flags: --seed, --out, --jobs
(accepted and validated, currently no effect: experiments run in order in
one process).  The suite's sizes and tolerances are constants in
symkit.experiments; the seed is the one input a run can change, and each
suite verb writes one JSON per report into --out and nothing else.  Exit
codes: 0 all pass, 1 fail verdicts present, 2 usage errors, including a
flag out of range and an output directory that cannot be created, both
checked before any experiment runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import experiments
from .field import FieldFormatError, GridSet, ScalarField, load, save
from .functionals import lp_norm
from .rearrange import rearrange, set_symmetrize
from .report import VERDICT_FAIL, write_reports

DEFAULT_SEED = 20260808


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="symkit", description=__doc__)
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="0 to 2**64 - 1 (default %(default)s)"
    )
    parser.add_argument("--out", default="symkit-out", help="report directory (default %(default)s)")
    parser.add_argument(
        "--jobs", type=int, default=1, help="accepted (must be >= 1); currently has no effect"
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, help_text) in experiments.VERBS.items():
        sub.add_parser(verb, help=help_text)
    p_re = sub.add_parser("rearrange", help="rearrange a field or set file")
    p_re.add_argument("input")
    p_re.add_argument("output")
    sub.add_parser("info", help="print field statistics").add_argument("input")
    return parser


def _file_verb(args) -> int:
    """rearrange or info; a file that cannot be read or parsed exits 2."""
    try:
        obj = load(args.input)
        if args.verb == "rearrange":
            save(rearrange(obj) if isinstance(obj, ScalarField) else set_symmetrize(obj), args.output)
            return 0
    except (FieldFormatError, OSError) as exc:
        print(f"symkit: {exc}", file=sys.stderr)
        return 2
    f = obj.indicator() if isinstance(obj, GridSet) else obj
    stats = {
        "kind": "set" if isinstance(obj, GridSet) else "field",
        "dim": obj.grid.dim,
        "shape": list(obj.grid.shape),
        "h": obj.grid.h,
        "min": float(f.values.min()),
        "max": float(f.values.max()),
        "l1": lp_norm(f, 1.0),
        "l2": lp_norm(f, 2.0),
        "support_fraction": float((f.values != 0).mean()),
    }
    print(json.dumps(stats, indent=1, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # a Philox key has 64 bits: rng_for would mask 2^64 or more to the key of a smaller seed
    if not 0 <= args.seed < 2**64:
        bound = "at least 0" if args.seed < 0 else "at most 2**64 - 1"
        parser.error(f"seed must be {bound}, got {args.seed}")
    if args.jobs < 1:
        parser.error(f"jobs must be at least 1, got {args.jobs}")
    if args.verb not in experiments.VERBS:
        return _file_verb(args)
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"symkit: output directory: {exc}", file=sys.stderr)
        return 2
    # looked up by name at call time, so a rebound experiments.run_* is what runs
    run = getattr(experiments, experiments.VERBS[args.verb][0])
    reports = run(args.seed)
    out_dir = write_reports(reports, args.out)
    n_fail = sum(1 for r in reports if r.verdict == VERDICT_FAIL)
    for r in reports:
        print(f"{r.verdict:10s} {r.experiment_id}")
    print(f"reports written to {out_dir} ({len(reports)} experiments, {n_fail} failures)")
    return 1 if n_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())
