"""Command-line driver.

Verbs: verify, refine, spectral, stability, choquard, probe-continuity,
rearrange (file to file), info.  Global flags: --config, --seed, --out,
--jobs (accepted and validated, currently no effect: experiments run in
order in one process).  Exit codes: 0 all pass, 1 fail verdicts present, 2
usage or config errors, including an output directory that cannot be
created, which is checked before any experiment runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import experiments
from .field import FieldFormatError, GridSet, ScalarField, load, save
from .functionals import lp_norm
from .rearrange import rearrange, set_symmetrize
from .report import SuiteConfig, VERDICT_FAIL, load_config, write_reports


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="symkit", description=__doc__)
    parser.add_argument("--config", help="path to a symkit-config 1 JSON document")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="override the report output directory")
    parser.add_argument(
        "--jobs", type=int, help="accepted for compatibility (must be >= 1); currently has no effect"
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    sub.add_parser("verify", help="exact discrete inequality suite")
    p_refine = sub.add_parser("refine", help="refinement-ladder contracts")
    p_refine.add_argument(
        "--inequality",
        action="append",
        help=f"restrict to an inequality id (repeatable); known: {', '.join(experiments.REFINE_IDS)}",
    )
    sub.add_parser("spectral", help="eigenvalue and heat-trace experiments")
    sub.add_parser("stability", help="deficit sweeps and asymmetry audits")
    sub.add_parser("choquard", help="3-d ground-state descent")
    sub.add_parser("probe-continuity", help="rearrangement continuity probes")
    p_re = sub.add_parser("rearrange", help="rearrange a field or set file")
    p_re.add_argument("input")
    p_re.add_argument("output")
    p_info = sub.add_parser("info", help="print field statistics")
    p_info.add_argument("input")
    return parser


def _resolve_config(args) -> SuiteConfig:
    if args.config:
        config = load_config(args.config)
    else:
        config = SuiteConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.verb == "rearrange":
        try:
            obj = load(args.input)
            out = rearrange(obj) if isinstance(obj, ScalarField) else set_symmetrize(obj)
            save(out, args.output)
        except (FieldFormatError, OSError) as exc:
            print(f"symkit: {exc}", file=sys.stderr)
            return 2
        return 0

    if args.verb == "info":
        try:
            obj = load(args.input)
        except (FieldFormatError, OSError) as exc:
            print(f"symkit: {exc}", file=sys.stderr)
            return 2
        if isinstance(obj, GridSet):
            obj_f = obj.indicator()
            kind = "set"
        else:
            obj_f, kind = obj, "field"
        stats = {
            "kind": kind,
            "dim": obj.grid.dim,
            "shape": list(obj.grid.shape),
            "h": obj.grid.h,
            "min": float(obj_f.values.min()),
            "max": float(obj_f.values.max()),
            "l1": lp_norm(obj_f, 1.0),
            "l2": lp_norm(obj_f, 2.0),
            "support_fraction": float((obj_f.values != 0).mean()),
        }
        print(json.dumps(stats, indent=1, sort_keys=True))
        return 0

    try:
        config = _resolve_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"symkit: config error: {exc}", file=sys.stderr)
        return 2
    if args.verb == "refine":
        unknown = [i for i in args.inequality or () if i not in experiments.REFINE_IDS]
        if unknown:
            print(f"symkit: unknown inequality id {unknown[0]!r}", file=sys.stderr)
            return 2
    try:
        Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"symkit: output directory: {exc}", file=sys.stderr)
        return 2

    if args.verb == "verify":
        reports = experiments.run_verify(config)
    elif args.verb == "refine":
        reports = experiments.run_refine(config, args.inequality)
    elif args.verb == "spectral":
        reports = experiments.run_spectral(config)
    elif args.verb == "stability":
        reports = experiments.run_stability(config)
    elif args.verb == "choquard":
        reports = [experiments.run_choquard(config)]
    elif args.verb == "probe-continuity":
        reports = experiments.run_probe_continuity(config)
    else:  # pragma: no cover - argparse enforces the verb set
        parser.error(f"unknown verb {args.verb}")

    out_dir = write_reports(reports, config.out_dir)
    n_fail = sum(1 for r in reports if r.verdict == VERDICT_FAIL)
    for r in reports:
        print(f"{r.verdict:10s} {r.experiment_id}")
    print(f"reports written to {out_dir} ({len(reports)} experiments, {n_fail} failures)")
    return 1 if n_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())
