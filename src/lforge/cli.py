"""Command-line surface.

`lforge run <experiment>` executes one registered pipeline and writes its
report; `lforge gb|link|pfaffian|snf` are ad-hoc single-file tools over the
same text formats the fixtures use.  Exit codes: 0 all assertions passed,
1 at least one assertion failed, 2 usage or runtime error, 3 a budget
guard refused to start.
"""

from __future__ import annotations

import argparse
import configparser
import sys

from .experiments import (
    FIELDS,
    REGISTRY,
    BudgetRefused,
    ExperimentError,
    run_experiment,
)
from .ideals import Ideal
from .linkage import link
from .mpoly import RingMismatch
from .pfaffian import SkewMatrix
from .snf import PolyMatrix, smith_normal_form
from .textio import poly_to_string, read_ideal

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2
EXIT_REFUSED = 3


def _load_config(path: str, experiment: str) -> dict:
    """Sectioned key=value config: a [defaults] section plus optional
    per-experiment sections overriding it."""
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise ExperimentError(f"cannot read config file {path!r}")
    merged = {}
    for section in ("defaults", experiment):
        if cp.has_section(section):
            merged.update(cp[section])
    unknown = sorted(set(merged) - {"seed", "field", "allow_long", "out"})
    if unknown:
        raise ExperimentError(f"unknown config key {unknown[0]!r} in {path!r}")
    out = {}
    if "seed" in merged:
        out["seed"] = int(merged["seed"])
    if "field" in merged:
        out["field"] = merged["field"]
    if "allow_long" in merged:
        out["allow_long"] = merged["allow_long"].lower() in ("1", "true",
                                                             "yes", "on")
    if "out" in merged:
        out["out"] = merged["out"]
    return out


def _cmd_run(args) -> int:
    kwargs = {}
    if args.config:
        kwargs.update(_load_config(args.config, args.experiment))
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.field is not None:
        kwargs["field"] = args.field
    if args.allow_long:
        kwargs["allow_long"] = True
    if args.out is not None:
        kwargs["out"] = args.out
    report = run_experiment(args.experiment, **kwargs)
    sys.stdout.write(report.to_text())
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_list(args) -> int:
    for name in sorted(REGISTRY):
        print(f"{name}: {REGISTRY[name]['doc']}")
    return EXIT_PASS


def _cmd_gb(args) -> int:
    ring, polys = read_ideal(args.file)
    gb = Ideal(ring, polys).groebner()
    for g in gb.basis:
        print(poly_to_string(g))
    return EXIT_PASS


def _cmd_link(args) -> int:
    ring, polys = read_ideal(args.ideal)
    ci_ring, ci_polys = read_ideal(args.ci)
    if ci_ring.names != ring.names:
        raise RingMismatch("the ci file must list the ideal's variables "
                           "in the same order")
    I = Ideal(ring, polys)
    # raises RingMismatch unless the fields agree
    ci = Ideal(ring, [ring.convert(f) for f in ci_polys])
    res = link(I, ci, args.seed).residual
    for g in res.groebner().basis:
        print(poly_to_string(g))
    dim, degree = res.dim_degree()
    print(f"# dim {dim} degree {degree}", file=sys.stderr)
    return EXIT_PASS


def _cmd_pfaffian(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        A = SkewMatrix.from_text(fh.read())
    print(poly_to_string(A.pfaffian()))
    return EXIT_PASS


def _cmd_snf(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        M = PolyMatrix.from_text(fh.read(), FIELDS[args.field])
    res = smith_normal_form(M, verify=not args.no_verify)
    for d in res.diagonal():
        print(d.to_string())
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lforge",
        description="exact computational-algebra workbench over F_17")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a registered experiment")
    run.add_argument("experiment")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--field", choices=tuple(FIELDS), default=None)
    run.add_argument("--allow-long", action="store_true")
    run.add_argument("--out", default=None,
                     help="directory for text+json reports")
    run.add_argument("--config", default=None,
                     help="key=value sectioned config file")
    run.set_defaults(fn=_cmd_run)

    lst = sub.add_parser("list", help="list registered experiments")
    lst.set_defaults(fn=_cmd_list)

    gb = sub.add_parser("gb", help="Groebner basis of an ideal file")
    gb.add_argument("file")
    gb.set_defaults(fn=_cmd_gb)

    lk = sub.add_parser("link", help="residual of an ideal inside a "
                                     "complete intersection")
    lk.add_argument("ideal")
    lk.add_argument("ci")
    lk.add_argument("--seed", type=int, default=0)
    lk.set_defaults(fn=_cmd_link)

    pf = sub.add_parser("pfaffian", help="Pfaffian of a skew matrix file")
    pf.add_argument("file")
    pf.set_defaults(fn=_cmd_pfaffian)

    snf = sub.add_parser("snf", help="Smith normal form diagonal of a "
                                     "polynomial matrix file")
    snf.add_argument("file")
    snf.add_argument("--field", choices=tuple(FIELDS), default="gf17")
    snf.add_argument("--no-verify", action="store_true")
    snf.set_defaults(fn=_cmd_snf)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BudgetRefused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (ExperimentError, OSError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
