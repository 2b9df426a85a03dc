"""Command line front end for the experiment harness."""

from __future__ import annotations

import argparse
import sys

from .harness import ExperimentSpec, format_rows, run_experiments, table_sweep
from .testfunctions import TEST_FUNCTIONS


def _add_common(parser, with_refine=False):
    parser.add_argument("--fn", required=True, choices=sorted(TEST_FUNCTIONS))
    parser.add_argument("--n", required=True, type=int, help="input points (per axis in 2D)")
    if with_refine:
        parser.add_argument(
            "--refine", type=int, choices=(0, 1, 3), default=0,
            help="interior points added per interval of the base mesh",
        )
    parser.add_argument("--method", required=True, choices=("dbi", "ppi", "pchip"))
    parser.add_argument("--degree", required=True, type=int, help="target polynomial degree")
    parser.add_argument("--st", type=int, choices=(1, 2, 3), default=3)
    parser.add_argument("--eps0", type=float, default=0.01)
    parser.add_argument("--eps1", type=float, default=1.0)
    parser.add_argument("--out", default=None, help="write CSV here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppinterp",
        description="Data-bounded / positivity-preserving interpolation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_approx = sub.add_parser("approx", help="approximation error on a uniform mesh")
    _add_common(p_approx)

    p_round = sub.add_parser("roundtrip", help="advection/reaction mesh round-trip error")
    _add_common(p_round, with_refine=True)

    p_table = sub.add_parser("table", help="full sweep behind one published table")
    p_table.add_argument("--id", required=True, type=int, choices=range(1, 7))
    p_table.add_argument("--out", default=None)
    return parser


def _specs_from_args(args) -> list[ExperimentSpec]:
    if args.command == "table":
        return table_sweep(args.id)
    kind = "roundtrip" if args.command == "roundtrip" else "approx"
    return [
        ExperimentSpec(
            fn=args.fn,
            n=args.n,
            method=args.method,
            degree=args.degree,
            st=args.st,
            eps0=args.eps0,
            eps1=args.eps1,
            kind=kind,
            refine=getattr(args, "refine", 0),
        )
    ]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = format_rows(run_experiments(_specs_from_args(args)))
    except ValueError as err:  # bad parameters; any other error is a bug and keeps its traceback
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
