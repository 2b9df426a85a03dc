"""Command line front end for the experiment harness."""

from __future__ import annotations

import argparse
import sys

from .harness import METHODS, ExperimentSpec, format_rows, run_experiments, table_sweep
from .testfunctions import TEST_FUNCTIONS


def _add_common(parser):
    # --st/--eps0/--eps1 (and --refine) are left out of the namespace when not
    # given, so ExperimentSpec and InterpConfig supply the defaults and the checks
    parser.add_argument("--fn", required=True, choices=sorted(TEST_FUNCTIONS))
    parser.add_argument("--n", required=True, type=int, help="input points (per axis in 2D)")
    parser.add_argument("--method", required=True, choices=METHODS)
    parser.add_argument("--degree", required=True, type=int, help="target polynomial degree")
    parser.add_argument("--st", type=int, default=argparse.SUPPRESS)
    parser.add_argument("--eps0", type=float, default=argparse.SUPPRESS)
    parser.add_argument("--eps1", type=float, default=argparse.SUPPRESS)
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
    _add_common(p_round)
    p_round.add_argument(
        "--refine", type=int, choices=(0, 1, 3), default=argparse.SUPPRESS,
        help="interior points added per interval of the base mesh",
    )

    p_table = sub.add_parser("table", help="full sweep behind one published table")
    p_table.add_argument("--id", required=True, type=int, choices=range(1, 7))
    p_table.add_argument("--out", default=None)
    return parser


def _specs_from_args(args) -> list[ExperimentSpec]:
    if args.command == "table":
        return table_sweep(args.id)
    fields = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
    return [ExperimentSpec(kind=args.command, **fields)]


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
