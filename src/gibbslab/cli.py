"""Command-line entry point.

Usage:
  gibbslab <subcommand> --config CONFIG.json [--seed N] [--out DIR]
  gibbslab replay --artifacts DIR

Exit codes: 0 success, 2 validation error, 3 numerical error,
4 precision / effective-sample-size error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import load_config, value
from .errors import GibbslabError
from .harness import SUBCOMMANDS, replay, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gibbslab",
        description="Numerical laboratory for lattice diffusions, cluster "
        "expansions and Gibbsianness checks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in sorted(SUBCOMMANDS):
        p = sub.add_parser(name, help=f"run the '{name}' pipeline stage")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default=None, help="output directory")
    rp = sub.add_parser("replay", help="re-run a stored experiment and compare")
    rp.add_argument("--artifacts", required=True, help="directory of a previous run")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.subcommand == "replay":
            result = replay(args.artifacts)
            print(json.dumps(result, sort_keys=True))
            return 0 if result["ok"] else 1
        cfg = load_config(args.config)
        out_dir = args.out or value(cfg, "out") or os.path.join("runs", args.subcommand)
        summary = run(args.subcommand, cfg, out_dir, seed=args.seed)
        print(json.dumps(summary, sort_keys=True, default=str))
        return 0
    except GibbslabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
