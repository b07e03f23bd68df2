"""Command-line front end.

    rlcnet <experiment> --config cfg.json [--out DIR] [--seed N] [--threads N]

Exit codes: 0 success, 2 configuration error, 3 solver failure.
"""

import argparse
import sys

from scipy.sparse.linalg import ArpackError

from .experiments import EXPERIMENTS, ConfigError, ExperimentConfig, run
from .solve import SingularSystemError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rlcnet",
        description="RLC network simulator for chaotic quantum billiards")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for kind in EXPERIMENTS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--config", required=True, help="flat JSON config file")
        p.add_argument("--out", default="out", help="artifact directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--threads", type=int, default=1,
                       help="worker processes for ensemble realizations "
                            "(forked; any count gives the same artifacts)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_file(args.config, args.experiment)
        if args.seed is not None:
            cfg.seed = args.seed
        out = run(cfg, args.out, threads=args.threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SingularSystemError, ArpackError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
