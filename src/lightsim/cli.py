"""Command-line entry point.

Subcommands:

* ``lightsim run <config-file>``  execute one configured scenario
* ``lightsim list-scenarios``     print the scenario catalog
* ``lightsim selftest``           run the whole catalog on a reduced grid

Exit codes: 0 success, 2 configuration error, 3 numerical-check failure.
"""

import argparse
import sys
from pathlib import Path

from .config import load_config
from .errors import ConfigError, LightsimError
from .scenarios import run_scenario, scenario_schemas, selftest

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lightsim",
        description="Structured-light scenario runner: q-plates, OAM/SAM "
                    "ledgers and geometric phases.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario from a config file")
    run_p.add_argument("config", help="scenario config file (INI key = value)")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized property scenarios")
    run_p.add_argument("--grid-n", type=int, default=None,
                       help="override the grid sample count")

    sub.add_parser("list-scenarios", help="list known scenario names")

    self_p = sub.add_parser("selftest",
                            help="run the full catalog at reduced grid")
    self_p.add_argument("--out", default="selftest_out",
                        help="output directory")
    self_p.add_argument("--seed", type=int, default=0)
    self_p.add_argument("--grid-n", type=int, default=256)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list-scenarios":
            for name in sorted(scenario_schemas()):
                print(name)
            return EXIT_OK
        if args.command == "selftest":
            return selftest(args.out, seed=args.seed, grid_n=args.grid_n)
        cfg = load_config(args.config, scenario_schemas())
        outdir = args.out or cfg["output"].get("directory") \
            or Path("out") / cfg.name
        code, rows = run_scenario(cfg, outdir, seed=args.seed,
                                  grid_n=args.grid_n)
        for row in rows:
            print(f"{row.status.upper():4s} {row.scenario}.{row.quantity}: "
                  f"{row.value:.6g} (expected {row.expected:.6g} "
                  f"tol {row.tolerance:.3g})")
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LightsimError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
