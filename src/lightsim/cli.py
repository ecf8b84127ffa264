"""Command-line entry point.

Subcommands:

* ``lightsim run <config-file>``  execute one configured scenario
* ``lightsim list-scenarios``     print the scenario catalog
* ``lightsim selftest``           run the whole catalog on a reduced grid

Exit codes: 0 success, 2 configuration error or unwritable output, 3
numerical-check failure, which includes a scenario that stops on a numerical
error: ``run`` and ``selftest`` record it as an ``error[<ErrorClass>]`` row.
"""

import argparse
import os
import sys

from .config import load_config
from .errors import ConfigError
from .scenarios import run_scenario, scenario_schemas, selftest


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
    lines = []  # printed once the command has its exit code
    try:
        if args.command == "list-scenarios":
            code, lines = 0, sorted(scenario_schemas())
        elif args.command == "selftest":
            code = selftest(args.out, seed=args.seed, grid_n=args.grid_n,
                            verbose=lines.append)
        else:
            cfg = load_config(args.config, scenario_schemas())
            outdir = args.out or cfg["output"].get("directory") \
                or f"out/{cfg.name}"
            code, rows = run_scenario(cfg, outdir, seed=args.seed,
                                      grid_n=args.grid_n, log=lines.append)
            lines += [f"{r.status.upper():4s} {r.scenario}.{r.quantity}: "
                      f"{r.value:.6g} (expected {r.expected:.6g} "
                      f"tol {r.tolerance:.3g})" for r in rows]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = 2
    try:
        print("".join(f"{line}\n" for line in lines), end="", flush=True)
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the flush
        # at exit does not raise again (the recipe in the signal module docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
