"""Command-line entry point.

Subcommands: spectrum, dynamics, sweep, converge, oracle. Exit codes:
0 on success, 1 for configuration problems and results that cannot be
written, 2 for numerical failures.
"""

from __future__ import annotations

import argparse
import sys

from .config import PRESET_NAMES, load_config_file, load_preset
from .errors import ConfigError, PolarbinError
from .runs import run_converge, run_dynamics, run_oracle, run_spectrum, run_sweep


class _Parser(argparse.ArgumentParser):
    # bad flags are configuration mistakes: exit 1, not argparse's default 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polarbin",
        description="Ultrafast dynamics of disordered molecular polaritons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "spectrum": "absorption spectrum from a photonic run",
        "dynamics": "population dynamics (any initial state)",
        "sweep": "final-time yields over a parameter grid",
        "converge": "bin-count refinement study",
        "oracle": "explicit finite-ensemble validation",
    }
    for name, help_text in commands.items():
        cmd = sub.add_parser(name, help=help_text)
        source = cmd.add_mutually_exclusive_group(required=True)
        source.add_argument("--config", help="path to a run configuration file")
        source.add_argument(
            "--preset", choices=PRESET_NAMES, help="named in-repo configuration"
        )
        cmd.add_argument("--out", default="polarbin_out", help="output directory")
        cmd.add_argument("--threads", type=int, default=1,
                         help="worker processes over the sweep grid or the bin-count "
                              "ladder, at most one per point; oracle runs serially")
        cmd.add_argument(
            "--override", action="append", default=[], metavar="SECTION.KEY=VALUE",
            help="override one configuration value (repeatable)",
        )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"--threads must be at least 1, got {args.threads}")
    try:
        if args.config is not None:
            cfg = load_config_file(args.config, args.override)
        else:
            cfg = load_preset(args.preset, args.override)
        if args.command == "spectrum":
            run_spectrum(cfg, args.out, threads=args.threads)
        elif args.command == "dynamics":
            run_dynamics(cfg, args.out, threads=args.threads)
        elif args.command == "sweep":
            run_sweep(cfg, args.out, threads=args.threads)
        elif args.command == "converge":
            run_converge(cfg, args.out, threads=args.threads)
        else:
            run_oracle(cfg, args.out)
    except ConfigError as exc:
        print(f"polarbin: config error: {exc}", file=sys.stderr)
        return 1
    except PolarbinError as exc:
        print(f"polarbin: numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"polarbin: cannot write results: {exc}", file=sys.stderr)
        return 1
    print(f"polarbin: wrote results to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
