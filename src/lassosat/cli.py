"""Command line driver.

    lassosat check --bound K [--engine mono|bi] [--mode bsc|bmc|hcc | --loop-free]
                   [--solver embedded|minisat|picosat]
                   [--history FILE] [--timeout SECONDS] [--out DIR] spec.zot

    lassosat find-bound [--max-bound N] [--solver ...] [--timeout SECONDS]
                        [--out DIR] spec.zot

--loop-free runs the completeness check, a mode of its own: with --mode bmc
or hcc it is a usage error (exit 2).  It and find-bound run on the mono
engine, the only one with a loop-free form: a spec's (engine bi) section is
ignored with a warning, and --engine bi is a usage error (exit 2).

--max-bound, the largest bound find-bound tries (default RunConfig.max_bound,
50), is a positive integer; 0, a negative number or a non-number is a usage
error (exit 2).

--timeout limits the solving of each bound (find-bound solves one per bound
tried): loading the clauses into the solver and the search count toward it,
encoding does not.  A loop-free bound may take several solver calls, one
more each time a model repeats a state; they share the limit.  The limit is
checked once loading is done and then every 256 conflicts and every 256
decisions.  A call that runs out prints `error: ... timed out` and exits
with 2.

Exit status: 0 = SAT (or loop-free bound not reached, or a completeness
bound was found), 1 = UNSAT, 2 = error, internal failures and timeouts
included.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from .errors import LassosatError, SolverTimeout
from .pipeline import RunConfig, run


def _seconds(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a positive number of seconds, got {text}")
    return value


def _bound(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive bound, got {text}")
    return value


def _show_check(report) -> None:
    print(f"{report.verdict} (k={report.k}, engine={report.engine})")
    print(report.message)
    if report.history_text:
        print(report.history_text, end="")


def _show_bound(report) -> None:
    print(f"completeness bound: {report.k}")


def _build_parser() -> argparse.ArgumentParser:
    """Each option's dest is the RunConfig field it sets."""
    parser = argparse.ArgumentParser(
        prog="lassosat",
        description="Bounded satisfiability / model checking over lasso traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("spec_path", metavar="spec", help="spec file (.zot)")
    shared.add_argument("--solver", choices=("embedded", "minisat", "picosat"), default=None)
    shared.add_argument("--timeout", dest="timeout_s", type=_seconds, default=None,
                        metavar="SECONDS", help="time limit of solving each bound")
    shared.add_argument("--out", dest="out_dir", default=".", metavar="DIR",
                        help="directory for output.cnf.txt/output.sat.txt/output.hist.txt")

    check = sub.add_parser("check", parents=[shared], help="run one verification job")
    check.set_defaults(show=_show_check)
    check.add_argument("--bound", "-k", type=int, default=None, metavar="K",
                       help="time bound (instants 0..K)")
    check.add_argument("--engine", choices=("mono", "bi"), default=None)
    # --loop-free is a mode of its own: never a loop-free run of another mode
    mode = check.add_mutually_exclusive_group()
    mode.add_argument("--mode", choices=("bsc", "bmc", "hcc"), default="bsc")
    mode.add_argument("--loop-free", dest="mode", action="store_const", const="loop-free",
                      help="completeness check (replaces the loop machinery)")
    check.add_argument("--history", dest="history_path", default=None, metavar="FILE",
                       help="partial history file (hcc mode)")

    fb = sub.add_parser("find-bound", parents=[shared], help="search the completeness bound")
    fb.set_defaults(show=_show_bound, mode="find-bound")
    fb.add_argument("--max-bound", type=_bound, default=RunConfig.max_bound, metavar="N")
    return parser


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    command, show = args.pop("command"), args.pop("show")
    try:
        report = run(RunConfig(**args))
        show(report)
        return report.exit_code
    except SolverTimeout as exc:
        print(f"error: {command} timed out ({exc})", file=sys.stderr)
        return 2
    except (LassosatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a defect, not a verdict: exit 2, never 1 (which means UNSAT)
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
