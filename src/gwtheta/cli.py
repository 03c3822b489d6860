"""Command-line driver: analyze, pmf, simulate, classify, verify.

Model selection is shared by all commands: either --scenario (a registry id,
with --theta/--sigma/--r overriding its free parameters) or --model pointing
at a model JSON file.  Randomized commands take --seed; without it a seed is
generated and logged so the run stays reproducible after the fact.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import secrets
import sys
from contextlib import contextmanager

from .analytics import constants_table, limit_constants
from .classifier import classify
from .environment import ThetaModel
from .errors import DomainError, GwThetaError, RejectedParameter
from .harness import (VerifyConfig, get_scenario, registry, scenario_model,
                      summary_table, verify_theorem)
from .series import (DEFAULT_MAX_CUTOFF, DEFAULT_TAIL_TOL, population_pmf,
                     step_pmf, write_pmf_csv)
from .simulator import run_ensemble, simulate_trajectory, write_trajectory_csv

log = logging.getLogger("gwtheta")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", help="registry scenario id (Ex1 .. Ex10ii)")
    p.add_argument("--theta", type=float, help="override scenario theta")
    p.add_argument("--sigma", type=float, help="override scenario sigma")
    p.add_argument("--r", type=float, help="override scenario r")
    p.add_argument("--model", help="path to a model JSON file")
    p.add_argument("--write-model", metavar="PATH",
                   help="also write the resolved model as JSON")


def _resolve_model(args) -> ThetaModel:
    if (args.model is None) == (args.scenario is None):
        raise RejectedParameter(
            "exactly one of --scenario or --model is required",
            constraint="model_source")
    if args.model is not None:
        for flag in ("theta", "sigma", "r"):
            if getattr(args, flag) is not None:
                raise RejectedParameter(
                    f"--{flag} only overrides --scenario models",
                    constraint="model_source")
        with open(args.model) as fh:
            model = ThetaModel.from_dict(json.load(fh))
    else:
        model = scenario_model(args.scenario, theta=args.theta,
                               sigma=args.sigma, r=args.r)
    if args.write_model:
        with open(args.write_model, "w") as fh:
            json.dump(model.to_dict(), fh, indent=2)
            fh.write("\n")
    return model


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = secrets.randbits(63)
    log.warning("no --seed given; using generated seed %d", seed)
    return seed


def _default_workers() -> int:
    value = os.environ.get("GWTHETA_WORKERS", "1")
    try:
        return int(value)
    except ValueError:
        raise DomainError(f"GWTHETA_WORKERS is not an integer: {value!r}")


@contextmanager
def _open_out(path):
    """The file at path, or stdout for no path or "-"; only a file is
    closed."""
    if path and path != "-":
        with open(path, "w") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(payload, path) -> None:
    with _open_out(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    model = _resolve_model(args)
    if args.ns:
        ns = [int(v) for v in args.ns.split(",")]
    else:
        ns = [args.n]
    rows = constants_table(model, ns)
    if args.format == "csv":
        cols = ["n", "A_n", "C_n", "D_n", "B_n", "F_n(0)", "F_n(1)",
                "mean_restricted"]
        with _open_out(args.out) as fh:
            fh.write(",".join(cols) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(row.get(col, "")) for col in cols)
                         + "\n")
    else:
        _emit(rows, args.out)
    return EXIT_OK


def _cmd_pmf(args) -> int:
    model = _resolve_model(args)
    if args.kind == "step":
        pmf = step_pmf(model, args.n, tail_tol=args.tail_tol,
                       max_cutoff=args.max_cutoff)
    else:
        pmf = population_pmf(model, args.n, tail_tol=args.tail_tol,
                             max_cutoff=args.max_cutoff)
    with _open_out(args.out) as fh:
        write_pmf_csv(pmf, fh)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    model = _resolve_model(args)
    seed = _resolve_seed(args)
    if args.trajectory:
        traj = simulate_trajectory(model, args.horizon, seed)
        with open(args.trajectory, "w") as fh:
            write_trajectory_csv(traj, fh)
    stats = run_ensemble(model, args.horizon, args.replicates, seed,
                         workers=args.workers, mode=args.mode)
    payload = stats.to_dict()
    payload["seed"] = seed
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_classify(args) -> int:
    model = _resolve_model(args)
    limits = limit_constants(model, args.horizon)
    label = classify(model, limits)
    _emit(label.to_dict(), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    seed = _resolve_seed(args)
    config = VerifyConfig(replicates=args.replicates, horizon=args.horizon,
                          seed=seed, workers=args.workers)
    if args.scenario:
        scenarios = [get_scenario(args.scenario)]
    else:
        scenarios = registry()
    reports = [verify_theorem(sc, config) for sc in scenarios]
    payload = {"seed": seed,
               "reports": [rep.to_dict() for rep in reports],
               "summary": summary_table(reports)}
    _emit(payload, args.out)
    for row in payload["summary"]:
        verdict = "pass" if row["pass"] else "FAIL"
        print(f"{row['scenario']:8s} {row['theorem']:4s} {verdict}",
              file=sys.stderr)
    return EXIT_OK if all(rep.passed for rep in reports) else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwtheta",
        description="Branching processes with theta-parametrized offspring "
                    "laws in a varying environment")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze",
                       help="composite-constants table at chosen generations")
    _add_model_args(p)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--ns", help="comma-separated list of generations")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("pmf", help="truncated pmf as CSV")
    _add_model_args(p)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--kind", choices=("population", "step"),
                   default="population")
    p.add_argument("--tail-tol", type=float, default=DEFAULT_TAIL_TOL)
    p.add_argument("--max-cutoff", type=int, default=DEFAULT_MAX_CUTOFF)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_pmf)

    p = sub.add_parser("simulate", help="ensemble statistics as JSON")
    _add_model_args(p)
    p.add_argument("--horizon", type=int, default=100)
    p.add_argument("--replicates", type=int, default=1000)
    p.add_argument("--mode", choices=("generational", "direct"),
                   default="generational")
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int, default=_default_workers())
    p.add_argument("--trajectory", metavar="PATH",
                   help="also write one trajectory CSV")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("classify", help="regime label as JSON")
    _add_model_args(p)
    p.add_argument("--horizon", type=int, default=10 ** 4)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify",
                       help="statistical checks of the limit theorems")
    p.add_argument("--scenario", help="single scenario id (default: all)")
    p.add_argument("--seed", type=int)
    p.add_argument("--replicates", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--workers", type=int, default=_default_workers())
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except RejectedParameter as err:
        print(f"gwtheta: invalid model: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (GwThetaError, OSError, KeyError, ValueError) as err:
        # str() of a KeyError is the repr of its key
        if isinstance(err, KeyError) and err.args:
            err = err.args[0]
        print(f"gwtheta: {err}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as err:
        # a defect, not bad input: one line, and an exit code of its own
        log.debug("internal error", exc_info=True)
        summary = f"{type(err).__name__}: {err}".splitlines()[0]
        print(f"gwtheta: internal error: {summary}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
