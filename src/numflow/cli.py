"""Command-line front-end.

Subcommands: gen, solve, bench, verify, pwl. Exit codes: 0 success,
1 usage error, 2 solver non-convergence, 3 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import harness, pwl
from .errors import MaxIterExceeded, NonConvergence, NumflowError, _real
from .netmodel import gen_instance, load_instance, read_json, save_instance, write_text
from .solvers import SolverParams, solve_pwl_aggregate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOCONV = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _BadInput(NumflowError):
    """A value given on the command line or in an input file is invalid."""


@contextlib.contextmanager
def _reading_input():
    """Report a ValueError or TypeError raised by a command-line value as a usage error."""
    try:
        yield
    except (ValueError, TypeError) as exc:
        raise _BadInput(str(exc)) from exc


def _build_parser() -> _Parser:
    parser = _Parser(prog="numflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a seeded instance file")
    p_gen.add_argument("--topology", default="small")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument("--rule", default=None, choices=["all-pairs", "gateway-constrained"])
    p_gen.add_argument("--family", default="log", choices=["log", "power"])
    p_gen.add_argument("--a", type=float, default=1.0, help="negative-power exponent")
    p_gen.add_argument("--out", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance, print Solution JSON")
    p_solve.add_argument("instance")
    p_solve.add_argument("--solver", required=True, choices=list(_solvers()))
    p_solve.add_argument("--params", default=None, help="SolverParams JSON file")
    p_solve.add_argument("--out", default=None)

    p_bench = sub.add_parser("bench", help="run an experiment config, emit a report")
    p_bench.add_argument("config")
    p_bench.add_argument("--out", required=True)
    p_bench.add_argument("--format", default="csv", choices=["csv", "json"])

    p_verify = sub.add_parser("verify", help="KKT-check a solution against an instance")
    p_verify.add_argument("instance")
    p_verify.add_argument("solution")
    p_verify.add_argument("--tol", type=float, default=1e-4)

    p_pwl = sub.add_parser("pwl", help="piecewise-linear utility operations")
    p_pwl.add_argument("action", choices=["eval", "conjugate", "supconv"])
    p_pwl.add_argument("files", nargs="+")
    p_pwl.add_argument("--x", type=float, default=None, help="evaluation point for eval")
    return parser


def _solvers() -> dict:
    """Name -> ``fn(inst, params)`` of every solver ``numflow solve`` runs; built
    per call, so it sees the current ``harness.SOLVERS`` and ``oracle_solve``."""
    return {**harness.SOLVERS, "pwl": solve_pwl_aggregate,
            "oracle": lambda inst, params: harness.oracle_solve(inst, tol=params.tol)}


def _load_params(path: str | None) -> SolverParams:
    if path is None:
        return SolverParams()
    return read_json(path, SolverParams.from_json)


def _solution_from_json(doc: dict):
    """x, u, rho and mu of a solution document as float arrays; rho and mu may be None.

    Every entry, at any depth of nesting, must be a JSON number (``errors._real``).
    """
    def floats(v, name):
        def reals(v):
            return [reals(e) for e in v] if isinstance(v, list) else _real(v, name)

        return np.asarray(reals(v), dtype=float)

    def optional(v, name):
        return None if v is None else floats(v, name)

    return (floats(doc["x"], "x"), [floats(ui, "u") for ui in doc["u"]],
            optional(doc.get("rho"), "rho"), optional(doc.get("mu"), "mu"))


def _cmd_gen(args) -> int:
    net, default_rule = harness.resolve_topology(args.topology)
    spec = {"family": args.family, "a": args.a}
    with _reading_input():
        inst = gen_instance(net, args.n, args.seed, spec, args.rule or default_rule)
    save_instance(inst, args.out)
    return EXIT_OK


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    sol = _solvers()[args.solver](inst, _load_params(args.params))
    payload = json.dumps(sol.to_json(), indent=2) + "\n"
    if args.out:
        write_text(args.out, payload)
    else:
        sys.stdout.write(payload)
    return EXIT_OK if sol.converged else EXIT_NOCONV


def _cmd_bench(args) -> int:
    cfg = read_json(args.config, harness.ExperimentConfig.from_json)
    with _reading_input():  # the topology may not serve the endpoint rule or the N values
        rep = harness.run_experiment(cfg)
    harness.emit_report(rep, args.format, args.out)
    return EXIT_OK if all(r.converged for r in rep.rows) else EXIT_NOCONV


def _cmd_verify(args) -> int:
    from .utility import check_tol, kkt_check

    with _reading_input():
        check_tol(args.tol, "--tol")
    inst = load_instance(args.instance)
    x, u, rho, mu = read_json(args.solution, _solution_from_json)
    if rho is None:
        print("solution carries no link duals", file=sys.stderr)
        return EXIT_VERIFY
    report = kkt_check(inst, x, u, rho, tol=args.tol, mu=mu)
    print(json.dumps({
        **{name: float(value) for name, value in asdict(report).items()},
        "max_residual": float(report.max_residual),
        "passed": bool(report.passed),
    }, indent=2))
    return EXIT_OK if report.passed else EXIT_VERIFY


def _cmd_pwl(args) -> int:
    fns = [read_json(path, pwl.pwl_from_json) for path in args.files]
    if args.action == "eval":
        if args.x is None:
            print("eval requires --x", file=sys.stderr)
            return EXIT_USAGE
        if not math.isfinite(args.x):
            raise _BadInput(f"--x must be finite, got {args.x}")
        for f in fns:
            print(f"{pwl.pwl_eval(f, args.x):.12g}")
    elif args.action == "conjugate":
        for f in fns:
            print(json.dumps(pwl.pwl_to_json(pwl.pwl_conjugate(f))))
    else:
        print(json.dumps(pwl.pwl_to_json(pwl.pwl_supconv(fns))))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    handlers = {
        "gen": _cmd_gen,
        "solve": _cmd_solve,
        "bench": _cmd_bench,
        "verify": _cmd_verify,
        "pwl": _cmd_pwl,
    }
    try:
        return handlers[args.command](args)
    except NumflowError as exc:
        print(f"numflow: {exc}", file=sys.stderr)
        return EXIT_NOCONV if isinstance(exc, (NonConvergence, MaxIterExceeded)) else EXIT_USAGE
    except OSError as exc:  # writing the result to stdout
        print(f"numflow: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
