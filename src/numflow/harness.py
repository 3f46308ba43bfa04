"""Reference oracle, experiment runner, and report emission.

The oracle solves the link-price dual over the nonnegative orthant by one
primal-dual interior-point Newton loop in the link prices and the link
slacks. By the paper's aggregation theorem each class enters the dual only
through its aggregate, so each Newton step costs one L x L linear solve
(``numpy.linalg.solve``), whatever the number of flows. The class rates at
the final path prices get the share split every alpha-fair solver uses, and
the result is accepted only if its flow-level KKT residual, which takes each
flow's own conjugate derivative, meets the tolerance. It shares no iteration
machinery with the first-order solvers.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import NonConvergence, NotSupportedUtility, _is_int
from .netmodel import (Instance, Network, gen_instance, iridium_topology, load_instance,
                       small_topology, write_text)
from .rng import mix
from .solvers import SolverParams, Solution, _solution, _start_rate, solve_admm, solve_cp, solve_gradproj
from .utility import check_tol, evaluate, kkt_check_single_path

VERSION = "0.1.0"

SOLVERS = {
    "admm": solve_admm,
    "cp": solve_cp,
    "gradproj": solve_gradproj,
}


def oracle_solve(inst: Instance, tol: float = 1e-7) -> Solution:
    """Independent reference solution via the link-price dual.

    The dual is min c.rho + sum_i g_i(v_i) over link prices rho >= 0, with
    v = R^T rho the path prices and g_i the conjugate of class i's
    aggregate utility. It is solved by primal-dual path following (Boyd &
    Vandenberghe, Convex Optimization, section 11.7) in rho > 0 and link
    slacks s > 0, with residual r_p = c - R x - s. The class rates are always
    read off the prices, x = ``inst.class_table.rates(v)``, so stationarity
    holds exactly. Each Newton step solves

        (R D R^T + diag(s / rho)) d_rho = (sigma mu - rho s) / rho - r_p

    by one L x L ``numpy.linalg.solve``, with D = -dx/dv, mu = rho.s / L
    and sigma = min(0.1, err), and keeps 0.99 of the step to the boundary
    of rho and s. The diagonal of R D R^T is raised by 1e-12 of itself, so
    that the system stays nonsingular when the saturated links are
    dependent and their prices are not unique; a singular system raises
    NonConvergence. err is the largest |r_p| or rho s over the
    links, each divided by max(c, 1); the loop stops when err <= 1e-10
    and raises NonConvergence after 100 steps. ``n_iter`` counts the
    Newton steps. The result must then pass the flow-level KKT check at
    ``tol``, which must be finite and >= 0 (else ValueError, before any step).
    """
    t0 = time.perf_counter()
    check_tol(tol)
    if inst.paths_per_class != 1:
        raise NotSupportedUtility("oracle handles single-path instances")
    R = inst.routing.dense()
    c = inst.network.capacities
    classes = inst.class_table.require()
    n_links = len(c)
    scale = np.maximum(c, 1.0)

    # every (link, link, class) term of R D R^T, as flat matrix index and class
    cls, link = np.nonzero(R.T)
    length = np.bincount(cls, minlength=len(classes.k))
    first = np.cumsum(length) - length
    block = length[cls]
    row = np.repeat(np.arange(len(cls)), block)
    col = first[cls[row]] + np.arange(len(row)) - np.repeat(np.cumsum(block) - block, block)
    pair, pair_cls = link[row] * n_links + link[col], cls[row]

    # start with every class at ``_start_rate`` x0, and one price on every link
    price = np.mean((classes.k / _start_rate(R, c)) ** (1.0 / classes.p))  # mean U_i'(x0)
    rho = np.full(n_links, price / np.mean(np.maximum(R.sum(axis=1), 1.0)))
    s = np.maximum(c - R @ classes.rates(R.T @ rho)[0], c / 2)
    for n_iter in range(101):
        x, slope = classes.rates(R.T @ rho)
        r_p = c - R @ x - s
        err = float(np.max(np.maximum(np.abs(r_p), rho * s) / scale))
        if err <= 1e-10:
            break
        if n_iter == 100:
            raise NonConvergence(f"oracle dual residual {err:.3e} after 100 Newton steps")
        target = min(0.1, err) * (rho @ s) / n_links - rho * s
        H = np.bincount(pair, weights=-slope[pair_cls], minlength=n_links**2).reshape(n_links, n_links)
        H.flat[::n_links + 1] = H.flat[::n_links + 1] * (1.0 + 1e-12) + s / rho
        try:
            d_rho = np.linalg.solve(H, target / rho - r_p)
        except np.linalg.LinAlgError as exc:
            raise NonConvergence(f"oracle Newton system is singular: {exc}") from exc
        d_s = (target - s * d_rho) / rho
        z, dz = np.concatenate([rho, s]), np.concatenate([d_rho, d_s])
        alpha = min(1.0, 0.99 * float(np.min(-z[dz < 0] / dz[dz < 0], initial=np.inf)))
        rho, s = rho + alpha * d_rho, s + alpha * d_s

    u, objective = classes.split(x)
    report = kkt_check_single_path(inst, x, u, rho, tol=tol)
    if not report.passed:
        raise NonConvergence(
            f"oracle residual {report.max_residual:.3e} exceeds {tol:.1e}"
        )
    return _solution(R, x, u, objective, rho, n_iter, True, t0)


@dataclass(frozen=True)
class ExperimentConfig:
    topology: str = "small"                  # small | iridium | instance file path
    n_values: tuple[int, ...] = (10, 15, 20, 25, 30)
    seed: int = 1
    solvers: tuple[str, ...] = ("admm", "cp", "gradproj")
    params: dict = field(default_factory=dict)   # solver name -> SolverParams
    repetitions: int = 10
    endpoint_rule: str | None = None

    def __post_init__(self):
        if not isinstance(self.topology, str):
            raise TypeError(f"'topology' must be a string, got {type(self.topology).__name__}")
        if not _is_int(self.seed):
            raise ValueError("seed must be an integer")
        if not _is_int(self.repetitions) or self.repetitions < 1:
            raise ValueError("repetitions must be an integer >= 1")
        if not all(_is_int(n) and n >= 1 for n in self.n_values):
            raise ValueError("n_values must hold integers >= 1")
        for s in self.solvers:
            if s not in SOLVERS:
                raise ValueError(f"unknown solver: {s}")
        for s in self.params:
            if s not in SOLVERS:
                raise ValueError(f"'params' names an unknown solver: {s}")

    def solver_params(self, solver: str) -> SolverParams:
        return self.params.get(solver, SolverParams())

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentConfig":
        """The config a document describes; absent keys keep the field defaults.

        A key that names no field raises ValueError. ``params`` and each
        entry in it must be JSON objects, ``n_values`` and ``solvers`` JSON
        arrays; otherwise TypeError names the key.
        Numbers are passed on as they are, so the constructor rejects a
        ``seed``, ``repetitions`` or N that is fractional or a bool.
        """
        def typed(key, kind, value):
            if not isinstance(value, kind):
                raise TypeError(f"{key!r} must be a JSON {'object' if kind is dict else 'array'}")
            return value

        convert = {
            "n_values": lambda ns: tuple(typed("n_values", list, ns)),
            "solvers": lambda ss: tuple(typed("solvers", list, ss)),
            "params": lambda ps: {name: SolverParams.from_json(typed(f"params.{name}", dict, p))
                                  for name, p in typed("params", dict, ps).items()},
        }
        unknown = [k for k in doc if k not in cls.__dataclass_fields__]
        if unknown:
            raise ValueError(f"unknown bench config key: {unknown[0]!r}")
        return cls(**{k: convert[k](v) if k in convert else v for k, v in doc.items()})


@dataclass(frozen=True)
class ReportRow:
    solver: str
    n: int
    f_star: float
    l_max: float
    n_iter: int
    t_sec: float       # median over repetitions
    t_mean_sec: float
    converged: bool
    error: str | None = None   # "<ExceptionClass>: <message>" of a failed row


@dataclass(frozen=True)
class Report:
    rows: tuple[ReportRow, ...]
    version: str = VERSION
    seed: int = 0

    def to_json(self) -> dict:
        rows = [{("N" if k == "n" else k): v for k, v in asdict(r).items()} for r in self.rows]
        return {"version": self.version, "seed": self.seed, "rows": rows}

    @classmethod
    def from_json(cls, doc: dict) -> "Report":
        def row(r: dict) -> ReportRow:
            r = {("n" if k == "N" else k): v for k, v in r.items()}
            return ReportRow(**{f.name: r[f.name] for f in fields(ReportRow) if f.name in r})

        rows = tuple(row(r) for r in doc["rows"])
        return cls(rows=rows, version=doc.get("version", VERSION), seed=int(doc.get("seed", 0)))


def resolve_topology(name: str) -> tuple[Network, str]:
    """Topology plus its default endpoint rule."""
    if name == "small":
        return small_topology(), "all-pairs"
    if name == "iridium":
        return iridium_topology(), "gateway-constrained"
    inst = load_instance(name)
    return inst.network, "all-pairs"


def _recomputed_row(inst: Instance, solver: str, sol: Solution, times: list[float]) -> ReportRow:
    f_star = float(
        sum(evaluate(f, r) for cls, ui in zip(inst.classes, sol.u) for f, r in zip(cls.flows, ui))
    )
    return ReportRow(
        solver=solver,
        n=inst.n_classes,
        f_star=f_star,
        l_max=sol.l_max,
        n_iter=sol.n_iter,
        t_sec=statistics.median(times),
        t_mean_sec=statistics.fmean(times),
        converged=sol.converged,
    )


def run_experiment(cfg: ExperimentConfig) -> Report:
    """One row per (solver, N); failed rows are flagged, not fatal.

    A row whose solve raised keeps NaN values and records the exception's
    class and message in ``error``, which the JSON report carries and the
    CSV report leaves out.

    The per-N instance seed is mix(base seed, N), so adding N values never
    reshuffles existing instances. Rows run one after another, so each
    row's timing, the ``wall_time`` of its repetitions' Solutions, is taken
    with no other solve running in the process.
    """
    net, default_rule = resolve_topology(cfg.topology)
    rule = cfg.endpoint_rule or default_rule

    jobs = []
    for n in cfg.n_values:
        inst = gen_instance(net, n, mix(cfg.seed, n), endpoint_rule=rule)
        for solver in cfg.solvers:
            jobs.append((solver, n, inst))

    def run(job) -> ReportRow:
        solver, n, inst = job
        fn = SOLVERS[solver]
        params = cfg.solver_params(solver)
        try:
            sols = [fn(inst, params) for _ in range(cfg.repetitions)]
            return _recomputed_row(inst, solver, sols[-1], [sol.wall_time for sol in sols])
        except Exception as exc:
            return ReportRow(solver, n, float("nan"), float("nan"), 0, 0.0, 0.0, False,
                             f"{type(exc).__name__}: {exc}")

    rows = [run(job) for job in jobs]
    rows.sort(key=lambda r: (r.solver, r.n))
    return Report(rows=tuple(rows), seed=cfg.seed)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def report_to_csv(rep: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["solver", "N", "f_star", "l_max", "n_iter", "t_sec", "converged"])
    for r in rep.rows:
        writer.writerow(
            [r.solver, r.n, _fmt(r.f_star), _fmt(r.l_max), r.n_iter, _fmt(r.t_sec), _fmt(r.converged)]
        )
    return buf.getvalue()


def emit_report(rep: Report, fmt: str, path: str) -> None:
    """Write the report as CSV or JSON with deterministic ordering."""
    if fmt == "csv":
        payload = report_to_csv(rep)
    elif fmt == "json":
        payload = json.dumps(rep.to_json(), indent=2) + "\n"
    else:
        raise ValueError(f"unknown report format: {fmt}")
    write_text(path, payload)
