"""Reference oracle, experiment runner, and report emission.

The oracle solves the link-price dual over the nonnegative orthant
(quasi-Newton with bound constraints, then a Newton polish on the saturated
links). By the paper's aggregation theorem each class enters the dual only
through its aggregate, so the dual is evaluated on N class aggregates. The
per-flow rates are then recovered as conjugate derivatives of the final
path prices, and the result is accepted only if their full flow-level KKT
residual meets the tolerance. It shares no iteration machinery with the
first-order solvers and is intended for small instances.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from .errors import IoError, NonConvergence, NotSupportedUtility
from .netmodel import Instance, Network, gen_instance, iridium_topology, load_instance, small_topology
from .rng import mix
from .solvers import SolverParams, Solution, solve_admm, solve_cp, solve_gradproj
from .utility import NegPower, WeightedLog, evaluate, kkt_check_single_path

VERSION = "0.1.0"

SOLVERS = {
    "admm": solve_admm,
    "cp": solve_cp,
    "gradproj": solve_gradproj,
}


def _dual_terms(inst: Instance):
    """Per-class flow parameter arrays for the dual objective."""
    terms = []
    for cls in inst.classes:
        fams = cls.flows
        if all(isinstance(f, WeightedLog) for f in fams):
            terms.append(("log", np.asarray([f.w for f in fams]), None))
        elif all(isinstance(f, NegPower) for f in fams):
            a_vals = {f.a for f in fams}
            if len(a_vals) != 1:
                raise NotSupportedUtility("oracle requires a common exponent per class")
            terms.append(("power", np.asarray([f.w for f in fams]), fams[0].a))
        else:
            raise NotSupportedUtility("oracle handles weighted-log and negative-power classes")
    return terms


def _primal_rates(terms, v: np.ndarray):
    """u[i][k] = conjugate derivative of flow (i,k) at the path price v_i."""
    return [w / vi if tag == "log" else (a * w / vi) ** (1.0 / (a + 1.0))
            for (tag, w, a), vi in zip(terms, v)]


class _AggregateDual:
    """The link-price dual on class aggregates, by the aggregation theorem.

    Class i's rate at path price v_i is x_i = k_i v_i^-p_i, with k = sum_k w_k
    and p = 1 for a log class, k = sum_k (a w_k)^p and p = 1/(a+1) for a
    negative-power class with exponent a. Built once, these make the dual's
    value and gradient N-vector expressions plus one product with R.
    """

    def __init__(self, R, c, terms):
        self.R, self.c = R, c
        self.log = np.array([tag == "log" for tag, _, _ in terms])
        self.p = np.array([1.0 if tag == "log" else 1.0 / (a + 1.0) for tag, _, a in terms])
        self.k = np.array([np.sum(w if tag == "log" else (a * w) ** p)
                           for (tag, w, a), p in zip(terms, self.p)])
        self.wlogw = sum(float(np.sum(w * np.log(w))) for tag, w, _ in terms if tag == "log")

    def rates(self, v: np.ndarray):
        """Class rates x(v) and their slopes dx_i/dv_i = -p_i x_i / v_i."""
        x = np.where(self.log, self.k / v, self.k * v ** -self.p)
        return x, -self.p * x / v

    def __call__(self, rho: np.ndarray):
        """Dual value and gradient at the link prices ``rho``."""
        v = np.maximum(self.R.T @ rho, 1e-12)
        log, k, q = self.log, self.k, 1.0 - self.p
        val = (rho @ self.c + self.wlogw - k[log] @ (np.log(v[log]) + 1.0)
               - (k[~log] / q[~log]) @ v[~log] ** q[~log])
        return float(val), self.c - self.R @ self.rates(v)[0]


def oracle_solve(inst: Instance, tol: float = 1e-7) -> Solution:
    """Independent reference solution via the link-price dual."""
    t0 = time.perf_counter()
    if inst.paths_per_class != 1:
        raise NotSupportedUtility("oracle handles single-path instances")
    R = inst.routing.dense()
    c = inst.network.capacities
    terms = _dual_terms(inst)
    dual = _AggregateDual(R, c, terms)

    rho0 = np.full(R.shape[0], 0.1)
    res = scipy.optimize.minimize(
        dual,
        rho0,
        jac=True,
        method="L-BFGS-B",
        bounds=[(0.0, None)] * R.shape[0],
        options={"maxiter": 20000, "ftol": 1e-18, "gtol": 1e-12},
    )
    rho = _newton_polish(np.maximum(res.x, 0.0), R, c, dual.rates)

    v = np.maximum(R.T @ rho, 1e-12)
    u = tuple(_primal_rates(terms, v))
    x = np.asarray([ui.sum() for ui in u])
    report = kkt_check_single_path(inst, x, u, rho, tol=tol)
    if not report.passed:
        raise NonConvergence(
            f"oracle residual {report.max_residual:.3e} exceeds {tol:.1e}"
        )
    objective = float(
        sum(evaluate(f, r) for cls, ui in zip(inst.classes, u) for f, r in zip(cls.flows, ui))
    )
    return Solution(
        x=x,
        u=u,
        lam=None,
        rho=rho,
        objective=objective,
        l_max=float(np.max(R @ x)),
        n_iter=int(res.nit),
        wall_time=time.perf_counter() - t0,
        converged=True,
    )


def _newton_polish(rho, R, c, rates, rounds: int = 40):
    """Drive the saturated-link equations to machine precision.

    Solves R_A x(rho) = c_A over the links with positive price by damped
    Newton steps, with x and its slopes from ``rates``. Dependent active
    links make the Jacobian singular; the least-squares step then splits
    the price among them non-uniquely, but x(rho) is unique. Returns the
    last rho if the SVD itself fails.
    """
    rho = rho.copy()
    for _ in range(rounds):
        active = np.where(rho > 1e-9)[0]
        if len(active) == 0:
            return rho
        x, slopes = rates(np.maximum(R.T @ rho, 1e-12))
        resid = (R @ x - c)[active]
        if np.max(np.abs(resid)) < 1e-13:
            return rho
        Ra = R[active]
        jac = (Ra * slopes) @ Ra.T
        try:
            step = np.linalg.lstsq(jac, resid, rcond=None)[0]
        except np.linalg.LinAlgError:
            return rho
        rho_new = rho.copy()
        rho_new[active] = rho[active] - step
        if np.any(rho_new[active] < 0):
            # a link leaves the active set; take a damped step instead
            rho_new[active] = np.maximum(rho[active] - 0.5 * step, 0.0)
        rho = rho_new
    return rho


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
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        for s in self.solvers:
            if s not in SOLVERS:
                raise ValueError(f"unknown solver: {s}")

    def solver_params(self, solver: str) -> SolverParams:
        return self.params.get(solver, SolverParams())

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentConfig":
        params = {
            name: SolverParams.from_json(p) for name, p in doc.get("params", {}).items()
        }
        return cls(
            topology=doc.get("topology", "small"),
            n_values=tuple(int(n) for n in doc.get("n_values", (10, 15, 20, 25, 30))),
            seed=int(doc.get("seed", 1)),
            solvers=tuple(doc.get("solvers", ("admm", "cp", "gradproj"))),
            params=params,
            repetitions=int(doc.get("repetitions", 10)),
            endpoint_rule=doc.get("endpoint_rule"),
        )


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
        return {
            "version": self.version,
            "seed": self.seed,
            "rows": [
                {
                    "solver": r.solver,
                    "N": r.n,
                    "f_star": r.f_star,
                    "l_max": r.l_max,
                    "n_iter": r.n_iter,
                    "t_sec": r.t_sec,
                    "t_mean_sec": r.t_mean_sec,
                    "converged": r.converged,
                    "error": r.error,
                }
                for r in self.rows
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Report":
        rows = tuple(
            ReportRow(
                solver=r["solver"],
                n=int(r["N"]),
                f_star=float(r["f_star"]),
                l_max=float(r["l_max"]),
                n_iter=int(r["n_iter"]),
                t_sec=float(r["t_sec"]),
                t_mean_sec=float(r["t_mean_sec"]),
                converged=bool(r["converged"]),
                error=r.get("error"),
            )
            for r in doc["rows"]
        )
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
    load = inst.routing.dense() @ sol.x
    return ReportRow(
        solver=solver,
        n=inst.n_classes,
        f_star=f_star,
        l_max=float(np.max(load)),
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
    row's timing is taken with no other solve running in the process.
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
            times = []
            sol = None
            for _ in range(cfg.repetitions):
                t0 = time.perf_counter()
                sol = fn(inst, params)
                times.append(time.perf_counter() - t0)
            return _recomputed_row(inst, solver, sol, times)
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
    try:
        with open(path, "w") as fh:
            fh.write(payload)
    except OSError as exc:
        raise IoError(str(exc)) from exc
