"""Reference oracle, experiment runner, and report emission.

The oracle solves the link-price dual over the nonnegative orthant
(quasi-Newton with bound constraints, then a Newton polish on the saturated
links). By the paper's aggregation theorem each class enters the dual only
through its aggregate, so the dual is evaluated on N class aggregates. The
class rates at the final path prices get the share split every alpha-fair
solver uses, and the result is accepted only if its flow-level KKT residual,
which takes each flow's own conjugate derivative, meets the tolerance. It
shares no iteration machinery with the first-order solvers and is intended
for small instances.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import scipy.optimize

from .errors import NonConvergence, NotSupportedUtility
from .netmodel import (Instance, Network, gen_instance, iridium_topology, load_instance, small_topology,
                       write_text)
from .rng import mix
from .solvers import SolverParams, Solution, _apportioned, solve_admm, solve_cp, solve_gradproj
from .utility import FairClasses, evaluate, kkt_check_single_path

VERSION = "0.1.0"

SOLVERS = {
    "admm": solve_admm,
    "cp": solve_cp,
    "gradproj": solve_gradproj,
}


class _AggregateDual:
    """The link-price dual on class aggregates, by the aggregation theorem.

    Class i's rate at path price v_i is x_i = k_i v_i^-p_i, with k, p and the
    log classes read from the ``FairClasses`` table. They make the dual's
    value and gradient N-vector expressions plus one product with R.
    """

    def __init__(self, R, c, classes: FairClasses):
        self.R, self.c = R, c
        self.log, self.p, self.k = classes.log, classes.p, classes.k
        self.wlogw = sum(float(np.sum(w * np.log(w)))
                         for w, log in zip(classes.weights, classes.log) if log)

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
    classes = FairClasses(cls.flows for cls in inst.classes)
    dual = _AggregateDual(R, c, classes)

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

    x = dual.rates(np.maximum(R.T @ rho, 1e-12))[0]
    sol = _apportioned(R, classes, x, rho, int(res.nit), True, t0)
    report = kkt_check_single_path(inst, sol.x, sol.u, rho, tol=tol)
    if not report.passed:
        raise NonConvergence(
            f"oracle residual {report.max_residual:.3e} exceeds {tol:.1e}"
        )
    sol.wall_time = time.perf_counter() - t0  # the certificate is part of the solve
    return sol


def _newton_polish(rho, R, c, rates):
    """Drive the saturated-link equations to machine precision.

    Solves R_A x(rho) = c_A over the links with positive price by damped
    Newton steps, with x and its slopes from ``rates``. Dependent active
    links make the Jacobian singular; the least-squares step then splits
    the price among them non-uniquely, but x(rho) is unique. Returns the
    last rho if the SVD itself fails.
    """
    rho = rho.copy()
    for _ in range(40):
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
        if not isinstance(self.topology, str):
            raise TypeError(f"'topology' must be a string, got {type(self.topology).__name__}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        for s in self.solvers:
            if s not in SOLVERS:
                raise ValueError(f"unknown solver: {s}")

    def solver_params(self, solver: str) -> SolverParams:
        return self.params.get(solver, SolverParams())

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentConfig":
        """The config a document describes; absent keys keep the field defaults.

        ``params`` and each entry in it must be JSON objects, ``n_values``
        and ``solvers`` JSON arrays; otherwise TypeError names the key.
        """
        def typed(key, kind, value):
            if not isinstance(value, kind):
                raise TypeError(f"{key!r} must be a JSON {'object' if kind is dict else 'array'}")
            return value

        convert = {
            "n_values": lambda ns: tuple(int(n) for n in typed("n_values", list, ns)),
            "seed": int,
            "solvers": lambda ss: tuple(typed("solvers", list, ss)),
            "params": lambda ps: {name: SolverParams.from_json(typed(f"params.{name}", dict, p))
                                  for name, p in typed("params", dict, ps).items()},
            "repetitions": int,
        }
        return cls(**{k: convert[k](v) if k in convert else v
                      for k, v in doc.items() if k in cls.__dataclass_fields__})


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
    write_text(path, payload)
