"""Reference objectives and the output check run on every job.

References are computed on the base instances, outside the timed region;
relabelling does not change an optimum. Each reference records the
tolerance it was certified at, and gaps below that tolerance are reported
as that tolerance: a reference cannot resolve anything finer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from numflow import harness
from numflow.errors import NonConvergence, NumflowError
from numflow.netmodel import Instance
from numflow.utility import PwlUtility, aggregate_class, evaluate

#: tolerances the oracle is asked for, tightest (its default) first
ORACLE_LADDER = (1e-7, 1e-6, 1e-5, 1e-4)
#: HiGHS's default primal and dual feasibility tolerance
HIGHS_TOL = 1e-7
#: the loosest promise any solver makes (README: ADMM rates to ~1%); beyond
#: it a returned result is wrong, not merely inaccurate, whatever the solver
GROSS_TOL = 1e-2


@dataclass(frozen=True)
class Reference:
    objective: float
    tol: float       # tolerance the reference was certified at
    method: str


@dataclass(frozen=True)
class Outcome:
    """What one call returned, and how it fared against the reference."""

    n_iter: int | None
    converged: bool
    error: str | None         # "<ExceptionType>: message" when the call raised
    x_digest: bytes | None    # exact bytes of the aggregate rates
    gap: float | None         # relative objective gap, floored at the reference tol
    feas: float | None        # max relative capacity excess
    cons: float | None        # max relative conservation error
    ok: bool                  # converged, and every check within the job's tolerance
    valid: bool               # no gross error: see ``check``

    def fingerprint(self):
        return (self.n_iter, self.converged, self.error, self.x_digest)


def reference(inst: Instance) -> Reference:
    if isinstance(inst.classes[0].flows[0], PwlUtility):
        return _lp_reference(inst)
    if inst.paths_per_class > 1:
        return _multipath_reference(inst)
    for tol in ORACLE_LADDER:
        try:
            sol = harness.oracle_solve(inst, tol=tol)
        except NonConvergence:
            continue
        return Reference(_objective(inst, sol.u), tol, f"oracle_solve(tol={tol:g})")
    raise RuntimeError(f"oracle certifies no tolerance up to {ORACLE_LADDER[-1]:g}")


def _objective(inst: Instance, rates) -> float:
    """Utility recomputed from per-flow rates, never taken from the solver."""
    return float(sum(evaluate(f, float(r)) for cls, ui in zip(inst.classes, rates)
                     for f, r in zip(cls.flows, ui)))


def _lp_reference(inst: Instance) -> Reference:
    """The aggregate PWL LP of ``solve_pwl_aggregate``, solved by HiGHS."""
    R = inst.routing.dense()
    c = inst.network.capacities
    cols, slopes, lengths = [], [], []
    for i, cls in enumerate(inst.classes):
        agg = aggregate_class(cls.flows).aggregate.fn
        for b in range(len(agg.breakpoints) - 1):
            if agg.slopes[b] > 0:
                cols.append(i)
                slopes.append(agg.slopes[b])
                lengths.append(agg.breakpoints[b + 1] - agg.breakpoints[b])
    res = scipy.optimize.linprog(
        -np.asarray(slopes), A_ub=R[:, cols], b_ub=c,
        bounds=list(zip([0.0] * len(lengths), lengths)), method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS reference failed: {res.message}")
    offsets = sum(f.fn.offset for cls in inst.classes for f in cls.flows)
    return Reference(-float(res.fun) + offsets, HIGHS_TOL, "linprog(method=highs)")


def _multipath_reference(inst: Instance) -> Reference:
    """SLSQP on the per-path aggregates, certified by a duality gap.

    Link prices come from nonnegative least squares on the stationarity
    conditions at the SLSQP point; the dual function at those prices bounds
    the optimum from above, so the relative primal-dual gap is the
    tolerance the reference is certified at.
    """
    R = inst.routing.dense()
    c = inst.network.capacities
    n, J = inst.n_classes, inst.paths_per_class
    w = [np.asarray([f.w for f in cls.flows]) for cls in inst.classes]
    wbar = np.asarray([wi.sum() for wi in w])
    # flow objective = aggregate objective + sum_k w_k log(w_k / wbar_i)
    const = float(sum(np.sum(wi * np.log(wi / wb)) for wi, wb in zip(w, wbar)))

    def neg_obj(x):
        xb = np.maximum(x.reshape(n, J).sum(axis=1), 1e-300)
        return -float(wbar @ np.log(xb)), -np.repeat(wbar / xb, J)

    x0 = np.full(n * J, 0.5 * float(np.min(c / np.maximum(R.sum(axis=1), 1.0))))
    res = scipy.optimize.minimize(
        neg_obj, x0, jac=True, method="SLSQP", bounds=[(0.0, None)] * (n * J),
        constraints=[{"type": "ineq", "fun": lambda x: c - R @ x, "jac": lambda x: -R}],
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    x = np.maximum(res.x, 0.0)
    x = x * min(1.0, float(np.min(c / np.maximum(R @ x, 1e-300))))  # exactly feasible
    primal = -neg_obj(x)[0]
    grad = -neg_obj(x)[1]
    active = np.where(R @ x >= c * (1 - 1e-9))[0]
    lam = np.zeros(R.shape[0])
    if len(active):
        pos = x > 1e-9
        lam[active], _ = scipy.optimize.nnls(R[active][:, pos].T, grad[pos])
    prices = (R.T @ lam).reshape(n, J).min(axis=1)
    if np.any(prices <= 0):
        raise RuntimeError("multipath reference: a class has a free path")
    dual = float(lam @ c + np.sum(wbar * (np.log(wbar / prices) - 1.0)))
    objective = primal + const
    tol = max((dual - primal) / abs(objective), 1e-12)
    return Reference(objective, tol, "SLSQP + duality gap")


def check(job, result, ref: Reference) -> Outcome:
    """Feasibility, conservation and objective gap of one returned result.

    ``ok`` needs the solver's own convergence flag and every check within
    the job's tolerances. ``valid`` fails only on a gross error: rates that
    are not finite and nonnegative, rates that miss the aggregates or load
    that exceeds capacity by more than GROSS_TOL, or an exception that is
    not one of the library's typed errors.
    """
    inst = job.inst
    R = inst.routing.dense()
    c = inst.network.capacities
    if inst.paths_per_class > 1:
        # multipath: u[i] is (flows, paths); loads come from path columns
        x = np.asarray(result.x, dtype=float)
        path_rates = np.concatenate([ui.sum(axis=0) for ui in result.u])
        cons = max(float(np.max(np.abs(ui.sum(axis=0) - xi) / np.maximum(np.abs(xi), 1.0)))
                   for ui, xi in zip(result.u, x))
        flow_rates = [ui.sum(axis=1) for ui in result.u]
        load = R @ path_rates
    else:
        x = np.asarray(result.x, dtype=float)
        flow_rates = [np.asarray(ui, dtype=float) for ui in result.u]
        sums = np.asarray([ui.sum() for ui in flow_rates])
        cons = float(np.max(np.abs(sums - x) / np.maximum(np.abs(x), 1.0)))
        load = R @ sums
    feas = max(float(np.max((load - c) / c)), 0.0)
    all_rates = np.concatenate([np.ravel(ui) for ui in result.u])
    sane = bool(np.all(np.isfinite(all_rates)) and np.all(all_rates >= 0))
    f = _objective(inst, flow_rates)
    gap = max(abs(f - ref.objective) / abs(ref.objective), ref.tol) if np.isfinite(f) else None
    ok = (bool(result.converged) and sane and gap is not None and gap <= job.obj_tol
          and feas <= job.feas_tol and cons <= job.cons_tol)
    valid = sane and cons <= GROSS_TOL and feas <= GROSS_TOL
    return Outcome(int(result.n_iter), bool(result.converged), None, x.tobytes(),
                   gap, feas, cons, ok, valid)


def failed_call(exc: Exception) -> Outcome:
    """Outcome of a call that raised; typed library errors are honest failures."""
    return Outcome(None, False, f"{type(exc).__name__}: {exc}", None, None, None, None,
                   ok=False, valid=isinstance(exc, NumflowError))
