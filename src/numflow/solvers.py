"""Iterative optimizers over single-path instances.

Three solvers share the aggregate-flow structure:

* ``solve_admm``: consensus splitting with a box projection for link
  loads and a prefactored SPD solve for the aggregate rates. Every flow
  update of a class is ``u_k = w_k t_i`` for one class scalar ``t_i``, so
  an iteration works on N-vectors only; flow rates are built once, after
  the loop.
* ``solve_cp``: primal-dual iteration with componentwise proximal maps on
  the flow-level problem. The flow-to-link operator is applied through
  class sums (``np.add.reduceat``) and the routing matrix, never as a
  dense link-by-flow matrix.
* ``solve_gradproj``: projected gradient ascent on the N-variable
  aggregate problem, apportioned to flows at the end. Its loop is the
  J = 1 case of the per-path loop that ``solve_multipath_aggregate`` runs
  on N*J variables.

All three require weighted-log utilities (the closed-form case). A fourth
path, ``solve_pwl_aggregate``, handles piecewise-linear utilities via
supremal convolution and an LP over the convolution's segments, solved by
HiGHS (``scipy.optimize.linprog``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import DimensionMismatch, MaxIterExceeded, NotSupportedUtility
from .netmodel import Instance, RoutingMatrix
from .pwl import pwl_apportion, pwl_eval
from .utility import PwlUtility, WeightedLog, aggregate_kkt_residual


@dataclass(frozen=True)
class SolverParams:
    r: float = 20.0          # ADMM penalty
    pct: float = 1e-4        # ADMM relative change stopping threshold
    alpha: float = 1e-2      # gradient projection step size
    sigma: float = 1.0       # CP dual step
    tau: float = 0.015       # CP primal step
    theta: float = 1.0       # CP extrapolation
    max_iter: int = 20000
    tol: float = 1e-5        # KKT residual target (CP, gradient projection)

    def __post_init__(self):
        if self.r <= 0 or self.alpha <= 0 or self.sigma <= 0 or self.tau <= 0:
            raise ValueError("step/penalty parameters must be positive")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")

    def to_json(self) -> dict:
        return {
            "r": self.r, "pct": self.pct, "alpha": self.alpha,
            "sigma": self.sigma, "tau": self.tau, "theta": self.theta,
            "max_iter": self.max_iter, "tol": self.tol,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SolverParams":
        return cls(**{k: doc[k] for k in doc if k in cls.__dataclass_fields__})


@dataclass
class Solution:
    x: np.ndarray                       # per-class aggregate rates
    u: tuple[np.ndarray, ...]           # per-class flow rates
    lam: np.ndarray | None              # class-consistency duals (ADMM only)
    rho: np.ndarray | None              # link duals
    objective: float
    l_max: float
    n_iter: int
    wall_time: float
    converged: bool

    def to_json(self) -> dict:
        return {
            "x": [float(v) for v in self.x],
            "u": [[float(v) for v in ui] for ui in self.u],
            "lambda": None if self.lam is None else [float(v) for v in self.lam],
            "rho": None if self.rho is None else [float(v) for v in self.rho],
            "objective": self.objective,
            "l_max": self.l_max,
            "n_iter": self.n_iter,
            "wall_time": self.wall_time,
            "converged": self.converged,
        }


class SpdFactor:
    """Solver for A x = b with A = I + R^T R, reusable across iterations.

    A wide R (fewer rows than columns) factors the smaller Gram matrix
    I + R R^T and solves by the Woodbury identity
    x = b - R^T (I + R R^T)^{-1} R b; otherwise I + R^T R is factored.
    Both Gram matrices have eigenvalues >= 1, so either form is well
    conditioned.
    """

    def __init__(self, R: np.ndarray):
        L, n = R.shape
        self._wide = L < n
        self._R = R
        gram = R @ R.T if self._wide else R.T @ R
        self._cho = scipy.linalg.cho_factor(np.eye(min(L, n)) + gram)

    def solve(self, b: np.ndarray) -> np.ndarray:
        if self._wide:
            R = self._R
            return b - R.T @ scipy.linalg.cho_solve(self._cho, R @ b)
        return scipy.linalg.cho_solve(self._cho, b)


def spd_prefactor(R: RoutingMatrix | np.ndarray) -> SpdFactor:
    dense = R.dense() if isinstance(R, RoutingMatrix) else np.asarray(R, dtype=float)
    return SpdFactor(dense)


def _log_arrays(inst: Instance):
    """Dense routing, capacities, per-class weight vectors for log instances."""
    ws = []
    for cls in inst.classes:
        if not all(isinstance(f, WeightedLog) for f in cls.flows):
            raise NotSupportedUtility("solver requires weighted-log utilities")
        ws.append(np.asarray([f.w for f in cls.flows], dtype=float))
    return inst.routing.dense(), inst.network.capacities, ws


def _log_objective(ws: list[np.ndarray], u: Sequence[np.ndarray]) -> float:
    return float(sum(np.sum(w * np.log(ui)) for w, ui in zip(ws, u)))


# ---------------------------------------------------------------------------
# ADMM


def admm_u_update(psi: float, r: float, w: np.ndarray) -> np.ndarray:
    """Closed-form minimizer of the per-class flow subproblem.

    u_k = 2 w_k / (psi + sqrt(psi^2 + 4 r wbar)); always strictly positive.
    """
    w = np.asarray(w, dtype=float)
    wbar = float(w.sum())
    return 2.0 * w / (psi + np.sqrt(psi * psi + 4.0 * r * wbar))


def solve_admm(inst: Instance, params: SolverParams) -> Solution:
    """Consensus ADMM on the recast problem with weighted-log utilities.

    Each iteration works on N-vectors. By the closed form of
    ``admm_u_update``, class i's flows are u_k = w_k t_i with
    t_i = 2 / (psi_i + sqrt(psi_i^2 + 4 r wbar_i)). The class sum is then
    wbar_i t_i, and the class's share of the log objective is
    sum_k w_k log w_k + wbar_i log t_i, whose first term is a constant.
    The loop carries t and builds the flow rates once, after it stops.
    One product R x per iteration serves the y-step, the rho-step and the
    augmented Lagrangian.

    Stops when the augmented Lagrangian changes by less than ``params.pct``
    percent (relative change below pct/100) on three consecutive
    iterations, guarding against transient flat spots, or at ``max_iter``
    (non-convergence is flagged, not raised).
    """
    t0 = time.perf_counter()
    if inst.paths_per_class != 1:
        raise NotSupportedUtility("single-path instances only")
    R, c, ws = _log_arrays(inst)
    n = len(ws)
    r = params.r
    wbar = np.asarray([w.sum() for w in ws])
    w_log_w = float(sum(np.sum(w * np.log(w)) for w in ws))
    factor = spd_prefactor(inst.routing)

    # start from u = 1 for every flow: class sums K_i, log objective 0
    s = np.asarray([float(len(w)) for w in ws])
    x = s.copy()
    Rx = R @ x
    y = Rx
    lam = np.zeros(n)
    rho = np.zeros(R.shape[0])

    def lagrangian(objective: float) -> float:
        penalty = 0.5 * r * (np.dot(x - s, x - s) + np.dot(Rx - y, Rx - y))
        return -objective + float(lam @ (s - x)) + float(rho @ (y - Rx)) + penalty

    prev = lagrangian(0.0)
    threshold = params.pct / 100.0
    converged = False
    flat_streak = 0
    it = 0
    for it in range(1, params.max_iter + 1):
        psi = lam - r * x
        t = 2.0 / (psi + np.sqrt(psi * psi + 4.0 * r * wbar))
        s = wbar * t
        y = np.minimum(Rx - rho / r, c)
        x = factor.solve(s + lam / r + R.T @ (y + rho / r))
        Rx = R @ x
        lam = lam + r * (s - x)
        rho = rho + r * (y - Rx)
        cur = lagrangian(w_log_w + float(wbar @ np.log(t)))
        if abs(cur - prev) < threshold * max(abs(prev), 1e-12):
            flat_streak += 1
            if flat_streak >= 3:
                converged = True
                break
        else:
            flat_streak = 0
        prev = cur

    u = tuple(ws[i] * t[i] for i in range(n))
    # The splitting multiplier converges to minus the capacity dual (the
    # y-stationarity of the recast problem pairs rho with -eta), so the
    # reported link duals are negated.
    return Solution(
        x=x,
        u=u,
        lam=lam,
        rho=-rho,
        objective=_log_objective(ws, u),
        l_max=float(np.max(Rx)),
        n_iter=it,
        wall_time=time.perf_counter() - t0,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# Euclidean projection onto the routing polytope


def _project_qp(z: np.ndarray, G: np.ndarray, h: np.ndarray, max_changes: int):
    """min 0.5*||x - z||^2 s.t. G x <= h, by a primal active-set method.

    Requires x = 0 feasible (h >= 0). Returns (x, nu) with nu the
    multipliers of all rows (zero off the final working set). Constraint
    selection ties break on the smallest row index for termination.
    """
    m = G.shape[0]
    x = np.zeros_like(z)
    work: list[int] = []
    scale = 1.0 + float(np.linalg.norm(z))
    for _ in range(max_changes):
        d = z - x
        if work:
            Gw = G[work]
            M = Gw @ Gw.T
            nu_w, *_ = np.linalg.lstsq(M, Gw @ d, rcond=None)
            p = d - Gw.T @ nu_w
        else:
            nu_w = np.empty(0)
            p = d
        if np.linalg.norm(p) <= 1e-12 * scale:
            if work and np.min(nu_w) < -1e-10:
                # drop the most negative multiplier (smallest index on ties)
                j = int(np.argmin(nu_w))
                work.pop(j)
                continue
            nu = np.zeros(m)
            for idx, row in enumerate(work):
                nu[row] = max(nu_w[idx], 0.0)
            return x, nu
        # longest feasible step along p
        alpha = 1.0
        blocker = -1
        Gp = G @ p
        slackness = h - G @ x
        for i in range(m):
            if i in work or Gp[i] <= 1e-14 * scale:
                continue
            a = max(slackness[i], 0.0) / Gp[i]
            if a < alpha - 1e-15:
                alpha = a
                blocker = i
        x = x + alpha * p
        if blocker >= 0:
            work.append(blocker)
    raise MaxIterExceeded("projection active-set loop did not settle")


def _polytope_constraints(R: np.ndarray, c: np.ndarray):
    n = R.shape[1]
    G = np.vstack([R, -np.eye(n)])
    h = np.concatenate([c, np.zeros(n)])
    return G, h


def project_polytope(x, R: RoutingMatrix | np.ndarray, c) -> np.ndarray:
    """Euclidean projection onto {x' : R x' <= c, x' >= 0}."""
    proj, _ = project_polytope_with_duals(x, R, c)
    return proj


def project_polytope_with_duals(x, R: RoutingMatrix | np.ndarray, c):
    """Projection plus multipliers (link rows first, nonnegativity rows after)."""
    dense = R.dense() if isinstance(R, RoutingMatrix) else np.asarray(R, dtype=float)
    c = np.asarray(c, dtype=float)
    z = np.asarray(x, dtype=float)
    if dense.shape[0] != c.shape[0] or dense.shape[1] != z.shape[0]:
        raise DimensionMismatch("projection dimensions inconsistent")
    G, h = _polytope_constraints(dense, c)
    max_changes = 10 * (dense.shape[0] + dense.shape[1])
    return _project_qp(z, G, h, max_changes)


def _gradproj_loop(R: np.ndarray, c: np.ndarray, wbar: np.ndarray, J: int, params: SolverParams):
    """Projected gradient ascent on the N*J per-path aggregates, J per class.

    Class i's utility is wbar_i log(sum_j x_ij), so every path of a class
    gets the gradient of its class total. Returns (x, lam, mu, n_iter,
    converged) with x and mu flat, class by class.
    """
    n = len(wbar)
    L = R.shape[0]
    row_deg = np.maximum(R.sum(axis=1), 1.0)
    x = np.full(n * J, 0.5 * float(np.min(c / row_deg)))
    lam = np.zeros(L)
    mu = np.zeros(n * J)
    converged = False
    it = 0
    for it in range(1, params.max_iter + 1):
        x_bar = x.reshape(n, J).sum(axis=1)
        grad = np.repeat(wbar / np.maximum(x_bar, 1e-12), J)
        x, nu = project_polytope_with_duals(x + params.alpha * grad, R, c)
        x = np.maximum(x, 0.0)  # clear projection round-off
        lam = nu[:L] / params.alpha
        mu = nu[L:] / params.alpha
        mu[x > params.tol] = 0.0
        if aggregate_kkt_residual(R, c, wbar, x, lam, mu) <= params.tol:
            converged = True
            break
    return x, lam, mu, it, converged


# ---------------------------------------------------------------------------
# Gradient projection


def solve_gradproj(inst: Instance, params: SolverParams) -> Solution:
    """Projected gradient ascent on the aggregate problem, then apportionment."""
    t0 = time.perf_counter()
    if inst.paths_per_class != 1:
        raise NotSupportedUtility("single-path instances only")
    R, c, ws = _log_arrays(inst)
    wbar = np.asarray([w.sum() for w in ws])
    n = len(ws)
    x, lam, _, it, converged = _gradproj_loop(R, c, wbar, 1, params)
    u = tuple(ws[i] / wbar[i] * x[i] for i in range(n))
    return Solution(
        x=x,
        u=u,
        lam=None,
        rho=lam,
        objective=_log_objective(ws, u),
        l_max=float(np.max(R @ x)),
        n_iter=it,
        wall_time=time.perf_counter() - t0,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# Chambolle-Pock


def cp_prox_f(z: np.ndarray, tau: float, w: np.ndarray) -> np.ndarray:
    """Componentwise proximal map of the scaled negative-log objective."""
    z = np.asarray(z, dtype=float)
    return 0.5 * (z + np.sqrt(z * z + 4.0 * tau * np.asarray(w, dtype=float)))


def cp_prox_gstar(z: np.ndarray, sigma: float, c: np.ndarray) -> np.ndarray:
    """Proximal map of the conjugate box indicator: max(0, z - sigma*c)."""
    z = np.asarray(z, dtype=float)
    return np.maximum(0.0, z - sigma * np.asarray(c, dtype=float))


def solve_cp(inst: Instance, params: SolverParams) -> Solution:
    """Primal-dual iteration on the flow-level problem with per-flow columns.

    Flow k of class i loads the links of class i's route, so the
    link-by-flow operator Q repeats each routing column K_i times. It is
    never formed: Q v = R (class sums of v), taken with ``np.add.reduceat``,
    and Q^T y = repeat(R^T y, K). The iterates stay flow-level vectors.

    The primal step is capped at 0.95 / (sigma * ||Q||^2) when the supplied
    (sigma, tau) pair violates the step-product convergence bound, where
    ||Q||_2 = ||R diag(sqrt(K))||_2.
    """
    t0 = time.perf_counter()
    if inst.paths_per_class != 1:
        raise NotSupportedUtility("single-path instances only")
    R, c, ws = _log_arrays(inst)
    wbar = np.asarray([w.sum() for w in ws])
    sizes = np.asarray([len(w) for w in ws])
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    w_flat = np.concatenate(ws)
    norm_sq = np.linalg.norm(R * np.sqrt(sizes), 2) ** 2
    tau = min(params.tau, 0.95 / (params.sigma * norm_sq))

    u = np.ones_like(w_flat)
    v = u.copy()
    y = np.zeros(R.shape[0])
    converged = False
    it = 0
    for it in range(1, params.max_iter + 1):
        y = cp_prox_gstar(y + params.sigma * (R @ np.add.reduceat(v, starts)), params.sigma, c)
        u_new = cp_prox_f(u - tau * np.repeat(R.T @ y, sizes), tau, w_flat)
        v = u_new + params.theta * (u_new - u)
        u = u_new
        if it % 10 == 0 or it == params.max_iter:
            x = np.add.reduceat(u, starts)
            if aggregate_kkt_residual(R, c, wbar, x, y) <= params.tol:
                converged = True
                break
    x = np.add.reduceat(u, starts)
    u_cls = tuple(np.split(u, starts[1:]))
    return Solution(
        x=x,
        u=u_cls,
        lam=None,
        rho=y,
        objective=_log_objective(ws, u_cls),
        l_max=float(np.max(R @ x)),
        n_iter=it,
        wall_time=time.perf_counter() - t0,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# Piecewise-linear path: supremal convolution + LP (HiGHS)


def simplex_maximize(obj: np.ndarray, A: np.ndarray, b: np.ndarray):
    """max obj^T t s.t. A t <= b, t >= 0, with b >= 0 (t = 0 is feasible).

    Solved by HiGHS through ``scipy.optimize.linprog``. Returns
    (t, value, duals, n_iter): ``duals`` >= 0 are the multipliers of the
    rows of A and ``n_iter`` counts HiGHS iterations. Raises ValueError
    with HiGHS's message when the LP is not solved (e.g. unbounded).
    """
    if np.any(b < 0):
        raise ValueError("simplex requires b >= 0")
    if A.shape[1] == 0:
        return np.zeros(0), 0.0, np.zeros(len(b)), 0
    res = scipy.optimize.linprog(-obj, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
    if res.status != 0:
        raise ValueError(res.message)
    return res.x, -float(res.fun), -res.ineqlin.marginals, int(res.nit)


def solve_pwl_aggregate(inst: Instance, params: SolverParams | None = None) -> Solution:
    """Aggregate LP for piecewise-linear utilities, then greedy apportionment.

    One variable per positive-slope segment of each class's supremal
    convolution; capacities bound per-segment lengths and link loads.
    """
    t0 = time.perf_counter()
    if inst.paths_per_class != 1:
        raise NotSupportedUtility("single-path instances only")
    # looked up at call time so that a patch of numflow.utility.aggregate_class
    # (the benchmark's tracer) sees the call
    from .utility import aggregate_class

    members_per_class = []
    aggregates = []
    for cls in inst.classes:
        if not all(isinstance(f, PwlUtility) for f in cls.flows):
            raise NotSupportedUtility("solve_pwl_aggregate requires piecewise-linear utilities")
        members_per_class.append([f.fn for f in cls.flows])
        aggregates.append(aggregate_class(cls.flows).aggregate.fn)

    R = inst.routing.dense()
    c = inst.network.capacities
    L, n = R.shape

    # segment variables: (class, slope, length)
    seg_class: list[int] = []
    seg_slope: list[float] = []
    seg_len: list[float] = []
    for i, agg in enumerate(aggregates):
        bp, sl = agg.breakpoints, agg.slopes
        for bidx in range(len(bp) - 1):
            if sl[bidx] > 0:
                seg_class.append(i)
                seg_slope.append(sl[bidx])
                seg_len.append(bp[bidx + 1] - bp[bidx])
    nseg = len(seg_class)
    # rows: link loads, then one bound per segment
    A = np.zeros((L + nseg, nseg))
    b = np.concatenate([c, np.asarray(seg_len)])
    for j in range(nseg):
        A[:L, j] = R[:, seg_class[j]]
        A[L + j, j] = 1.0
    t, _, duals, n_iter = simplex_maximize(np.asarray(seg_slope), A, b)

    x = np.zeros(n)
    for j in range(nseg):
        x[seg_class[j]] += t[j]
    u = tuple(
        np.asarray(pwl_apportion(members_per_class[i], x[i])) for i in range(n)
    )
    objective = float(
        sum(pwl_eval(f, ui) for fs, us in zip(members_per_class, u) for f, ui in zip(fs, us))
    )
    return Solution(
        x=x,
        u=u,
        lam=None,
        rho=duals[:L],
        objective=objective,
        l_max=float(np.max(R @ x)) if L else 0.0,
        n_iter=n_iter,
        wall_time=time.perf_counter() - t0,
        converged=True,
    )
