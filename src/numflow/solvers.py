"""Iterative optimizers over single-path instances.

Three solvers share the aggregate-flow structure:

* ``solve_admm``: consensus splitting with a box projection for link
  loads and, for the aggregate rates, a solve with I + R^T R taken by the
  push-through identity: one product with R, one with the prefactored
  L x L inverse of I + R R^T and one with R^T, which also yields R x.
  Every flow update of a class is ``u_k = w_k t_i`` for one class scalar
  ``t_i``, so an iteration works on N-vectors only; flow rates are split
  once, after the loop, from the returned class rates. The loop runs in
  scaled form, on duals divided by the penalty, and keeps each pair of
  class and link vectors in one (N+L) buffer, so an iteration makes about
  19 numpy calls.
* ``solve_cp``: Chambolle-Pock primal-dual iteration with componentwise
  proximal maps on the N-variable aggregate problem; its operator is the
  routing matrix R itself, scaled by each step once per solve, so an
  iteration makes 12 numpy calls.
* ``solve_gradproj``: projected gradient ascent with Armijo backtracking
  on the N-variable aggregate problem. Its loop is the J = 1 case of the
  per-path loop that ``solve_multipath_aggregate`` runs on N*J variables.
  Each step's first trial is the Barzilai-Borwein step (s.s)/(-s.y)
  (Barzilai & Borwein 1988; the spectral projected gradient of Birgin,
  Martinez & Raydan, SIAM J. Optim. 2000), capped at 1e10, with
  ``params.alpha`` on the first iteration and wherever -s.y <= 0. The
  Armijo test allows the round-off of the objective change.
  The loop builds one projector onto the routing polytope per solve. Each
  projection first solves on the face (binding links, zero coordinates)
  of the previous one, a product with a prefactored face matrix, and
  keeps that result when the projection's KKT conditions hold; otherwise
  it solves the least-distance problem cold, as NNLS by
  ``scipy.optimize.nnls``, and takes the next face from its multipliers.

With tens to hundreds of classes and links, an ADMM or CP iteration's cost
is mostly the fixed cost of each numpy call, not arithmetic, so both loops
write into preallocated vectors and keep their calls per iteration few.

CP and projected gradient stop once ``utility.aggregate_kkt_residual`` is at
most ``params.tol``. Its terms are the certificate's, ``kkt_check``'s, with
each class one flow of weight wbar_i: link excess scaled by max(c, 1), link
slackness by max(c, 1) max(lam, 1), and each class rate against wbar_i / v_i.

Linear algebra is numpy's. scipy is imported only where it runs: by the
cold projection (NNLS) and by the LP path (HiGHS and its sparse matrix),
so ``import numflow`` and the ADMM, CP and oracle solves load no scipy.

Each apportions the aggregate rates to flows once, after the loop, by the
share split every alpha-fair solver uses: ``Instance.class_table``. Every
solver, here and in ``multipath`` and ``harness``, returns through one
builder, ``_solution``.

All three require weighted-log utilities (the closed-form case). A fourth
path, ``solve_pwl_aggregate``, handles piecewise-linear utilities with one
bounded LP over the class table's segments, each on its class's routing
column, so that the LP's value is the supremal convolutions', and apportions
by the table's greedy fill. HiGHS (``scipy.optimize.linprog``) solves the LP;
segment lengths bound the variables, and the link capacities are its rows.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, DomainError, MaxIterExceeded, NotSupportedUtility, _is_int, _real
from .netmodel import Instance
from .pwl import pwl_fill
from .pwl import pwl_apportion  # noqa: F401  (patched by the benchmark tracer)
from .utility import FairClasses, aggregate_kkt_residual, check_tol

if TYPE_CHECKING:
    import scipy.sparse


# the Chambolle-Pock steps that params documents carried before ``solve_cp``
# derived them from the instance; ``SolverParams.from_json`` still reads and
# ignores them
_RETIRED_KEYS = ("sigma", "theta", "tau")


@dataclass(frozen=True)
class SolverParams:
    r: float = 20.0          # ADMM penalty
    pct: float = 1e-4        # ADMM relative change stopping threshold
    alpha: float = 1e-2      # gradient projection: first iteration's trial step, and
                             # the fallback when the Barzilai-Borwein step is undefined
    max_iter: int = 20000
    tol: float = 1e-5        # KKT residual target (CP, gradient projection)

    def __post_init__(self):
        r, alpha, pct, tol = (_real(getattr(self, name), name) for name in ("r", "alpha", "pct", "tol"))
        if not all(math.isfinite(v) and v > 0 for v in (r, alpha)):
            raise ValueError("r and alpha must be finite and positive")
        check_tol(pct, "pct")
        check_tol(tol)
        if not _is_int(self.max_iter) or self.max_iter < 1:
            raise ValueError("max_iter must be an integer >= 1")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "SolverParams":
        """The params a document describes; absent keys keep the defaults.

        A key that names no field raises ValueError, except the retired
        Chambolle-Pock steps ``_RETIRED_KEYS``, which are read and ignored.
        """
        unknown = [k for k in doc if k not in cls.__dataclass_fields__ and k not in _RETIRED_KEYS]
        if unknown:
            raise ValueError(f"unknown solver params key: {unknown[0]!r}")
        return cls(**{k: doc[k] for k in doc if k in cls.__dataclass_fields__})


@dataclass
class Solution:
    """A solve's result, single-path or multipath (J paths per class).

    Every solver builds it with ``_solution``: ``l_max`` is max(R x), the
    largest link load of the returned class rates (0.0 with no links), and
    ``wall_time`` covers the whole solve, the oracle's certificate included.
    """

    x: np.ndarray                       # per-class aggregate rates, (N,) or (N, J)
    u: tuple[np.ndarray, ...]           # per-class flow rates, (K_i,) or (K_i, J)
    lam: np.ndarray | None              # class-consistency duals (ADMM only)
    rho: np.ndarray | None              # link duals
    objective: float
    l_max: float
    n_iter: int
    wall_time: float
    converged: bool
    mu: np.ndarray | None = None        # (N, J) path-nonnegativity duals (multipath)

    def to_json(self) -> dict:
        def listed(a):
            return None if a is None else a.tolist()

        return {
            "x": self.x.tolist(),
            "u": [ui.tolist() for ui in self.u],
            "lambda": listed(self.lam),
            "rho": listed(self.rho),
            "objective": self.objective,
            "l_max": self.l_max,
            "n_iter": self.n_iter,
            "wall_time": self.wall_time,
            "converged": self.converged,
            "mu": listed(self.mu),
        }


def _solution(R, x, u, objective, rho, n_iter, converged, t0, lam=None, mu=None) -> Solution:
    """The Solution of a solve that began at ``t0`` (``time.perf_counter``),
    with ``R`` its dense routing matrix and ``rho`` its link duals."""
    return Solution(
        x=x,
        u=u,
        lam=lam,
        rho=rho,
        objective=objective,
        l_max=float(np.max(R @ x.reshape(-1))) if R.shape[0] else 0.0,
        n_iter=n_iter,
        wall_time=time.perf_counter() - t0,
        converged=converged,
        mu=mu,
    )


class SpdFactor:
    """Solver for (I + R^T R) x = a + R^T v, reusable across iterations.

    The L x L inverse C^{-1} of C = I + R R^T is formed once, by
    ``numpy.linalg.inv``; C has eigenvalues >= 1, so it is well
    conditioned for any shape of R. By the push-through identity
    (I + R^T R)^{-1} R^T = R^T C^{-1},

        w = C^{-1} (v - R a),  x = a + R^T w,  R x = v - w,

    so a solve is one product with R, one with C^{-1} and one with R^T.
    """

    def __init__(self, R: np.ndarray):
        L = R.shape[0]
        self._R = R
        self._c_inv = np.linalg.inv(np.eye(L) + R @ R.T)

    def solve_split(self, a: np.ndarray, v: np.ndarray, out=(None, None)) -> tuple[np.ndarray, np.ndarray]:
        """x solving (I + R^T R) x = a + R^T v, and R x, written into the two
        arrays of ``out`` where given (new arrays where None)."""
        R = self._R
        w = self._c_inv @ (v - R @ a)
        return np.add(a, R.T @ w, out=out[0]), np.subtract(v, w, out=out[1])

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x solving (I + R^T R) x = b: the v = 0 case of ``solve_split``."""
        return self.solve_split(b, np.zeros(self._R.shape[0]))[0]


def spd_prefactor(R: np.ndarray) -> SpdFactor:
    """``SpdFactor`` of the dense routing matrix ``R``."""
    return SpdFactor(np.asarray(R, dtype=float))


def _log_classes(inst: Instance, single_path: bool = True) -> FairClasses:
    """The class table; NotSupportedUtility unless log-only (and one-path if ``single_path``)."""
    if single_path and inst.paths_per_class != 1:
        raise NotSupportedUtility("single-path instances only")
    classes = inst.class_table.require()
    if not classes.log.all():
        raise NotSupportedUtility("solver requires weighted-log utilities")
    return classes


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

    The loop runs in scaled form (Boyd et al. 2011, sec. 3.1.1): it carries
    the duals divided by the penalty r, lam~ = lam/r and rho~ = rho/r, and
    works on N-vectors. By the closed form of ``admm_u_update``, class i's
    flows are u_k = w_k t_i, so the class sum s_i = wbar_i t_i is

        s_i = (2 wbar_i / r) / (phi_i + sqrt(phi_i^2 + 4 wbar_i / r)),
        phi = lam~ - x,

    with the root taken by ``np.hypot``, and the class's share of the log
    objective is sum_k w_k log w_k + wbar_i log(s_i / wbar_i), whose
    constant part is formed once. The x-step (I + R^T R) x = s + lam~ +
    R^T (y + rho~) is ``SpdFactor.solve_split``, which returns R x with x:
    one product with R, one with the prefactored L x L inverse and one with
    R^T per iteration.

    (x, R x), (s, y), (lam~, rho~) and the residual (s - x, y - R x) each
    live in one preallocated (N+L) buffer, with an N-view for the classes
    and an L-view for the links, and every step writes into its views. So
    the dual update is one in-place add of the residual, and the augmented
    Lagrangian -f + r (d.res + res.res / 2), with d the stacked scaled
    duals after that add, is two dot products; an iteration makes about
    19 numpy calls.

    The solve returns one point p, the consensus rates x where positive and
    the class sums s elsewhere (x > 0 except after an early stop):
    ``Solution.x`` is p, and the flow rates and objective are
    ``classes.split(p)``, as every other alpha-fair solver returns them.
    The returned duals are lam = r lam~ and the link duals -r rho~.

    Stops when the augmented Lagrangian changes by less than ``params.pct``
    percent (relative change below pct/100) on three consecutive
    iterations, guarding against transient flat spots, or at ``max_iter``
    (non-convergence is flagged, not raised).
    """
    t0 = time.perf_counter()
    classes = _log_classes(inst)
    R, c = inst.routing.dense(), inst.network.capacities
    L, n = R.shape
    r = params.r
    wbar = classes.k
    two_wbar_r = 2.0 * wbar / r
    root_four_wbar_r = np.sqrt(2.0 * two_wbar_r)
    # sum_k w_k log u_k = sum_k w_k log w_k - wbar.log(wbar) + wbar.log(s)
    f_const = float(classes.w @ np.log(classes.w)) - float(wbar @ np.log(wbar))
    factor = spd_prefactor(R)

    # start from u = 1 for every flow: class sums K_i, log objective 0, so
    # s = x, R x = y and zero multipliers put the Lagrangian at exactly 0
    # (s and y are written before they are read). d holds the scaled duals,
    # and ab the x-step's right-hand sides a = s + lam~ and v = y + rho~.
    xz, sy, d, res, ab = np.zeros((5, n + L))
    x, Rx = xz[:n], xz[n:]
    s, y = sy[:n], sy[n:]
    lam, rho = d[:n], d[n:]
    a, v = ab[:n], ab[n:]
    phi = np.empty(n)
    x[:] = classes.sizes
    np.matmul(R, x, out=Rx)
    prev = 0.0
    threshold = params.pct / 100.0
    converged = False
    flat_streak = 0
    it = 0
    for it in range(1, params.max_iter + 1):
        np.subtract(lam, x, out=phi)
        np.hypot(phi, root_four_wbar_r, out=s)
        s += phi
        np.divide(two_wbar_r, s, out=s)
        np.subtract(Rx, rho, out=y)
        np.minimum(y, c, out=y)
        np.add(sy, d, out=ab)
        factor.solve_split(a, v, out=(x, Rx))
        np.subtract(sy, xz, out=res)
        d += res
        cur = (r * (float(d @ res) + 0.5 * float(res @ res))
               - f_const - float(wbar @ np.log(s)))
        if abs(cur - prev) < threshold * max(abs(prev), 1e-12):
            flat_streak += 1
            if flat_streak >= 3:
                converged = True
                break
        else:
            flat_streak = 0
        prev = cur

    p = np.where(x > 0, x, s)
    u, objective = classes.split(p)
    # The splitting multiplier converges to minus the capacity dual (the
    # y-stationarity of the recast problem pairs rho with -eta), so the
    # reported link duals are negated.
    return _solution(R, p, u, objective, -r * rho, it, converged, t0, lam=r * lam)


# ---------------------------------------------------------------------------
# Euclidean projection onto the routing polytope


def _feasibility_bound(h: np.ndarray) -> float:
    """Largest violation of G x <= h that a projection may leave."""
    return 1e-12 * (1.0 + float(np.max(h)))


def _project_qp(z: np.ndarray, G: np.ndarray, h: np.ndarray, max_changes: int):
    """min 0.5*||x - z||^2 s.t. G x <= h, as a least-distance problem.

    With y = x - z and b = G z - h the problem is min ||y|| s.t.
    -G y >= b, which Lawson & Hanson (Solving Least Squares Problems,
    ch. 23) reduce to NNLS: u >= 0 minimizing ||E u - e_last|| with
    E = [-G^T; b^T / s]. Its residual r = E u - e_last gives
    x = z - s r[:-1] / r[-1] and the multipliers nu = s u / -r[-1].
    Dividing b by s = max(1, ||b||_inf) keeps r[-1] off zero when z is
    huge. x = z + y loses about eps*||z|| to cancellation, which leaves
    the projection of a far-off z (a diverging iteration) visibly
    infeasible; that x is projected once more and the multipliers add up.

    This is the cold solve: it starts from no active rows. The
    projected-gradient loop calls it through ``_PolytopeProjector`` only
    when the face of its previous projection does not hold.

    Requires x = 0 feasible (h >= 0). Returns (x, nu) with nu the
    multipliers of all rows. ``max_changes`` caps each NNLS solve.
    """
    from scipy.optimize import nnls

    x, nu = z, np.zeros(len(h))
    e_last = np.zeros(G.shape[1] + 1)
    e_last[-1] = 1.0
    for _ in range(2):
        b = G @ x - h
        s = max(1.0, float(np.max(np.abs(b))))
        E = np.vstack([-G.T, b / s])
        try:
            u, _ = nnls(E, e_last, maxiter=max_changes)
        except RuntimeError as exc:
            raise MaxIterExceeded("projection NNLS did not settle") from exc
        r = E @ u - e_last
        if r[-1] >= 0.0:
            # r[-1] = -||r||^2 at the NNLS optimum: it is >= 0 only when the
            # residual vanishes, i.e. when the constraints look infeasible
            raise MaxIterExceeded("projection NNLS residual degenerated")
        x, nu = x - s * r[:-1] / r[-1], nu + s * u / -r[-1]
        if np.max(G @ x - h) <= _feasibility_bound(h):
            break
    return x, nu


class _PolytopeProjector:
    """Projections onto {x : R x <= c, x >= 0} for the iterations of one solve.

    G = [R; -I], h = [c; 0] and the NNLS cap are built once; a capacity
    that is negative or not finite raises DomainError. Each call first
    solves on the face of the previous projection: with B its binding link
    rows, Z its zero coordinates, F the free ones and M = R[B, F],

        nu_B = (M M^T)^{-1} (M z_F - c_B),  x_F = z_F - M^T nu_B,  x_Z = 0,
        mu_Z = R[B, Z]^T nu_B - z_Z,

    with (M M^T)^{-1} M and (M M^T)^{-1} c_B formed once per face by one
    ``numpy.linalg.solve``, after a Cholesky factor of M M^T has shown it
    positive definite with no tiny pivot. When nu_B >= 0, mu_Z >= 0 and
    x >= 0 hold exactly and R x <= c holds to ``_feasibility_bound``, these
    satisfy the projection's KKT conditions, so x is the projection and the
    pair is returned.
    Otherwise the call runs ``_project_qp`` and reads the next face off the
    multipliers it returns. A face whose M M^T is singular (dependent
    rows, so its multipliers are not unique) is not kept, and the next
    call goes to ``_project_qp`` again. Returns (x, nu) as
    ``project_polytope_with_duals`` does.
    """

    def __init__(self, R: np.ndarray, c: np.ndarray):
        if not np.all(np.isfinite(c) & (c >= 0.0)):
            raise DomainError("capacities must be finite and nonnegative")
        self._R, self._c = R, c
        self._G = np.vstack([R, -np.eye(R.shape[1])])
        self._h = np.concatenate([c, np.zeros(R.shape[1])])
        self._max_changes = 10 * sum(R.shape)
        self._bound = _feasibility_bound(self._h)
        self._face = None

    def __call__(self, z: np.ndarray):
        if self._face is not None:
            projected = self._on_face(z)
            if projected is not None:
                return projected
        x, nu = _project_qp(z, self._G, self._h, self._max_changes)
        self._face = self._factor_face(nu)
        return x, nu

    def _on_face(self, z: np.ndarray):
        B, Z, F, K, q, MT, NT = self._face
        z_F = z[F]
        nu_B = K @ z_F - q
        x = np.zeros(len(z))
        x[F] = z_F - MT @ nu_B
        mu_Z = NT @ nu_B - z[Z]
        # minimum and maximum propagate NaN, which fails both tests
        if not (np.minimum.reduce(np.concatenate((nu_B, mu_Z, x))) >= 0.0
                and np.maximum.reduce(self._R @ x - self._c) <= self._bound):
            return None
        nu = np.zeros(len(self._h))
        nu[B] = nu_B
        nu[len(self._c) + Z] = mu_Z
        return x, nu

    def _factor_face(self, nu: np.ndarray):
        L = len(self._c)
        B = np.flatnonzero(nu[:L] > 0.0)
        at_zero = nu[L:] > 0.0
        Z, F = np.flatnonzero(at_zero), np.flatnonzero(~at_zero)
        M = self._R[np.ix_(B, F)]
        if len(B):
            gram = M @ M.T
            try:
                chol = np.linalg.cholesky(gram)
            except np.linalg.LinAlgError:
                return None
            # round-off can leave a tiny positive pivot where rows are dependent
            if np.min(np.diag(chol)) ** 2 <= 1e-10 * np.max(np.diag(gram)):
                return None
            Kq = np.linalg.solve(gram, np.column_stack((M, self._c[B])))
            K, q = Kq[:, :-1], Kq[:, -1]
        else:
            K, q = np.zeros((0, len(F))), np.zeros(0)
        NT = np.ascontiguousarray(self._R[np.ix_(B, Z)].T)
        return B, Z, F, K, q, np.ascontiguousarray(M.T), NT


def project_polytope(x, R: np.ndarray, c) -> np.ndarray:
    """Euclidean projection onto {x' : R x' <= c, x' >= 0}, R a dense array."""
    proj, _ = project_polytope_with_duals(x, R, c)
    return proj


def project_polytope_with_duals(x, R: np.ndarray, c):
    """Projection plus multipliers (link rows first, nonnegativity rows after).

    ``R`` is the dense routing matrix. One cold ``_project_qp`` solve on a
    fresh ``_PolytopeProjector``'s G, h and NNLS cap, with no face factored
    and no state kept between calls. Raises DomainError when a capacity is
    negative or not finite (x = 0 must be feasible) or when x is not finite.
    """
    R = np.asarray(R, dtype=float)
    c = np.asarray(c, dtype=float)
    z = np.asarray(x, dtype=float)
    if R.shape[0] != c.shape[0] or R.shape[1] != z.shape[0]:
        raise DimensionMismatch("projection dimensions inconsistent")
    if not np.all(np.isfinite(z)):
        raise DomainError("the point to project must be finite")
    project = _PolytopeProjector(R, c)
    return _project_qp(z, project._G, project._h, project._max_changes)


# Halvings of the trial step that one projected-gradient step may take
_MAX_HALVINGS = 30
# Cap on the Barzilai-Borwein trial step
_MAX_STEP = 1e10
# Round-off allowance of the Armijo test, in units of sum_i wbar_i |log xbar_i|
_ROUNDOFF_EPS = 8.0 * np.finfo(float).eps


def _start_rate(R: np.ndarray, c: np.ndarray) -> float:
    """Half the tightest link's equal share, min c_l / (columns on l) over used links."""
    deg = R.sum(axis=1)
    used = deg > 0
    return 0.5 * float(np.min(c[used] / deg[used]))


def _gradproj_loop(R: np.ndarray, c: np.ndarray, wbar: np.ndarray, J: int, params: SolverParams):
    """Projected gradient ascent on the N*J per-path aggregates, J per class.

    Class i's utility is wbar_i log(sum_j x_ij), so every path of a class
    gets the gradient of its class total. Every path starts at ``_start_rate``.

    The first trial step is ``params.alpha`` on the first iteration. After
    that it is the Barzilai-Borwein step (s.s)/(-s.y), with s = x - x_prev
    and y = grad - grad_prev over all N*J coordinates, capped at
    ``_MAX_STEP``; where -s.y <= 0 (x did not move, or only between the
    paths of a class) it is ``params.alpha`` again. Each step halves its
    trial until the projected point keeps every class total above 1e-12
    times the largest and satisfies the Armijo condition along the
    projection arc, f(x+) >= f(x) + 1e-4 grad.(x+ - x) - floor with
    f = sum_i wbar_i log xbar_i (Bertsekas, Nonlinear Programming,
    sec. 2.3). The floor, ``_ROUNDOFF_EPS`` * sum_i wbar_i |log xbar_i|,
    is the round-off of f(x+) - f(x): without it a step whose class totals
    are already optimal, and whose change in f is round-off, could fail
    every trial. The duals are the projection's multipliers over the
    accepted step. Every trial point is projected by one
    ``_PolytopeProjector``, built for this solve. Raises MaxIterExceeded
    when no step within ``_MAX_HALVINGS`` halvings is accepted. Returns
    (x, lam, mu, n_iter, converged) with x and mu flat, class by class.
    """
    n = len(wbar)
    L = R.shape[0]
    x = np.full((n, J), _start_rate(R, c))
    x_bar = np.maximum(x.sum(axis=1), 1e-12)
    lam = np.zeros(L)
    mu = np.zeros(n * J)
    project = _PolytopeProjector(R, c)
    converged = False
    x_prev = g_prev = None
    it = 0
    for it in range(1, params.max_iter + 1):
        grad = np.broadcast_to((wbar / x_bar)[:, None], (n, J))
        step = params.alpha
        if x_prev is not None:
            s, y = x - x_prev, grad - g_prev
            curv = -float(np.vdot(s, y))
            if curv > 0.0:
                step = min(float(np.vdot(s, s)) / curv, _MAX_STEP)
        floor = _ROUNDOFF_EPS * float(wbar @ np.abs(np.log(x_bar)))
        for _ in range(_MAX_HALVINGS + 1):
            x_new, nu = project((x + step * grad).ravel())
            x_new = np.maximum(x_new, 0.0).reshape(n, J)  # clear projection round-off
            bar_new = x_new.sum(axis=1)
            # reject a class total of 0 (f = -inf) before taking its log, and one
            # at round-off, whose gradient would throw the next step far off.
            # f(x+) - f(x) and grad.(x+ - x) are sums over classes of
            # wbar_i log1p(r_i) and wbar_i r_i; log1p stays accurate for tiny steps
            if np.min(bar_new) > 1e-12 * np.max(bar_new):
                ratio = (bar_new - x_bar) / x_bar
                if wbar @ np.log1p(ratio) >= 1e-4 * (wbar @ ratio) - floor:
                    break
            step *= 0.5
        else:
            raise MaxIterExceeded(
                f"no ascent step after {_MAX_HALVINGS} halvings of the trial step")
        x_prev, g_prev = x, grad
        x, x_bar = x_new, bar_new
        lam = nu[:L] / step
        mu = nu[L:] / step
        mu[x.ravel() > params.tol] = 0.0
        if aggregate_kkt_residual(R, c, wbar, x.ravel(), lam, mu) <= params.tol:
            converged = True
            break
    return x.ravel(), lam, mu, it, converged


# ---------------------------------------------------------------------------
# Gradient projection


def solve_gradproj(inst: Instance, params: SolverParams) -> Solution:
    """Projected gradient ascent on the aggregate problem, then apportionment."""
    t0 = time.perf_counter()
    classes = _log_classes(inst)
    R = inst.routing.dense()
    x, lam, _, it, converged = _gradproj_loop(R, inst.network.capacities, classes.k, 1, params)
    u, objective = classes.split(x)
    return _solution(R, x, u, objective, lam, it, converged, t0)


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
    """Chambolle-Pock iteration on the aggregate problem, then apportionment.

    The problem is max sum_i wbar_i log x_i s.t. R x <= c (Chambolle & Pock,
    JMIV 2011), with operator R: the dual step takes ``cp_prox_gstar`` of
    y + sigma R v and the primal step ``cp_prox_f`` of x - tau R^T y with
    the class weights wbar, and the extrapolation is v = 2 x_new - x. The
    iterates are N-vectors, started at the class sizes K_i (every flow at
    rate 1), and the flow rates are built once, after the loop.

    Prices carry units of w/c and rates units of c, so the dual step is
    sigma = mean(wbar) / mean(c)^2 and the primal step tau =
    0.95 / (sigma ||R||_2^2), with theta = 1. They keep Chambolle & Pock's
    bound sigma * tau * ||R||^2 < 1, and scaling every weight by s scales
    sigma by s and the prices with it: in exact arithmetic the iterates'
    rates, and so the iteration count, do not depend on the weights' scale.

    sigma R, tau R^T, sigma c and 4 tau wbar are formed once per solve, and
    both proximal maps are written out in place on preallocated vectors:
    with q = z + sqrt(z^2 + 4 tau wbar), twice ``cp_prox_f``'s value, the
    step takes x_new = q / 2 and v = q - x. An iteration makes 12 numpy
    calls.
    """
    t0 = time.perf_counter()
    classes = _log_classes(inst)
    R, c = inst.routing.dense(), inst.network.capacities
    wbar = classes.k
    sigma = np.mean(wbar) / np.mean(c) ** 2
    tau = 0.95 / (sigma * np.linalg.norm(R, 2) ** 2)
    sigma_R, tau_RT = sigma * R, tau * R.T
    sigma_c, four_tau_wbar = sigma * c, 4.0 * tau * wbar

    x = classes.sizes.astype(float)
    v = x.copy()
    y = np.zeros(R.shape[0])
    z, q = np.empty((2, len(x)))
    converged = False
    it = 0
    for it in range(1, params.max_iter + 1):
        y += sigma_R @ v
        y -= sigma_c
        np.maximum(y, 0.0, out=y)
        np.subtract(x, tau_RT @ y, out=z)
        np.multiply(z, z, out=q)
        q += four_tau_wbar
        np.sqrt(q, out=q)
        q += z
        np.subtract(q, x, out=v)
        np.multiply(q, 0.5, out=x)
        if it % 10 == 0 or it == params.max_iter:
            if aggregate_kkt_residual(R, c, wbar, x, y) <= params.tol:
                converged = True
                break
    u, objective = classes.split(x)
    return _solution(R, x, u, objective, y, it, converged, t0)


# ---------------------------------------------------------------------------
# Piecewise-linear path: LP over the flows' segments (HiGHS)


def simplex_maximize(obj: np.ndarray, A: np.ndarray | scipy.sparse.sparray, b: np.ndarray,
                     upper: np.ndarray):
    """max obj^T t s.t. A t <= b, 0 <= t <= upper, with b >= 0 (t = 0 is feasible).

    ``A`` may be dense or ``scipy.sparse``; ``upper`` holds one bound per
    variable, ``np.inf`` where a variable is unbounded. Solved by HiGHS
    through ``scipy.optimize.linprog``. Returns (t, value, duals, n_iter):
    ``duals`` >= 0 are the multipliers of the rows of A and ``n_iter``
    counts HiGHS iterations. Raises ValueError with HiGHS's message when
    the LP is not solved (e.g. unbounded).
    """
    if np.any(b < 0):
        raise ValueError("simplex requires b >= 0")
    if A.shape[1] == 0:
        return np.zeros(0), 0.0, np.zeros(len(b)), 0
    from scipy.optimize import linprog

    bounds = np.column_stack([np.zeros(A.shape[1]), upper])
    res = linprog(-obj, A_ub=A, b_ub=b, bounds=bounds, method="highs")
    if res.status != 0:
        raise ValueError(res.message)
    return res.x, -float(res.fun), -res.ineqlin.marginals, int(res.nit)


def solve_pwl_aggregate(inst: Instance, params: SolverParams | None = None) -> Solution:
    """Aggregate LP for piecewise-linear utilities, then greedy apportionment.

    By the aggregation theorem a class's utility is the supremal
    convolution of its flows', their segments in decreasing slope. The LP
    has one variable per positive-slope segment of each flow (the class
    table's ``seg_*``), weighted by its slope and bounded by its length, on
    its class's routing column, so the LP's value is the convolutions'. The
    link capacities are its only rows. The objective is its value plus every
    flow's offset, the link duals are its row duals, and one ``pwl_fill`` of
    the table's segments apportions every class's rate.
    """
    t0 = time.perf_counter()
    if inst.paths_per_class != 1:
        raise NotSupportedUtility("single-path instances only")
    table = inst.class_table
    if np.isnan(table.offset).any():
        raise NotSupportedUtility("solve_pwl_aggregate requires piecewise-linear utilities")

    from scipy.sparse import csc_array

    R = inst.routing.dense()
    t, value, duals, n_iter = simplex_maximize(
        table.seg_slope, csc_array(R)[:, table.seg_class], inst.network.capacities, table.seg_length)
    x = np.bincount(table.seg_class, t, inst.n_classes).astype(float)  # ints if no segments
    fill = pwl_fill(x, table.seg_class, table.seg_start, table.seg_length)
    u = table.per_class(np.bincount(table.seg_flow, fill, len(table.offset)).astype(float))
    return _solution(R, x, u, value + float(table.offset.sum()), duals, n_iter, True, t0)
