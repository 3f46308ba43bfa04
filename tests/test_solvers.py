"""Tests for the iterative solvers and their numerical kernels."""

import functools
import math
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from numflow import solvers, utility
from numflow.errors import DimensionMismatch, DomainError, MaxIterExceeded, NotSupportedUtility
from numflow.harness import oracle_solve
from numflow.netmodel import (
    FlowClass,
    Instance,
    Link,
    Network,
    gen_instance,
    iridium_topology,
    routing_matrix,
    small_topology,
)
from numflow.multipath import (
    gen_multipath_instance,
    kkt_check_multipath,
    solve_multipath,
    solve_multipath_aggregate,
)
from numflow.pwl import MERGE_TOL, PwlConcave, pwl_eval
from numflow.rng import MixRng, mix
from numflow.solvers import (
    SolverParams,
    _PolytopeProjector,
    _project_qp,
    admm_u_update,
    cp_prox_f,
    cp_prox_gstar,
    project_polytope,
    project_polytope_with_duals,
    simplex_maximize,
    solve_admm,
    solve_cp,
    solve_gradproj,
    solve_pwl_aggregate,
    spd_prefactor,
)
from numflow.utility import (
    PwlUtility,
    Quadratic,
    WeightedLog,
    aggregate_class,
    aggregate_kkt_residual,
    kkt_check,
)

from helpers import _random_pwl, _single_link_instance


def _log_arrays(inst):
    """Dense routing, capacities and per-class weight vectors of a log
    instance: the arrays the reference loops below are written on."""
    ws = []
    for cls in inst.classes:
        assert all(isinstance(f, WeightedLog) for f in cls.flows)
        ws.append(np.asarray([f.w for f in cls.flows], dtype=float))
    return inst.routing.dense(), inst.network.capacities, ws


class TestSolverParams:
    def test_defaults_match_reference_settings(self):
        p = SolverParams()
        assert p.r == 20.0 and p.pct == 1e-4

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverParams(r=0.0)
        with pytest.raises(ValueError):
            SolverParams(max_iter=0)

    @pytest.mark.parametrize("bad", [
        {"r": math.nan}, {"r": math.inf}, {"alpha": -1.0}, {"alpha": math.inf},
        {"pct": -1.0}, {"pct": math.nan}, {"tol": -1.0}, {"tol": math.nan},
        {"max_iter": 2.5},
    ])
    def test_rejects_values_it_cannot_run(self, bad):
        with pytest.raises(ValueError):
            SolverParams(**bad)

    @pytest.mark.parametrize("bad", [
        {"r": True}, {"alpha": True}, {"pct": False}, {"tol": True},
        {"r": "20"}, {"alpha": "0.1"}, {"pct": "1e-4"}, {"tol": "1e-5"},
    ])
    def test_rejects_bools_and_strings_for_real_fields(self, bad):
        # True used to pass as the number 1
        name = next(iter(bad))
        with pytest.raises(TypeError, match=f"{name} must be a number"):
            SolverParams(**bad)
        with pytest.raises(TypeError, match=f"{name} must be a number"):
            SolverParams.from_json(bad)

    def test_rejects_a_bool_max_iter(self):
        # True is a numbers.Integral, but no iteration count
        with pytest.raises(ValueError, match="max_iter"):
            SolverParams(max_iter=True)

    def test_zero_tolerances_and_numpy_integers_are_legal(self):
        p = SolverParams(pct=0.0, tol=0.0, max_iter=np.int64(5))
        assert p.tol == 0.0 and p.max_iter == 5

    def test_json_round_trip(self):
        p = SolverParams(r=40.0, alpha=0.5, max_iter=500, tol=1e-6)
        assert SolverParams.from_json(p.to_json()) == p
        # the CP steps documents used to carry are read and ignored
        old = {**p.to_json(), "sigma": 2.0, "theta": 0.5, "tau": 0.015}
        assert SolverParams.from_json(old) == p

    @pytest.mark.parametrize("doc, key", [({"R": 40.0}, "'R'"), ({"r": 40.0, "pcT": 1e-9}, "'pcT'")])
    def test_from_json_rejects_an_unknown_key(self, doc, key):
        with pytest.raises(ValueError, match=f"unknown solver params key: {key}"):
            SolverParams.from_json(doc)


class TestSpdPrefactor:
    def test_single_column_two_ones(self):
        R = np.asarray([[1.0], [1.0]])
        factor = spd_prefactor(R)
        assert factor.solve(np.asarray([6.0]))[0] == pytest.approx(2.0)

    def test_disjoint_links_diagonal(self):
        R = np.eye(2)
        factor = spd_prefactor(R)
        assert factor.solve(np.asarray([4.0, 6.0])) == pytest.approx([2.0, 3.0])

    def test_random_residual(self):
        rng = np.random.default_rng(1)
        R = (rng.random((6, 4)) < 0.5).astype(float)
        A = np.eye(4) + R.T @ R
        factor = spd_prefactor(R)
        for _ in range(5):
            b = rng.standard_normal(4)
            x = factor.solve(b)
            assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_wide_routing_residual(self):
        # fewer links than columns: I + R R^T is the smaller matrix
        rng = np.random.default_rng(2)
        for L, n in ((3, 8), (14, 30), (1, 5)):
            R = (rng.random((L, n)) < 0.5).astype(float)
            A = np.eye(n) + R.T @ R
            factor = spd_prefactor(R)
            for _ in range(5):
                b = rng.standard_normal(n)
                x = factor.solve(b)
                assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("routing", ["iridium-75", "iridium-750", "square", "one-row"])
    def test_split_solve(self, routing):
        # iridium N=75 is 192 x 75; N=750 is 192 x 750 of rank 180
        rng = np.random.default_rng(3)
        if routing.startswith("iridium"):
            n = int(routing.split("-")[1])
            R = gen_instance(
                iridium_topology(), n, seed=1, endpoint_rule="gateway-constrained"
            ).routing.dense()
        elif routing == "square":
            R = (rng.random((9, 9)) < 0.4).astype(float)
        else:
            R = np.asarray([[1.0, 0.0, 1.0, 1.0]])
        A = np.eye(R.shape[1]) + R.T @ R
        factor = spd_prefactor(R)
        for scale in (1.0, 1e3):
            a = scale * rng.standard_normal(R.shape[1])
            v = scale * rng.standard_normal(R.shape[0])
            b = a + R.T @ v
            x, Rx = factor.solve_split(a, v)
            assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
            want = R @ x
            assert np.max(np.abs(Rx - want)) <= 1e-10 * (1.0 + np.max(np.abs(want)))


class TestAdmmUUpdate:
    def test_worked_example(self):
        u = admm_u_update(-2.0, 1.0, np.asarray([1.0, 1.0]))
        assert u == pytest.approx([(1 + math.sqrt(3)) / 2] * 2)

    def test_zero_psi(self):
        assert admm_u_update(0.0, 1.0, np.asarray([1.0]))[0] == pytest.approx(1.0)

    def test_proportional_in_weights(self):
        w = np.asarray([1.0, 2.0, 4.0])
        u = admm_u_update(0.3, 2.0, w)
        assert u / u[0] == pytest.approx(w / w[0])

    def test_subproblem_stationarity(self):
        # minimizer of -sum w_k log u_k + psi*sum(u) + (r/2)(sum u)^2
        rng = MixRng(61)
        for _ in range(20):
            w = np.asarray([0.1 + rng.uniform() for _ in range(rng.randint(1, 5))])
            psi = 4.0 * rng.uniform() - 2.0
            r = 0.5 + 3.0 * rng.uniform()
            u = admm_u_update(psi, r, w)
            s = float(u.sum())
            assert np.max(np.abs(w / u - psi - r * s)) <= 1e-10 * max(1.0, abs(psi) + r * s)


class TestSolveAdmm:
    def test_single_class_saturates_link(self):
        inst = _single_link_instance([[WeightedLog(1.0), WeightedLog(1.0)]])
        sol = solve_admm(inst, SolverParams())
        assert sol.converged
        assert sol.x[0] == pytest.approx(10.0, abs=1e-3)
        assert sol.u[0] == pytest.approx([5.0, 5.0], abs=1e-3)
        assert sol.objective == pytest.approx(2 * math.log(5.0), abs=1e-3)

    def test_water_filling_split(self):
        inst = _single_link_instance(
            [[WeightedLog(1.0)], [WeightedLog(1.5), WeightedLog(1.5)]]
        )
        sol = solve_admm(inst, SolverParams(pct=1e-9))
        assert sol.x == pytest.approx([2.5, 7.5], abs=5e-3)

    def test_consensus_and_feasibility_residuals(self):
        inst = gen_instance(small_topology(), 10, seed=5)
        sol = solve_admm(inst, SolverParams())
        s = np.asarray([ui.sum() for ui in sol.u])
        assert np.max(np.abs(s - sol.x)) <= 1e-4 * np.max(np.abs(sol.x))
        load = inst.routing.dense() @ sol.x
        assert np.all(load <= inst.network.capacities + 1e-3)
        assert sol.rho is not None and np.min(sol.rho) >= -1e-2  # first-order scale

    def test_rejects_non_log_utilities(self):
        inst = _single_link_instance([[Quadratic(1.0)]])
        with pytest.raises(NotSupportedUtility):
            solve_admm(inst, SolverParams())


@pytest.mark.parametrize("solver", [solve_admm, solve_cp, solve_gradproj])
def test_single_path_solvers_reject_multipath_instances(solver):
    inst = gen_multipath_instance(small_topology(), 2, 1, paths_per_class=2)
    with pytest.raises(NotSupportedUtility):
        solver(inst, SolverParams(max_iter=10))


@pytest.mark.parametrize("solver", [solve_admm, solve_cp, solve_gradproj])
def test_log_solvers_reject_power_utilities(solver):
    # FairClasses accepts a negative-power class; the log-only check rejects it
    inst = gen_instance(small_topology(), 5, 1, {"family": "power", "a": 2.0})
    with pytest.raises(NotSupportedUtility, match="requires weighted-log"):
        solver(inst, SolverParams(max_iter=10))


@pytest.mark.parametrize("solver", [oracle_solve, solve_pwl_aggregate])
def test_oracle_and_pwl_reject_multipath_instances(solver):
    inst = gen_multipath_instance(small_topology(), 2, 1, paths_per_class=2)
    with pytest.raises(NotSupportedUtility, match="single-path"):
        solver(inst)


def _reference_admm(inst, params):
    """Per-flow ADMM loop: one admm_u_update per class, every flow's log,
    and I + R^T R factored whatever the shape of R. Returns the point
    p = x where x > 0, else the class sums s, and each class's w / wbar
    share of it."""
    R, c, ws = _log_arrays(inst)
    n = len(ws)
    r = params.r
    cho = scipy.linalg.cho_factor(np.eye(n) + R.T @ R)

    def objective(u):
        return float(sum(np.sum(w * np.log(ui)) for w, ui in zip(ws, u)))

    u = [np.ones_like(w) for w in ws]
    s = np.asarray([ui.sum() for ui in u])
    x = s.copy()
    y = R @ x
    lam = np.zeros(n)
    rho = np.zeros(R.shape[0])

    def lagrangian():
        penalty = 0.5 * r * (np.dot(x - s, x - s) + np.dot(R @ x - y, R @ x - y))
        return -objective(u) + float(lam @ (s - x)) + float(rho @ (y - R @ x)) + penalty

    prev = lagrangian()
    converged = False
    flat_streak = 0
    for it in range(1, params.max_iter + 1):
        psi = lam - r * x
        u = [admm_u_update(psi[i], r, ws[i]) for i in range(n)]
        s = np.asarray([ui.sum() for ui in u])
        y = np.minimum(R @ x - rho / r, c)
        x = scipy.linalg.cho_solve(cho, s + lam / r + R.T @ (y + rho / r))
        lam = lam + r * (s - x)
        rho = rho + r * (y - R @ x)
        cur = lagrangian()
        if abs(cur - prev) < params.pct / 100.0 * max(abs(prev), 1e-12):
            flat_streak += 1
            if flat_streak >= 3:
                converged = True
                break
        else:
            flat_streak = 0
        prev = cur
    p = np.where(x > 0, x, s)
    return p, lam, -rho, np.concatenate([w / w.sum() * pi for w, pi in zip(ws, p)]), it, converged


def _reference_cp(inst, params):
    """Flow-level Chambolle-Pock with the dense link-by-flow matrix Q."""
    R, c, ws = _log_arrays(inst)
    wbar = np.asarray([w.sum() for w in ws])
    sizes = [len(w) for w in ws]
    w_flat = np.concatenate(ws)
    Q = np.repeat(R, sizes, axis=1)
    tau = 0.95 / np.linalg.norm(Q, 2) ** 2
    bounds = np.cumsum([0] + sizes)

    def class_sums(u):
        return np.asarray([u[bounds[i]:bounds[i + 1]].sum() for i in range(len(ws))])

    u = np.ones_like(w_flat)
    v = u.copy()
    y = np.zeros(R.shape[0])
    converged = False
    for it in range(1, params.max_iter + 1):
        y = cp_prox_gstar(y + Q @ v, 1.0, c)
        u_new = cp_prox_f(u - tau * (Q.T @ y), tau, w_flat)
        v = u_new + (u_new - u)
        u = u_new
        if it % 10 == 0 or it == params.max_iter:
            if aggregate_kkt_residual(R, c, wbar, class_sums(u), y) <= params.tol:
                converged = True
                break
    return class_sums(u), None, y, u, it, converged


def _reference_aggregate_cp(inst, params):
    """The textbook Chambolle-Pock loop on the N class rates: one
    cp_prox_gstar and one cp_prox_f per iteration, at solve_cp's steps, and
    each class's w / wbar share of the rates it stops at."""
    R, c, ws = _log_arrays(inst)
    wbar = np.asarray([w.sum() for w in ws])
    sigma = np.mean(wbar) / np.mean(c) ** 2
    tau = 0.95 / (sigma * np.linalg.norm(R, 2) ** 2)
    x = np.asarray([len(w) for w in ws], dtype=float)
    v = x.copy()
    y = np.zeros(R.shape[0])
    converged = False
    for it in range(1, params.max_iter + 1):
        y = cp_prox_gstar(y + sigma * (R @ v), sigma, c)
        x_new = cp_prox_f(x - tau * (R.T @ y), tau, wbar)
        v = x_new + (x_new - x)
        x = x_new
        if it % 10 == 0 or it == params.max_iter:
            if aggregate_kkt_residual(R, c, wbar, x, y) <= params.tol:
                converged = True
                break
    return x, None, y, np.concatenate([w / w.sum() * xi for w, xi in zip(ws, x)]), it, converged


def _scaled_weights(inst, scale):
    """``inst`` with every flow's weight multiplied by ``scale``."""
    classes = tuple(replace(cls, flows=tuple(replace(f, w=scale * f.w) for f in cls.flows))
                    for cls in inst.classes)
    return Instance(inst.network, classes, inst.routing)


def _assert_same_iterates(sol, ref, tol=1e-10):
    x, lam, rho, u, n_iter, converged = ref
    assert sol.n_iter == n_iter and sol.converged == converged
    pairs = ((sol.x, x), (sol.lam, lam), (sol.rho, rho), (np.concatenate(sol.u), u))
    for got, want in pairs:
        if want is None:
            assert got is None
            continue
        scale = 1.0 + float(np.max(np.abs(want)))
        assert float(np.max(np.abs(got - want))) <= tol * scale


def _iridium_75():
    return gen_instance(iridium_topology(), 75, seed=1, endpoint_rule="gateway-constrained")


class TestAggregateSpaceIterates:
    """The aggregate-space ADMM loop reproduces the per-flow iterates to
    round-off; aggregate CP reaches the flow-level optimum."""

    @pytest.mark.parametrize("n", [10, 30])
    def test_admm_small(self, n):
        inst = gen_instance(small_topology(), n, seed=1)
        params = SolverParams()
        _assert_same_iterates(solve_admm(inst, params), _reference_admm(inst, params))

    def test_admm_iridium(self):
        inst = _iridium_75()
        params = SolverParams(r=40.0, pct=1e-4)
        _assert_same_iterates(solve_admm(inst, params), _reference_admm(inst, params))

    @pytest.mark.parametrize("case", ["small-10", "iridium-75"])
    @pytest.mark.parametrize("scale", [0.01, 100.0])
    def test_admm_away_from_unit_weights(self, case, scale):
        # the loop carries the duals divided by r, so it must match the
        # reference where the duals are far from the rates' scale too.
        # At weights x 0.01 the fixed r is 100 times too stiff: the runs take
        # 10,225 and 13,735 iterations, and every x-step's round-off enters
        # the duals times r. There two orderings of the same arithmetic
        # differ by about 1e-9 (the unscaled loop missed this reference by
        # 1.4e-9 in lam on iridium), so those iterates are held to 1e-8.
        if case == "small-10":
            inst, params = gen_instance(small_topology(), 10, seed=1), SolverParams(r=20.0)
        else:
            inst, params = _iridium_75(), SolverParams(r=40.0)
        inst = _scaled_weights(inst, scale)
        sol = solve_admm(inst, params)
        assert sol.converged
        _assert_same_iterates(sol, _reference_admm(inst, params), 1e-8 if scale < 1 else 1e-10)

    def test_admm_flow_rates_at_max_iter(self):
        # the loop stops before the stopping rule fires; rates still come
        # from the last iteration, not from the initial u = 1
        inst = gen_instance(small_topology(), 10, seed=1)
        params = SolverParams(max_iter=7)
        sol = solve_admm(inst, params)
        assert not sol.converged
        _assert_same_iterates(sol, _reference_admm(inst, params))

    def test_admm_iridium_750_at_max_iter(self):
        # 192 links, 750 classes: R is wide and of rank 180
        inst = gen_instance(iridium_topology(), 750, seed=1, endpoint_rule="gateway-constrained")
        params = SolverParams(r=40.0, max_iter=20)
        sol = solve_admm(inst, params)
        assert not sol.converged
        _assert_same_iterates(sol, _reference_admm(inst, params))

    def test_admm_apportions_the_class_rates_it_returns(self):
        # the flows split the returned x, not the loop's class update s = wbar t,
        # which misses x by ADMM's primal residual
        inst = gen_instance(iridium_topology(), 750, seed=1, endpoint_rule="gateway-constrained")
        sol = solve_admm(inst, SolverParams(r=40.0, pct=1e-4))
        assert sol.converged
        sums = np.asarray([ui.sum() for ui in sol.u])
        assert np.all(np.abs(sums - sol.x) <= 1e-12 * sol.x)
        oracle = oracle_solve(inst).objective
        assert abs(sol.objective - oracle) <= 1e-4 * abs(oracle)

    @pytest.mark.parametrize("max_iter", [7, 20000])
    def test_admm_objective_is_the_flow_objective(self, max_iter):
        # the split's objective at the returned rates, at a cut and a converged run
        inst = _iridium_75()
        sol = solve_admm(inst, SolverParams(r=40.0, max_iter=max_iter))
        assert sol.converged == (max_iter > 7)
        ws = _log_arrays(inst)[2]
        per_flow = float(sum(np.sum(w * np.log(ui)) for w, ui in zip(ws, sol.u)))
        assert abs(sol.objective - per_flow) <= 1e-12 * abs(per_flow)

    @pytest.mark.parametrize("case", ["small-10", "iridium-75"])
    @pytest.mark.parametrize("max_iter", [7, 20000])
    def test_cp_matches_the_textbook_loop(self, case, max_iter):
        inst = gen_instance(small_topology(), 10, seed=1) if case == "small-10" else _iridium_75()
        params = SolverParams(max_iter=max_iter)
        sol = solve_cp(inst, params)
        assert sol.converged == (max_iter > 7)
        _assert_same_iterates(sol, _reference_aggregate_cp(inst, params))

    # The flow-level CP reference is a different iteration from aggregate
    # CP, so the two are compared at the optimum, not iterate by iterate.
    def test_cp_small(self):
        inst = gen_instance(small_topology(), 10, seed=1)
        params = SolverParams()
        sol = solve_cp(inst, params)
        _assert_at_oracle_optimum(inst, sol)
        _, _, _, u, _, converged = _reference_cp(inst, params)
        assert converged
        flow_level = float(np.concatenate(_log_arrays(inst)[2]) @ np.log(u))
        assert abs(sol.objective - flow_level) <= 1e-6 * abs(flow_level)

    def test_cp_iridium(self):
        # the flow-level iteration stops at max_iter (20,000) on this instance
        inst = _iridium_75()
        _assert_at_oracle_optimum(inst, solve_cp(inst, SolverParams()))


def _assert_at_oracle_optimum(inst, sol):
    oracle = oracle_solve(inst)
    assert sol.converged
    assert abs(sol.objective - oracle.objective) <= 1e-6 * abs(oracle.objective)
    assert kkt_check(inst, sol.x, sol.u, sol.rho, tol=1e-4).passed


def _reference_stationarity(wbar, x_bar, price):
    """Each class total against wbar / v at each of its (N, J) path prices v,
    relative to wbar / v; 1.0 where v <= 0."""
    target = wbar[:, None] / np.where(price > 0, price, 1.0)
    gap = np.abs(x_bar[:, None] - target) / np.maximum(target, 1e-12)
    return float(np.max(np.where(price > 0, gap, 1.0)))


def _reference_link_terms(R, c, x, lam):
    """Largest scaled link excess, and largest slackness relative to the
    capacity and to a price above 1."""
    load = R @ x
    feas = np.max((load - c) / np.maximum(c, 1.0), initial=0.0)
    slack = np.max(np.abs(lam * (load - c)) / (np.maximum(c, 1.0) * np.maximum(lam, 1.0)), initial=0.0)
    return feas, slack


def _reference_aggregate_residual(R, c, wbar, x, lam):
    """Single-path aggregate residual: each class one flow of weight wbar_i."""
    feas, slack = _reference_link_terms(R, c, x, lam)
    dual = np.max(-lam, initial=0.0)
    stat = _reference_stationarity(wbar, x, (R.T @ lam)[:, None])
    return float(max(feas, slack, dual, stat))


def _reference_multipath_residual(R, c, wbar, x_flat, lam, mu_flat, J):
    """Per-path aggregate residual: each class one flow over its J paths."""
    feas, slack = _reference_link_terms(R, c, x_flat, lam)
    dual = max(np.max(-lam, initial=0.0), np.max(-mu_flat, initial=0.0))
    comp_mu = np.max(np.abs(mu_flat * x_flat), initial=0.0)
    price = (R.T @ lam - mu_flat).reshape(-1, J)
    stat = _reference_stationarity(wbar, x_flat.reshape(-1, J).sum(axis=1), price)
    return float(max(feas, slack, dual, comp_mu, stat))


def _reference_multipath_aggregate(inst, params):
    """Projected gradient on the N*J per-path aggregates."""
    R, c, ws = _log_arrays(inst)
    wbar = np.asarray([w.sum() for w in ws])
    n, J, L = len(ws), inst.paths_per_class, R.shape[0]
    row_deg = np.maximum(R.sum(axis=1), 1.0)
    x = np.full(n * J, 0.5 * float(np.min(c / row_deg)))
    converged = False
    for it in range(1, params.max_iter + 1):
        x_bar = x.reshape(n, J).sum(axis=1)
        grad = np.repeat(wbar / np.maximum(x_bar, 1e-12), J)
        x, nu = project_polytope_with_duals(x + params.alpha * grad, R, c)
        x = np.maximum(x, 0.0)
        lam = nu[:L] / params.alpha
        mu = nu[L:] / params.alpha
        mu[x > params.tol] = 0.0
        if _reference_multipath_residual(R, c, wbar, x, lam, mu, J) <= params.tol:
            converged = True
            break
    return x.reshape(n, J), lam, mu.reshape(n, J), it, converged


def _multipath_objective(inst, x):
    """Flow-level log objective of per-path class rates x, shape (N, J)."""
    ws = _log_arrays(inst)[2]
    return float(sum(w @ np.log(w / w.sum() * t) for w, t in zip(ws, x.sum(axis=1))))


@functools.lru_cache(maxsize=None)
def _small_gradproj_case(n):
    inst = gen_instance(small_topology(), n, seed=1)
    return inst, oracle_solve(inst).objective


class TestSharedGradprojLoop:
    """Single path and multipath run one projected-gradient loop, whose
    first trial step is the Barzilai-Borwein step; it reaches the optimum
    the fixed-step loops it replaced converge to, in far fewer iterations."""

    @pytest.mark.parametrize("n, max_iter", [(3, 20000), (10, 500), (30, 500)])
    def test_single_path(self, n, max_iter):
        # at N=30 every link binds, so most projections are face solves
        inst, oracle = _small_gradproj_case(n)
        sol = solve_gradproj(inst, SolverParams(max_iter=max_iter))
        assert sol.converged
        assert abs(sol.objective - oracle) <= 1e-10 * abs(oracle)
        assert kkt_check(inst, sol.x, sol.u, sol.rho, tol=1e-4).passed

    @pytest.mark.parametrize("n, max_iter", [(5, 5000), (10, 300)])
    def test_multipath(self, n, max_iter):
        # At N=10 the fixed step alpha=2 overshoots and the reference
        # diverges; Armijo backtracking shortens the step and converges.
        inst = gen_multipath_instance(small_topology(), n, 1, paths_per_class=2)
        params = SolverParams(alpha=2.0, tol=1e-6, max_iter=max_iter)
        if n == 5:
            # stopped at tol=1e-6 the fixed-step reference's class totals are
            # still 1e-5 off the optimum, so it runs to 1e-8 (92 iterations)
            ref = _reference_multipath_aggregate(inst, replace(params, tol=1e-8))
            assert ref[4]
            x = solve_multipath_aggregate(inst, params)[0]
            assert np.max(np.abs(x.sum(axis=1) - ref[0].sum(axis=1))) <= params.tol
            want = _multipath_objective(inst, ref[0])
            assert abs(_multipath_objective(inst, x) - want) <= params.tol * abs(want)
        alloc = solve_multipath(inst, params)
        assert alloc.converged and alloc.n_iter <= 60
        assert kkt_check_multipath(inst, alloc, tol=1e-5).passed

    @pytest.mark.parametrize("alpha", [0.01, 0.1, 1.0, 10.0])
    @pytest.mark.parametrize("n", [10, 20, 30])
    def test_first_step_alpha(self, n, alpha):
        # alpha is only the first iteration's trial step and the fallback
        # when the curvature -s.y is not positive; at the default 0.01 the
        # fixed-step loop took 2,000-3,300 iterations here
        inst, oracle = _small_gradproj_case(n)
        sol = solve_gradproj(inst, SolverParams(alpha=alpha))
        assert sol.converged and sol.n_iter <= 100
        assert abs(sol.objective - oracle) <= 1e-10 * abs(oracle)

    def test_stalled_iterate_falls_back_to_alpha(self, monkeypatch):
        # a residual that never meets the tolerance runs the loop to max_iter
        # (gradproj on N=3 reaches a residual of exactly 0 at tol=0); once x
        # stops moving, s = 0 and -s.y = 0, so the trial step is alpha again
        monkeypatch.setattr(solvers, "aggregate_kkt_residual", lambda *args: math.inf)
        params = SolverParams(tol=0.0, max_iter=200)
        inst, oracle = _small_gradproj_case(3)
        sol = solve_gradproj(inst, params)
        assert not sol.converged and sol.n_iter == params.max_iter
        assert abs(sol.objective - oracle) <= 1e-10 * abs(oracle)
        inst = gen_multipath_instance(small_topology(), 5, 1, paths_per_class=2)
        alloc = solve_multipath(inst, replace(params, alpha=2.0))
        assert not alloc.converged and alloc.n_iter == params.max_iter
        assert kkt_check_multipath(inst, alloc, tol=1e-5).passed

    def test_iridium(self):
        inst = _iridium_75()
        _assert_at_oracle_optimum(inst, solve_gradproj(inst, SolverParams()))

    def test_unused_link_does_not_bound_the_start(self):
        # link 3 carries no path; at capacity 1e-9 it used to set the start
        # point near 0, from which no step within the halvings was accepted
        inst = gen_instance(small_topology(), 10, seed=1)
        assert inst.routing.dense()[3].sum() == 0
        links = list(inst.network.links)
        links[3] = links[3]._replace(cap=1e-9)
        inst = replace(inst, network=replace(inst.network, links=tuple(links)))
        sol = solve_gradproj(inst, SolverParams())
        oracle = oracle_solve(inst).objective
        assert sol.converged
        assert abs(sol.objective - oracle) <= 1e-10 * abs(oracle)

    def test_backtracking_gives_up(self, monkeypatch):
        # a projection that always lands at 0 never increases the objective
        inst = gen_instance(small_topology(), 3, seed=1)
        L = inst.routing.dense().shape[0]
        monkeypatch.setattr(solvers, "_PolytopeProjector",
                            lambda R, c: lambda z: (np.zeros_like(z), np.zeros(L + len(z))))
        with pytest.raises(MaxIterExceeded, match="halvings"):
            solve_gradproj(inst, SolverParams())

    def test_repeated_solves_are_bit_identical(self):
        # the projector's face lives for one solve only
        inst = gen_instance(small_topology(), 10, seed=1)
        params = SolverParams(max_iter=300)
        a, b = solve_gradproj(inst, params), solve_gradproj(inst, params)
        assert a.x.tobytes() == b.x.tobytes() and a.n_iter == b.n_iter
        inst = gen_multipath_instance(small_topology(), 5, 1, paths_per_class=2)
        params = SolverParams(alpha=2.0, tol=1e-6)
        a, b = solve_multipath(inst, params), solve_multipath(inst, params)
        assert a.x.tobytes() == b.x.tobytes() and a.n_iter == b.n_iter


class TestAggregateKktResidual:
    @pytest.mark.parametrize("J", [1, 2])
    def test_bit_identical_to_references(self, J):
        inst = gen_instance(small_topology(), 30, seed=1)
        R, c = inst.routing.dense(), inst.network.capacities
        rng = np.random.default_rng(5)
        n = R.shape[1] // J
        for _ in range(50):
            wbar = 10.0 * rng.random(n)
            # some zero rates, and duals of both signs
            x = 5.0 * rng.random(R.shape[1]) * (rng.random(R.shape[1]) > 0.2)
            lam = rng.standard_normal(R.shape[0]) * (rng.random(R.shape[0]) > 0.3)
            mu = rng.standard_normal(R.shape[1]) * (rng.random(R.shape[1]) > 0.5)
            refs = [(mu, _reference_multipath_residual(R, c, wbar, x, lam, mu, J)),
                    (None, _reference_multipath_residual(R, c, wbar, x, lam, np.zeros_like(x), J))]
            if J == 1:
                refs.append((None, _reference_aggregate_residual(R, c, wbar, x, lam)))
            for m, ref in refs:
                got = aggregate_kkt_residual(R, c, wbar, x, lam, m)
                assert np.float64(got).tobytes() == np.float64(ref).tobytes()

    @pytest.mark.parametrize("name", ["small-20", "iridium-75", "multipath-10"])
    def test_is_the_certificate_at_the_share_split(self, name):
        # each class is one flow of weight k_i: at the flows' shares of x the
        # certificate scores the same terms, wherever mu x = 0
        if name == "small-20":
            inst = gen_instance(small_topology(), 20, seed=1)
        elif name == "iridium-75":
            inst = _iridium_75()
        else:
            inst = gen_multipath_instance(small_topology(), 10, 1, paths_per_class=2)
        R, c, table = inst.routing.dense(), inst.network.capacities, inst.class_table
        n, J = len(table.k), inst.paths_per_class
        rng = np.random.default_rng(7)
        for _ in range(40):
            x = 5.0 * rng.random(n * J) * (rng.random(n * J) > 0.2)
            # link prices within a decade of a scale from 1e-3 to 1e8, some zero,
            # a random share of them negative
            sign = np.where(rng.random(R.shape[0]) < rng.random(), -1.0, 1.0)
            scale = 10.0 ** (rng.uniform(-3.0, 8.0) + rng.uniform(-1.0, 1.0, R.shape[0]))
            lam = sign * scale * (rng.random(R.shape[0]) > 0.2)
            mu = rng.standard_normal(n * J) * 10.0 ** rng.uniform(-3.0, 3.0) * (x == 0.0)
            u, _ = table.split(x.reshape(n, J) if J > 1 else x)
            for m in (mu, None):
                got = aggregate_kkt_residual(R, c, table.k, x, lam, m)
                want = kkt_check(inst, x.reshape(n, J), u, lam, mu=None if m is None else m.reshape(n, J))
                assert abs(got - want.max_residual) <= 1e-12 * (1.0 + want.max_residual)


class TestProjectPolytope:
    def test_factors_no_face(self, monkeypatch):
        # one cold solve, whose face no later call would use
        calls = []
        factor = _PolytopeProjector._factor_face

        def counted(self, nu):
            calls.append(1)
            return factor(self, nu)

        monkeypatch.setattr(_PolytopeProjector, "_factor_face", counted)
        inst = gen_instance(small_topology(), 30, seed=1)
        R, c = inst.routing.dense(), inst.network.capacities
        z = 10.0 * (np.random.default_rng(19).standard_normal(R.shape[1]) + 0.5)
        G, h = _constraints(R, c)
        x, nu = project_polytope_with_duals(z, R, c)
        want = _project_qp(z, G, h, 10 * sum(R.shape))
        assert np.any(nu[:R.shape[0]] > 0.0)  # some link binds: a face to factor
        assert x.tobytes() == want[0].tobytes() and nu.tobytes() == want[1].tobytes()
        assert calls == []

    def test_feasible_point_unchanged(self):
        R = np.asarray([[1.0, 1.0]])
        out = project_polytope(np.asarray([2.0, 3.0]), R, np.asarray([10.0]))
        assert out == pytest.approx([2.0, 3.0])

    def test_shared_link_example(self):
        R = np.asarray([[1.0, 1.0]])
        out = project_polytope(np.asarray([8.0, 6.0]), R, np.asarray([10.0]))
        assert out == pytest.approx([6.0, 4.0])

    def test_box_clamp(self):
        R = np.asarray([[1.0]])
        out = project_polytope(np.asarray([12.0]), R, np.asarray([10.0]))
        assert out == pytest.approx([10.0])

    def test_negative_component_clipped(self):
        R = np.asarray([[1.0, 1.0]])
        out = project_polytope(np.asarray([-3.0, 5.0]), R, np.asarray([10.0]))
        assert out == pytest.approx([0.0, 5.0])

    @pytest.mark.parametrize("c", [[-1.0], [np.inf], [np.nan]])
    def test_rejects_bad_capacities(self, c):
        # with c = -1 the NNLS reduction used to return an infeasible x
        with pytest.raises(DomainError):
            project_polytope_with_duals(np.asarray([20.0, 33.0]), np.asarray([[1.0, 1.0]]), c)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_point(self, bad):
        with pytest.raises(DomainError):
            project_polytope_with_duals(np.asarray([bad, 1.0]), np.asarray([[1.0, 1.0]]), [10.0])

    @pytest.mark.parametrize("c, x", [([10.0], [1.0, 2.0]), ([10.0, 10.0], [1.0])],
                             ids=["capacities", "point"])
    def test_dimension_mismatch(self, c, x):
        R = np.asarray([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(DimensionMismatch):
            project_polytope_with_duals(np.asarray(x), R, np.asarray(c))

    def test_non_expansive(self):
        rng = MixRng(67)
        R = small_topology()
        inst = gen_instance(R, 6, seed=4)
        dense = inst.routing.dense()
        c = inst.network.capacities
        for _ in range(20):
            a = np.asarray([20.0 * rng.uniform() - 5.0 for _ in range(6)])
            b = np.asarray([20.0 * rng.uniform() - 5.0 for _ in range(6)])
            pa = project_polytope(a, dense, c)
            pb = project_polytope(b, dense, c)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-10


def _reference_project_qp(z, G, h, max_changes):
    """The primal active-set projection that the NNLS solve replaced.

    Starts at x = 0 and adds one blocking row per step, solving the
    working set's multipliers by least squares.
    """
    m = G.shape[0]
    x = np.zeros_like(z)
    work = []
    scale = 1.0 + float(np.linalg.norm(z))
    for _ in range(max_changes):
        d = z - x
        if work:
            Gw = G[work]
            nu_w, *_ = np.linalg.lstsq(Gw @ Gw.T, Gw @ d, rcond=None)
            p = d - Gw.T @ nu_w
        else:
            nu_w = np.empty(0)
            p = d
        if np.linalg.norm(p) <= 1e-12 * scale:
            if work and np.min(nu_w) < -1e-10:
                work.pop(int(np.argmin(nu_w)))
                continue
            nu = np.zeros(m)
            for idx, row in enumerate(work):
                nu[row] = max(nu_w[idx], 0.0)
            return x, nu
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
    raise AssertionError("reference active-set loop did not settle")


def _constraints(R, c):
    """G = [R; -I] and h = [c; 0], as a projector builds them."""
    project = _PolytopeProjector(R, c)
    return project._G, project._h


def _projection_constraints(name):
    if name == "small":
        inst = gen_instance(small_topology(), 30, seed=1)
    elif name == "iridium":
        inst = gen_instance(iridium_topology(), 50, seed=mix(1, 50),
                            endpoint_rule="gateway-constrained")
    else:  # the routing of the multipath job that diverges
        inst = gen_multipath_instance(small_topology(), 10, 1, paths_per_class=2)
    R = inst.routing.dense()
    G, h = _constraints(R, inst.network.capacities)
    return G, h, 10 * sum(R.shape)


def _scaled_kkt_residual(z, G, h, x, nu):
    """Largest KKT violation of the projection of z, relative to 1 + ||z||_inf."""
    scale = 1.0 + float(np.max(np.abs(z)))
    slack = G @ x - h
    return max(
        float(np.max(np.abs(x - z + G.T @ nu))) / scale,
        max(float(np.max(slack)), 0.0) / scale,
        max(float(-np.min(nu)), 0.0) / scale,
        float(np.max(np.abs(nu * slack))) / scale**2,
    )


class TestProjectQp:
    @pytest.mark.parametrize("name", ["small", "iridium"])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e6, 1e10])
    def test_matches_active_set_reference(self, name, scale):
        G, h, max_changes = _projection_constraints(name)
        rng = np.random.default_rng(11)
        for _ in range(3):
            z = scale * (rng.standard_normal(G.shape[1]) + 0.5)
            x, nu = _project_qp(z, G, h, max_changes)
            ref, _ = _reference_project_qp(z, G, h, max_changes)
            bound = 1e-12 * (1.0 + float(np.max(np.abs(z))))
            assert float(np.max(np.abs(x - ref))) <= bound
            assert _scaled_kkt_residual(z, G, h, x, nu) <= 1e-12

    def test_far_point_comes_back_feasible(self):
        # entries of about 1e13, as the diverging multipath iteration reaches:
        # x = z + y cancels about eps*||z||, which the second solve removes
        G, h, max_changes = _projection_constraints("multipath")
        rng = np.random.default_rng(13)
        for _ in range(5):
            z = 1e13 * rng.standard_normal(G.shape[1])
            x, nu = _project_qp(z, G, h, max_changes)
            assert float(np.max(G @ x - h)) <= 1e-12 * (1.0 + float(np.max(h)))
            assert _scaled_kkt_residual(z, G, h, x, nu) <= 1e-12
            ref, _ = _reference_project_qp(z, G, h, max_changes)
            assert float(np.max(np.abs(x - ref))) <= 1e-12 * (1.0 + float(np.max(np.abs(z))))

    def test_max_iter_exceeded(self):
        G, h, _ = _projection_constraints("small")
        z = 1e3 * (np.random.default_rng(17).standard_normal(G.shape[1]) + 0.5)
        with pytest.raises(MaxIterExceeded):
            _project_qp(z, G, h, 1)


def _iterate_points(inst, alpha, count):
    """The points that fixed-step projected gradient projects, from cold solves."""
    R, c, ws = _log_arrays(inst)
    wbar = np.asarray([w.sum() for w in ws])
    n, J = len(ws), inst.paths_per_class
    G, h = _constraints(R, c)
    x = np.full(n * J, 0.5 * float(np.min(c / np.maximum(R.sum(axis=1), 1.0))))
    zs = []
    for _ in range(count):
        x_bar = x.reshape(n, J).sum(axis=1)
        zs.append(x + alpha * np.repeat(wbar / np.maximum(x_bar, 1e-12), J))
        x, _ = _project_qp(zs[-1], G, h, 10 * sum(R.shape))
        x = np.maximum(x, 0.0)
    return R, c, zs


def _assert_projects_like_cold_solve(R, c, z, x, nu):
    G, h = _constraints(R, c)
    ref, _ = _project_qp(z, G, h, 10 * sum(R.shape))
    assert float(np.max(np.abs(x - ref))) <= 1e-12 * (1.0 + float(np.max(np.abs(z))))
    assert _scaled_kkt_residual(z, G, h, x, nu) <= 1e-12


@functools.lru_cache(maxsize=1)
def _small_n30_points():
    # every link binds from iterate 669 on
    return _iterate_points(gen_instance(small_topology(), 30, seed=1), 1e-2, 800)


class TestPolytopeProjector:
    """The warm projector against the cold NNLS solve, point by point."""

    @staticmethod
    def _count_cold_solves(monkeypatch):
        calls = []

        def counted(*args):
            calls.append(1)
            return _project_qp(*args)

        monkeypatch.setattr(solvers, "_project_qp", counted)
        return calls

    def test_single_path_all_links_active(self, monkeypatch):
        R, c, zs = _small_n30_points()
        cold = self._count_cold_solves(monkeypatch)
        project = _PolytopeProjector(R, c)
        for z in zs:
            x, nu = project(z)
            _assert_projects_like_cold_solve(R, c, z, x, nu)
        assert np.all(nu[: R.shape[0]] > 0.0)
        assert len(cold) < len(zs) // 10

    def test_multipath_zero_paths_active(self, monkeypatch):
        inst = gen_multipath_instance(small_topology(), 5, 1, paths_per_class=2)
        R, c, zs = _iterate_points(inst, 2.0, 64)
        cold = self._count_cold_solves(monkeypatch)
        project = _PolytopeProjector(R, c)
        for z in zs:
            x, nu = project(z)
            _assert_projects_like_cold_solve(R, c, z, x, nu)
        assert np.any(nu[R.shape[0]:] > 0.0)
        assert len(cold) < len(zs)

    def test_link_leaving_the_face_falls_back(self, monkeypatch):
        R, c, zs = _small_n30_points()
        project = _PolytopeProjector(R, c)
        x, nu = project(zs[-1])
        assert np.all(nu[: R.shape[0]] > 0.0)
        cold = self._count_cold_solves(monkeypatch)
        # pulling back every flow on link 0 leaves that link slack
        z = x - 2.0 * R[0]
        x, nu = project(z)
        _assert_projects_like_cold_solve(R, c, z, x, nu)
        assert len(cold) == 1 and nu[0] == 0.0
        x, nu = project(z)
        assert len(cold) == 1
        _assert_projects_like_cold_solve(R, c, z, x, nu)

    def test_zero_path_leaving_the_face_falls_back(self, monkeypatch):
        inst = gen_multipath_instance(small_topology(), 5, 1, paths_per_class=2)
        R, c, zs = _iterate_points(inst, 2.0, 64)
        project = _PolytopeProjector(R, c)
        x, nu = project(zs[-1])
        j = int(np.flatnonzero(nu[R.shape[0]:] > 0.0)[0])
        cold = self._count_cold_solves(monkeypatch)
        # pushing a zero path far up makes its rate positive
        z = zs[-1].copy()
        z[j] += 10.0
        x, nu = project(z)
        _assert_projects_like_cold_solve(R, c, z, x, nu)
        assert len(cold) == 1 and x[j] > 0.0

    # an extra link row that copies row 0, or adds rows 2 and 3; with the
    # sum, Cholesky of the face's M M^T ends on a round-off pivot, not a failure
    @pytest.mark.parametrize("rows", [[0], [2, 3]])
    def test_dependent_face_rows(self, monkeypatch, rows):
        R0, c0, zs = _small_n30_points()
        R, c = np.vstack([R0, R0[rows].sum(axis=0)]), np.append(c0, c0[rows].sum())
        project = _PolytopeProjector(R, c)
        for z in zs:
            x, nu = project(z)
            _assert_projects_like_cold_solve(R, c, z, x, nu)
        # the face of every link row
        nu = np.concatenate([np.ones(R.shape[0]), np.zeros(R.shape[1])])
        project._face = project._factor_face(nu)
        assert project._face is None
        cold = self._count_cold_solves(monkeypatch)
        x, nu = project(zs[-1])
        assert len(cold) == 1
        _assert_projects_like_cold_solve(R, c, zs[-1], x, nu)

    def test_far_point(self):
        G, h, _ = _projection_constraints("multipath")
        L = G.shape[0] - G.shape[1]
        R, c = G[:L], h[:L]
        project = _PolytopeProjector(R, c)
        rng = np.random.default_rng(13)
        for _ in range(5):
            z = 1e13 * rng.standard_normal(G.shape[1])
            x, nu = project(z)
            assert float(np.max(G @ x - h)) <= 1e-12 * (1.0 + float(np.max(h)))
            _assert_projects_like_cold_solve(R, c, z, x, nu)


class TestSolveGradproj:
    def test_step_to_a_zero_class_total_is_rejected(self):
        # at alpha = 1 the first trial projects a class total to exactly 0
        # (objective -inf); that trial must be halved, not accepted
        inst = gen_instance(small_topology(), 30, seed=1)
        sol = solve_gradproj(inst, SolverParams(alpha=1.0))
        assert sol.converged and np.min(sol.x) > 0.0
        oracle = oracle_solve(inst)
        assert abs(sol.objective - oracle.objective) <= 1e-10 * abs(oracle.objective)

    def test_step_to_a_round_off_class_total_is_rejected(self):
        # at alpha = 10 a trial leaves a class total at 8.9e-16; accepted,
        # its gradient throws every trial of the next step far off
        inst = gen_instance(small_topology(), 30, seed=1)
        sol = solve_gradproj(inst, SolverParams(alpha=10.0))
        assert sol.converged
        oracle = oracle_solve(inst)
        assert abs(sol.objective - oracle.objective) <= 1e-10 * abs(oracle.objective)

    @pytest.mark.parametrize("case", ["small-15", "iridium-75"])
    def test_iterations_do_not_depend_on_weight_scale(self, case):
        # the Barzilai-Borwein step (s.s)/(-s.y) scales as 1/weights, so only
        # the first trial step, alpha, has a scale. The runs took 21/24/20
        # (small) and 207/189/175 (iridium) iterations at weights x 0.01/1/100.
        base = _small_n15() if case == "small-15" else _iridium_75()
        n_iter = {}
        for scale in (0.01, 1.0, 100.0):
            inst = _scaled_weights(base, scale)
            sol = solve_gradproj(inst, SolverParams())
            ref = oracle_solve(inst)
            assert sol.converged
            assert np.max(np.abs(sol.x - ref.x) / ref.x) <= 1e-4
            n_iter[scale] = sol.n_iter
        assert all(n_iter[1.0] / 1.5 <= n <= 1.5 * n_iter[1.0] for n in n_iter.values()), n_iter

    def test_single_class_saturates_link(self):
        inst = _single_link_instance([[WeightedLog(1.0)]])
        sol = solve_gradproj(inst, SolverParams(alpha=0.05))
        assert sol.converged
        assert sol.x[0] == pytest.approx(10.0, abs=1e-4)

    def test_water_filling_split(self):
        inst = _single_link_instance(
            [[WeightedLog(1.0)], [WeightedLog(1.5), WeightedLog(1.5)]]
        )
        sol = solve_gradproj(inst, SolverParams())
        assert sol.x == pytest.approx([2.5, 7.5], abs=1e-4)

    def test_objective_monotone_for_small_step(self):
        inst = gen_instance(small_topology(), 5, seed=9)
        R = inst.routing.dense()
        c = inst.network.capacities
        wbar = np.asarray([sum(f.w for f in cls.flows) for cls in inst.classes])
        x = np.full(5, 0.1)
        prev = -np.inf
        for _ in range(60):
            x = project_polytope(x + 1e-3 * wbar / x, R, c)
            cur = float(np.sum(wbar * np.log(np.maximum(x, 1e-12))))
            assert cur >= prev - 1e-12
            prev = cur


class TestProxOperators:
    def test_prox_f_at_zero(self):
        assert cp_prox_f(np.asarray([0.0]), 1.0, np.asarray([1.0]))[0] == pytest.approx(1.0)

    def test_prox_f_small_tau_is_identity(self):
        out = cp_prox_f(np.asarray([3.0]), 1e-12, np.asarray([1.0]))
        assert out[0] == pytest.approx(3.0, abs=1e-9)

    def test_prox_f_stationarity(self):
        rng = MixRng(71)
        for _ in range(30):
            z = np.asarray([6.0 * rng.uniform() - 3.0 for _ in range(4)])
            tau = 0.01 + rng.uniform()
            w = np.asarray([0.1 + rng.uniform() for _ in range(4)])
            u = cp_prox_f(z, tau, w)
            assert np.max(np.abs(u - z - tau * w / u)) <= 1e-12 * max(1.0, float(np.max(np.abs(u))))

    def test_prox_f_lipschitz(self):
        rng = MixRng(73)
        w = np.asarray([0.5])
        for _ in range(50):
            a = np.asarray([8.0 * rng.uniform() - 4.0])
            b = np.asarray([8.0 * rng.uniform() - 4.0])
            da = cp_prox_f(a, 0.3, w) - cp_prox_f(b, 0.3, w)
            assert abs(da[0]) <= abs((a - b)[0]) + 1e-12

    def test_prox_gstar_examples(self):
        c = np.asarray([10.0])
        assert cp_prox_gstar(np.asarray([12.0]), 1.0, c)[0] == pytest.approx(2.0)
        assert cp_prox_gstar(np.asarray([5.0]), 1.0, c)[0] == pytest.approx(0.0)

    def test_moreau_identity(self):
        rng = MixRng(79)
        c = np.asarray([10.0, 3.0])
        for _ in range(30):
            sigma = 0.1 + 2.0 * rng.uniform()
            z = np.asarray([30.0 * rng.uniform() - 5.0 for _ in range(2)])
            y = cp_prox_gstar(z, sigma, c)
            proj = np.minimum(z / sigma, c)
            assert y + sigma * proj == pytest.approx(z, abs=1e-12)

    def test_prox_gstar_matches_closed_form(self):
        rng = MixRng(83)
        c = np.asarray([4.0])
        for _ in range(20):
            sigma = 0.1 + rng.uniform()
            z = np.asarray([20.0 * rng.uniform() - 10.0])
            assert cp_prox_gstar(z, sigma, c)[0] == max(0.0, z[0] - sigma * c[0])


class TestSolveCp:
    def test_single_class_saturates_link(self):
        inst = _single_link_instance([[WeightedLog(1.0), WeightedLog(1.0)]])
        sol = solve_cp(inst, SolverParams(max_iter=50000))
        assert sol.converged
        assert sol.u[0] == pytest.approx([5.0, 5.0], abs=1e-3)

    def test_default_step_converges_on_small(self):
        # sigma = mean(wbar) / mean(c)^2 = 0.079 and tau = 0.95 / (sigma ||R||^2)
        # = 2.48 here (||R||^2 = 4.84); a fixed tau of 0.015 took 2,580 iterations
        inst = gen_instance(small_topology(), 10, seed=1)
        sol = solve_cp(inst, SolverParams())
        assert sol.converged and sol.n_iter <= 300

    @pytest.mark.parametrize("case", ["small-15", "iridium-75"])
    def test_iterations_do_not_depend_on_weight_scale(self, case):
        # the steps scale with mean(wbar), so the prices scale with the
        # weights and the rates do not move; with sigma = 1 and
        # tau = 0.95 / ||R||^2 both instances took all 20,000 iterations at
        # weights x 0.01. At tol 1e-7 the stop holds the objective to 1e-6
        # (at the default 1e-5, small N=15 stops 1.4e-6 from the oracle's).
        if case == "small-15":
            base = gen_instance(small_topology(), 15, seed=15)
        else:
            base = gen_instance(iridium_topology(), 75, mix(1, 75),
                                endpoint_rule="gateway-constrained")
        n_iter = {}
        for scale in (0.01, 1.0, 100.0):
            inst = _scaled_weights(base, scale)
            sol = solve_cp(inst, SolverParams(tol=1e-7))
            ref = oracle_solve(inst)
            assert sol.converged
            assert abs(sol.objective - ref.objective) <= 1e-6 * abs(ref.objective)
            n_iter[scale] = sol.n_iter
        assert all(abs(n - n_iter[1.0]) <= 10 for n in n_iter.values()), n_iter

    def test_agrees_with_admm(self):
        for seed in (2, 4):
            inst = gen_instance(small_topology(), 8, seed=seed)
            a = solve_admm(inst, SolverParams())
            b = solve_cp(inst, SolverParams())
            assert a.converged and b.converged
            assert abs(a.objective - b.objective) <= 1e-3 * abs(b.objective)


class TestSimplex:
    def test_small_lp(self):
        # max 3x + 2y s.t. x + y <= 4, x <= 2
        t, val, duals, _ = simplex_maximize(
            np.asarray([3.0, 2.0]),
            np.asarray([[1.0, 1.0], [1.0, 0.0]]),
            np.asarray([4.0, 2.0]),
            np.full(2, np.inf),
        )
        assert t == pytest.approx([2.0, 2.0])
        assert val == pytest.approx(10.0)
        assert np.min(duals) >= -1e-12

    def test_zero_rhs(self):
        t, val, _, _ = simplex_maximize(
            np.asarray([1.0]), np.asarray([[1.0]]), np.asarray([0.0]), np.full(1, np.inf)
        )
        assert t[0] == 0.0 and val == 0.0

    def test_beale_cycling_lp(self):
        # Beale's example, on which the textbook most-negative rule cycles
        obj = np.asarray([0.75, -20.0, 0.5, -6.0])
        A = np.asarray([
            [0.25, -8.0, -1.0, 9.0],
            [0.5, -12.0, -0.5, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ])
        b = np.asarray([0.0, 0.0, 1.0])
        t, val, duals, _ = simplex_maximize(obj, A, b, np.full(4, np.inf))
        assert val == pytest.approx(1.25, abs=1e-12)
        assert obj @ t == pytest.approx(1.25, abs=1e-12)
        assert duals == pytest.approx([0.0, 1.5, 1.25], abs=1e-12)
        assert b @ duals == pytest.approx(val, abs=1e-12)

    def test_unbounded_raises(self):
        # max x + y s.t. x - y <= 1: y grows without bound
        with pytest.raises(ValueError):
            simplex_maximize(
                np.asarray([1.0, 1.0]), np.asarray([[1.0, -1.0]]), np.asarray([1.0]),
                np.full(2, np.inf),
            )

    def test_finite_upper_bound_binds(self):
        # max 3x + 2y s.t. x + y <= 4, x <= 2, y <= 1.5: the bound on y binds, not x + y
        upper = np.asarray([np.inf, 1.5])
        t, val, duals, _ = simplex_maximize(
            np.asarray([3.0, 2.0]), np.asarray([[1.0, 1.0], [1.0, 0.0]]), np.asarray([4.0, 2.0]),
            upper,
        )
        assert np.all(t <= upper)
        assert t == pytest.approx([2.0, 1.5]) and val == pytest.approx(9.0)
        assert duals.shape == (2,) and duals == pytest.approx([0.0, 3.0])

    def test_negative_rhs_rejected(self):
        with pytest.raises(ValueError):
            simplex_maximize(np.asarray([1.0]), np.asarray([[1.0]]), np.asarray([-1.0]),
                             np.full(1, np.inf))


def _pwl_instance(n: int, seed: int) -> Instance:
    """Small-topology routes; each class gets 1-3 random PWL flows."""
    base = gen_instance(small_topology(), n, seed)
    rng = MixRng(seed)
    classes = tuple(
        replace(cls, flows=tuple(PwlUtility(_random_pwl(rng)) for _ in range(rng.randint(1, 3))))
        for cls in base.classes
    )
    return Instance(base.network, classes, base.routing)


def _convolution_lp_value(inst: Instance) -> float:
    """Value of the aggregate LP over each class's supremal convolution: one
    variable per positive-slope segment of the convolution, on the class's column."""
    cols, slopes, lengths, offset = [], [], [], 0.0
    for i, cls in enumerate(inst.classes):
        agg = aggregate_class(cls.flows).aggregate.fn
        offset += agg.offset
        c, m = agg.breakpoints, agg.slopes
        for b in range(len(c) - 1):
            cols.append(i)
            slopes.append(m[b])
            lengths.append(c[b + 1] - c[b])
    _, value, _, _ = simplex_maximize(np.asarray(slopes), inst.routing.dense()[:, cols],
                                      inst.network.capacities, np.asarray(lengths))
    return value + offset


# instances on which the LP over the flows' own segments must reach the
# convolutions' value: random classes, and classes whose convolution merges
# or ties segments
_PWL_CASES = {
    "random-8": lambda: _pwl_instance(8, 3),
    "random-20": lambda: _pwl_instance(20, 5),
    "random-30": lambda: _pwl_instance(30, 11),
    "two-identical-members": lambda: _single_link_instance([
        [PwlUtility(PwlConcave((0.0, 2.0, 5.0), (3.0, 1.0, 0.0)))] * 2,
        [PwlUtility(PwlConcave((0.0, 4.0), (2.0, 0.0), offset=0.5))],
    ], cap=7.0),
    "equal-slopes-across-members": lambda: _single_link_instance([
        [PwlUtility(PwlConcave((0.0, 2.0), (3.0, 0.0))),
         PwlUtility(PwlConcave((0.0, 1.0, 3.0), (3.0, 1.0, 0.0)))],
        [PwlUtility(PwlConcave((0.0, 1.5), (1.0, 0.0)))],
    ], cap=4.5),
    "segment-shorter-than-merge-tol": lambda: _single_link_instance([
        [PwlUtility(PwlConcave((0.0, 1.0, 1.0 + MERGE_TOL / 2, 3.0), (4.0, 2.0, 1.5, 0.0))),
         PwlUtility(PwlConcave((0.0, 2.0), (1.75, 0.0)))],
        [PwlUtility(PwlConcave((0.0, 1.0), (1.8, 0.0)))],
    ], cap=3.5),
}


class TestSolvePwlAggregate:
    def _instance(self, members, cap):
        net = Network(node_count=2, links=(Link(1, 2, cap),))
        cls = FlowClass(1, 2, ((1,),), tuple(PwlUtility(m) for m in members))
        return Instance(net, (cls,), routing_matrix(net, (cls,)))

    def test_single_member_flat_region(self):
        f = PwlConcave((0.0, 2.0), (3.0, 0.0))
        sol = solve_pwl_aggregate(self._instance([f], 10.0))
        assert sol.x[0] == pytest.approx(2.0)
        assert sol.objective == pytest.approx(6.0)

    def test_two_members_supconv_capacity(self):
        f = PwlConcave((0.0, 2.0), (3.0, 0.0))
        sol = solve_pwl_aggregate(self._instance([f, f], 10.0))
        assert sol.x[0] == pytest.approx(4.0)
        assert sol.objective == pytest.approx(12.0)

    def test_binding_capacity(self):
        f = PwlConcave((0.0, 2.0), (3.0, 0.0))
        sol = solve_pwl_aggregate(self._instance([f, f], 3.0))
        assert sol.x[0] == pytest.approx(3.0)
        assert sol.objective == pytest.approx(9.0)

    def test_rejects_non_pwl(self):
        inst = _single_link_instance([[WeightedLog(1.0)]])
        with pytest.raises(NotSupportedUtility):
            solve_pwl_aggregate(inst)

    def test_flat_utilities_give_zero_rates(self):
        # no positive-slope segment: the LP has no variables
        f = PwlConcave((0.0,), (0.0,), offset=1.0)
        sol = solve_pwl_aggregate(self._instance([f], 10.0))
        assert sol.x[0] == 0.0 and sol.objective == 1.0
        assert list(sol.rho) == [0.0]

    def test_constant_flows_give_float_rates(self):
        # no segment at all: np.bincount of no weights gives ints
        f = PwlConcave((0.0,), (0.0,), 1.5)
        sol = solve_pwl_aggregate(_single_link_instance([[PwlUtility(f)]] * 3))
        assert sol.x.dtype == np.float64 and sol.x.tolist() == [0.0, 0.0, 0.0]
        assert all(ui.dtype == np.float64 and ui.tolist() == [0.0] for ui in sol.u)
        assert sol.objective == 4.5

    @pytest.mark.parametrize("links", [(), (Link(1, 2, 10.0),)], ids=["no-links", "one-link"])
    def test_no_classes(self, links):
        net = Network(node_count=2, links=links)
        sol = solve_pwl_aggregate(Instance(net, (), routing_matrix(net, ())))
        assert sol.l_max == 0.0 and sol.x.shape == (0,) and sol.u == ()

    @pytest.mark.parametrize("n, seed", [(8, 3), (20, 5), (30, 11)])
    def test_kkt_check_passes(self, n, seed):
        inst = _pwl_instance(n, seed)
        sol = solve_pwl_aggregate(inst)
        assert np.max(sol.rho) > 0  # some link binds
        report = kkt_check(inst, sol.x, sol.u, sol.rho, tol=1e-9)
        assert report.passed, report
        # the LP value plus the offsets is the utility of the returned rates
        total = sum(pwl_eval(f.fn, r) for cls, ui in zip(inst.classes, sol.u)
                    for f, r in zip(cls.flows, ui))
        assert sol.objective == pytest.approx(total, rel=1e-12, abs=0.0)

    def test_kkt_check_fails_without_link_duals(self):
        inst = _pwl_instance(20, 5)
        sol = solve_pwl_aggregate(inst)
        report = kkt_check(inst, sol.x, sol.u, np.zeros_like(sol.rho), tol=1e-9)
        assert report.stationarity > 1e-3
        assert not report.passed

    @pytest.mark.parametrize("name", list(_PWL_CASES))
    def test_matches_the_lp_over_the_supremal_convolutions(self, name):
        inst = _PWL_CASES[name]()
        sol = solve_pwl_aggregate(inst)
        assert sol.objective == pytest.approx(_convolution_lp_value(inst), rel=1e-9, abs=0.0)
        report = kkt_check(inst, sol.x, sol.u, sol.rho, tol=1e-9)
        assert report.passed, report
        for ui, x_i in zip(sol.u, sol.x):
            assert ui.sum() == pytest.approx(x_i, rel=0.0, abs=1e-12)

    def test_builds_no_supremal_convolution(self, monkeypatch):
        inst = _pwl_instance(20, 5)
        expected = solve_pwl_aggregate(inst)

        def refuse(*args, **kwargs):
            raise AssertionError("the solve built a supremal convolution")

        monkeypatch.setattr(utility, "aggregate_class", refuse)
        monkeypatch.setattr(utility, "pwl_supconv", refuse)
        sol = solve_pwl_aggregate(inst)
        assert np.array_equal(sol.x, expected.x) and sol.objective == expected.objective


class _Unreadable:
    def __getattribute__(self, name):
        raise AssertionError(f"read {name!r} of a flow's PwlConcave")


def test_pwl_solve_and_certificate_read_no_flow_object():
    inst = _pwl_instance(20, 5)
    expected = solve_pwl_aggregate(inst)
    report = kkt_check(inst, expected.x, expected.u, expected.rho, tol=1e-9)
    for cls in inst.classes:
        for f in cls.flows:
            object.__setattr__(f, "fn", _Unreadable())
    sol = solve_pwl_aggregate(inst)
    assert sol.x.tobytes() == expected.x.tobytes() and sol.rho.tobytes() == expected.rho.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(sol.u, expected.u))
    assert sol.objective == expected.objective and sol.n_iter == expected.n_iter
    assert kkt_check(inst, sol.x, sol.u, sol.rho, tol=1e-9) == report


def _small_n15():
    return gen_instance(small_topology(), 15, 1)


# every solver, with the instance it runs on here
_EVERY_SOLVER = {
    "admm": (lambda inst: solve_admm(inst, SolverParams()), _small_n15),
    "cp": (lambda inst: solve_cp(inst, SolverParams()), _small_n15),
    "gradproj": (lambda inst: solve_gradproj(inst, SolverParams()), _small_n15),
    "oracle": (oracle_solve, _small_n15),
    "multipath": (lambda inst: solve_multipath(inst, SolverParams(alpha=2.0, tol=1e-6, max_iter=5000)),
                  lambda: gen_multipath_instance(small_topology(), 5, 1, paths_per_class=2)),
    "pwl": (solve_pwl_aggregate, lambda: _pwl_instance(8, 3)),
}


@pytest.mark.parametrize("name", list(_EVERY_SOLVER))
def test_l_max_and_wall_time_of_every_solver(name):
    solve, make = _EVERY_SOLVER[name]
    inst = make()
    t0 = time.perf_counter()
    sol = solve(inst)
    elapsed = time.perf_counter() - t0
    assert sol.l_max == float(np.max(inst.routing.dense() @ sol.x.reshape(-1)))
    assert 0.0 < sol.wall_time <= elapsed
