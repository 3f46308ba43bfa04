"""Tests for utility families, aggregation, apportionment, and KKT checks."""

import math

import numpy as np
import pytest

from numflow.errors import DomainError, MixedExponent, MixedTags, NotLegendre
from numflow.netmodel import FlowClass, Instance, Link, Network, routing_matrix
from numflow.pwl import PwlConcave
from numflow.rng import MixRng
from numflow.utility import (
    AggregateQuadratic,
    KktReport,
    NegPower,
    PwlUtility,
    Quadratic,
    WeightedLog,
    aggregate_class,
    apportion,
    conjugate_derivative,
    derivative,
    evaluate,
    family_from_json,
    family_to_json,
    kkt_check,
    kkt_check_single_path,
    _pwl_stationarity,
)


def _single_link_instance(class_flows, cap=10.0):
    """Classes all routed over the one link of a 2-node network."""
    net = Network(node_count=2, links=(Link(1, 2, cap),))
    classes = tuple(FlowClass(1, 2, ((1,),), tuple(flows)) for flows in class_flows)
    return Instance(net, classes, routing_matrix(net, classes))


class TestEvaluate:
    def test_log_at_one(self):
        assert evaluate(WeightedLog(2.0), 1.0) == 0.0

    def test_negpower(self):
        assert evaluate(NegPower(1.0, 1.0), 2.0) == -0.5

    def test_quadratic_outside_domain(self):
        assert evaluate(Quadratic(3.0), -1.0) == -math.inf

    def test_log_outside_domain(self):
        assert evaluate(WeightedLog(1.0), 0.0) == -math.inf


class TestConjugateDerivative:
    def test_log(self):
        assert conjugate_derivative(WeightedLog(3.0))(1.5) == 2.0

    def test_negpower(self):
        assert conjugate_derivative(NegPower(1.0, 1.0))(1.0) == 1.0

    def test_inverse_identity(self):
        rng = MixRng(5)
        fams = [WeightedLog(2.0), NegPower(0.7, 1.0), NegPower(1.3, 2.0)]
        for f in fams:
            g = conjugate_derivative(f)
            for _ in range(100):
                v = 0.01 + 5.0 * rng.uniform()
                assert derivative(f, g(v)) == pytest.approx(v, rel=1e-10)
                x = 0.01 + 5.0 * rng.uniform()
                assert g(derivative(f, x)) == pytest.approx(x, rel=1e-10)

    def test_not_legendre(self):
        with pytest.raises(NotLegendre):
            conjugate_derivative(Quadratic(1.0))
        with pytest.raises(NotLegendre):
            conjugate_derivative(PwlUtility(PwlConcave((0.0, 1.0), (1.0, 0.0))))


class TestAggregateClass:
    def test_log_weights_sum(self):
        cu = aggregate_class([WeightedLog(0.2), WeightedLog(0.8)])
        assert isinstance(cu.aggregate, WeightedLog)
        assert cu.aggregate.w == pytest.approx(1.0)

    def test_negpower_root_sum(self):
        cu = aggregate_class([NegPower(1.0, 1.0), NegPower(1.0, 1.0)])
        assert isinstance(cu.aggregate, NegPower)
        assert cu.aggregate.w == pytest.approx(4.0)
        assert evaluate(cu.aggregate, 2.0) == pytest.approx(-2.0)

    def test_quadratic_aggregate(self):
        cu = aggregate_class([Quadratic(1.0), Quadratic(5.0)])
        agg = cu.aggregate
        assert isinstance(agg, AggregateQuadratic)
        assert (agg.z_bar, agg.count, agg.lower) == (6.0, 2, 4.0)
        assert evaluate(agg, 8.0) == pytest.approx(-1.0)  # -(8-6)^2/4
        assert evaluate(agg, 3.0) == -math.inf  # below domain bound

    def test_mixed_tags_rejected(self):
        with pytest.raises(MixedTags):
            aggregate_class([WeightedLog(1.0), NegPower(1.0, 1.0)])

    def test_mixed_exponent_rejected(self):
        with pytest.raises(MixedExponent):
            aggregate_class([NegPower(1.0, 1.0), NegPower(1.0, 2.0)])

    def test_aggregate_of_one(self):
        f = WeightedLog(0.7)
        cu = aggregate_class([f])
        for x in (0.5, 1.0, 3.0):
            assert evaluate(cu.aggregate, x) == evaluate(f, x)
        assert apportion(cu, 2.5) == [2.5]


class TestApportion:
    def test_log_proportional(self):
        cu = aggregate_class([WeightedLog(1.0), WeightedLog(3.0)])
        assert apportion(cu, 8.0) == pytest.approx([2.0, 6.0])

    def test_negpower_root_shares(self):
        cu = aggregate_class([NegPower(1.0, 1.0), NegPower(4.0, 1.0)])
        assert apportion(cu, 9.0) == pytest.approx([3.0, 6.0])

    def test_quadratic_shift(self):
        cu = aggregate_class([Quadratic(1.0), Quadratic(5.0)])
        assert apportion(cu, 4.0) == pytest.approx([0.0, 4.0])

    def test_domain_errors(self):
        cu = aggregate_class([WeightedLog(1.0)])
        with pytest.raises(DomainError):
            apportion(cu, 0.0)
        cq = aggregate_class([Quadratic(1.0), Quadratic(5.0)])
        with pytest.raises(DomainError):
            apportion(cq, 3.0)  # below z_bar - K*z_min = 4

    def test_conservation(self):
        rng = MixRng(13)
        for _ in range(20):
            k = rng.randint(2, 6)
            cu = aggregate_class([WeightedLog(rng.uniform()) for _ in range(k)])
            x = 0.1 + 10.0 * rng.uniform()
            parts = apportion(cu, x)
            assert sum(parts) == pytest.approx(x, rel=k * np.finfo(float).eps * 4)


class TestKktCheck:
    def test_saturated_single_link(self):
        inst = _single_link_instance([[WeightedLog(0.4), WeightedLog(0.6)]])
        cu = aggregate_class(inst.classes[0].flows)
        u = [apportion(cu, 10.0)]
        rep = kkt_check_single_path(inst, [10.0], u, [0.1], tol=1e-9)
        assert rep.passed
        assert rep.max_residual <= 1e-12

    def test_zero_dual_breaks_stationarity(self):
        inst = _single_link_instance([[WeightedLog(0.4), WeightedLog(0.6)]])
        cu = aggregate_class(inst.classes[0].flows)
        u = [apportion(cu, 10.0)]
        rep = kkt_check_single_path(inst, [10.0], u, [0.0], tol=1e-6)
        assert rep.complementary_slackness <= 1e-12
        assert rep.stationarity >= 0.5
        assert not rep.passed

    def test_two_class_water_filling(self):
        inst = _single_link_instance(
            [[WeightedLog(1.0)], [WeightedLog(1.5), WeightedLog(1.5)]]
        )
        u = [[2.5], [3.75, 3.75]]
        rep = kkt_check_single_path(inst, [2.5, 7.5], u, [0.4], tol=1e-9)
        assert rep.passed


def _reference_kkt_check(inst, x, u, lam, tol=1e-6, mu=None):
    """The per-flow loop ``kkt_check`` ran before its stationarity targets
    were vectorised; kept as the reference its report is checked against."""
    R = inst.routing.dense()
    c = inst.network.capacities
    n = len(inst.classes)
    J = inst.paths_per_class
    x = np.asarray(x, dtype=float).reshape(n, J)
    mu = np.zeros((n, J)) if mu is None else np.asarray(mu, dtype=float).reshape(n, J)
    lam = np.asarray(lam, dtype=float)
    load = R @ x.reshape(-1)
    feas = float(np.max((load - c) / np.maximum(c, 1.0), initial=0.0))
    dual = max(float(np.max(-lam, initial=0.0)), float(np.max(-mu, initial=0.0)))
    slack = float(np.max(np.abs(lam * (load - c)) / np.maximum(c, 1.0), initial=0.0))
    u_neg = flow_slack = stat = cons = 0.0
    for i, cls in enumerate(inst.classes):
        rates = np.asarray(u[i], dtype=float).reshape(len(cls.flows), J)
        u_neg = max(u_neg, float(np.max(-rates, initial=0.0)))
        totals = rates.sum(axis=1)
        for j in range(J):
            flow_slack = max(flow_slack, float(np.max(np.abs(mu[i, j] * rates[:, j]), initial=0.0)))
            price = float(lam @ R[:, i * J + j]) - mu[i, j]
            for k, fam in enumerate(cls.flows):
                if isinstance(fam, PwlUtility):
                    stat = max(stat, _pwl_stationarity(fam.fn, max(totals[k], 0.0), price))
                elif price > 0:
                    target = conjugate_derivative(fam)(price)
                    stat = max(stat, abs(totals[k] - target) / max(abs(target), 1e-12))
                else:
                    stat = max(stat, 1.0)
            cons = max(cons, abs(float(rates[:, j].sum()) - x[i, j]) / max(abs(x[i, j]), 1.0))
    return KktReport(feas, u_neg, dual, slack, flow_slack, stat, cons, tol)


def _kkt_cases():
    """(name, kkt_check arguments) at optima, near optima and far from them."""
    from numflow.harness import oracle_solve
    from numflow.multipath import gen_multipath_instance, solve_multipath
    from numflow.netmodel import gen_instance, iridium_topology, small_topology
    from numflow.solvers import SolverParams, solve_admm, solve_pwl_aggregate

    small = small_topology()
    insts = {
        "small-10": gen_instance(small, 10, seed=1),
        "small-30": gen_instance(small, 30, seed=1),
        "iridium-75": gen_instance(iridium_topology(), 75, seed=1, endpoint_rule="gateway-constrained"),
        "power-a1": gen_instance(small, 20, seed=2, utility_spec={"family": "power", "a": 1.0}),
        "power-a2": gen_instance(small, 20, seed=2, utility_spec={"family": "power", "a": 2.0}),
    }
    rng = np.random.default_rng(3)
    cases = []
    for name, inst in insts.items():
        sol = oracle_solve(inst)
        wobble = [ui * (1.0 + 1e-3 * rng.standard_normal(len(ui))) for ui in sol.u]
        cases += [
            (f"{name}/oracle", (inst, sol.x, sol.u, sol.rho, None)),
            (f"{name}/zero-price", (inst, sol.x, sol.u, np.zeros_like(sol.rho), None)),
            (f"{name}/perturbed", (inst, sol.x, wobble, sol.rho * (1.0 + 1e-2 * rng.standard_normal(len(sol.rho))), None)),
        ]
    inst = insts["small-10"]
    sol = solve_admm(inst, SolverParams())
    cases.append(("small-10/admm", (inst, sol.x, sol.u, sol.rho, None)))
    inst = gen_multipath_instance(small, 5, 1, paths_per_class=2)
    alloc = solve_multipath(inst, SolverParams(alpha=2.0))
    assert np.max(alloc.mu) > 0  # some path is unused, so flow slackness is tested
    cases += [
        ("multipath-5", (inst, alloc.x, alloc.u, alloc.lam, alloc.mu)),
        ("multipath-5/shifted", (inst, alloc.x, [ui + 0.01 for ui in alloc.u], alloc.lam, alloc.mu)),
    ]
    base = gen_instance(small, 6, seed=2)
    classes = tuple(
        FlowClass(cls.source, cls.destination, cls.paths, (
            PwlUtility(PwlConcave((0.0, 2.0 + i, 5.0 + i), (4.0 - 0.5 * i, 1.0, 0.0))),
            PwlUtility(PwlConcave((0.0, 3.0), (2.5, 0.0))),
        ))
        for i, cls in enumerate(base.classes)
    )
    inst = Instance(base.network, classes, base.routing)
    sol = solve_pwl_aggregate(inst)
    cases += [
        ("pwl", (inst, sol.x, sol.u, sol.rho, None)),
        ("pwl/shifted-price", (inst, sol.x, sol.u, sol.rho * 1.01 - 1e-3, None)),
    ]
    empty = gen_instance(small, 0, seed=1)
    cases.append(("no-classes", (empty, np.zeros(0), [], np.zeros(len(empty.network.links)), None)))
    return cases


KKT_CASES = _kkt_cases()


@pytest.mark.parametrize("name, args", KKT_CASES, ids=[name for name, _ in KKT_CASES])
def test_kkt_check_matches_per_flow_reference(name, args):
    inst, x, u, lam, mu = args
    rep = kkt_check(inst, x, u, lam, tol=1e-7, mu=mu)
    ref = _reference_kkt_check(inst, x, u, lam, tol=1e-7, mu=mu)
    # path prices come from one product R^T lam rather than a dot per
    # column, so a residual at round-off level may move by a few ulps
    for field in ("primal_feasibility", "flow_nonnegativity", "dual_nonnegativity",
                  "complementary_slackness", "flow_slackness", "stationarity", "conservation"):
        assert getattr(rep, field) == pytest.approx(getattr(ref, field), rel=1e-13, abs=1e-15), field
    assert rep.passed == ref.passed


def test_kkt_check_rejects_non_legendre_flows():
    inst = _single_link_instance([[Quadratic(1.0)]])
    with pytest.raises(NotLegendre):
        kkt_check(inst, [1.0], [[1.0]], [0.0])


def test_proportional_fairness_inequality():
    """At the optimum, no feasible direction improves the weighted rate ratio."""
    from numflow.harness import oracle_solve
    from numflow.netmodel import gen_instance, small_topology

    inst = gen_instance(small_topology(), 4, seed=21)
    sol = oracle_solve(inst)
    wbar = np.asarray([sum(f.w for f in cls.flows) for cls in inst.classes])
    R = inst.routing.dense()
    c = inst.network.capacities
    rng = MixRng(77)
    for _ in range(100):
        raw = np.asarray([rng.uniform() for _ in range(len(inst.classes))])
        scale = float(np.min(c / np.maximum(R @ raw, 1e-12)))
        x_hat = raw * scale * rng.uniform()  # strictly feasible point
        assert float(np.sum(wbar * (x_hat - sol.x) / sol.x)) <= 1e-6


def test_family_json_round_trip():
    fams = [
        WeightedLog(0.3),
        NegPower(1.2, 2.0),
        Quadratic(4.0),
        PwlUtility(PwlConcave((0.0, 2.0), (3.0, 0.0))),
    ]
    for f in fams:
        assert family_from_json(family_to_json(f)) == f
