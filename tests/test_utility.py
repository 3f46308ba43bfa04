"""Tests for utility families, aggregation, apportionment, and KKT checks."""

import math
import warnings
from dataclasses import fields

import numpy as np
import pytest

from numflow.errors import (DimensionMismatch, DomainError, MixedExponent, MixedTags, NotLegendre,
                            NotSupportedUtility)
from numflow.netmodel import FlowClass, Instance, gen_instance, iridium_topology, small_topology
from numflow.pwl import MERGE_TOL, PwlConcave, fill_order, pwl_apportion, pwl_eval, pwl_fill
from numflow.rng import MixRng, mix
from numflow.utility import (
    AggregateQuadratic,
    FairClasses,
    KktReport,
    NegPower,
    PwlUtility,
    Quadratic,
    WeightedLog,
    aggregate_class,
    apportion,
    conjugate_derivative,
    evaluate,
    family_from_json,
    family_to_json,
    kkt_check,
    kkt_check_single_path,
)

from helpers import _random_pwl, _single_link_instance


class TestConstructors:
    @pytest.mark.parametrize("w", [math.nan, math.inf, 0.0, -1.0])
    def test_weight_must_be_finite_and_positive(self, w):
        with pytest.raises(ValueError, match="weight"):
            WeightedLog(w)
        with pytest.raises(ValueError, match="weight"):
            NegPower(w, 2.0)

    @pytest.mark.parametrize("a", [math.nan, math.inf, 0.5])
    def test_exponent_must_be_finite_and_at_least_one(self, a):
        with pytest.raises(ValueError, match="exponent"):
            NegPower(1.0, a)


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
        def derivative(f, x):
            return f.w / x if isinstance(f, WeightedLog) else f.a * f.w * x ** -(f.a + 1)

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

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    @pytest.mark.parametrize("members", [
        [WeightedLog(1.0), WeightedLog(3.0)],
        [NegPower(1.0, 2.0), NegPower(4.0, 2.0)],
        [Quadratic(1.0), Quadratic(5.0)],
    ], ids=["log", "power", "quadratic"])
    def test_non_finite_rate_is_a_domain_error(self, members, x):
        with pytest.raises(DomainError, match="finite"):
            apportion(aggregate_class(members), x)

    def test_conservation(self):
        rng = MixRng(13)
        for _ in range(20):
            k = rng.randint(2, 6)
            cu = aggregate_class([WeightedLog(rng.uniform()) for _ in range(k)])
            x = 0.1 + 10.0 * rng.uniform()
            parts = apportion(cu, x)
            assert sum(parts) == pytest.approx(x, rel=k * np.finfo(float).eps * 4)


def _fair_classes(family):
    spec = None if family == "log" else {"family": "power", "a": 2.0}
    inst = gen_instance(small_topology(), 10, seed=3, utility_spec=spec)
    return inst, FairClasses(cls.flows for cls in inst.classes)


class TestFairClasses:
    @pytest.mark.parametrize("family", ["log", "power"])
    @pytest.mark.parametrize("J", [1, 2])
    def test_split_sums_back_to_x(self, family, J):
        inst, classes = _fair_classes(family)
        rng = np.random.default_rng(21)
        for scale in (1e-3, 1.0, 50.0):
            x = scale * (0.1 + rng.uniform(size=(len(inst.classes), J)))
            if J == 1:
                x = x[:, 0]
            u, objective = classes.split(x)
            for ui, xi in zip(u, x):
                assert np.all(np.abs(ui.sum(axis=0) - xi) <= 1e-15 * (1.0 + np.abs(xi)))
            totals = [ui if J == 1 else ui.sum(axis=1) for ui in u]
            per_flow = sum(evaluate(f, float(r)) for cls, ri in zip(inst.classes, totals)
                           for f, r in zip(cls.flows, ri))
            assert abs(objective - per_flow) <= 1e-12 * abs(per_flow)

    @pytest.mark.parametrize("family", ["log", "power"])
    def test_apportion_is_the_split_of_one_class(self, family):
        inst, _ = _fair_classes(family)
        flows = inst.classes[0].flows
        u, _ = FairClasses([flows]).split([3.7])
        assert apportion(aggregate_class(flows), 3.7) == u[0].tolist()

    def test_constants(self):
        classes = FairClasses([[WeightedLog(1.0), WeightedLog(3.0)],
                               [NegPower(1.0, 1.0), NegPower(4.0, 1.0)]])
        assert classes.log.tolist() == [True, False]
        assert classes.p.tolist() == [1.0, 0.5]
        assert classes.k.tolist() == [4.0, 3.0]   # 1 + 3 and sqrt(1) + sqrt(4)

    @pytest.mark.parametrize("flows", [
        [PwlUtility(PwlConcave((0.0, 1.0), (1.0, 0.0)))],
        [Quadratic(1.0)],
        [NegPower(1.0, 1.0), NegPower(1.0, 2.0)],
        [WeightedLog(1.0), NegPower(1.0, 1.0)],
    ], ids=["pwl", "quadratic", "mixed-exponent", "mixed-family"])
    def test_rejects_other_classes(self, flows):
        classes = FairClasses([[WeightedLog(1.0)], flows])
        with pytest.raises(NotSupportedUtility):
            classes.require()


def _table_bytes(table):
    """Every array of a class table, as bytes, so that NaN entries compare too."""
    return [np.asarray(a).tobytes() for a in (table.k, table.a, table.p, table.sizes, table.starts, table._share,
                                              table.w, table.flow_a, table.offset, table.seg_class,
                                              table.seg_flow, table.seg_slope, table.seg_lo, table.seg_length,
                                              table.seg_start)]


def _class_table_instances():
    """A log, a power, a PWL, a mixed and an empty instance."""
    small = small_topology()
    base = gen_instance(small, 4, seed=2)
    mixed = (
        (WeightedLog(0.5), WeightedLog(1.5)),
        (PwlUtility(PwlConcave((0.0, 1.0), (2.0, 0.0))),),
        (NegPower(1.0, 2.0), NegPower(2.5, 3.0)),
        (WeightedLog(1.0), NegPower(0.8, 2.0), Quadratic(0.3)),
    )
    pwl = [(PwlUtility(PwlConcave((0.0, 2.0 + i), (1.0 + i, 0.0))),) for i in range(4)]
    return {
        "log": lambda: gen_instance(small, 10, seed=3),
        "power": lambda: gen_instance(small, 10, seed=3, utility_spec={"family": "power", "a": 2.0}),
        "pwl": lambda: Instance(base.network, tuple(FlowClass(c.source, c.destination, c.paths, f)
                                                    for c, f in zip(base.classes, pwl)), base.routing),
        "mixed": lambda: Instance(base.network, tuple(FlowClass(c.source, c.destination, c.paths, f)
                                                      for c, f in zip(base.classes, mixed)), base.routing),
        "empty": lambda: gen_instance(small, 0, seed=1),
    }


def _reference_table(flows_by_class):
    """The class table as a walk and loops build it: class sums and bounds
    by ``np.split`` views, q one exponent at a time, exponents by ``np.fmax.at``."""
    w, flow_a, sizes, pwl = [], [], [], []
    for i, flows in enumerate(flows_by_class):
        sizes.append(len(flows))
        for f in flows:
            if isinstance(f, (WeightedLog, NegPower)):
                w.append(f.w)
                flow_a.append(f.a if isinstance(f, NegPower) else 0.0)
            else:
                if isinstance(f, PwlUtility):
                    pwl.append((i, len(w), f.fn))
                w.append(math.nan)
                flow_a.append(math.nan)
    w, flow_a, sizes = np.asarray(w, dtype=float), np.asarray(flow_a, dtype=float), np.asarray(sizes, dtype=int)
    ends = np.cumsum(sizes)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    a = np.zeros(len(sizes))
    np.fmax.at(a, owner, flow_a)
    a[owner[flow_a != a[owner]]] = math.nan
    q = w.copy()
    for a_i in np.unique(flow_a[flow_a > 0.0]).tolist():
        at = flow_a == a_i
        q[at] = (a_i * w[at]) ** (1.0 / (a_i + 1.0))
    q[np.isnan(a[owner])] = math.nan
    k = np.asarray([q_i.sum() for q_i in np.split(q, ends)[:-1]])
    offset = np.full(len(w), math.nan)
    offset[[f for _, f, _ in pwl]] = [fn.offset for _, _, fn in pwl]
    seg = dict(zip(["seg_class", "seg_flow", "seg_slope", "seg_lo", "seg_length", "seg_start"],
                   fill_order(pwl)))
    exact = dict(a=a, p=1.0 / (a + 1.0), log=a == 0.0, sizes=sizes, starts=ends - sizes, w=w,
                 flow_a=flow_a, offset=offset, **seg)
    return exact, k, q / k[owner]


def _reference_table_cases():
    small = small_topology()
    rng = MixRng(43)
    families = [lambda: WeightedLog(0.1 + rng.uniform()), lambda: NegPower(0.1 + rng.uniform(), 1.0),
                lambda: NegPower(0.1 + rng.uniform(), 2.5), lambda: PwlUtility(_random_pwl(rng))]
    # classes of 1 to 300 flows of one family, and some of two
    drawn = [[families[j]() for _ in range(rng.randint(1, 300))]
             for j in (rng.randint(0, 3) for _ in range(30))]
    drawn += [[families[0](), families[1]()], [families[1](), families[2]()], [families[2](), families[3]()]]
    cases = {name: [cls.flows for cls in _class_table_instances()[name]().classes]
             for name in ("log", "power", "mixed", "pwl", "empty")}
    cases.update({f"power-a{a}": [cls.flows for cls in gen_instance(
        small, 30, seed=5, utility_spec={"family": "power", "a": a}).classes] for a in (1.0, 5.0)})
    cases["single-flow"] = [[WeightedLog(0.7)], [NegPower(1.3, 1.0)], [NegPower(0.4, 5.0)],
                            [PwlUtility(PwlConcave((0.0, 1.0), (2.0, 0.0)))], [Quadratic(1.0)]]
    cases["drawn"] = drawn
    return cases


class TestClassTable:
    @pytest.mark.parametrize("name", sorted(_reference_table_cases()))
    def test_matches_the_reference_build(self, name):
        flows_by_class = _reference_table_cases()[name]
        table = FairClasses(flows_by_class)
        exact, k, share = _reference_table(flows_by_class)
        for key, ref in exact.items():
            assert np.asarray(getattr(table, key)).tobytes() == ref.tobytes(), key
        assert np.array_equal(np.isnan(table.k), np.isnan(k))
        assert np.all(np.abs(table.k - k)[~np.isnan(k)] <= 5e-16 * np.abs(k[~np.isnan(k)]))
        assert np.array_equal(np.isnan(table._share), np.isnan(share))
        assert np.all(np.abs(table._share - share)[~np.isnan(share)] <= 1e-15)

    @pytest.mark.parametrize("name", sorted(_class_table_instances()))
    def test_is_a_fresh_table_of_the_flows(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inst = _class_table_instances()[name]()
            fresh = FairClasses(cls.flows for cls in inst.classes)
        assert _table_bytes(inst.class_table) == _table_bytes(fresh)

    def test_other_families_and_mixed_exponents_make_nan_classes(self):
        table = _class_table_instances()["mixed"]().class_table
        assert np.isnan(table.a).tolist() == [False, True, True, True]
        assert np.isnan(table.k).tolist() == [False, True, True, True]
        assert np.flatnonzero(np.isnan(table.flow_a)).tolist() == [2, 7]
        with pytest.raises(NotSupportedUtility):
            table.require()

    def test_its_fill_is_pwl_apportion_of_every_class(self):
        rng = MixRng(41)
        constant, f = PwlConcave((0.0,), (0.0,), 1.5), PwlConcave((0.0, 2.0), (3.0, 0.0))
        members = [[_random_pwl(rng) for _ in range(rng.randint(1, 4))] for _ in range(12)] + [
            [f, PwlConcave((0.0, 1.0, 3.0), (3.0, 1.0, 0.0))],   # equal slopes across members
            [PwlConcave((0.0, 2.0, 5.0), (3.0, 1.0, 0.0))] * 3,  # identical members
            [constant, f, constant],
            [constant, constant],                                # no segment in the class
            [PwlConcave((0.0, 1.0, 1.0 + MERGE_TOL / 2, 3.0), (4.0, 2.0, 1.5, 0.0)),
             PwlConcave((0.0, 2.0), (1.75, 0.0))],               # a segment shorter than MERGE_TOL
        ]
        table = FairClasses([[PwlUtility(m) for m in ms] for ms in members])
        total = np.asarray([sum(m.breakpoints[-1] for m in ms) for ms in members])
        draws = np.random.default_rng(7).uniform(0.0, 1.3, (20, len(members)))
        for x in [np.zeros(len(members)), total, np.full(len(members), math.inf), *(draws * total)]:
            fill = pwl_fill(x, table.seg_class, table.seg_start, table.seg_length)
            u = np.split(np.bincount(table.seg_flow, fill, len(table.w)), np.cumsum(table.sizes))
            for ms, x_i, u_i in zip(members, x, u):
                expected = np.asarray(pwl_apportion(ms, x_i))
                assert np.all(np.abs(u_i - expected) <= 1e-14 * (1.0 + x_i)), (x_i, u_i, expected)

    def test_the_table_takes_no_part_in_equality_or_repr(self):
        make = _class_table_instances()["log"]
        a, b = make(), make()
        assert a.class_table is not b.class_table
        assert a == b and hash(a) == hash(b)
        assert "class_table" not in repr(a)

    def test_no_solve_or_certificate_builds_a_table(self, monkeypatch):
        from numflow.harness import oracle_solve
        from numflow.multipath import gen_multipath_instance, kkt_check_multipath, solve_multipath
        from numflow.solvers import SolverParams, solve_admm, solve_cp, solve_gradproj

        inst = gen_instance(small_topology(), 10, seed=1)
        power = gen_instance(small_topology(), 10, seed=1, utility_spec={"family": "power", "a": 2.0})
        multi = gen_multipath_instance(small_topology(), 5, 1, paths_per_class=2)

        def refuse(self, flows_by_class):
            raise AssertionError("a class table was built")

        monkeypatch.setattr(FairClasses, "__init__", refuse)
        for solve in (solve_admm, solve_cp, solve_gradproj):
            sol = solve(inst, SolverParams())
            assert sol.converged
            assert math.isfinite(kkt_check(inst, sol.x, sol.u, sol.rho).max_residual)
        for case in (inst, power):
            sol = oracle_solve(case)
            assert kkt_check(case, sol.x, sol.u, sol.rho, tol=1e-7).passed
        alloc = solve_multipath(multi, SolverParams(alpha=2.0))
        assert kkt_check_multipath(multi, alloc, tol=1e-5).passed


class TestKktCheck:
    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0])
    def test_rejects_a_tol_that_is_not_finite_and_nonnegative(self, tol):
        inst = _single_link_instance([[WeightedLog(1.0)]])
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            kkt_check(inst, [10.0], [[10.0]], [0.1], tol=tol)

    def test_saturated_single_link(self):
        inst = _single_link_instance([[WeightedLog(0.4), WeightedLog(0.6)]])
        cu = aggregate_class(inst.classes[0].flows)
        u = [apportion(cu, 10.0)]
        rep = kkt_check_single_path(inst, [10.0], u, [0.1], tol=1e-9)
        assert rep.passed
        assert rep.max_residual <= 1e-12

    def test_no_field_is_a_negative_zero(self):
        # negating a zero rate or a zero dual gives -0.0; a field reads +0.0
        from numflow.harness import oracle_solve
        from numflow.solvers import solve_pwl_aggregate

        base = gen_instance(iridium_topology(), 75, 1, endpoint_rule="gateway-constrained")
        rng = MixRng(mix(1, 75))
        inst = Instance(base.network, tuple(
            FlowClass(c.source, c.destination, c.paths,
                      tuple(PwlUtility(_random_pwl(rng)) for _ in range(rng.randint(1, 3))))
            for c in base.classes), base.routing)
        sol = solve_pwl_aggregate(inst)
        assert np.any(np.concatenate(sol.u) == 0.0) and np.any(sol.rho == 0.0)
        assert np.all(np.concatenate(sol.u) >= 0.0) and np.all(sol.rho >= 0.0)
        reports = [kkt_check(inst, sol.x, sol.u, sol.rho, tol=1e-9)]
        inst = gen_instance(small_topology(), 10, 1)
        sol = oracle_solve(inst)
        reports.append(kkt_check(inst, sol.x, sol.u, np.zeros_like(sol.rho)))
        for rep in reports:
            for f in fields(rep):
                assert math.copysign(1.0, getattr(rep, f.name)) == 1.0, f.name

    def test_zero_dual_breaks_stationarity(self):
        inst = _single_link_instance([[WeightedLog(0.4), WeightedLog(0.6)]])
        cu = aggregate_class(inst.classes[0].flows)
        u = [apportion(cu, 10.0)]
        rep = kkt_check_single_path(inst, [10.0], u, [0.0], tol=1e-6)
        assert rep.complementary_slackness <= 1e-12
        assert rep.stationarity >= 0.5
        assert not rep.passed

    @pytest.mark.parametrize("bad", [
        {"x": [2.5, 7.5, 1.0]},
        {"mu": np.zeros(3)},
        {"u": [[2.5], [3.75, 3.75, 0.0]]},
        {"lam": [0.4, 0.4]},
        {"u": [[2.5]]},
    ], ids=["x", "mu", "class-rates", "lam", "one-u-too-few"])
    def test_dimension_mismatch(self, bad):
        inst = _single_link_instance(
            [[WeightedLog(1.0)], [WeightedLog(1.5), WeightedLog(1.5)]]
        )
        good = {"x": [2.5, 7.5], "u": [[2.5], [3.75, 3.75]], "lam": [0.4], "mu": None}
        with pytest.raises(DimensionMismatch):
            kkt_check(inst, **{**good, **bad})

    def test_two_class_water_filling(self):
        inst = _single_link_instance(
            [[WeightedLog(1.0)], [WeightedLog(1.5), WeightedLog(1.5)]]
        )
        u = [[2.5], [3.75, 3.75]]
        rep = kkt_check_single_path(inst, [2.5, 7.5], u, [0.4], tol=1e-9)
        assert rep.passed


def _pwl_stationarity(f: PwlConcave, rate: float, price: float) -> float:
    """Scaled Fenchel-Young gap of the flow subproblem max_r f(r) - price*r.

    The gap max_b (f(c_b) - price*c_b) - (f(rate) - price*rate) over the
    breakpoints c_b is zero exactly when ``rate`` solves the subproblem,
    and is divided by max(1, |f(rate)|). A negative price leaves the
    subproblem unbounded above and scores 1.0.
    """
    if price < 0:
        return 1.0
    best = max(pwl_eval(f, cb) - price * cb for cb in f.breakpoints)
    value = pwl_eval(f, rate)
    return (best - (value - price * rate)) / max(1.0, abs(value))


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
    slack = float(np.max(np.abs(lam * (load - c)) / (np.maximum(c, 1.0) * np.maximum(lam, 1.0)), initial=0.0))
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
        ("multipath-5", (inst, alloc.x, alloc.u, alloc.rho, alloc.mu)),
        ("multipath-5/shifted", (inst, alloc.x, [ui + 0.01 for ui in alloc.u], alloc.rho, alloc.mu)),
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
    cases.append(("mixed-families", _mixed_family_case(small, rng)))
    empty = gen_instance(small, 0, seed=1)
    cases.append(("no-classes", (empty, np.zeros(0), [], np.zeros(len(empty.network.links)), None)))
    return cases


def _mixed_family_case(net, rng):
    """A log class, a PWL class, a power a=2 class and a class mixing log and
    power flows, so PWL flows sit between smooth ones. Smooth flows are off
    their conjugate derivatives by about 1e-3 and a PWL flow's Fenchel-Young
    gap, 0.21, is the largest score: leaving a PWL flow out, or reading a
    smooth flow against another flow's weight, changes the report."""
    base = gen_instance(net, 4, seed=2)
    flows = (
        (WeightedLog(0.5), WeightedLog(1.5)),
        (PwlUtility(PwlConcave((0.0, 0.5, 2.0), (3.0, 0.5, 0.0))),
         PwlUtility(PwlConcave((0.0, 1.0), (2.0, 0.0)))),
        (NegPower(1.0, 2.0), NegPower(2.5, 2.0)),
        (WeightedLog(1.0), NegPower(0.8, 2.0), WeightedLog(0.3)),
    )
    classes = tuple(FlowClass(cls.source, cls.destination, cls.paths, fl)
                    for cls, fl in zip(base.classes, flows))
    inst = Instance(base.network, classes, base.routing)
    lam = 0.1 + rng.uniform(size=len(base.network.links))
    price = inst.routing.dense().T @ lam
    u = [np.array([0.8, 1.3]) if isinstance(fl[0], PwlUtility) else
         np.array([conjugate_derivative(f)(p) for f in fl]) * (1.0 + 1e-3 * rng.standard_normal(len(fl)))
         for fl, p in zip(flows, price)]
    return inst, np.array([ui.sum() for ui in u]), u, lam, None


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


class TestKktCheckNan:
    """A NaN anywhere makes the residual NaN, and NaN never passes."""

    def test_nan_rate_on_a_single_path_instance(self):
        from numflow.harness import oracle_solve

        inst = gen_instance(small_topology(), 10, 1)
        sol = oracle_solve(inst)
        u = [ui.copy() for ui in sol.u]
        u[0][0] = math.nan
        rep = kkt_check(inst, sol.x, u, sol.rho, tol=1e-7)
        for field in ("flow_nonnegativity", "flow_slackness", "stationarity", "conservation"):
            assert math.isnan(getattr(rep, field)), field
        assert math.isnan(rep.max_residual)
        assert not rep.passed

    def test_nan_rate_on_a_pwl_instance(self):
        inst = _single_link_instance([[PwlUtility(PwlConcave((0.0, 2.0), (3.0, 0.0))),
                                       PwlUtility(PwlConcave((0.0, 4.0), (1.0, 0.0)))]])
        rep = kkt_check(inst, [6.0], [[2.0, math.nan]], [0.5])
        assert math.isnan(rep.stationarity)
        assert math.isnan(rep.max_residual)
        assert not rep.passed

    def test_nan_path_dual_on_a_multipath_instance(self):
        from numflow.multipath import gen_multipath_instance, solve_multipath
        from numflow.solvers import SolverParams

        inst = gen_multipath_instance(small_topology(), 5, 1, paths_per_class=2)
        alloc = solve_multipath(inst, SolverParams(alpha=2.0))
        mu = alloc.mu.copy()
        mu[0, 0] = math.nan
        rep = kkt_check(inst, alloc.x, alloc.u, alloc.rho, tol=1e-5, mu=mu)
        assert math.isnan(rep.dual_nonnegativity)
        assert math.isnan(rep.max_residual)
        assert not rep.passed

    def test_max_residual_is_nan_whichever_field_is(self):
        for k in range(7):
            values = [1e-9] * 7
            values[k] = math.nan
            rep = KktReport(*values, tol=1e-6)
            assert math.isnan(rep.max_residual) and not rep.passed


@pytest.mark.parametrize("entry", ["rho", "x", "u", "mu"])
def test_an_infinite_entry_fails_the_kkt_check_without_a_warning(entry):
    # 0 * inf in R @ x, R.T @ rho or mu * u used to warn, which the
    # test settings turn into an error
    from numflow.harness import oracle_solve

    inst = gen_instance(small_topology(), 5, 1)
    sol = oracle_solve(inst)
    x, rho, u, mu = sol.x.copy(), sol.rho.copy(), [ui.copy() for ui in sol.u], np.zeros((5, 1))
    {"rho": rho, "x": x, "u": u[0], "mu": mu[0]}[entry][0] = math.inf
    assert not kkt_check(inst, x, u, rho, tol=1e-7, mu=mu).passed


@pytest.mark.parametrize("f", [PwlConcave((0.0, 1.0, 3.0), (4.0, 1.5, 0.0), offset=-0.5),
                               PwlConcave((0.0, 0.5, 2.0, 2.5), (9.0, 3.0, 0.25, 0.0), offset=12.0),
                               PwlConcave((0.0,), (0.0,), 2.0)],
                         ids=["small-offset", "large-offset", "constant"])
def test_pwl_stationarity_is_the_reference_fenchel_young_gap(f):
    # rates at 0, inside segments, at breakpoints, beyond the last one and infinite;
    # prices negative, zero, at slopes, between them and NaN
    rates = sorted({0.0, 0.3, 1.7, 7.5, math.inf, *f.breakpoints})
    prices = [-0.5, 0.0, 0.2, 1.5, 2.0, 4.0, 9.5, math.nan, *f.slopes]
    for rate in rates:
        for price in prices:
            inst = _single_link_instance([[PwlUtility(f)]])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rep = kkt_check(inst, [rate], [[rate]], [price], tol=1e-9)
            ref = _pwl_stationarity(f, rate, price)
            if math.isnan(ref) or math.isinf(ref):
                assert str(rep.stationarity) == str(ref), (rate, price, rep.stationarity, ref)
            else:
                bound = 1e-15 * max(1.0, abs(pwl_eval(f, rate)))
                assert abs(rep.stationarity - ref) <= bound, (rate, price, rep.stationarity, ref)
            if math.isinf(rate):
                assert not rep.passed


def test_kkt_check_scores_a_pwl_flow_at_a_negative_price_as_one():
    # max_r f(r) - price*r is unbounded above when the price is negative
    inst = _single_link_instance([[PwlUtility(PwlConcave((0.0, 2.0), (3.0, 0.0)))]])
    report = kkt_check(inst, np.array([2.0]), [np.array([2.0])], np.array([-1.0]))
    assert report.stationarity == 1.0


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
