"""Tests for multipath aggregation and subflow allocation."""

import json

import numpy as np
import pytest

from numflow.errors import InconsistentTargets, InsufficientPaths
from numflow.multipath import (
    allocate_subflows,
    gen_multipath_instance,
    k_paths,
    kkt_check_multipath,
    solve_multipath,
    solve_multipath_aggregate,
)
from numflow.netmodel import (
    FlowClass,
    Instance,
    Link,
    Network,
    dijkstra_path,
    gen_instance,
    instance_from_json,
    instance_to_json,
    routing_matrix,
    small_topology,
)
from numflow.solvers import Solution, SolverParams, solve_gradproj
from numflow.utility import WeightedLog, evaluate

MP_PARAMS = SolverParams(alpha=2.0, tol=1e-6, max_iter=5000)


def _diamond():
    # 1 -> {2,3} -> 4, two link-disjoint 2-hop paths
    return Network(
        4,
        (Link(1, 2, 10.0), Link(1, 3, 10.0), Link(2, 4, 10.0), Link(3, 4, 10.0)),
    )


def _parallel_pair(caps=(10.0, 10.0)):
    net = Network(2, (Link(1, 2, caps[0]), Link(1, 2, caps[1])), allow_parallel=True)
    cls = FlowClass(1, 2, ((1,), (2,)), (WeightedLog(1.0),))
    return Instance(net, (cls,), routing_matrix(net, (cls,)), "multipath", 2, 0)


def test_parallel_links_json_round_trip():
    doc = instance_to_json(_parallel_pair())
    again = instance_from_json(doc)
    assert again.network.allow_parallel
    assert instance_to_json(again) == doc


@pytest.mark.parametrize("n_classes, paths_per_class", [(0, 1), (0, 2), (-1, 2)])
def test_gen_class_count_bounds(n_classes, paths_per_class):
    # as gen_instance: no classes for a count of 0, ValueError below it
    args = (small_topology(), n_classes, 1, paths_per_class)
    if n_classes < 0:
        with pytest.raises(ValueError):
            gen_multipath_instance(*args)
    else:
        assert gen_multipath_instance(*args).classes == ()


class TestKPaths:
    def test_diamond_both_paths(self):
        paths = k_paths(_diamond(), 1, 4, 2)
        assert set(paths) == {(1, 3), (2, 4)}

    def test_single_path_reduces_to_dijkstra(self):
        net = _diamond()
        assert k_paths(net, 1, 4, 1) == (dijkstra_path(net, 1, 4),)

    def test_line_graph_insufficient(self):
        net = Network(3, (Link(1, 2, 1.0), Link(2, 3, 1.0)))
        with pytest.raises(InsufficientPaths):
            k_paths(net, 1, 3, 2)


class TestSolveAggregate:
    def test_two_disjoint_links_saturate(self):
        inst = _parallel_pair()
        x, lam, mu, _, converged = solve_multipath_aggregate(inst, MP_PARAMS)
        assert converged
        assert x.sum() == pytest.approx(20.0, abs=1e-4)
        assert x[0] == pytest.approx([10.0, 10.0], abs=1e-4)
        assert lam == pytest.approx([0.05, 0.05], abs=1e-4)
        assert np.max(np.abs(mu)) <= 1e-6

    def test_shared_bottleneck_total(self):
        # two parallel paths through one shared link
        net = Network(3, (Link(1, 2, 10.0), Link(2, 3, 10.0), Link(2, 3, 10.0)), allow_parallel=True)
        cls = FlowClass(1, 3, ((1, 2), (1, 3)), (WeightedLog(1.0),))
        inst = Instance(net, (cls,), routing_matrix(net, (cls,)), "multipath", 2, 0)
        x, _, _, _, converged = solve_multipath_aggregate(inst, MP_PARAMS)
        assert converged
        assert x.sum() == pytest.approx(10.0, abs=1e-4)

    def test_j1_reduces_to_single_path_gradproj(self):
        inst = gen_instance(small_topology(), 4, seed=6)
        x, _, _, n_iter, converged = solve_multipath_aggregate(inst, MP_PARAMS)
        assert converged
        sol = solve_gradproj(inst, MP_PARAMS)
        assert np.array_equal(x.reshape(-1), sol.x)
        assert n_iter == sol.n_iter


class TestAllocateSubflows:
    def test_rank_one_marginals(self):
        u = allocate_subflows(np.asarray([3.0, 1.0]), np.asarray([2.0, 2.0]))
        assert u == pytest.approx(np.asarray([[1.5, 0.5], [1.5, 0.5]]))
        assert u.sum(axis=1) == pytest.approx([2.0, 2.0])
        assert u.sum(axis=0) == pytest.approx([3.0, 1.0])

    def test_single_path_recovers_targets(self):
        u = allocate_subflows(np.asarray([4.0]), np.asarray([1.0, 3.0]))
        assert u == pytest.approx(np.asarray([[1.0], [3.0]]))

    def test_zero_total(self):
        u = allocate_subflows(np.asarray([0.0, 0.0]), np.asarray([0.0]))
        assert np.array_equal(u, np.zeros((1, 2)))

    def test_inconsistent_targets(self):
        with pytest.raises(InconsistentTargets):
            allocate_subflows(np.asarray([3.0, 1.0]), np.asarray([5.0]))

    def test_system_satisfied_on_random_marginals(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            j, k = rng.integers(1, 5), rng.integers(1, 5)
            x = rng.random(j) + 0.01
            g = rng.random(k) + 0.01
            g *= x.sum() / g.sum()
            u = allocate_subflows(x, g)
            assert np.all(u >= 0)
            assert np.max(np.abs(u.sum(axis=1) - g)) <= 1e-9 * x.sum()
            assert np.max(np.abs(u.sum(axis=0) - x)) <= 1e-9 * x.sum()


class TestKktCheckMultipath:
    def test_analytic_disjoint_links(self):
        inst = _parallel_pair()
        alloc = Solution(
            x=np.asarray([[10.0, 10.0]]),
            u=(np.asarray([[10.0, 10.0]]),),
            lam=None,
            rho=np.asarray([0.05, 0.05]),
            mu=np.zeros((1, 2)),
            objective=float(np.log(20.0)),
            l_max=10.0,
            n_iter=0,
            wall_time=0.0,
            converged=True,
        )
        rep = kkt_check_multipath(inst, alloc, tol=1e-8)
        assert rep.passed

    def test_perturbed_allocation_detected(self):
        inst = _parallel_pair()
        alloc = Solution(
            x=np.asarray([[10.0, 10.0]]),
            u=(np.asarray([[10.1, 10.0]]),),
            lam=None,
            rho=np.asarray([0.05, 0.05]),
            mu=np.zeros((1, 2)),
            objective=0.0,
            l_max=10.1,
            n_iter=0,
            wall_time=0.0,
            converged=True,
        )
        rep = kkt_check_multipath(inst, alloc, tol=1e-5)
        assert not rep.passed
        assert rep.max_residual >= 1e-3

    def test_all_zeros_not_stationary(self):
        inst = _parallel_pair()
        alloc = Solution(
            x=np.zeros((1, 2)),
            u=(np.zeros((1, 2)),),
            lam=None,
            rho=np.zeros(2),
            mu=np.zeros((1, 2)),
            objective=0.0,
            l_max=0.0,
            n_iter=0,
            wall_time=0.0,
            converged=True,
        )
        rep = kkt_check_multipath(inst, alloc, tol=1e-5)
        assert rep.stationarity > 0.5

    def test_aggregates_inconsistent_with_flows_detected(self):
        inst = gen_multipath_instance(small_topology(), 2, 1, paths_per_class=2)
        alloc = solve_multipath(inst, MP_PARAMS)
        assert kkt_check_multipath(inst, alloc, tol=1e-5).passed
        alloc.x = 3.0 * alloc.x
        rep = kkt_check_multipath(inst, alloc, tol=1e-5)
        assert not rep.passed
        assert rep.conservation >= 0.5


class TestEndToEnd:
    def test_generated_instances_pass_kkt(self):
        for seed in (1, 2, 3):
            inst = gen_multipath_instance(small_topology(), 2, seed, paths_per_class=2)
            alloc = solve_multipath(inst, MP_PARAMS)
            assert alloc.converged
            x_bar = alloc.x.sum(axis=1)
            for i in range(len(inst.classes)):
                assert np.max(np.abs(alloc.u[i].sum(axis=0) - alloc.x[i])) <= 1e-9 * x_bar[i]
                assert np.all(alloc.u[i] >= 0)
            assert kkt_check_multipath(inst, alloc, tol=1e-5).passed

    def test_json_round_trip_keeps_path_shapes(self):
        inst = gen_multipath_instance(small_topology(), 2, 1, paths_per_class=2)
        alloc = solve_multipath(inst, MP_PARAMS)
        doc = json.loads(json.dumps(alloc.to_json()))
        assert np.asarray(doc["x"]).shape == (2, 2)
        assert [np.asarray(ui).shape for ui in doc["u"]] == [
            (len(cls.flows), 2) for cls in inst.classes
        ]
        assert np.asarray(doc["mu"]).shape == (2, 2)
        assert doc["lambda"] is None
        for key, want in (("x", alloc.x), ("rho", alloc.rho), ("mu", alloc.mu)):
            assert np.array_equal(doc[key], want)
        assert all(np.array_equal(got, want) for got, want in zip(doc["u"], alloc.u))

    def test_objective_invariant_under_resplit(self):
        inst = gen_multipath_instance(small_topology(), 2, 4, paths_per_class=2)
        alloc = solve_multipath(inst, MP_PARAMS)

        def class_objective(i, totals):
            return sum(evaluate(f, t) for f, t in zip(inst.classes[i].flows, totals))

        base = sum(class_objective(i, alloc.u[i].sum(axis=1)) for i in range(2))
        # shift a small amount of class-0 traffic between its two paths
        shift = 0.01 * alloc.x[0, 0]
        x_new = alloc.x.copy()
        x_new[0] += (-shift, shift)
        w = np.asarray([f.w for f in inst.classes[0].flows])
        g = x_new[0].sum() / w.sum() * w
        u0 = allocate_subflows(x_new[0], g)
        resplit = class_objective(0, u0.sum(axis=1)) + class_objective(1, alloc.u[1].sum(axis=1))
        assert resplit == pytest.approx(base, rel=1e-9)
