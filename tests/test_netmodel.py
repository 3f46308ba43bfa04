"""Tests for graphs, routing, topologies, and seeded instance generation."""

import gc
import hashlib
import itertools
import json
import math
import weakref

import numpy as np
import pytest

from numflow.errors import InsufficientPaths, InvalidPath, IoError, NoPath, TooManyClasses
from numflow.multipath import gen_multipath_instance, k_paths
from numflow.netmodel import (
    FlowClass,
    Instance,
    Link,
    Network,
    RoutingMatrix,
    admissible_pairs,
    dijkstra_path,
    draw_classes,
    gen_instance,
    instance_from_json,
    instance_to_json,
    iridium_topology,
    load_instance,
    routing_matrix,
    save_instance,
    small_topology,
    validate_path,
)
from numflow.rng import MixRng
from numflow.utility import NegPower, WeightedLog


def _line_graph():
    return Network(node_count=3, links=(Link(1, 2, 1.0), Link(2, 3, 1.0)))


def _all_paths(net, src, dst, max_len=8):
    """Brute-force enumeration of simple directed paths (small graphs only)."""
    out = []

    def extend(node, path, used_nodes):
        if len(path) > max_len:
            return
        if node == dst:
            out.append(tuple(path))
            return
        for lid, link in enumerate(net.links, start=1):
            if link.tail == node and link.head not in used_nodes:
                extend(link.head, path + [lid], used_nodes | {link.head})

    extend(src, [], {src})
    return out


class TestNetworkValidation:
    def test_rejects_bad_links(self):
        with pytest.raises(ValueError):
            Network(2, (Link(1, 1, 1.0),))  # self loop
        with pytest.raises(ValueError):
            Network(2, (Link(1, 2, 0.0),))  # nonpositive capacity
        with pytest.raises(ValueError):
            Network(2, (Link(1, 3, 1.0),))  # node out of range
        with pytest.raises(ValueError):
            Network(2, (Link(1, 2, 1.0), Link(1, 2, 1.0)))  # parallel

    @pytest.mark.parametrize("cap", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_capacity(self, cap):
        with pytest.raises(ValueError, match="positive and finite"):
            Network(2, (Link(1, 2, cap),))

    def test_allow_parallel_flag(self):
        net = Network(2, (Link(1, 2, 1.0), Link(1, 2, 2.0)), allow_parallel=True)
        assert len(net.links) == 2

    @pytest.mark.parametrize("kwargs", [
        {"node_count": 2.0},
        {"node_count": True},
        {"links": (Link(1.0, 2, 1.0),)},
        {"links": (Link(1, True, 1.0),)},
        {"gateways": (1.5,)},
    ], ids=["float-nodes", "bool-nodes", "float-tail", "bool-head", "float-gateway"])
    def test_rejects_non_integers(self, kwargs):
        with pytest.raises(ValueError, match="integer"):
            Network(**{"node_count": 2, "links": (Link(1, 2, 1.0),), **kwargs})

    def test_allow_parallel_must_be_a_bool(self):
        with pytest.raises(TypeError, match="allow_parallel"):
            Network(2, (Link(1, 2, 1.0),), allow_parallel="false")


class TestInstanceValidation:
    @pytest.mark.parametrize("src, dst, paths", [(1.0, 2, ((1,),)), (1, True, ((1,),)),
                                                 (1, 2, ((1.0,),))],
                             ids=["float-src", "bool-dst", "float-link-id"])
    def test_flow_class_rejects_non_integers(self, src, dst, paths):
        with pytest.raises(ValueError, match="integer"):
            FlowClass(src, dst, paths, (WeightedLog(1.0),))

    @pytest.mark.parametrize("kwargs", [{"paths_per_class": 0}, {"paths_per_class": 1.0},
                                        {"seed": 2.5}, {"seed": True}],
                             ids=["zero-paths", "float-paths", "float-seed", "bool-seed"])
    def test_rejects_non_integer_fields(self, kwargs):
        net = _line_graph()
        classes = (FlowClass(1, 2, ((1,),), (WeightedLog(1.0),)),)
        with pytest.raises(ValueError, match="integer"):
            Instance(net, classes, routing_matrix(net, classes), **kwargs)

    def test_every_class_has_paths_per_class_paths(self, tmp_path):
        # 3 + 1 paths fill the 2 * 2 routing columns, so the width check alone passed
        net = small_topology()
        classes = (FlowClass(1, 4, k_paths(net, 1, 4, 3), (WeightedLog(1.0),)),
                   FlowClass(2, 3, (dijkstra_path(net, 2, 3),), (WeightedLog(1.0),)))
        routing = routing_matrix(net, classes)
        assert routing.cols == 4
        with pytest.raises(ValueError, match="paths_per_class"):
            Instance(net, classes, routing, "multipath", 2)
        doc = instance_to_json(gen_instance(net, 2, seed=1))
        doc.update(mode="multipath", paths_per_class=2, classes=[
            {"src": c.source, "dst": c.destination, "paths": [list(p) for p in c.paths],
             "flows": [{"family": "log", "w": 1.0}]} for c in classes])
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(IoError, match="paths_per_class"):
            load_instance(str(path))


    def test_routing_must_be_the_classes_paths(self):
        # the same width and height, but another instance's routes
        net = small_topology()
        a, b = gen_instance(net, 5, 1), gen_instance(net, 5, 2)
        assert a.routing.col_links != b.routing.col_links
        with pytest.raises(ValueError, match="routing matrix"):
            Instance(net, a.classes, b.routing)
        with pytest.raises(ValueError, match="routing matrix"):
            Instance(net, a.classes, RoutingMatrix(a.routing.rows + 1, a.routing.col_links))

    @pytest.mark.parametrize("path, match", [((99,), "unknown link id 99"),
                                             ((3, 5), "does not continue the walk at node 1")],
                             ids=["unknown-link", "not-a-walk"])
    def test_paths_must_be_walks(self, path, match):
        # a routing matrix built from the paths themselves holds them, so
        # only the walk check stands between them and the solvers
        net = small_topology()
        classes = (FlowClass(1, 2, (path,), (WeightedLog(1.0),)),)
        with pytest.raises(InvalidPath, match=match):
            Instance(net, classes, RoutingMatrix(len(net.links), (tuple(sorted(path)),)))

    def test_mode_must_be_known(self, tmp_path):
        net = _line_graph()
        classes = (FlowClass(1, 2, ((1,),), (WeightedLog(1.0),)),)
        with pytest.raises(ValueError, match="mode must be"):
            Instance(net, classes, routing_matrix(net, classes), "bogus")
        doc = instance_to_json(gen_instance(small_topology(), 3, seed=1))
        doc["mode"] = "bogus"
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(IoError, match="mode must be 'single-path' or 'multipath', got 'bogus'"):
            load_instance(str(path))

    def test_single_path_has_one_path_per_class(self):
        net = small_topology()
        classes = (FlowClass(1, 4, k_paths(net, 1, 4, 2), (WeightedLog(1.0),)),)
        routing = routing_matrix(net, classes)
        with pytest.raises(ValueError, match="single-path instance has paths_per_class = 1, not 2"):
            Instance(net, classes, routing, "single-path", 2)
        assert Instance(net, classes, routing, "multipath", 2).paths_per_class == 2

    def test_multipath_with_one_path_per_class_is_legal(self):
        net = _line_graph()
        classes = (FlowClass(1, 2, ((1,),), (WeightedLog(1.0),)),)
        inst = Instance(net, classes, routing_matrix(net, classes), "multipath", 1)
        assert instance_from_json(instance_to_json(inst)) == inst


class TestDijkstra:
    def test_line_graph_full(self):
        assert dijkstra_path(_line_graph(), 1, 3) == (1, 2)

    def test_line_graph_single_hop(self):
        assert dijkstra_path(_line_graph(), 1, 2) == (1,)

    def test_tie_break_smaller_next_node(self):
        # two equal-hop paths 1->2->4 and 1->3->4
        net = Network(
            4,
            (Link(1, 2, 1.0), Link(1, 3, 1.0), Link(2, 4, 1.0), Link(3, 4, 1.0)),
        )
        assert dijkstra_path(net, 1, 4) == (1, 3)  # through node 2

    def test_no_path(self):
        with pytest.raises(NoPath):
            dijkstra_path(_line_graph(), 3, 1)

    def test_minimality_against_enumeration(self):
        rng = MixRng(41)
        for _ in range(15):
            m = rng.randint(4, 8)
            links = []
            seen = set()
            for _ in range(rng.randint(m, 2 * m)):
                a = rng.randint(1, m)
                b = rng.randint(1, m)
                if a != b and (a, b) not in seen:
                    seen.add((a, b))
                    links.append(Link(a, b, 1.0))
            if not links:
                continue
            net = Network(m, tuple(links))
            for src, dst in itertools.permutations(range(1, m + 1), 2):
                enumerated = _all_paths(net, src, dst)
                if not enumerated:
                    with pytest.raises(NoPath):
                        dijkstra_path(net, src, dst)
                    continue
                path = dijkstra_path(net, src, dst)
                validate_path(net, src, dst, path)
                assert len(path) == min(len(p) for p in enumerated)


def _reference_path(net, src, dst, excluded=frozenset()):
    """Minimum-hop path by a fresh search per call: a BFS to dst over the
    reversed links, then a forward walk taking the smallest next node, then
    the smallest link id."""
    rev = {v: [] for v in range(1, net.node_count + 1)}
    for lid, link in enumerate(net.links, start=1):
        if lid not in excluded:
            rev[link.head].append(link.tail)
    dist = {dst: 0}
    frontier = [dst]
    while frontier:
        nxt = []
        for v in frontier:
            for u in rev[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    if src not in dist:
        return None
    path, v = [], src
    while v != dst:
        head, lid = min((link.head, lid) for lid, link in enumerate(net.links, start=1)
                        if link.tail == v and lid not in excluded
                        and dist.get(link.head, -1) == dist[v] - 1)
        path.append(lid)
        v = head
    return tuple(path)


def _reference_k_paths(net, src, dst, count):
    paths, excluded = [], set()
    for _ in range(count):
        path = _reference_path(net, src, dst, frozenset(excluded))
        if path is None:
            return None
        paths.append(path)
        excluded.update(path)
    return tuple(paths)


class TestHopTables:
    """dijkstra_path keeps one next-hop table per destination on the network."""

    @pytest.mark.parametrize("make", [small_topology, iridium_topology])
    def test_every_pair_matches_a_fresh_search(self, make):
        net = make()
        for src, dst in itertools.permutations(range(1, net.node_count + 1), 2):
            assert dijkstra_path(net, src, dst) == _reference_path(net, src, dst)
        assert sorted(net._hop_tables) == list(range(1, net.node_count + 1))

    @pytest.mark.parametrize("make", [small_topology, iridium_topology])
    def test_excluded_links_and_k_paths_unchanged_after_tables_are_cached(self, make):
        net = make()
        for src, dst in admissible_pairs(net, "all-pairs"):
            dijkstra_path(net, src, dst)  # fills every table first
        rng = MixRng(17)
        for src, dst in admissible_pairs(net, "all-pairs")[::7]:
            excluded = frozenset(rng.randint(1, len(net.links)) for _ in range(rng.randint(1, 12)))
            expected = _reference_path(net, src, dst, excluded)
            if expected is None:
                with pytest.raises(NoPath):
                    dijkstra_path(net, src, dst, excluded)
            else:
                assert dijkstra_path(net, src, dst, excluded) == expected
            for count in (2, 3):
                expected = _reference_k_paths(net, src, dst, count)
                if expected is None:
                    with pytest.raises(InsufficientPaths):
                        k_paths(net, src, dst, count)
                else:
                    assert k_paths(net, src, dst, count) == expected
        # excluded-link searches build their own tables and leave the cached ones as they were
        for src, dst in admissible_pairs(net, "all-pairs"):
            assert dijkstra_path(net, src, dst) == _reference_path(net, src, dst)

    def test_unreachable_pair_raises_no_path_every_time(self):
        net = _line_graph()
        assert dijkstra_path(net, 2, 3) == (2,)
        for _ in range(2):
            with pytest.raises(NoPath):
                dijkstra_path(net, 3, 1)
            with pytest.raises(NoPath):
                dijkstra_path(net, 1, 3, excluded=frozenset({2}))
        assert dijkstra_path(net, 1, 3) == (1, 2)
        for src in (0, -1, 4, 2.5):  # no such node
            with pytest.raises(NoPath):
                dijkstra_path(net, src, 3)
        for dst in (0, 4, 99):  # no such node, with and without excluded links
            with pytest.raises(NoPath):
                dijkstra_path(net, 1, dst)
            with pytest.raises(NoPath):
                dijkstra_path(net, 1, dst, excluded=frozenset({2}))
            with pytest.raises(InsufficientPaths):
                k_paths(net, 1, dst, 2)
        assert sorted(net._hop_tables) == [1, 3]  # no table for a node that does not exist

    def test_two_networks_share_no_table(self):
        # equal dataclass fields but one more link: each network routes by its own links
        a = Network(3, (Link(1, 2, 1.0), Link(2, 3, 1.0)))
        b = Network(3, (Link(1, 2, 1.0), Link(2, 3, 1.0), Link(1, 3, 1.0)))
        assert dijkstra_path(a, 1, 3) == (1, 2)
        assert dijkstra_path(b, 1, 3) == (3,)
        twin = Network(3, (Link(1, 2, 1.0), Link(2, 3, 1.0)))
        assert twin == a and twin._hop_tables == {} and twin._hop_tables is not a._hop_tables

    def test_tables_die_with_their_network(self):
        net = iridium_topology()
        gen_instance(net, 30, 1, endpoint_rule="gateway-constrained")
        assert net._hop_tables
        ref = weakref.ref(net)
        del net
        gc.collect()
        assert ref() is None


class TestRoutingMatrix:
    def test_single_class_column(self):
        net = Network(
            4,
            tuple(Link(i, i + 1, 1.0) for i in range(1, 4)) + (Link(4, 1, 1.0), Link(1, 3, 1.0), Link(3, 1, 1.0)),
        )
        cls = FlowClass(2, 1, ((2, 6),), (WeightedLog(1.0),))
        R = routing_matrix(net, [cls]).dense()
        assert R.shape == (6, 1)
        assert list(np.flatnonzero(R[:, 0]) + 1) == [2, 6]

    def test_disjoint_classes_block_pattern(self):
        net = Network(4, (Link(1, 2, 1.0), Link(3, 4, 1.0)))
        classes = [
            FlowClass(1, 2, ((1,),), (WeightedLog(1.0),)),
            FlowClass(3, 4, ((2,),), (WeightedLog(1.0),)),
        ]
        R = routing_matrix(net, classes).dense()
        assert np.array_equal(R, np.eye(2))

    def test_multipath_identity_block(self):
        net = Network(2, (Link(1, 2, 1.0), Link(1, 2, 1.0)), allow_parallel=True)
        cls = FlowClass(1, 2, ((1,), (2,)), (WeightedLog(1.0),))
        R = routing_matrix(net, [cls]).dense()
        assert np.array_equal(R, np.eye(2))

    def test_invalid_path_rejected(self):
        net = _line_graph()
        with pytest.raises(InvalidPath):
            routing_matrix(net, [FlowClass(1, 3, ((2, 1),), (WeightedLog(1.0),))])
        with pytest.raises(InvalidPath):
            routing_matrix(net, [FlowClass(1, 3, ((1,),), (WeightedLog(1.0),))])
        with pytest.raises(InvalidPath):
            routing_matrix(net, [FlowClass(1, 3, ((1, 9),), (WeightedLog(1.0),))])


class TestSmallTopology:
    def test_counts_and_capacities(self):
        net = small_topology()
        assert net.node_count == 6
        assert len(net.links) == 14
        assert all(l.cap == 10.0 for l in net.links)

    def test_all_pairs_routable(self):
        net = small_topology()
        pairs = admissible_pairs(net, "all-pairs")
        assert len(pairs) == 30
        for src, dst in pairs:
            validate_path(net, src, dst, dijkstra_path(net, src, dst))


class TestIridiumTopology:
    def test_counts(self):
        net = iridium_topology()
        assert net.node_count == 66
        assert len(net.links) == 192
        assert len(net.gateways) == 6
        assert all(l.cap == 10.0 for l in net.links)

    def test_degree_balance(self):
        net = iridium_topology()
        indeg = np.zeros(67, dtype=int)
        outdeg = np.zeros(67, dtype=int)
        for l in net.links:
            outdeg[l.tail] += 1
            indeg[l.head] += 1
        assert np.array_equal(indeg, outdeg)

    def test_gateway_pair_count(self):
        net = iridium_topology()
        assert len(admissible_pairs(net, "gateway-constrained")) == 750

    def test_gateway_pairs_routable(self):
        net = iridium_topology()
        rng = MixRng(55)
        pairs = admissible_pairs(net, "gateway-constrained")
        for idx in rng.sample(len(pairs), 40):
            src, dst = pairs[idx]
            validate_path(net, src, dst, dijkstra_path(net, src, dst))


class TestGenInstance:
    def test_determinism(self):
        net = small_topology()
        a = gen_instance(net, 5, seed=99)
        b = gen_instance(net, 5, seed=99)
        assert instance_to_json(a) == instance_to_json(b)

    def test_flow_count_range(self):
        inst = gen_instance(small_topology(), 10, seed=3)
        for cls in inst.classes:
            assert 10 <= len(cls.flows) <= 20
            assert all(isinstance(f, WeightedLog) and 0.0 < f.w < 1.0 for f in cls.flows)

    def test_distinct_pairs(self):
        inst = gen_instance(small_topology(), 30, seed=3)
        pairs = {(c.source, c.destination) for c in inst.classes}
        assert len(pairs) == 30

    def test_too_many_classes(self):
        with pytest.raises(TooManyClasses):
            gen_instance(small_topology(), 31, seed=1)

    def test_negpower_spec(self):
        inst = gen_instance(small_topology(), 3, seed=7, utility_spec={"family": "power", "a": 2.0})
        for cls in inst.classes:
            assert all(f.a == 2.0 for f in cls.flows)


# Documents the generators wrote before their per-class draw became one
# helper: the (src, dst, flow count) of every class and the SHA-256 of
# json.dumps(instance_to_json(inst)).
RECORDED_INSTANCES = {
    "small-log": (
        lambda: gen_instance(small_topology(), 6, 5),
        [(2, 5, 18), (4, 1, 15), (6, 1, 14), (2, 1, 19), (2, 6, 16), (4, 2, 10)],
        "abaf43b7ea3316a010051c47a190ae35909dab020f46d6bb2232bff9d528e7d5",
    ),
    "small-power": (
        lambda: gen_instance(small_topology(), 6, 5, {"family": "power", "a": 2.0}),
        [(2, 5, 18), (4, 1, 15), (6, 1, 14), (2, 1, 19), (2, 6, 16), (4, 2, 10)],
        "8169bdfe162610181ebc13860f0663ec930ee52d50d0d35035290b528e8c00f1",
    ),
    "iridium-log": (
        lambda: gen_instance(iridium_topology(), 8, 7, endpoint_rule="gateway-constrained"),
        [(20, 56, 12), (14, 45, 15), (63, 23, 17), (23, 21, 20), (23, 34, 16), (29, 56, 16),
         (56, 52, 17), (1, 27, 19)],
        "780dd9e5b3e5307d5b60acd9d5147af3aed0ee65294a72eb455b2b53d988d8af",
    ),
    "iridium-power": (
        lambda: gen_instance(iridium_topology(), 8, 7, {"family": "power", "a": 1.5},
                             endpoint_rule="gateway-constrained"),
        [(20, 56, 12), (14, 45, 15), (63, 23, 17), (23, 21, 20), (23, 34, 16), (29, 56, 16),
         (56, 52, 17), (1, 27, 19)],
        "71c4202a999366d1bd818cd82e31aa5405933036ed07950b71be4cb3f5f0e56a",
    ),
    "small-multipath": (
        lambda: gen_multipath_instance(small_topology(), 5, 1, 2),
        [(2, 1, 11), (5, 3, 16), (5, 6, 17), (5, 4, 10), (2, 6, 16)],
        "a1b781c893dcfd53abe51af5a120669a1c68cbc6704121a597aa06df6ac20dc9",
    ),
    "iridium-multipath": (
        lambda: gen_multipath_instance(iridium_topology(), 4, 3, 2),
        [(34, 50, 15), (37, 40, 12), (33, 37, 15), (58, 51, 17)],
        "120a6c12293bc7aee84b1c93cd7ca105e48ccfe1d4785d4aa7ad1d1c30c85df5",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDED_INSTANCES))
def test_generators_match_recorded_documents(name):
    # both generators draw each class's flows by netmodel.draw_classes
    make, classes, digest = RECORDED_INSTANCES[name]
    inst = make()
    assert [(c.source, c.destination, len(c.flows)) for c in inst.classes] == classes
    assert hashlib.sha256(json.dumps(instance_to_json(inst)).encode()).hexdigest() == digest


# sha256 of json.dumps(instance_to_json(...)) of larger instances, recorded
# before routing read cached hop tables and weights came from block draws
RECORDED_DIGESTS = {
    "iridium-750-gateway": (
        lambda: gen_instance(iridium_topology(), 750, 1, endpoint_rule="gateway-constrained"),
        "71a7771a9b248d4550573e4926c19899fdbf9335a2b278bfab9f2029a9e6fd5e",
    ),
    "small-30-power-a2": (
        lambda: gen_instance(small_topology(), 30, 7, {"family": "power", "a": 2}),
        "f810cd47da8a9774bdd362ad0132784cf0bbfe511fbc3ccf26a01d66b7b45b54",
    ),
    "small-multipath-10": (
        lambda: gen_multipath_instance(small_topology(), 10, 1, 2),
        "6ebec82cdee4d4f06ad7acb281342c76542a0359defba948229e366d7805fd5f",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDED_DIGESTS))
def test_generators_match_recorded_digests(name):
    make, digest = RECORDED_DIGESTS[name]
    assert hashlib.sha256(json.dumps(instance_to_json(make())).encode()).hexdigest() == digest


def _scalar_draw_classes(rng, endpoints, make):
    """draw_classes by one randint and K uniform calls per class."""
    classes = []
    for src, dst, paths in endpoints:
        k = rng.randint(10, 20)
        classes.append(FlowClass(src, dst, paths, tuple(make(rng.uniform()) for _ in range(k))))
    return tuple(classes)


@pytest.mark.parametrize("spec, make", [
    ({"family": "log"}, WeightedLog),
    ({"family": "power", "a": 1.5}, lambda w: NegPower(w, 1.5)),
], ids=["log", "power"])
@pytest.mark.parametrize("n", [0, 1, 40])
def test_draw_classes_equals_scalar_draws_and_leaves_the_same_state(spec, make, n):
    net = small_topology()
    pairs = admissible_pairs(net, "all-pairs")[:n]
    endpoints = [(s, d, (dijkstra_path(net, s, d),)) for s, d in pairs]
    for seed in (0, 5, 2**64 - 1):
        block, scalar = MixRng(seed), MixRng(seed)
        drawn = draw_classes(block, endpoints, spec)
        assert drawn == _scalar_draw_classes(scalar, endpoints, make)
        assert all(type(f.w) is float for cls in drawn for f in cls.flows)
        assert block.next_u64() == scalar.next_u64()


def test_instance_json_round_trip(tmp_path):
    inst = gen_instance(small_topology(), 4, seed=11)
    doc = instance_to_json(inst)
    assert "allow_parallel" not in doc
    again = instance_from_json(doc)
    assert instance_to_json(again) == doc
    path = tmp_path / "inst.json"
    save_instance(inst, str(path))
    assert instance_to_json(load_instance(str(path))) == doc
