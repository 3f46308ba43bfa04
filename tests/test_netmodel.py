"""Tests for graphs, routing, topologies, and seeded instance generation."""

import hashlib
import itertools
import json

import numpy as np
import pytest

from numflow.errors import InvalidPath, NoPath, TooManyClasses
from numflow.multipath import gen_multipath_instance
from numflow.netmodel import (
    FlowClass,
    Link,
    Network,
    admissible_pairs,
    dijkstra_path,
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
from numflow.utility import WeightedLog


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

    def test_allow_parallel_flag(self):
        net = Network(2, (Link(1, 2, 1.0), Link(1, 2, 2.0)), allow_parallel=True)
        assert len(net.links) == 2


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


def test_instance_json_round_trip(tmp_path):
    inst = gen_instance(small_topology(), 4, seed=11)
    doc = instance_to_json(inst)
    assert "allow_parallel" not in doc
    again = instance_from_json(doc)
    assert instance_to_json(again) == doc
    path = tmp_path / "inst.json"
    save_instance(inst, str(path))
    assert instance_to_json(load_instance(str(path))) == doc
