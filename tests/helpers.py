"""Test instances shared by several test modules; pytest collects no tests here."""

from numflow.netmodel import FlowClass, Instance, Link, Network, routing_matrix
from numflow.pwl import PwlConcave
from numflow.rng import MixRng


def _single_link_instance(class_flows, cap=10.0):
    """Classes all routed over the one link of a 2-node network."""
    net = Network(node_count=2, links=(Link(1, 2, cap),))
    classes = tuple(FlowClass(1, 2, ((1,),), tuple(flows)) for flows in class_flows)
    return Instance(net, classes, routing_matrix(net, classes))


def _random_pwl(rng: MixRng, max_segments: int = 4) -> PwlConcave:
    nseg = rng.randint(1, max_segments)
    breaks = [0.0]
    for _ in range(nseg):
        breaks.append(breaks[-1] + 0.1 + 3.0 * rng.uniform())
    slopes = sorted((5.0 * rng.uniform() for _ in range(nseg)), reverse=True)
    return PwlConcave(tuple(breaks), tuple(slopes) + (0.0,))
