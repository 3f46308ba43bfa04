"""Network graphs, shortest-path routing, topologies, and instance generation.

Nodes are numbered 1..M and directed links 1..L (the link id is its position
in the network's link list). Shortest paths use unit link weights (minimum
hop count) with a deterministic tie-break: among equally short continuations
choose the smallest next node id, then the smallest link id.

The two built-in topologies reproduce the node/link/capacity counts of the
benchmark graphs (6 nodes / 14 links, and a 66-satellite constellation with
192 links); their exact edge patterns are documented constructions, see
``small_topology`` and ``iridium_topology``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidPath, IoError, NoPath, TooManyClasses, _is_int, _real
from .rng import MixRng
from .utility import FairClasses, NegPower, UtilityFamily, WeightedLog, family_from_json, family_to_json

SCHEMA_VERSION = 1


class Link(NamedTuple):
    tail: int
    head: int
    cap: float


@dataclass(frozen=True)
class Network:
    node_count: int
    links: tuple[Link, ...]
    gateways: tuple[int, ...] = ()
    allow_parallel: bool = False

    def __post_init__(self):
        if not _is_int(self.node_count) or self.node_count < 1:
            raise ValueError("node count must be an integer >= 1")
        if not isinstance(self.allow_parallel, bool):
            raise TypeError("allow_parallel must be a boolean")
        seen = set()
        for link in self.links:
            if not (_is_int(link.tail) and _is_int(link.head)):
                raise ValueError(f"link ends must be integers in {link}")
            if not 0 < link.cap < math.inf:
                raise ValueError(f"capacity must be positive and finite on link {link}")
            if link.tail == link.head:
                raise ValueError(f"self-loop link {link}")
            if not (1 <= link.tail <= self.node_count and 1 <= link.head <= self.node_count):
                raise ValueError(f"node id out of range in {link}")
            pair = (link.tail, link.head)
            if pair in seen and not self.allow_parallel:
                raise ValueError(f"parallel link {pair} (set allow_parallel to permit)")
            seen.add(pair)
        for g in self.gateways:
            if not (_is_int(g) and 1 <= g <= self.node_count):
                raise ValueError(f"gateway {g} must be an integer in 1..{self.node_count}")

    @cached_property
    def out_links(self) -> dict[int, list[tuple[int, int]]]:
        """node -> [(head, link id)], sorted by (head, link id)."""
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, self.node_count + 1)}
        for lid, link in enumerate(self.links, start=1):
            adj[link.tail].append((link.head, lid))
        for v in adj:
            adj[v].sort()
        return adj

    @cached_property
    def in_links(self) -> dict[int, list[tuple[int, int]]]:
        """node -> [(tail, link id)] of the links into it."""
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, self.node_count + 1)}
        for lid, link in enumerate(self.links, start=1):
            adj[link.head].append((link.tail, lid))
        return adj

    @cached_property
    def _hop_tables(self) -> dict[int, list[int]]:
        """dst -> ``_next_links(self, dst)``, filled by ``dijkstra_path`` as it meets each dst.

        It lives and dies with this network: no table is shared between two
        ``Network`` objects, even equal ones.
        """
        return {}

    @cached_property
    def capacities(self) -> np.ndarray:
        return np.asarray([link.cap for link in self.links], dtype=float)


@dataclass(frozen=True)
class FlowClass:
    source: int
    destination: int
    paths: tuple[tuple[int, ...], ...]
    flows: tuple[UtilityFamily, ...]

    def __post_init__(self):
        if not (_is_int(self.source) and _is_int(self.destination)):
            raise ValueError("source and destination must be integers")
        if self.source == self.destination:
            raise ValueError("source and destination must differ")
        if not self.paths:
            raise ValueError("class needs at least one path")
        if not all(_is_int(lid) for path in self.paths for lid in path):
            raise ValueError("path link ids must be integers")
        if not self.flows:
            raise ValueError("class needs at least one flow")


@dataclass(frozen=True)
class RoutingMatrix:
    """0-1 link-by-column incidence; column blocks of width J in multipath mode."""

    rows: int
    col_links: tuple[tuple[int, ...], ...]

    @property
    def cols(self) -> int:
        return len(self.col_links)

    @cached_property
    def _dense(self) -> np.ndarray:
        R = np.zeros((self.rows, self.cols))
        for j, links in enumerate(self.col_links):
            for lid in links:
                R[lid - 1, j] = 1.0
        return R

    def dense(self) -> np.ndarray:
        return self._dense


@dataclass(frozen=True)
class Instance:
    network: Network
    classes: tuple[FlowClass, ...]
    routing: RoutingMatrix
    mode: str = "single-path"  # "single-path" | "multipath"
    paths_per_class: int = 1
    seed: int = 0
    class_table: FairClasses = field(init=False, compare=False, repr=False)  # built by __post_init__

    def __post_init__(self):
        if not _is_int(self.paths_per_class) or self.paths_per_class < 1:
            raise ValueError("paths_per_class must be an integer >= 1")
        if not _is_int(self.seed):
            raise ValueError("seed must be an integer")
        if self.mode not in ("single-path", "multipath"):
            raise ValueError(f"mode must be 'single-path' or 'multipath', got {self.mode!r}")
        if self.mode == "single-path" and self.paths_per_class != 1:
            raise ValueError(f"a single-path instance has paths_per_class = 1, "
                             f"not {self.paths_per_class}")
        for cls in self.classes:
            if len(cls.paths) != self.paths_per_class:
                raise ValueError(f"class {cls.source}->{cls.destination} has {len(cls.paths)} paths, "
                                 f"not paths_per_class = {self.paths_per_class}")
            for path in cls.paths:
                validate_path(self.network, cls.source, cls.destination, path)
        paths = tuple(tuple(sorted(path)) for cls in self.classes for path in cls.paths)
        if self.routing.col_links != paths or self.routing.rows != len(self.network.links):
            raise ValueError("routing matrix is not the classes' paths over the network's links")
        object.__setattr__(self, "class_table", FairClasses(cls.flows for cls in self.classes))

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def dijkstra_path(net: Network, src: int, dst: int, excluded: frozenset[int] = frozenset()) -> tuple[int, ...]:
    """Minimum-hop directed path from src to dst as a link-id sequence.

    Ties are broken by smallest next node id, then smallest link id; links in
    ``excluded`` are ignored. Raises :class:`NoPath` for a missing node or path.

    The path is walked along dst's next-link table (``_next_links``). Without
    excluded links that table is built once per network and destination and
    kept on the network, so routing N classes costs one search per distinct
    destination; a call with excluded links builds its own.
    """
    if src == dst:
        raise ValueError("source equals destination")
    nodes = range(1, net.node_count + 1)
    if src not in nodes or dst not in nodes:
        raise NoPath(f"no path from {src} to {dst}: the nodes are 1..{net.node_count}")
    if excluded:
        next_link = _next_links(net, dst, excluded)
    else:
        next_link = net._hop_tables.get(dst)
        if next_link is None:
            next_link = net._hop_tables[dst] = _next_links(net, dst, excluded)
    if not next_link[src]:
        raise NoPath(f"no path from {src} to {dst}")
    path = []
    v = src
    while v != dst:
        lid = next_link[v]
        path.append(lid)
        v = net.links[lid - 1].head
    return tuple(path)


def _next_links(net: Network, dst: int, excluded: frozenset[int]) -> list[int]:
    """Entry v is the id of node v's first link on its tie-broken minimum-hop
    path to dst, avoiding the ``excluded`` links; 0 at dst, at every node
    that cannot reach it, and at the unused entry 0."""
    # hop distances to dst over reversed links
    dist = {dst: 0}
    frontier = [dst]
    while frontier:
        nxt = []
        for v in frontier:
            for u, lid in net.in_links[v]:
                if u not in dist and lid not in excluded:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    # each node's lexicographically smallest continuation
    next_link = [0] * (net.node_count + 1)
    for v, d in dist.items():
        if v != dst:
            for head, lid in net.out_links[v]:  # sorted by (head, link id)
                if dist.get(head) == d - 1 and lid not in excluded:
                    next_link[v] = lid
                    break
    return next_link


def validate_path(net: Network, src: int, dst: int, path: Sequence[int]) -> None:
    """Check that path is a contiguous directed walk src -> dst without repeated links."""
    if len(set(path)) != len(path):
        raise InvalidPath("repeated link in path")
    at = src
    for lid in path:
        if not 1 <= lid <= len(net.links):
            raise InvalidPath(f"unknown link id {lid}")
        link = net.links[lid - 1]
        if link.tail != at:
            raise InvalidPath(f"link {lid} does not continue the walk at node {at}")
        at = link.head
    if at != dst:
        raise InvalidPath(f"path ends at {at}, not {dst}")


def routing_matrix(net: Network, classes: Sequence[FlowClass]) -> RoutingMatrix:
    """Build the 0-1 routing matrix; multipath classes contribute J columns each."""
    cols = []
    for cls in classes:
        for path in cls.paths:
            validate_path(net, cls.source, cls.destination, path)
            cols.append(tuple(sorted(path)))
    return RoutingMatrix(rows=len(net.links), col_links=tuple(cols))


def small_topology() -> Network:
    """6-node benchmark graph: bidirectional ring 1-2-3-4-5-6-1 plus chord 1-4.

    14 directed links, every capacity 10, all 30 ordered node pairs routable.
    """
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 4)]
    links = []
    for a, b in edges:
        links.append(Link(a, b, 10.0))
        links.append(Link(b, a, 10.0))
    return Network(node_count=6, links=tuple(links))


def iridium_topology() -> Network:
    """66-satellite constellation: 6 planes x 11 satellites, 192 directed links.

    Node id of satellite s (0..10) in plane p (0..5) is 11*p + s + 1.
    Each plane is a bidirectional 11-ring (132 directed links). Adjacent
    planes p, p+1 (p = 0..4) are joined by bidirectional links at the six
    even satellite slots s in {0, 2, 4, 6, 8, 10} (60 directed links).
    Capacities are all 10. One gateway per plane at satellite slot 0.
    """
    def node(p: int, s: int) -> int:
        return 11 * p + s + 1

    links = []
    for p in range(6):
        for s in range(11):
            a, b = node(p, s), node(p, (s + 1) % 11)
            links.append(Link(a, b, 10.0))
            links.append(Link(b, a, 10.0))
    for p in range(5):
        for s in range(0, 11, 2):
            a, b = node(p, s), node(p + 1, s)
            links.append(Link(a, b, 10.0))
            links.append(Link(b, a, 10.0))
    gateways = tuple(node(p, 0) for p in range(6))
    return Network(node_count=66, links=tuple(links), gateways=gateways)


def admissible_pairs(net: Network, endpoint_rule: str) -> list[tuple[int, int]]:
    """Ordered (src, dst) pairs under the endpoint rule, lexicographically sorted."""
    nodes = range(1, net.node_count + 1)
    if endpoint_rule == "all-pairs":
        return [(s, d) for s in nodes for d in nodes if s != d]
    if endpoint_rule == "gateway-constrained":
        gset = set(net.gateways)
        if not gset:
            raise ValueError("network has no gateways")
        return [(s, d) for s in nodes for d in nodes if s != d and (s in gset or d in gset)]
    raise ValueError(f"unknown endpoint rule: {endpoint_rule}")


def gen_instance(
    net: Network,
    n_classes: int,
    seed: int,
    utility_spec: dict | None = None,
    endpoint_rule: str = "all-pairs",
) -> Instance:
    """Seeded random single-path instance.

    Draw order (all through :class:`numflow.rng.MixRng` seeded with ``seed``):
    first N distinct source-destination pairs by partial Fisher-Yates over
    the sorted admissible-pair list; then per class, in order, the flow count
    K uniform on {10,...,20} followed by K weights uniform on (0,1). Paths
    come from ``dijkstra_path``. ``utility_spec`` defaults to weighted logs;
    pass {"family": "power", "a": a} for negative-power flows.
    """
    spec = utility_spec or {"family": "log"}
    pairs = admissible_pairs(net, endpoint_rule)
    if n_classes > len(pairs):
        raise TooManyClasses(f"{n_classes} classes requested, {len(pairs)} pairs admissible")
    rng = MixRng(seed)
    chosen = [pairs[i] for i in rng.sample(len(pairs), n_classes)]
    classes = draw_classes(rng, [(s, d, (dijkstra_path(net, s, d),)) for s, d in chosen], spec)
    return Instance(net, classes, routing_matrix(net, classes), "single-path", 1, seed)


def draw_classes(rng: MixRng, endpoints: Sequence[tuple], spec: dict) -> tuple[FlowClass, ...]:
    """One class per (src, dst, paths) of ``endpoints``, each drawing K uniform
    on {10,...,20}, then K weights uniform on (0,1) made flows by ``spec``.

    Each class takes its draws in order, K as ``rng.randint(10, 20)`` and the
    weights as ``rng.uniform()`` would. All classes read them from one
    ``rng.block`` of 21 draws per class, the most a class can use, and the
    draws left over are given back, so ``rng`` ends where those scalar calls
    would leave it.
    """
    make = _flow_maker(spec)
    z = rng.block(21 * len(endpoints))
    counts = (10 + z % np.uint64(11)).tolist()
    weights = (((z >> np.uint64(11)).astype(float) + 0.5) * 2.0**-53).tolist()
    classes = []
    at = 0
    for src, dst, paths in endpoints:
        k = counts[at]
        classes.append(FlowClass(src, dst, paths, tuple(map(make, weights[at + 1:at + 1 + k]))))
        at += 1 + k
    rng.skip(at - len(z))
    return tuple(classes)


def _flow_maker(spec: dict) -> Callable[[float], UtilityFamily]:
    """The constructor of a generated flow of weight w under ``spec``."""
    fam = spec.get("family", "log")
    if fam == "log":
        return WeightedLog
    if fam == "power":
        a = float(spec.get("a", 1.0))
        return lambda w: NegPower(w, a)
    raise ValueError(f"unsupported generated family: {fam}")


def instance_to_json(inst: Instance) -> dict:
    """Versioned document with byte-stable field order."""
    return {
        "version": SCHEMA_VERSION,
        "mode": inst.mode,
        "paths_per_class": inst.paths_per_class,
        "nodes": inst.network.node_count,
        "links": [{"tail": l.tail, "head": l.head, "cap": l.cap} for l in inst.network.links],
        "gateways": list(inst.network.gateways),
        **({"allow_parallel": True} if inst.network.allow_parallel else {}),
        "classes": [
            {
                "src": cls.source,
                "dst": cls.destination,
                "paths": [list(p) for p in cls.paths],
                "flows": [family_to_json(f) for f in cls.flows],
            }
            for cls in inst.classes
        ],
        "seed": inst.seed,
    }


def instance_from_json(doc: dict) -> Instance:
    if doc.get("version") != SCHEMA_VERSION:
        raise IoError(f"unsupported instance version: {doc.get('version')}")
    net = Network(
        node_count=doc["nodes"],
        links=tuple(Link(l["tail"], l["head"], _real(l["cap"], "cap")) for l in doc["links"]),
        gateways=tuple(doc.get("gateways", [])),
        allow_parallel=doc.get("allow_parallel", False),
    )
    classes = tuple(
        FlowClass(
            c["src"],
            c["dst"],
            tuple(tuple(p) for p in c["paths"]),
            tuple(family_from_json(f) for f in c["flows"]),
        )
        for c in doc["classes"]
    )
    return Instance(
        net,
        classes,
        routing_matrix(net, classes),
        doc.get("mode", "single-path"),
        doc.get("paths_per_class", 1),
        doc.get("seed", 0),
    )


def read_json(path: str, parse):
    """``parse`` applied to the JSON object stored at ``path``.

    Every way the file can fail, from a missing file or malformed JSON to a
    value or key that ``parse`` rejects, raises :class:`IoError`.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise TypeError(f"{path}: expected a JSON object")
        return parse(doc)
    except json.JSONDecodeError as exc:
        raise IoError(f"{path}: {exc}") from exc
    except KeyError as exc:
        raise IoError(f"missing key {exc}") from exc
    except (OSError, ValueError, TypeError) as exc:
        raise IoError(str(exc)) from exc


def write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path``; a failure raises :class:`IoError`."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(str(exc)) from exc


def save_instance(inst: Instance, path: str) -> None:
    write_text(path, json.dumps(instance_to_json(inst), indent=2) + "\n")


def load_instance(path: str) -> Instance:
    return read_json(path, instance_from_json)
