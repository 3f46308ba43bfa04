"""Multipath aggregation: per-path aggregate solving and subflow allocation.

Each flow class carries J paths. The aggregate problem optimizes the N*J
per-path rates with the projected-gradient loop that ``solve_gradproj``
runs as its J = 1 case; the result type is likewise
:class:`numflow.solvers.Solution` and the optimality check
:func:`numflow.utility.kkt_check`, both shared with single-path solutions.
The per-flow allocation is the share split every alpha-fair solver uses,
u[k, j] = (w_k / wbar_i) x_ij: its column sums are the path rates and its
row sums the flows' shares of the class total.
"""

from __future__ import annotations

import time

import numpy as np

from .errors import InconsistentTargets, InsufficientPaths, NoPath, TooManyClasses
from .netmodel import Instance, Network, admissible_pairs, dijkstra_path, draw_classes, routing_matrix
from .rng import MixRng
from .solvers import Solution, SolverParams, _apportioned, _gradproj_loop, _log_classes
from .solvers import project_polytope_with_duals  # noqa: F401  (patched by the benchmark tracer)
from .utility import KktReport, kkt_check


def k_paths(net: Network, src: int, dst: int, count: int) -> tuple[tuple[int, ...], ...]:
    """count loop-free paths by repeated shortest-path with link exclusion.

    The first path equals the plain shortest path; each later path excludes
    every link already used.
    """
    paths = []
    excluded: set[int] = set()
    for _ in range(count):
        try:
            path = dijkstra_path(net, src, dst, excluded=frozenset(excluded))
        except NoPath as exc:
            raise InsufficientPaths(
                f"only {len(paths)} link-disjoint paths from {src} to {dst}"
            ) from exc
        paths.append(path)
        excluded.update(path)
    return tuple(paths)


def gen_multipath_instance(
    net: Network,
    n_classes: int,
    seed: int,
    paths_per_class: int,
) -> Instance:
    """Seeded multipath instance with weighted-log flows over all node pairs.

    Draws with :class:`numflow.rng.MixRng` seeded with ``seed``: first a
    permutation of every ordered node pair, taken in order and skipping
    pairs without ``paths_per_class`` link-disjoint paths (``k_paths``)
    until ``n_classes`` are chosen; then the flows of each class by
    ``netmodel.draw_classes``, as single-path generation draws them.
    """
    if n_classes < 0:
        raise ValueError(f"class count must be >= 0, got {n_classes}")
    pairs = admissible_pairs(net, "all-pairs")
    rng = MixRng(seed)
    order = rng.sample(len(pairs), len(pairs))
    chosen = []
    for idx in order:
        if len(chosen) == n_classes:
            break
        src, dst = pairs[idx]
        try:
            paths = k_paths(net, src, dst, paths_per_class)
        except InsufficientPaths:
            continue
        chosen.append((src, dst, paths))
    if len(chosen) < n_classes:
        raise TooManyClasses(f"only {len(chosen)} pairs admit {paths_per_class} disjoint paths")
    classes = draw_classes(rng, chosen, {"family": "log"})
    return Instance(net, classes, routing_matrix(net, classes), "multipath", paths_per_class, seed)


def solve_multipath_aggregate(inst: Instance, params: SolverParams):
    """Projected gradient on the N*J per-path aggregates.

    Returns (x as (N, J), lam, mu as (N, J), n_iter, converged), with lam
    the link duals; duals come from the final projection's active set
    scaled by the accepted step size, with mu reported as 0 wherever the
    path rate is clearly positive.
    """
    wbar = _log_classes(inst, single_path=False).k
    n, J = len(wbar), inst.paths_per_class
    x, lam, mu, it, converged = _gradproj_loop(
        inst.routing.dense(), inst.network.capacities, wbar, J, params)
    return x.reshape(n, J), lam, mu.reshape(n, J), it, converged


def allocate_subflows(x_star: np.ndarray, g_bar: np.ndarray) -> np.ndarray:
    """Proportional solution of the two-marginal system for one class.

    Returns u with shape (len(g_bar), len(x_star)): flows as rows, paths as
    columns; row sums equal g_bar and column sums equal x_star. Raises
    InconsistentTargets when the two totals differ by more than 1e-9
    relative.
    """
    x_star = np.asarray(x_star, dtype=float)
    g_bar = np.asarray(g_bar, dtype=float)
    if np.any(x_star < 0) or np.any(g_bar < 0):
        raise ValueError("marginals must be nonnegative")
    x_bar = float(x_star.sum())
    if x_bar == 0.0:
        return np.zeros((g_bar.shape[0], x_star.shape[0]))
    if abs(x_bar - float(g_bar.sum())) > 1e-9 * x_bar:
        raise InconsistentTargets(f"path total {x_bar} vs flow total {float(g_bar.sum())}")
    return np.outer(g_bar, x_star) / x_bar


def solve_multipath(inst: Instance, params: SolverParams) -> Solution:
    """Aggregate solve plus the per-class share split of every path rate.

    The Solution's ``x`` is (N, J), each ``u[i]`` is (K_i, J), ``rho``
    holds the link duals and ``mu`` the (N, J) path-nonnegativity duals.
    """
    t0 = time.perf_counter()
    classes = _log_classes(inst, single_path=False)
    x, rho, mu, n_iter, converged = solve_multipath_aggregate(inst, params)
    return _apportioned(inst.routing.dense(), classes, x, rho, n_iter, converged, t0, mu=mu)


def kkt_check_multipath(inst: Instance, alloc: Solution, tol: float = 1e-5) -> KktReport:
    """Verify the multipath optimality conditions at the allocation.

    Link duals play the role of flow-level link duals and each path's
    nonnegativity dual is shared by all flows on that path; see
    :func:`numflow.utility.kkt_check`.
    """
    return kkt_check(inst, alloc.x, alloc.u, alloc.rho, tol=tol, mu=alloc.mu)
