"""Utility families, aggregation, and closed-form apportionment.

Four families are supported:

* ``WeightedLog(w)``: w*log(x) on x > 0 (proportionally fair).
* ``NegPower(w, a)``: -w*x^(-a) on x > 0, exponent a >= 1.
* ``Quadratic(z)``: -(x - z)^2 / 2 on x >= 0. It is not increasing, hence
  not a rate utility, and no solver uses it. It serves the identity that
  apportioning an aggregated quadratic class equals projecting the targets
  z onto one link {u >= 0 : sum u <= c} (acceptance criterion 7).
* ``PwlUtility(fn)``: concave piecewise-linear wrapper over
  :class:`numflow.pwl.PwlConcave`.

The log and negative-power families are strictly concave and differentiable
with derivative diverging at 0, so conjugation is involutory and the
conjugate derivative is the inverse of the derivative. Aggregating a class
collapses its members into a single function of the class aggregate rate;
``apportion`` inverts that collapse in closed form.

All evaluations follow the extended-real convention: -inf outside the
domain, never an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    MixedExponent,
    MixedTags,
    NotLegendre,
    NotSupportedUtility,
)
from .pwl import NEG_INF, PwlConcave, pwl_apportion, pwl_eval, pwl_from_json, pwl_supconv, pwl_to_json


@dataclass(frozen=True)
class WeightedLog:
    w: float

    def __post_init__(self):
        if self.w <= 0:
            raise ValueError("weight must be positive")


@dataclass(frozen=True)
class NegPower:
    w: float
    a: float

    def __post_init__(self):
        if self.w <= 0:
            raise ValueError("weight must be positive")
        if self.a < 1:
            raise ValueError("exponent must be >= 1")


@dataclass(frozen=True)
class Quadratic:
    z: float


@dataclass(frozen=True)
class PwlUtility:
    fn: PwlConcave


@dataclass(frozen=True)
class AggregateQuadratic:
    """-(x - z_bar)^2 / (2 K) on {x >= lower}; the collapsed quadratic class."""

    z_bar: float
    count: int
    lower: float


UtilityFamily = Union[WeightedLog, NegPower, Quadratic, PwlUtility, AggregateQuadratic]


def evaluate(f: UtilityFamily, x: float) -> float:
    if isinstance(f, WeightedLog):
        return f.w * math.log(x) if x > 0 else NEG_INF
    if isinstance(f, NegPower):
        return -f.w * x ** (-f.a) if x > 0 else NEG_INF
    if isinstance(f, Quadratic):
        return -0.5 * (x - f.z) ** 2 if x >= 0 else NEG_INF
    if isinstance(f, AggregateQuadratic):
        return -((x - f.z_bar) ** 2) / (2.0 * f.count) if x >= f.lower else NEG_INF
    if isinstance(f, PwlUtility):
        return pwl_eval(f.fn, x)
    raise TypeError(f"unknown family: {f!r}")


def derivative(f: UtilityFamily, x: float) -> float:
    if isinstance(f, WeightedLog):
        return f.w / x
    if isinstance(f, NegPower):
        return f.a * f.w * x ** (-(f.a + 1))
    if isinstance(f, Quadratic):
        return -(x - f.z)
    if isinstance(f, AggregateQuadratic):
        return -(x - f.z_bar) / f.count
    raise NotLegendre(f"no smooth derivative for {type(f).__name__}")


def conjugate_derivative(f: UtilityFamily) -> Callable[[float], float]:
    """Inverse of the derivative, g' = (f')^-1, defined for v > 0."""
    if isinstance(f, WeightedLog):
        return lambda v: f.w / v
    if isinstance(f, NegPower):
        return lambda v: (f.a * f.w / v) ** (1.0 / (f.a + 1.0))
    raise NotLegendre(f"{type(f).__name__} is not of Legendre type")


@dataclass(frozen=True)
class ClassUtility:
    """A flow class's members together with their collapsed aggregate."""

    members: tuple[UtilityFamily, ...]
    aggregate: UtilityFamily


def aggregate_class(members: Sequence[UtilityFamily]) -> ClassUtility:
    """Collapse homogeneous members into a single aggregate-rate utility."""
    members = tuple(members)
    if not members:
        raise ValueError("class must have at least one flow")
    tags = {type(m) for m in members}
    if len(tags) != 1:
        raise MixedTags(f"mixed utility families in one class: {sorted(t.__name__ for t in tags)}")
    first = members[0]
    if isinstance(first, WeightedLog):
        agg = WeightedLog(sum(m.w for m in members))
    elif isinstance(first, NegPower):
        a = first.a
        if any(m.a != a for m in members):
            raise MixedExponent("negative-power members must share the exponent")
        root_sum = sum(m.w ** (1.0 / (a + 1.0)) for m in members)
        agg = NegPower(root_sum ** (a + 1.0), a)
    elif isinstance(first, Quadratic):
        z_bar = sum(m.z for m in members)
        z_min = min(m.z for m in members)
        agg = AggregateQuadratic(z_bar, len(members), z_bar - len(members) * z_min)
    elif isinstance(first, PwlUtility):
        agg = PwlUtility(pwl_supconv([m.fn for m in members]))
    else:
        raise MixedTags(f"cannot aggregate {type(first).__name__}")
    return ClassUtility(members, agg)


class FairClasses:
    """Aggregate constants and flow shares of weighted-log and negative-power classes.

    Built once per solve, in one pass over ``flows_by_class`` (one sequence
    of flows per class). Class i has exponent a_i, 0 for a log class, and
    at path price v_i its flows' rates sum to x_i(v) = k_i v_i^-p_i with

        log:            k_i = sum_k w_k,             p_i = 1,
        negative power: k_i = sum_k (a_i w_k)^p_i,   p_i = 1 / (a_i + 1).

    Each flow's rate, the conjugate derivative at v_i, is the fixed share
    q_k / k_i of x_i, with q_k = w_k or (a_i w_k)^p_i (Mo & Walrand 2000),
    so ``split`` apportions any class rates without the prices. For a log
    class k_i is the class weight wbar_i. A class of any other family, or
    whose negative-power flows differ in exponent, raises
    NotSupportedUtility; no classes at all raise DomainError.
    """

    def __init__(self, flows_by_class):
        weights, a, k, q = [], [], [], []
        for flows in flows_by_class:
            if all(isinstance(f, WeightedLog) for f in flows):
                a_i = 0.0
            elif all(isinstance(f, NegPower) and f.a == flows[0].a for f in flows):
                a_i = flows[0].a
            else:
                raise NotSupportedUtility(
                    "each class must be weighted-log or negative-power with one exponent")
            w = np.asarray([f.w for f in flows], dtype=float)
            q_i = w if a_i == 0.0 else (a_i * w) ** (1.0 / (a_i + 1.0))
            weights.append(w)
            a.append(a_i)
            k.append(np.sum(q_i))
            q.append(q_i)
        if not weights:
            raise DomainError("the instance has no flow classes")
        sizes = [len(w) for w in weights]
        ends = np.cumsum(sizes).tolist()
        self.weights = tuple(weights)
        self.w = np.concatenate(weights)
        self.a = np.asarray(a)
        self.log = self.a == 0.0
        self.p = 1.0 / (self.a + 1.0)
        self.k = np.asarray(k)
        self.sizes = np.asarray(sizes)
        self._slices = [slice(e - n, e) for n, e in zip(sizes, ends)]
        self._share = np.concatenate(q) / np.repeat(self.k, sizes)
        flow_a = np.repeat(self.a, sizes)
        self._log_flows = flow_a == 0.0
        self._power_a = flow_a[~self._log_flows]

    def split(self, x):
        """Flow rates from class rates, and the flow objective at them.

        ``x`` is (N,), or (N, J) with one column per path. Returns (u, f):
        u[i] is class i's flows' shares of x_i, (K_i,) or (K_i, J), and f is
        the sum of every flow's utility at its total rate.
        """
        x = np.asarray(x, dtype=float)
        share = self._share if x.ndim == 1 else self._share[:, None]
        rates = share * np.repeat(x, self.sizes, axis=0)
        total = rates if x.ndim == 1 else rates.sum(axis=1)
        log = self._log_flows
        objective = (self.w[log] @ np.log(total[log])
                     - self.w[~log] @ total[~log] ** -self._power_a)
        return tuple(rates[s] for s in self._slices), float(objective)


def apportion(cu: ClassUtility, x_star: float) -> list[float]:
    """Split the class aggregate rate among member flows in closed form.

    Equals g'_k evaluated at the aggregate's derivative: a log or
    negative-power member takes its ``FairClasses`` share; the parts
    always sum to x_star (up to accumulation round-off).
    """
    members = cu.members
    first = members[0]
    if isinstance(first, (WeightedLog, NegPower)):
        if x_star <= 0:
            raise DomainError("aggregate rate must be positive")
        u, _ = FairClasses([members]).split([x_star])
        return u[0].tolist()
    if isinstance(first, Quadratic):
        agg = cu.aggregate
        if x_star < agg.lower:
            raise DomainError("aggregate rate below quadratic aggregate domain")
        shift = (x_star - agg.z_bar) / agg.count
        return [m.z + shift for m in members]
    if isinstance(first, PwlUtility):
        return pwl_apportion([m.fn for m in members], x_star)
    raise MixedTags(f"cannot apportion {type(first).__name__}")


def aggregate_kkt_residual(R, c, wbar, x, lam, mu=None) -> float:
    """Max scaled violation of the aggregate problem's optimality conditions.

    ``x`` holds the N*J per-path aggregates class by class, so J is
    ``len(x) // len(wbar)``; the single-path problem is J = 1. ``mu`` holds
    the path-nonnegativity duals; None means zero and skips their terms.
    A NaN in any term makes the residual NaN.
    """
    J = len(x) // len(wbar)
    excess = R @ x - c
    cap = np.maximum(c, 1.0)
    price = R.T @ lam
    if mu is not None:
        price = price - mu
    # J = 1 skips the class sums and the repeat, a fifth of a call at N = 30
    if J == 1:
        grad = wbar / np.maximum(x, 1e-300)
    else:
        grad = np.repeat(wbar / np.maximum(x.reshape(-1, J).sum(axis=1), 1e-300), J)
    # feasibility, slackness, dual sign and stationarity (then the path
    # duals' sign and slackness), reduced together: a maximum is exact
    parts = [excess / cap, np.abs(lam * excess) / cap, -lam,
             np.abs(grad - price) / np.maximum(grad, 1e-12)]
    if mu is not None:
        parts += [-mu, np.abs(mu * x)]
    return float(np.maximum.reduce(np.concatenate(parts), initial=0.0))


@dataclass(frozen=True)
class KktReport:
    """Maximum scaled violations of the flow-level optimality conditions."""

    primal_feasibility: float
    flow_nonnegativity: float
    dual_nonnegativity: float
    complementary_slackness: float
    flow_slackness: float
    stationarity: float
    conservation: float
    tol: float

    @property
    def max_residual(self) -> float:
        return max(
            self.primal_feasibility,
            self.flow_nonnegativity,
            self.dual_nonnegativity,
            self.complementary_slackness,
            self.flow_slackness,
            self.stationarity,
            self.conservation,
        )

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


def _per_path(a, shape: tuple[int, int], what: str) -> np.ndarray:
    """``a`` as a (rows, J) array; a vector is accepted when J = 1."""
    a = np.asarray(a, dtype=float)
    if a.shape != shape and not (shape[1] == 1 and a.shape == shape[:1]):
        raise DimensionMismatch(f"{what} shape {a.shape} inconsistent with {shape}")
    return a.reshape(shape)


def kkt_check(inst, x, u, lam, tol: float = 1e-6, mu=None) -> KktReport:
    """Verify the optimality conditions of a flow-level allocation.

    With J = ``inst.paths_per_class`` paths per class, ``x`` holds the
    per-class per-path aggregates, (N,) or (N, J); ``u[i]`` holds class i's
    flow-by-path rates, (K_i,) or (K_i, J); ``lam`` the link duals and
    ``mu`` the (N, J) path-nonnegativity duals, zero when left out. A
    single path is the case J = 1.

    Link loads come from ``x``. Stationarity compares each flow's total
    rate with the conjugate derivative at each of its path prices (link
    price minus the path's nonnegativity dual) and is scaled relative to
    the rate. Piecewise-linear flows have no conjugate derivative; their
    stationarity is the Fenchel-Young gap of the flow subproblem at the
    path price (see ``_pwl_stationarity``); flows of any other family
    raise NotLegendre. Conservation compares the column sums of ``u[i]``
    with ``x[i]``; feasibility and link slackness are scaled by capacity.
    """
    R = inst.routing.dense()
    c = inst.network.capacities
    n = len(inst.classes)
    J = inst.paths_per_class
    x = _per_path(x, (n, J), "x")
    mu = np.zeros((n, J)) if mu is None else _per_path(mu, (n, J), "mu")
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (R.shape[0],):
        raise DimensionMismatch("link dual length inconsistent with routing matrix")
    if len(u) != n:
        raise DimensionMismatch("one flow-rate array per class required")

    load = R @ x.reshape(-1)
    feas = float(np.max((load - c) / np.maximum(c, 1.0), initial=0.0))
    dual = max(float(np.max(-lam, initial=0.0)), float(np.max(-mu, initial=0.0)))
    slack = float(np.max(np.abs(lam * (load - c)) / np.maximum(c, 1.0), initial=0.0))

    per_class = [_per_path(u[i], (len(cls.flows), J), f"class {i} flow rates")
                 for i, cls in enumerate(inst.classes)]
    sums = np.array([[r[:, j].sum() for j in range(J)] for r in per_class]).reshape(n, J)
    sizes = [len(r) for r in per_class]
    rates = np.concatenate(per_class) if n else np.zeros((0, J))
    u_neg = float(np.max(-rates, initial=0.0))
    flow_slack = float(np.max(np.abs(np.repeat(mu, sizes, axis=0) * rates), initial=0.0))
    cons = float(np.max(np.abs(sums - x) / np.maximum(np.abs(x), 1.0), initial=0.0))
    flows = [fam for cls in inst.classes for fam in cls.flows]
    price = np.repeat((R.T @ lam).reshape(n, J) - mu, sizes, axis=0)
    stat = _stationarity(flows, rates.sum(axis=1), price)
    return KktReport(feas, u_neg, dual, slack, flow_slack, stat, cons, tol)


def _stationarity(flows, totals: np.ndarray, price: np.ndarray) -> float:
    """Max scaled stationarity violation over every flow and path price.

    ``totals`` holds each flow's total rate and ``price`` its (K, J) path
    prices. Log and negative-power flows are compared with their conjugate
    derivatives in array expressions; a non-positive path price cannot be
    stationary and scores 1.0.
    """
    stat = 0.0
    smooth = np.ones(len(flows), dtype=bool)
    for k, fam in enumerate(flows):
        if isinstance(fam, PwlUtility):
            smooth[k] = False
            for p in price[k]:
                # negative rates are scored by flow_nonnegativity
                stat = max(stat, _pwl_stationarity(fam.fn, max(totals[k], 0.0), p))
        elif not isinstance(fam, (WeightedLog, NegPower)):
            conjugate_derivative(fam)  # raises NotLegendre
    if not smooth.all():
        flows = [f for f, keep in zip(flows, smooth.tolist()) if keep]
        totals, price = totals[smooth], price[smooth]
    w = np.fromiter((f.w for f in flows), float, len(flows))[:, None]
    a = np.fromiter((f.a if isinstance(f, NegPower) else 0.0 for f in flows), float, len(flows))
    v = np.where(price > 0, price, 1.0)
    target = w / v
    power = a > 0
    if power.any():
        ap = a[power, None]
        target[power] = (ap * w[power] / v[power]) ** (1.0 / (ap + 1.0))
    gap = np.abs(totals[:, None] - target)
    gap /= np.maximum(target, 1e-12, out=target)  # targets are positive
    gap[~(price > 0)] = 1.0
    return float(np.max(gap, initial=stat))


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


# The single-path name of the public API; the oracle calls the check under it.
kkt_check_single_path = kkt_check


def family_to_json(f: UtilityFamily) -> dict:
    if isinstance(f, WeightedLog):
        return {"family": "log", "w": f.w}
    if isinstance(f, NegPower):
        return {"family": "power", "w": f.w, "a": f.a}
    if isinstance(f, Quadratic):
        return {"family": "quad", "z": f.z}
    if isinstance(f, PwlUtility):
        return {"family": "pwl", **pwl_to_json(f.fn)}
    raise TypeError(f"not serializable: {f!r}")


def family_from_json(doc: dict) -> UtilityFamily:
    fam = doc["family"]
    if fam == "log":
        return WeightedLog(float(doc["w"]))
    if fam == "power":
        return NegPower(float(doc["w"]), float(doc["a"]))
    if fam == "quad":
        return Quadratic(float(doc["z"]))
    if fam == "pwl":
        return PwlUtility(pwl_from_json(doc))
    raise ValueError(f"unknown family tag: {fam}")
