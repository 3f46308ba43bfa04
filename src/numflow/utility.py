"""Utility families, aggregation, and closed-form apportionment.

Four families are supported:

* ``WeightedLog(w)``: w*log(x) on x > 0 (proportionally fair).
* ``NegPower(w, a)``: -w*x^(-a) on x > 0, exponent a >= 1.
* ``Quadratic(z)``: -(x - z)^2 / 2 on x >= 0, used for projection
  subproblems only (it is not increasing, hence not a rate utility).
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


def apportion(cu: ClassUtility, x_star: float) -> list[float]:
    """Split the class aggregate rate among member flows in closed form.

    Equals g'_k evaluated at the aggregate's derivative, which for each
    family reduces to the shares below; the parts always sum to x_star
    (up to accumulation round-off).
    """
    members = cu.members
    first = members[0]
    if isinstance(first, WeightedLog):
        if x_star <= 0:
            raise DomainError("aggregate rate must be positive")
        w_bar = sum(m.w for m in members)
        return [m.w / w_bar * x_star for m in members]
    if isinstance(first, NegPower):
        if x_star <= 0:
            raise DomainError("aggregate rate must be positive")
        a = first.a
        roots = [m.w ** (1.0 / (a + 1.0)) for m in members]
        total = sum(roots)
        return [r / total * x_star for r in roots]
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
    the path-nonnegativity duals and defaults to zero.
    """
    J = len(x) // len(wbar)
    if mu is None:
        mu = np.zeros_like(x)
    load = R @ x
    feas = np.max((load - c) / np.maximum(c, 1.0), initial=0.0)
    slack = np.max(np.abs(lam * (load - c)) / np.maximum(c, 1.0), initial=0.0)
    dual = max(np.max(-lam, initial=0.0), np.max(-mu, initial=0.0))
    comp_mu = np.max(np.abs(mu * x), initial=0.0)
    price = R.T @ lam - mu
    x_bar = x.reshape(-1, J).sum(axis=1)
    grad = np.repeat(wbar / np.maximum(x_bar, 1e-300), J)
    stat = np.max(np.abs(grad - price) / np.maximum(grad, 1e-12))
    return float(max(feas, slack, dual, comp_mu, stat))


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
