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
from dataclasses import dataclass, fields
from typing import Callable, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    MixedExponent,
    MixedTags,
    NotLegendre,
    NotSupportedUtility,
    _real,
)
from .pwl import NEG_INF, PwlConcave, pwl_apportion, pwl_eval, pwl_from_json, pwl_supconv, pwl_to_json
from .pwl import fill_order, pwl_fill


def _check_weight(w) -> None:
    if not math.isfinite(w):
        raise ValueError("weight must be finite")
    if w <= 0:
        raise ValueError("weight must be positive")


@dataclass(frozen=True)
class WeightedLog:
    w: float

    def __post_init__(self):
        _check_weight(self.w)


@dataclass(frozen=True)
class NegPower:
    w: float
    a: float

    def __post_init__(self):
        _check_weight(self.w)
        if not math.isfinite(self.a):
            raise ValueError("exponent must be finite")
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


def check_tol(tol: float, name: str = "tol") -> None:
    """Raise ValueError unless ``tol`` is finite and >= 0."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {tol}")


class FairClasses:
    """Aggregate constants and flow shares of weighted-log and negative-power classes.

    Built once per instance, as ``Instance.class_table``, from one sequence
    of flows per class. Class i has exponent a_i, 0 for a log class, and at
    path price v_i its flows' rates sum to x_i(v) = k_i v_i^-p_i with

        log:            k_i = sum_k w_k,             p_i = 1,
        negative power: k_i = sum_k (a_i w_k)^p_i,   p_i = 1 / (a_i + 1).

    Each flow's rate, the conjugate derivative at v_i, is the fixed share
    q_k / k_i of x_i, with q_k = w_k or (a_i w_k)^p_i (Mo & Walrand 2000),
    so ``split`` apportions any class rates without the prices. For a log
    class k_i is the class weight wbar_i. ``w``, ``flow_a`` and ``offset``
    hold each flow's weight, exponent (0 for log) and PWL offset f(0), NaN
    for a flow of another family. A class of another family or of mixed
    exponents gets NaN constants; ``require`` rejects them. The ``seg_*``
    arrays are ``pwl.fill_order`` of the PWL flows by class and position.

    Flows are stored class by class; ``starts`` holds each class's first
    flow, the layout that ``split``, ``kkt_check`` and the PWL solve cut flow
    arrays by. Every class holds a flow (``FlowClass`` rejects an empty one),
    so k is ``np.add.reduceat`` of the q_k at ``starts``, and a_i the flows'
    ``np.fmax.reduceat``, NaN unless every flow shares it.
    """

    def __init__(self, flows_by_class):
        w, flow_a, sizes, pwl = [], [], [], []
        for i, flows in enumerate(flows_by_class):
            sizes.append(len(flows))
            for f in flows:
                if isinstance(f, WeightedLog):
                    w.append(f.w)
                    flow_a.append(0.0)
                elif isinstance(f, NegPower):
                    w.append(f.w)
                    flow_a.append(f.a)
                else:
                    if isinstance(f, PwlUtility):
                        pwl.append((i, len(w), f.fn))
                    w.append(math.nan)
                    flow_a.append(math.nan)
        self.w = np.asarray(w, dtype=float)
        self.flow_a = flow_a = np.asarray(flow_a, dtype=float)
        self.sizes = np.asarray(sizes, dtype=int)
        self.starts = np.cumsum(self.sizes) - self.sizes
        owner = np.repeat(np.arange(len(sizes)), self.sizes)
        self.a = np.fmax.reduceat(flow_a, self.starts)
        self.a[owner[flow_a != self.a[owner]]] = math.nan  # a NaN flow never shares it
        self.log = self.a == 0.0
        self.p = 1.0 / (self.a + 1.0)
        q = np.power(flow_a * self.w, 1.0 / (flow_a + 1.0), out=self.w.copy(), where=flow_a > 0.0)
        q[np.isnan(self.a[owner])] = math.nan
        self.k = np.add.reduceat(q, self.starts)
        self._share = q / self.k[owner]
        self.offset = np.full(len(w), math.nan)
        self.offset[[k for _, k, _ in pwl]] = [fn.offset for _, _, fn in pwl]
        (self.seg_class, self.seg_flow, self.seg_slope, self.seg_lo, self.seg_length,
         self.seg_start) = fill_order(pwl)

    def require(self) -> "FairClasses":
        """The table; NotSupportedUtility if a class has NaN constants, DomainError if none."""
        if np.isnan(self.a).any():
            raise NotSupportedUtility("each class must be weighted-log or negative-power with one exponent")
        if not len(self.sizes):
            raise DomainError("the instance has no flow classes")
        return self

    def rates(self, v):
        """Class rates x(v) at the path prices ``v``, and their slopes dx_i/dv_i = -p_i x_i / v_i."""
        x = np.where(self.log, self.k / v, self.k * v ** -self.p)
        return x, -self.p * x / v

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
        log = self.flow_a == 0.0
        objective = (self.w[log] @ np.log(total[log])
                     - self.w[~log] @ total[~log] ** -self.flow_a[~log])
        return tuple(np.split(rates, self.starts)[1:]), float(objective)


def apportion(cu: ClassUtility, x_star: float) -> list[float]:
    """Split the class aggregate rate among member flows in closed form.

    Equals g'_k evaluated at the aggregate's derivative: a log or
    negative-power member takes its ``FairClasses`` share; the parts
    always sum to x_star (up to accumulation round-off). A NaN or infinite
    x_star raises DomainError, whatever the family.
    """
    if not math.isfinite(x_star):
        raise DomainError(f"aggregate rate must be finite, got {x_star}")
    members = cu.members
    first = members[0]
    if isinstance(first, (WeightedLog, NegPower)):
        if x_star <= 0:
            raise DomainError("aggregate rate must be positive")
        u, _ = FairClasses([members]).require().split([x_star])
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


def _link_terms(R, c, x, lam):
    """Each link's excess (R x - c) / max(c, 1) and slackness |lam (R x - c)| / (max(c, 1) max(lam, 1))."""
    excess = R @ x - c
    cap = np.maximum(c, 1.0)
    return excess / cap, np.abs(lam * excess) / (cap * np.maximum(lam, 1.0))


def _rate_gap(totals, w, price, a):
    """Each flow's total rate against w/v or (a w/v)^(1/(a+1)) (a = 0: log) at its (K, J)
    path prices v, relative to that target; 1.0 where v <= 0, which no rate meets."""
    v = np.where(price > 0, price, 1.0)
    target = w[:, None] / v
    power = a > 0
    if power.any():
        ap = a[power, None]
        target[power] = (ap * w[power, None] / v[power]) ** (1.0 / (ap + 1.0))
    gap = np.abs(totals[:, None] - target) / np.maximum(target, 1e-12)
    gap[~(price > 0)] = 1.0
    return gap


def aggregate_kkt_residual(R, c, wbar, x, lam, mu=None) -> float:
    """Max scaled violation of the aggregate problem's optimality conditions.

    ``x`` holds the N*J per-path aggregates class by class, so J is
    ``len(x) // len(wbar)``; the single-path problem is J = 1. ``mu`` holds
    the path-nonnegativity duals; None means zero and skips their terms.
    The terms are ``kkt_check``'s with each class one log flow of weight
    wbar_i, plus the duals' sign and |mu x|, so where mu x = 0 this is the
    certificate's ``max_residual`` at the share split of x. A NaN in any
    term makes the residual NaN.
    """
    excess, slack = _link_terms(R, c, x, lam)
    price = (R.T @ lam if mu is None else R.T @ lam - mu).reshape(len(wbar), -1)
    gap = _rate_gap(x.reshape(price.shape).sum(axis=1), wbar, price, np.zeros(len(wbar)))
    parts = [excess, slack, -lam, gap.ravel()]
    if mu is not None:
        parts += [-mu, np.abs(mu * x)]
    return float(np.maximum.reduce(np.concatenate(parts), initial=0.0))


def _max(*values: float) -> float:
    """Python's max, except that a NaN among ``values`` is the result; max
    itself keeps a NaN only when it comes first."""
    return math.nan if any(map(math.isnan, values)) else max(values)


def _worst(violations) -> float:
    """max(0, the largest violation), NaN if one is NaN; + 0.0 turns a negated zero's -0.0 into 0.0."""
    return float(np.max(violations, initial=0.0)) + 0.0


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
        """``_max`` of every field but ``tol``, in field order: the largest
        violation, or NaN when any of them is NaN, which fails the check."""
        return _max(*(getattr(self, f.name) for f in fields(self) if f.name != "tol"))

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


def _per_path(a, shape: tuple[int, int], what: str) -> np.ndarray:
    """``a`` as a (rows, J) array; a vector is accepted when J = 1."""
    a = np.asarray(a, dtype=float)
    if a.shape != shape and not (shape[1] == 1 and a.shape == shape[:1]):
        raise DimensionMismatch(f"{what} shape {a.shape} inconsistent with {shape}")
    return a.reshape(shape)


# where an infinite rate, aggregate or dual meets a zero of R or of mu, the
# product 0 * inf is NaN, which fails the check; numpy need not warn of it
@np.errstate(invalid="ignore")
def kkt_check(inst, x, u, lam, tol: float = 1e-6, mu=None) -> KktReport:
    """Verify the optimality conditions of a flow-level allocation.

    With J = ``inst.paths_per_class`` paths per class, ``x`` holds the
    per-class per-path aggregates, (N,) or (N, J); ``u[i]`` holds class i's
    flow-by-path rates, (K_i,) or (K_i, J); ``lam`` the link duals and
    ``mu`` the (N, J) path-nonnegativity duals, zero when left out. A
    single path is the case J = 1.

    Link loads come from ``x``; feasibility and link slackness are
    ``_link_terms``, slackness scaled by max(c, 1) max(lam, 1). Stationarity
    is ``_rate_gap``, each flow's total rate against its conjugate derivative
    at each path price (link price minus the path's nonnegativity dual). A
    piecewise-linear flow is scored by the Fenchel-Young gap of its
    subproblem at the path price; a flow of any other family raises
    NotLegendre. Conservation compares the column sums of ``u[i]`` with
    ``x[i]``, in one ``np.add.reduceat`` at the table's ``starts``. Each
    field is the largest violation and 0 (+0.0, never -0.0).
    ``aggregate_kkt_residual`` is these terms with each class one flow.

    Of ``inst.class_table`` it reads only the raw w, exponents, offsets,
    sizes, starts and segments, never k or the shares. A NaN or infinite
    rate, aggregate or dual fails the check without a warning (its residual
    is NaN or inf); a NaN, infinite or negative ``tol`` raises ValueError.
    """
    check_tol(tol)
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

    feas, slack = map(_worst, _link_terms(R, c, x.reshape(-1), lam))
    dual = _max(_worst(-lam), _worst(-mu))

    table = inst.class_table
    w, a, sizes = table.w, table.flow_a, table.sizes.tolist()
    per_class = [_per_path(u[i], (k, J), f"class {i} flow rates") for i, k in enumerate(sizes)]
    rates = np.concatenate(per_class) if n else np.zeros((0, J))
    # each class's column sums, reduced from its first flow's row on
    sums = np.add.reduceat(rates, table.starts, axis=0)
    u_neg = _worst(-rates)
    flow_slack = _worst(np.abs(np.repeat(mu, sizes, axis=0) * rates))
    cons = _worst(np.abs(sums - x) / np.maximum(np.abs(x), 1.0))

    totals = rates.sum(axis=1)
    price = np.repeat((R.T @ lam).reshape(n, J) - mu, sizes, axis=0)
    gap = _rate_gap(totals, w, price, a)  # NaN on the rows of other families
    pwl = ~np.isnan(table.offset)
    if (np.isnan(a) & ~pwl).any():
        raise NotLegendre("a flow neither alpha-fair nor piecewise-linear is not of Legendre type")
    if pwl.any():
        # the gap sum_s (m_s - v)+ l_s - sum_s m_s fill_s(r) + v r is 0 exactly where r maximizes f(r) - v r
        r = np.maximum(totals, 0.0)  # flow_nonnegativity scores a negative rate
        m, seg, length = table.seg_slope, table.seg_flow, table.seg_length
        value = np.bincount(seg, m * pwl_fill(r, seg, table.seg_lo, length), len(r))[:, None]
        best = np.zeros(price.shape)
        np.add.at(best, seg, np.maximum(m[:, None] - price[seg], 0.0) * length[:, None])
        fy = (best - value + price * r[:, None]) / np.maximum(1.0, np.abs(table.offset[:, None] + value))
        gap[pwl] = np.where(price < 0, 1.0, fy)[pwl]
    return KktReport(feas, u_neg, dual, slack, flow_slack, _worst(gap), cons, tol)


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
        return WeightedLog(_real(doc["w"], "w"))
    if fam == "power":
        return NegPower(_real(doc["w"], "w"), _real(doc["a"], "a"))
    if fam == "quad":
        return Quadratic(_real(doc["z"], "z"))
    if fam == "pwl":
        return PwlUtility(pwl_from_json(doc))
    raise ValueError(f"unknown family tag: {fam}")
