"""Algebra of closed proper concave piecewise-linear functions.

A :class:`PwlConcave` is determined by ascending breakpoints
``c_1 = 0 < c_2 < ... < c_B``, strictly descending nonnegative slopes
``m_1 > m_2 > ... > m_B = 0`` (slope ``m_b`` applies on ``[c_b, c_{b+1})``,
the last slope beyond ``c_B``), and an affine offset ``f(0)``. The function
is minus infinity for negative arguments and constant beyond the last
breakpoint.

Conjugation exchanges breakpoints and slopes. Supremal convolution and
greedy apportionment are one fill of all members' segments in decreasing
slope: the convolution lays the segments end to end in that order, and
apportionment hands each member the segments the fill reaches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _real

#: values closer than this are merged to avoid zero-length segments
MERGE_TOL = 1e-12

NEG_INF = float("-inf")


@dataclass(frozen=True)
class PwlConcave:
    breakpoints: tuple[float, ...]
    slopes: tuple[float, ...]
    offset: float = 0.0

    def __post_init__(self):
        c, m = self.breakpoints, self.slopes
        if len(c) != len(m) or len(c) < 1:
            raise ValueError("breakpoints and slopes must be equal-length, nonempty")
        if c[0] != 0.0:
            raise ValueError("first breakpoint must be 0")
        if m[-1] != 0.0:
            raise ValueError("last slope must be 0")
        if not all(math.isfinite(v) for v in (*c, *m, self.offset)):
            raise ValueError("breakpoints, slopes and offset must be finite")
        if any(v < 0 for v in c) or any(v < 0 for v in m):
            raise ValueError("breakpoints and slopes must be nonnegative")
        if any(c[i + 1] <= c[i] for i in range(len(c) - 1)):
            raise ValueError("breakpoints must be strictly increasing")
        if any(m[i + 1] >= m[i] for i in range(len(m) - 1)):
            raise ValueError("slopes must be strictly decreasing")

    def __call__(self, x: float) -> float:
        return pwl_eval(self, x)


def pwl_eval(f: PwlConcave, x: float) -> float:
    """Evaluate f at x; -inf for x < 0, constant beyond the last breakpoint."""
    if x < 0:
        return NEG_INF
    if x == math.inf:  # f(c_B); the flat tail's 0 * inf would give NaN
        x = f.breakpoints[-1]
    val = f.offset
    c, m = f.breakpoints, f.slopes
    for b in range(len(c)):
        hi = c[b + 1] if b + 1 < len(c) else math.inf
        if x <= hi:
            return val + m[b] * (x - c[b])
        val += m[b] * (hi - c[b])
    return val


def pwl_conjugate(f: PwlConcave) -> PwlConcave:
    """Concave Fenchel conjugate f*(y) = inf_x (x*y - f(x)).

    Breakpoints and slopes trade places; the offset records
    f*(0) = -f(c_B) so that f*(m_1) = -f(0).
    """
    return PwlConcave(
        breakpoints=tuple(reversed(f.slopes)),
        slopes=tuple(reversed(f.breakpoints)),
        offset=-pwl_eval(f, f.breakpoints[-1]),
    )


def fill_order(fns) -> tuple[np.ndarray, ...]:
    """The positive-slope segments of (group, member, PwlConcave) triples in fill order
    (group, decreasing slope, member): group, member, slope, left breakpoint, length,
    and start, the lengths of the group's segments before it, added left to right."""
    seg = np.asarray([(g, k, m, lo, hi - lo) for g, k, f in fns for m, lo, hi
                      in zip(f.slopes, f.breakpoints, f.breakpoints[1:])], dtype=float).reshape(-1, 5)
    group, member, slope, lo, length = seg[np.lexsort((seg[:, 1], -seg[:, 2], seg[:, 0]))].T.copy()
    start, end = [], {}
    for g, span in zip(group.tolist(), length.tolist()):
        start.append(end.get(g, 0.0))
        end[g] = start[-1] + span
    return group.astype(int), member.astype(int), slope, lo, length, np.asarray(start)


def pwl_supconv(fs: list[PwlConcave] | tuple[PwlConcave, ...]) -> PwlConcave:
    """Supremal convolution sup { sum f_i(x_i) : sum x_i = x }.

    The members' segments are laid end to end in ``fill_order``, so the
    breakpoints are their ends and the offset is the sum of the offsets. A
    segment whose slope is within MERGE_TOL of the previous one joins it,
    and the run keeps the lower slope. A segment that moves the running
    breakpoint by at most MERGE_TOL joins the previous run at that run's
    slope. Slopes of at most MERGE_TOL join the flat tail.
    """
    if not fs:
        raise ValueError("pwl_supconv of empty sequence")
    c, m = [0.0], []
    _, _, slopes, _, lengths, starts = fill_order((0, k, f) for k, f in enumerate(fs))
    for s, end in zip(slopes.tolist(), (starts + lengths).tolist()):  # c[-1] is the segment's start
        if s <= MERGE_TOL:
            break
        if m and end - c[-1] <= MERGE_TOL:
            c[-1] = end
        elif m and m[-1] - s <= MERGE_TOL:
            c[-1], m[-1] = end, s
        else:
            c.append(end)
            m.append(s)
    return PwlConcave(tuple(c), tuple(m) + (0.0,), sum(f.offset for f in fs))


def pwl_fill(x, group, start, length) -> np.ndarray:
    """Greedy fill of segments in ``fill_order``: segment s of group g = group[s]
    takes clip(x[g] - start[s], 0, length[s])."""
    return np.clip(np.asarray(x, dtype=float)[group] - start, 0.0, length)


def pwl_apportion(members: list[PwlConcave], x_star: float) -> list[float]:
    """Split x_star across members by the fill that builds ``pwl_supconv``.

    One ``pwl_fill`` of the members' segments in ``fill_order``. Zero-slope
    tails are never filled, so the result sums to min(x_star, total
    capacity of all members) and attains the supremal-convolution value at
    x_star; x_star = inf fills every segment, and no members give [].
    A negative or NaN x_star raises DomainError.
    """
    if not x_star >= 0:  # NaN fails too
        raise DomainError(f"x_star must be nonnegative, got {x_star}")
    group, member, _, _, length, start = fill_order((0, k, f) for k, f in enumerate(members))
    fill = pwl_fill([x_star], group, start, length)
    return np.bincount(member, fill, len(members)).astype(float).tolist()


def pwl_to_json(f: PwlConcave) -> dict:
    doc = {"breakpoints": list(f.breakpoints), "slopes": list(f.slopes)}
    if f.offset != 0.0:
        doc["offset"] = f.offset
    return doc


def pwl_from_json(doc: dict) -> PwlConcave:
    return PwlConcave(
        breakpoints=tuple(_real(v, "breakpoints") for v in doc["breakpoints"]),
        slopes=tuple(_real(v, "slopes") for v in doc["slopes"]),
        offset=_real(doc.get("offset", 0.0), "offset"),
    )
