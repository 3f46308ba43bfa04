"""Algebra of closed proper concave piecewise-linear functions.

A :class:`PwlConcave` is determined by ascending breakpoints
``c_1 = 0 < c_2 < ... < c_B``, strictly descending nonnegative slopes
``m_1 > m_2 > ... > m_B = 0`` (slope ``m_b`` applies on ``[c_b, c_{b+1})``,
the last slope beyond ``c_B``), and an affine offset ``f(0)``. The function
is minus infinity for negative arguments and constant beyond the last
breakpoint.

Conjugation exchanges breakpoints and slopes; sums merge breakpoint sets;
supremal convolution is computed as the conjugate of the sum of conjugates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

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


def pwl_sum(fs: list[PwlConcave] | tuple[PwlConcave, ...]) -> PwlConcave:
    """Pointwise sum over the shared domain R+."""
    if not fs:
        raise ValueError("pwl_sum of empty sequence")
    grid = sorted({b for f in fs for b in f.breakpoints})
    # merge near-identical breakpoints
    merged = [grid[0]]
    for b in grid[1:]:
        if b - merged[-1] > MERGE_TOL:
            merged.append(b)
    slopes = []
    for b in merged:
        slopes.append(sum(_slope_at(f, b) for f in fs))
    return _normalized(merged, slopes, sum(f.offset for f in fs))


def pwl_supconv(fs: list[PwlConcave] | tuple[PwlConcave, ...]) -> PwlConcave:
    """Supremal convolution, computed as (sum of conjugates)*."""
    if not fs:
        raise ValueError("pwl_supconv of empty sequence")
    return pwl_conjugate(pwl_sum([pwl_conjugate(f) for f in fs]))


def pwl_apportion(members: list[PwlConcave], x_star: float) -> list[float]:
    """Split x_star across members by greedy marginal-slope fill.

    Segments are consumed in order of decreasing slope, ties broken by
    (member index, segment index). Zero-slope tails are never filled, so the
    result sums to min(x_star, total capacity of all members) and attains
    the supremal-convolution value at x_star.
    """
    if x_star < 0:
        raise DomainError("x_star must be nonnegative")
    segments = []  # (-slope, member, seg, length)
    for mi, f in enumerate(members):
        c, m = f.breakpoints, f.slopes
        for b in range(len(c) - 1):
            if m[b] > 0:
                segments.append((-m[b], mi, b, c[b + 1] - c[b]))
    segments.sort()
    out = [0.0] * len(members)
    remaining = x_star
    for _, mi, _, length in segments:
        if remaining <= 0:
            break
        take = min(length, remaining)
        out[mi] += take
        remaining -= take
    return out


def pwl_to_json(f: PwlConcave) -> dict:
    doc = {"breakpoints": list(f.breakpoints), "slopes": list(f.slopes)}
    if f.offset != 0.0:
        doc["offset"] = f.offset
    return doc


def pwl_from_json(doc: dict) -> PwlConcave:
    return PwlConcave(
        breakpoints=tuple(float(v) for v in doc["breakpoints"]),
        slopes=tuple(float(v) for v in doc["slopes"]),
        offset=float(doc.get("offset", 0.0)),
    )


def _slope_at(f: PwlConcave, x: float) -> float:
    """Right slope of f at x >= 0 (0 beyond the last breakpoint)."""
    c, m = f.breakpoints, f.slopes
    for b in range(len(c) - 1, -1, -1):
        if x >= c[b] - MERGE_TOL:
            return m[b]
    return m[0]


def _normalized(breaks: list[float], slopes: list[float], offset: float) -> PwlConcave:
    """Drop segments whose slope matches the previous one within MERGE_TOL."""
    out_c = [breaks[0]]
    out_m = [slopes[0]]
    for b, s in zip(breaks[1:], slopes[1:]):
        if abs(s - out_m[-1]) <= MERGE_TOL:
            continue
        out_c.append(b)
        out_m.append(s)
    if out_m[-1] != 0.0:
        # snap a numerically tiny final slope to the canonical flat tail
        if abs(out_m[-1]) <= MERGE_TOL:
            out_m[-1] = 0.0
        else:
            raise ValueError("sum has nonzero final slope")
    return PwlConcave(tuple(out_c), tuple(out_m), offset)
