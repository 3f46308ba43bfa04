"""Tests for the concave piecewise-linear algebra."""

import math

import numpy as np
import pytest

from numflow.errors import DomainError
from numflow.pwl import (
    PwlConcave,
    pwl_apportion,
    pwl_conjugate,
    pwl_eval,
    pwl_from_json,
    pwl_supconv,
    pwl_to_json,
)
from numflow.rng import MixRng

from helpers import _random_pwl

ZERO = PwlConcave((0.0,), (0.0,))


def _conjugate_oracle(f: PwlConcave, y: float, hi: float = 50.0, steps: int = 20000) -> float:
    """f*(y) = inf_x (x*y - f(x)) by grid search over [0, hi]."""
    xs = np.linspace(0.0, hi, steps)
    return float(np.min(xs * y - np.asarray([pwl_eval(f, x) for x in xs])))


def _pwl_eval_grid(f: PwlConcave, xs: np.ndarray) -> np.ndarray:
    """Vectorised pwl_eval: linear between breakpoints, constant beyond the
    last one, -inf for negative arguments."""
    values = [pwl_eval(f, b) for b in f.breakpoints]
    return np.where(xs < 0, -np.inf, np.interp(xs, f.breakpoints, values))


def _grid_supconv3(fs, x: float, step: float, rows: int = 256) -> float:
    """max f0(x1) + f1(x2) + f2(x - x1 - x2) over x1, x2 on the step grid.

    Pairs with x1 + x2 > x give a negative third argument, where f2 is -inf,
    so the full square grid attains the same maximum as the triangle.
    """
    grid = np.arange(0.0, x + step / 2, step)
    f0, f1 = _pwl_eval_grid(fs[0], grid), _pwl_eval_grid(fs[1], grid)
    best = -math.inf
    for lo in range(0, len(grid), rows):
        x1 = grid[lo:lo + rows, None]
        vals = f0[lo:lo + rows, None] + f1[None, :] + _pwl_eval_grid(fs[2], x - x1 - grid[None, :])
        best = max(best, float(np.max(vals)))
    return best


class TestConstruction:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            PwlConcave((1.0, 2.0), (3.0, 0.0))  # first breakpoint nonzero
        with pytest.raises(ValueError):
            PwlConcave((0.0, 2.0), (3.0, 1.0))  # last slope nonzero
        with pytest.raises(ValueError):
            PwlConcave((0.0, 2.0, 2.0), (3.0, 1.0, 0.0))  # non-increasing breaks
        with pytest.raises(ValueError):
            PwlConcave((0.0, 1.0, 2.0), (3.0, 3.0, 0.0))  # non-decreasing slopes
        with pytest.raises(ValueError):
            PwlConcave((0.0, 2.0), (-1.0, 0.0))  # negative slope
        for bad in (math.nan, math.inf, -math.inf):
            for c, m, offset in [((0.0, bad), (3.0, 0.0), 0.0), ((0.0, 2.0), (bad, 0.0), 0.0),
                                 ((0.0, 2.0), (3.0, 0.0), bad)]:
                with pytest.raises(ValueError, match="must be finite"):
                    PwlConcave(c, m, offset)

    def test_slopes_strictly_decreasing_everywhere(self):
        rng = MixRng(3)
        for _ in range(20):
            f = _random_pwl(rng)
            assert all(a > b for a, b in zip(f.slopes, f.slopes[1:]))


class TestEval:
    def test_sloped_segment(self):
        f = PwlConcave((0.0, 2.0), (3.0, 0.0))
        assert pwl_eval(f, 1.0) == 3.0

    def test_flat_beyond_last_breakpoint(self):
        f = PwlConcave((0.0, 2.0), (3.0, 0.0))
        assert pwl_eval(f, 5.0) == 6.0

    def test_infinity_gives_the_tail_constant(self):
        # the flat tail is f(c_B); 0 * inf must not turn it into NaN
        f = PwlConcave((0.0, 2.0), (3.0, 0.0), offset=1.0)
        assert pwl_eval(f, math.inf) == 7.0 == pwl_eval(f, 1e300)
        assert pwl_eval(PwlConcave((0.0,), (0.0,), offset=1.0), math.inf) == 1.0

    def test_negative_argument(self):
        f = PwlConcave((0.0, 2.0), (3.0, 0.0))
        assert pwl_eval(f, -1.0) == -math.inf


class TestConjugate:
    def test_worked_example(self):
        f = PwlConcave((0.0, 2.0), (3.0, 0.0))
        g = pwl_conjugate(f)
        assert g.breakpoints == (0.0, 3.0)
        assert g.slopes == (2.0, 0.0)
        assert pwl_eval(g, 0.0) == -6.0
        assert pwl_eval(g, 3.0) == 0.0

    def test_three_segment_exchange(self):
        f = PwlConcave((0.0, 1.0, 3.0), (5.0, 2.0, 0.0))
        g = pwl_conjugate(f)
        assert g.breakpoints == (0.0, 2.0, 5.0)
        assert g.slopes == (3.0, 1.0, 0.0)
        for y in range(7):
            assert pwl_eval(g, float(y)) == pytest.approx(
                _conjugate_oracle(f, float(y)), abs=1e-2
            )

    def test_involution(self):
        rng = MixRng(17)
        for _ in range(30):
            f = _random_pwl(rng)
            ff = pwl_conjugate(pwl_conjugate(f))
            for x in np.linspace(0.0, f.breakpoints[-1] + 2.0, 37):
                assert pwl_eval(ff, x) == pytest.approx(pwl_eval(f, x), abs=1e-12)

    def test_conjugate_domain_is_nonnegative_reals(self):
        rng = MixRng(19)
        for _ in range(10):
            g = pwl_conjugate(_random_pwl(rng))
            assert g.breakpoints[0] == 0.0
            assert pwl_eval(g, -0.5) == -math.inf


class TestSupconv:
    def test_zero_function_is_neutral(self):
        f = PwlConcave((0.0, 2.0), (3.0, 0.0))
        s = pwl_supconv([f, ZERO])
        for x in np.linspace(0.0, 4.0, 17):
            assert pwl_eval(s, x) == pytest.approx(pwl_eval(f, x), abs=1e-12)

    def test_self_convolution_doubles_capacity(self):
        f = PwlConcave((0.0, 2.0), (3.0, 0.0))
        s = pwl_supconv([f, f])
        assert s.breakpoints == (0.0, 4.0)
        assert s.slopes == (3.0, 0.0)
        assert pwl_eval(s, 4.0) == 12.0

    def test_against_grid_brute_force(self):
        rng = MixRng(23)
        for _ in range(5):
            fs = [_random_pwl(rng, max_segments=3) for _ in range(3)]
            s = pwl_supconv(fs)
            total = sum(f.breakpoints[-1] for f in fs)
            step = 0.01
            max_slope = max(f.slopes[0] for f in fs)
            for x in np.linspace(0.0, total, 9):
                best = _grid_supconv3(fs, x, step)
                assert pwl_eval(s, x) == pytest.approx(best, abs=3 * step * max_slope)

    def test_grid_evaluator_matches_pwl_eval(self):
        rng = MixRng(23)
        for _ in range(5):
            f = _random_pwl(rng, max_segments=3)
            xs = np.arange(-0.5, f.breakpoints[-1] + 1.0, 0.01)
            want = np.asarray([pwl_eval(f, x) for x in xs])
            got = _pwl_eval_grid(f, xs)
            assert np.array_equal(np.isneginf(got), xs < 0)
            assert np.array_equal(np.isneginf(want), xs < 0)
            inside = xs >= 0
            assert np.max(np.abs(got[inside] - want[inside])) <= 1e-12

    def test_supconv_dominates_feasible_splits(self):
        rng = MixRng(29)
        fs = [_random_pwl(rng) for _ in range(2)]
        s = pwl_supconv(fs)
        for _ in range(50):
            x1 = 4.0 * rng.uniform()
            x2 = 4.0 * rng.uniform()
            assert pwl_eval(s, x1 + x2) >= pwl_eval(fs[0], x1) + pwl_eval(fs[1], x2) - 1e-9

    def test_fenchel_identity(self):
        # (sup-convolution)* = sum of conjugates (Rockafellar, Convex Analysis, Thm 16.4)
        rng = MixRng(37)
        for _ in range(40):
            fs = [PwlConcave(f.breakpoints, f.slopes, 4.0 * rng.uniform() - 2.0)
                  for f in (_random_pwl(rng) for _ in range(rng.randint(1, 5)))]
            lhs = pwl_conjugate(pwl_supconv(fs))
            conjugates = [pwl_conjugate(f) for f in fs]
            for y in np.linspace(0.0, max(f.slopes[0] for f in fs) + 1.0, 41):
                want = sum(pwl_eval(g, y) for g in conjugates)
                assert pwl_eval(lhs, y) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("fs, reference", [
        pytest.param([PwlConcave((0.0, 2.0, 3.0), (3.0, 1.0, 0.0)), PwlConcave((0.0, 1.0), (3.0, 0.0)),
                      PwlConcave((0.0, 4.0), (1.0, 0.0))],
                     PwlConcave((0.0, 3.0, 8.0), (3.0, 1.0, 0.0)), id="equal-slopes-join"),
        pytest.param([PwlConcave((0.0,), (0.0,), 1.5), ZERO, PwlConcave((0.0,), (0.0,), -0.25)],
                     PwlConcave((0.0,), (0.0,), 1.25), id="flat-members-sum-offsets"),
        pytest.param([PwlConcave((0.0, 20.0), (3.0, 0.0)),
                      PwlConcave((0.0, 1.0, 1.0 + 2.2e-16), (2.0, 1.0, 0.0))],
                     PwlConcave((0.0, 20.0, 21.0), (3.0, 2.0, 0.0)), id="too-short-to-move-breakpoint"),
        pytest.param([PwlConcave((0.0, 2.0), (3.0, 0.0)), PwlConcave((0.0, 1.0), (3.0 + 5e-13, 0.0))],
                     PwlConcave((0.0, 3.0), (3.0, 0.0), 5.009326287108706e-13), id="slopes-within-tol"),
        pytest.param([PwlConcave((0.0, 2.0), (1e-13, 0.0))],
                     PwlConcave((0.0,), (0.0,), 2e-13), id="slope-within-tol-of-zero"),
    ])
    def test_matches_conjugate_construction(self, fs, reference):
        # reference: (sum of conjugates)*, the construction pwl_supconv used
        # before it laid the segments end to end
        s = pwl_supconv(fs)
        assert s.slopes == reference.slopes
        for x in np.linspace(0.0, sum(f.breakpoints[-1] for f in fs) + 1.0, 53):
            assert pwl_eval(s, x) == pytest.approx(pwl_eval(reference, x), abs=1e-12)


class TestApportion:
    def test_greedy_fill_example(self):
        members = [
            PwlConcave((0.0, 1.0), (5.0, 0.0)),
            PwlConcave((0.0, 2.0), (3.0, 0.0)),
        ]
        assert pwl_apportion(members, 2.0) == [1.0, 1.0]

    def test_single_member(self):
        f = PwlConcave((0.0, 3.0), (2.0, 0.0))
        assert pwl_apportion([f], 1.5) == [1.5]

    def test_equal_members_tie_break(self):
        f = PwlConcave((0.0, 2.0), (3.0, 0.0))
        assert pwl_apportion([f, f], 1.0) == [1.0, 0.0]
        g = PwlConcave((0.0, 1.0, 4.0), (3.0, 1.0, 0.0))
        assert pwl_apportion([g, f], 2.5) == [1.0, 1.5]
        assert pwl_apportion([f, g], 2.5) == [2.0, 0.5]

    def test_nan_is_a_domain_error(self):
        f = PwlConcave((0.0, 2.0), (3.0, 0.0))
        with pytest.raises(DomainError, match="nonnegative, got nan"):
            pwl_apportion([f, f], math.nan)

    def test_infinite_rate_fills_every_segment(self):
        # min(x_star, total capacity) is the total
        f = PwlConcave((0.0, 2.0), (3.0, 0.0))
        g = PwlConcave((0.0, 1.0, 4.0), (3.0, 1.0, 0.0))
        assert pwl_apportion([f, g], math.inf) == [2.0, 4.0]

    @pytest.mark.parametrize("x", [0.0, 2.0, math.inf])
    def test_no_members_give_an_empty_list(self, x):
        assert pwl_apportion([], x) == []

    def test_attains_supremal_convolution_value(self):
        rng = MixRng(31)
        for _ in range(10):
            members = [_random_pwl(rng) for _ in range(3)]
            s = pwl_supconv(members)
            x = rng.uniform() * sum(f.breakpoints[-1] for f in members)
            parts = pwl_apportion(members, x)
            assert sum(parts) == pytest.approx(min(x, sum(f.breakpoints[-1] for f in members)), abs=1e-12)
            attained = sum(pwl_eval(f, p) for f, p in zip(members, parts))
            assert attained == pytest.approx(pwl_eval(s, x), abs=1e-9)


def test_json_round_trip():
    f = PwlConcave((0.0, 1.0, 3.0), (5.0, 2.0, 0.0), offset=-1.5)
    assert pwl_from_json(pwl_to_json(f)) == f
    g = PwlConcave((0.0, 2.0), (3.0, 0.0))
    assert pwl_from_json(pwl_to_json(g)) == g


@pytest.mark.parametrize("edit", [
    {"breakpoints": ["0", "2"]},
    {"breakpoints": [0.0, True]},
    {"slopes": [3.0, False]},
    {"slopes": ["3", 0.0]},
    {"offset": "1.5"},
    {"offset": True},
], ids=["str-breakpoints", "bool-breakpoint", "bool-slope", "str-slope", "str-offset", "bool-offset"])
def test_from_json_requires_numbers(edit):
    # float() used to turn each of these into a valid function
    with pytest.raises(TypeError, match="must be a number"):
        pwl_from_json({"breakpoints": [0.0, 2.0], "slopes": [3.0, 0.0], **edit})
