"""Tests for the documented 64-bit mixing generator."""

import warnings

import numpy as np
import pytest

from numflow.rng import MixRng, mix

MASK = (1 << 64) - 1


def _reference_next(state):
    """Independent transcription of the documented state/output functions."""
    state = (state + 0x9E3779B97F4A7C15) & MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return state, z ^ (z >> 31)


def test_next_u64_matches_documented_recurrence():
    for seed in (0, 1, 42, 2**64 - 1):
        rng = MixRng(seed)
        state = seed & MASK
        for _ in range(100):
            state, expected = _reference_next(state)
            assert rng.next_u64() == expected


def test_same_seed_same_sequence():
    a = MixRng(123)
    b = MixRng(123)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_different_seeds_diverge():
    a = MixRng(1)
    b = MixRng(2)
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


def test_uniform_open_interval():
    rng = MixRng(7)
    draws = [rng.uniform() for _ in range(10000)]
    assert all(0.0 < v < 1.0 for v in draws)
    # crude uniformity sanity check
    assert abs(sum(draws) / len(draws) - 0.5) < 0.02


def test_randint_inclusive_bounds():
    rng = MixRng(9)
    draws = [rng.randint(3, 5) for _ in range(2000)]
    assert set(draws) == {3, 4, 5}
    assert rng.randint(4, 4) == 4
    with pytest.raises(ValueError):
        rng.randint(5, 4)


def test_sample_distinct_subset():
    rng = MixRng(11)
    for _ in range(50):
        out = rng.sample(30, 10)
        assert len(out) == 10
        assert len(set(out)) == 10
        assert all(0 <= v < 30 for v in out)
    assert sorted(MixRng(1).sample(5, 5)) == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        rng.sample(3, 4)


@pytest.mark.parametrize("seed, n", [(0, 0), (1, 1), (42, 21), (2**64 - 1, 300), (2**63 + 5, 17)])
def test_block_equals_scalar_draws_and_leaves_the_same_state(seed, n):
    block, scalar = MixRng(seed), MixRng(seed)
    out = block.block(n)
    assert out.dtype == np.uint64 and out.shape == (n,)
    assert out.tolist() == [scalar.next_u64() for _ in range(n)]
    assert block.next_u64() == scalar.next_u64()


def test_block_draws_raise_no_overflow_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        MixRng(2**64 - 1).block(1000)


def test_skip_moves_by_whole_draws_both_ways():
    ref = MixRng(9)
    ahead = [ref.next_u64() for _ in range(10)]
    rng = MixRng(9)
    rng.skip(7)
    assert rng.next_u64() == ahead[7]
    rng.skip(-5)
    assert rng.next_u64() == ahead[3]


def test_sample_matches_its_documented_fisher_yates():
    for n, k in [(0, 0), (1, 1), (30, 10), (750, 750)]:
        rng, ref = MixRng(n + k), MixRng(n + k)
        arr = list(range(n))
        for i in range(k):
            j = ref.randint(i, n - 1)
            arr[i], arr[j] = arr[j], arr[i]
        assert rng.sample(n, k) == arr[:k]
        assert rng.next_u64() == ref.next_u64()


def test_mix_deterministic_and_sensitive():
    assert mix(5, 9) == mix(5, 9)
    assert mix(5, 9) != mix(5, 10)
    assert mix(5, 9) != mix(6, 9)
    assert 0 <= mix(0, 0) <= MASK
