"""Deterministic 64-bit mixing generator.

All randomized construction in this package goes through :class:`MixRng` so
that a seed reproduces the same instance bit-for-bit on any platform or
implementation. The generator is fully specified:

State update (64-bit wrapping arithmetic)::

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64

Output function applied to the updated state::

    z = state
    z = (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2^64
    z = (z XOR (z >> 27)) * 0x94D049BB133111EB   mod 2^64
    z = z XOR (z >> 31)

Derived draws:

* ``uniform()`` returns ``((z >> 11) + 0.5) * 2^-53``, a double in the open
  interval (0, 1).
* ``randint(lo, hi)`` returns ``lo + z mod (hi - lo + 1)`` (inclusive ends).
* ``sample(n, k)`` runs a partial Fisher-Yates shuffle of ``range(n)``:
  for ``i = 0 .. k-1`` swap position ``i`` with ``randint(i, n-1)``; the
  first ``k`` entries are the sample.
* ``mix(a, b)`` is the output function applied once to
  ``(a XOR (b * 0x9E3779B97F4A7C15 mod 2^64)) + 0x9E3779B97F4A7C15``.

This is SplitMix64 (Steele, Lea & Flood, "Fast splittable pseudorandom
number generators", OOPSLA 2014). Its n-th output after a state s is the
output function of ``s + n * 0x9E3779B97F4A7C15 mod 2^64``, so ``block(n)``
computes the next n outputs in one numpy expression in wrapping uint64
arithmetic. A block equals the same number of ``next_u64()`` calls bit for
bit and leaves the same state; ``skip`` moves the state by whole draws,
backwards too, so a caller can return the draws of a block it did not use.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _finalize(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _finalize_array(z: np.ndarray) -> np.ndarray:
    """``_finalize`` of every entry of a uint64 array (array products wrap silently)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def mix(a: int, b: int) -> int:
    """Combine two 64-bit values into a derived seed."""
    z = ((a & _MASK) ^ ((b * _GAMMA) & _MASK)) & _MASK
    return _finalize((z + _GAMMA) & _MASK)


class MixRng:
    """Counter-based generator with the documented state/output functions."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _finalize(self._state)

    def block(self, n: int) -> np.ndarray:
        """The next n outputs as a uint64 array; equal to n ``next_u64()`` calls."""
        steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        out = _finalize_array(np.uint64(self._state) + steps)
        self.skip(n)
        return out

    def skip(self, n: int) -> None:
        """Move the state past n draws; a negative n takes back the last -n draws."""
        self._state = (self._state + n * _GAMMA) & _MASK

    def uniform(self) -> float:
        """Double uniform on the open interval (0, 1)."""
        return ((self.next_u64() >> 11) + 0.5) * 2.0**-53

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n) by partial Fisher-Yates."""
        if not 0 <= k <= n:
            raise ValueError("sample size out of range")
        arr = list(range(n))
        state = self._state
        for i in range(k):  # randint(i, n - 1), inlined
            state = (state + _GAMMA) & _MASK
            j = i + _finalize(state) % (n - i)
            arr[i], arr[j] = arr[j], arr[i]
        self._state = state
        return arr[:k]
