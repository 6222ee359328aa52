"""Small deterministic PRNG used for reproducible sampling.

SplitMix64 is used instead of the stdlib Mersenne generator so that the
exact sample sequence is pinned by the algorithm itself and stays stable
across Python versions and platforms.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64 generator (Steele, Lea, Flood 2014 mixing constants)."""

    __slots__ = ("_state", "_spare_normal")

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._spare_normal: float | None = None

    def next_u64(self) -> int:
        """Return the next raw 64-bit output."""
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def skip(self, n: int) -> None:
        """Advance the stream by n draws, as n next_u64() calls would."""
        self._state = (self._state + n * _GAMMA) & _MASK64

    def peek_random(self, k: int) -> np.ndarray:
        """The next k random() values, bit for bit, as a float64 array; the
        stream does not advance. The state after j draws is seed + j * gamma
        mod 2^64, so the block is one pass of uint64 arithmetic. Every operand
        is an explicit uint64: products wrap, and no promotion rule applies."""
        u = np.uint64
        z = u(self._state) + np.arange(1, k + 1, dtype=u) * u(_GAMMA)
        z = (z ^ (z >> u(30))) * u(_MIX1)
        z = (z ^ (z >> u(27))) * u(_MIX2)
        z ^= z >> u(31)
        return (z >> u(11)).astype(np.float64) * 2.0**-53

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n). Uses rejection to avoid modulo bias."""
        if n <= 0:
            raise ValueError("n must be positive")
        # Largest multiple of n that fits in 64 bits.
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def normal(self, sigma: float = 1.0) -> float:
        """Zero-mean Gaussian via Box-Muller; caches the spare deviate."""
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z * sigma
        # random() can return exactly 0.0; log needs a positive argument.
        u1 = 1.0 - self.random()
        u2 = self.random()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2) * sigma
