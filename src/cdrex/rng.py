"""Deterministic random number generation.

All stochastic behaviour in this package (parameter initialization, dropout
masks, UNK replacement, shuffling, bootstrap resampling) draws from `Rng`,
a splitmix64 generator: the state advances by the 64-bit golden-ratio
constant and each output is the finalizer

    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27; z *= 0x94D049BB133111EB
    z ^= z >> 31

applied to the state.  The update rule uses only 64-bit integer arithmetic,
so identical seeds give identical sequences on every platform.  Component
generators are derived from a parent seed and a text label, never from
mutable state, so derivation order does not matter.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# Draws per block of `Rng.fill_uniform`: three uint64 scratch blocks of 128 KiB.
FILL_BLOCK = 1 << 14


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _fnv1a(text: str) -> int:
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


class Rng:
    """splitmix64 stream seeded by a 64-bit unsigned integer."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._state = self.seed

    def derive(self, label: str) -> "Rng":
        """Child generator determined by (seed, label) alone."""
        return Rng(_mix(self.seed ^ _fnv1a(label)))

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def random(self) -> float:
        """Uniform float64 in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def fill_uniform(self, shape, lo: float, hi: float) -> np.ndarray:
        """Array of uniforms identical to repeated `uniform` calls.

        The splitmix64 state advance is a fixed increment, so the next n
        states are computed in vectorized passes and the scalar and array
        paths produce the same stream.  The passes run in place over
        FILL_BLOCK draws at a time, through block-sized scratch arrays,
        into the output: the same integer and float operations, in the
        same order, as the expressions of `next_u64` and `uniform`, with
        no temporary the size of the output.
        """
        n = int(np.prod(shape)) if shape else 1
        u = np.empty(n)
        steps = np.arange(1, min(n, FILL_BLOCK) + 1, dtype=np.uint64)
        steps *= np.uint64(_GOLDEN)
        z, t = np.empty_like(steps), np.empty_like(steps)
        for start in range(0, n, FILL_BLOCK):
            size = min(FILL_BLOCK, n - start)
            zb, tb, ub = z[:size], t[:size], u[start:start + size]
            np.add(steps[:size], np.uint64((self._state + start * _GOLDEN) & _MASK64), out=zb)
            for shift, mix in ((30, _MIX1), (27, _MIX2)):
                zb ^= np.right_shift(zb, np.uint64(shift), out=tb)
                zb *= np.uint64(mix)
            zb ^= np.right_shift(zb, np.uint64(31), out=tb)
            zb >>= np.uint64(11)
            ub[:] = zb
            ub *= 2.0**-53
            ub *= hi - lo
            ub += lo
        self._state = (self._state + n * _GOLDEN) & _MASK64
        return u.reshape(shape)

    def randbelow(self, n: int) -> int:
        """Integer in [0, n).  Modulo reduction; bias is negligible for the
        small bounds used here and determinism is what matters."""
        if n <= 0:
            raise ValueError("randbelow requires n > 0")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]
