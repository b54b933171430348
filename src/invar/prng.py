"""Deterministic pseudo-random numbers for sampling and retries.

xorshift64* with the canonical multiplier.  The generator is fixed here
(rather than using `random`) so that seeded runs produce identical
output on every platform and Python version; reports echo the seed.
"""

_MASK = (1 << 64) - 1
_MULT = 2685821657736338717


class XorShift:
    def __init__(self, seed: int = 0):
        self.seed = seed
        # state must be nonzero; offset keeps seed 0 usable
        self._state = (seed + 0x9E3779B97F4A7C15) & _MASK or 1

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x ^= (x << 25) & _MASK
        x ^= x >> 27
        self._state = x
        return (x * _MULT) & _MASK

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi], inclusive."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)
