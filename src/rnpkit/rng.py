"""Deterministic pseudo-randomness for every generator in the package.

All randomness flows through SplitMix64, a 64-bit counter-based generator
(Steele, Lea & Flood's mixing function).  The algorithm is pinned here on
purpose: graphs produced from a given seed must be bit-identical across
runs, platforms and Python versions, because acceptance suites freeze
values derived from them.  Do not swap this for ``random`` or a library
generator whose stream may change between releases.

``SplitMix64.next_block`` computes the next k draws together, as lanes of
one integer, for loops that need many draws (Erdos-Renyi pairs and the
pairing model); its values and final state are those of k ``next_u64``
calls.
"""

from __future__ import annotations

import struct
from functools import lru_cache

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_MUL1 = 0xBF58476D1CE4E5B9
_MIX_MUL2 = 0x94D049BB133111EB
# odd multipliers are invertible mod 2**64
_GOLDEN_INV = pow(_GOLDEN, -1, 1 << 64)
_MIX_MUL1_INV = pow(_MIX_MUL1, -1, 1 << 64)
_MIX_MUL2_INV = pow(_MIX_MUL2, -1, 1 << 64)


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * _MIX_MUL1 & _MASK64
    z = (z ^ (z >> 27)) * _MIX_MUL2 & _MASK64
    return z ^ (z >> 31)


@lru_cache(maxsize=64)
def _lanes(k: int):
    """For k draws in 128-bit lanes: the lane-replicating multiplier, the
    golden steps of draws 1..k, the low-half mask and the unpacker."""
    # Built from bytes: a sum of shifted ints is quadratic in k, 0.12 s at
    # k = 4,096, and the Erdos-Renyi chunks ask for thousands of lanes.
    ones = int.from_bytes(b"\x01".ljust(16, b"\0") * k, "little")
    steps = int.from_bytes(
        b"".join(((s + 1) * _GOLDEN).to_bytes(16, "little") for s in range(k)), "little"
    )
    return ones, steps, _MASK64 * ones, struct.Struct("<" + "Q8x" * k).unpack


def _unxorshift(z: int, shift: int) -> int:
    # x ^ (x >> shift) = z; each pass fixes ``shift`` more top bits of x
    x = z
    for _ in range(64 // shift):
        x = z ^ (x >> shift)
    return x


def _unmix(z: int) -> int:
    """The state whose ``_mix`` is z: ``_mix`` is a bijection on 64 bits."""
    z = _unxorshift(z, 31) * _MIX_MUL2_INV & _MASK64
    z = _unxorshift(z, 27) * _MIX_MUL1_INV & _MASK64
    return _unxorshift(z, 30)


class SplitMix64:
    """SplitMix64 stream seeded by a 64-bit integer.

    ``split(index)`` derives an independent child stream from the original
    seed and the index, so substreams do not depend on how many values the
    parent has consumed.
    """

    __slots__ = ("_seed", "_state")

    def __init__(self, seed: int):
        self._seed = seed & _MASK64
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def next_block(self, k: int) -> tuple[int, ...]:
        """The next k values of ``next_u64``, computed together.

        Draw s sits in 128-bit lane s of one integer: its low 64 bits hold
        the value, and its high 64 bits take each product's carry and the
        bits a right shift brings down from lane s + 1.  The lane mask
        clears both before they can reach a low half.
        """
        ones, steps, lanes, unpack = _lanes(k)
        state = self._state
        self._state = (state + k * _GOLDEN) & _MASK64
        z = (state * ones + steps) & lanes
        z = (z ^ z >> 30 & lanes) * _MIX_MUL1 & lanes
        z = (z ^ z >> 27 & lanes) * _MIX_MUL2 & lanes
        return unpack((z ^ z >> 31).to_bytes(16 * k, "little"))

    def split(self, index: int) -> "SplitMix64":
        return SplitMix64(_mix(self._seed ^ _mix((index + 1) * _GOLDEN & _MASK64)))

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased via rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        # reject draws from the final partial copy of [0, bound)
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            value = self.next_u64()
            if value < limit:
                return value % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
