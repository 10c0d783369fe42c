"""Seeded uniform draws, bit for bit those of numpy's ``default_rng``.

``Uniform(seed)(low, high)`` returns what ``default_rng(seed).uniform(low,
high)`` returns, call for call, by numpy's own four steps: ``SeedSequence``
mixes the seed's 32-bit words into a pool of four and hashes it into four
64-bit words; those seed a PCG64 generator (128-bit LCG state, XSL-RR output);
each draw keeps an output's top 53 bits as u in [0, 1); the value is
low + (high - low) * u.  Importing numpy's random package costs a CLI process
about 10 ms and 6 MB, more than all its draws, so the package draws here
instead, and ``tests/test_rng.py`` holds this stream to numpy's.
"""

from __future__ import annotations

import math
import operator

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
# numpy's SeedSequence hash and mix constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, numpy.uint64)`` as ints."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out_const, words = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ out_const
        out_const = out_const * _MULT_B & _M32
        value = value * out_const & _M32
        words.append(value ^ value >> 16)
    return [words[k] | words[k + 1] << 32 for k in range(0, 8, 2)]


class Uniform:
    """The uniform draws of numpy's ``default_rng(seed)``: each call
    ``rng(low, high)`` equals the next ``uniform(low, high)`` of that
    generator, and refuses a range numpy refuses with numpy's exception."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int):
        s0, s1, i0, i1 = _seed_state(seed)
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        # PCG's srandom: step from state 0 (giving inc), add the seed, step
        self._state = (((self._inc + (s0 << 64 | s1)) & _M128) * _PCG_MULT + self._inc) & _M128

    def __call__(self, low: float, high: float) -> float:
        low, high = float(low), float(high)
        span = high - low
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if span < 0:
            raise ValueError("high - low < 0")
        state = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        rot = state >> 122
        x = (state >> 64 ^ state) & _M64
        x = (x >> rot | x << (64 - rot)) & _M64
        return low + span * ((x >> 11) * 2.0 ** -53)
