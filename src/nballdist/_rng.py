"""Counter-based, splittable pseudo-random number generator.

The generator is fully specified here so that seeds are portable across
languages and platforms:

    mix(z):  z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
             z ^= z >> 27;  z *= 0x94D049BB133111EB
             z ^= z >> 31                                (SplitMix64 finalizer)

    base(seed, stream) = mix(mix(seed XOR 0xA3EC647659359ACD)
                             + stream * 0x9E3779B97F4A7C15)
    word(i)            = mix(base + (i + 1) * 0x9E3779B97F4A7C15)

with all arithmetic modulo 2^64. ``word(i)`` for i = 0, 1, 2, ... is the raw
output sequence; uniform doubles take the top 53 bits. Separate ``stream``
values give statistically independent substreams of the same seed, and the
mapping from (seed, stream, counter) to output is stateless, so any slice of
the sequence can be generated on any worker.

Normal deviates use the Box-Muller transform (two uniforms per pair), which
keeps the uniform-word consumption deterministic: for k normals, m = (k+1)/2
pairs (rounded down) take u1 from the next m words and u2 from the m after
them, and the output holds the m values r cos(2 pi u2) followed by the m
values r sin(2 pi u2), r = sqrt(-2 log(1 - u1)), cut to k.

Every method works through blocks of ``_BLOCK`` elements with in-place
operations, so its scratch memory stays cache-sized whatever k is. Blocking
never changes an output bit: each element is computed by the same operations
in the same order as in one whole-array pass.

``uniforms`` and ``normals`` also serve a window (lo, hi) of the next k
values: elements [lo, hi) and [h + lo, h + hi), h = ceil(k/2), stacked. For
normals these are r cos and r sin of Box-Muller pairs [lo, hi), so a window
draws only the words of its own pairs, and its values are bit for bit those
of the whole draw.
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SEED_XOR = 0xA3EC647659359ACD
_C1, _C2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_M1, _M2 = np.uint64(_C1), np.uint64(_C2)
_TO_UNIT = 2.0 ** -53  # (w >> 11) * 2^-53 is exactly (w >> 11) / 2^53

# Elements per block. Outputs do not depend on it; it only sets the size of
# the scratch arrays (32768 words are 256 KB, well inside L2).
_BLOCK = 32768
# (j + 1) * golden for j < _BLOCK: a block's counters are one add away
_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64)
_STEPS *= np.uint64(_GOLDEN)


def _mix(z: np.ndarray, t: np.ndarray) -> None:
    """SplitMix64 finalizer applied to z in place; t is scratch of z's shape."""
    for shift, mult in ((30, _M1), (27, _M2)):
        np.right_shift(z, shift, out=t)
        np.bitwise_xor(z, t, out=z)
        np.multiply(z, mult, out=z)
    np.right_shift(z, 31, out=t)
    np.bitwise_xor(z, t, out=z)


def _mix_int(z: int) -> int:
    """SplitMix64 finalizer of one word, in Python integers."""
    z = ((z ^ (z >> 30)) * _C1) & _MASK
    z = ((z ^ (z >> 27)) * _C2) & _MASK
    return z ^ (z >> 31)


def _to_unit(w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Top 53 bits of the words w as doubles in [0, 1), into out (which may
    be w's own memory viewed as float64); w is overwritten."""
    np.right_shift(w, 11, out=w)
    return np.multiply(w, _TO_UNIT, out=out)


class CounterStream:
    """Sequential view over one (seed, stream) output sequence."""

    def __init__(self, seed: int, stream: int = 0, counter: int = 0):
        if seed < 0 or stream < 0:
            raise ValueError("seed and stream must be non-negative")
        self.seed = int(seed)
        self.stream = int(stream)
        self.counter = int(counter)
        self._base = _mix_int((_mix_int((self.seed ^ _SEED_XOR) & _MASK)
                               + self.stream * _GOLDEN) & _MASK)

    def words(self, k: int) -> np.ndarray:
        """Next k raw 64-bit words."""
        out = np.empty(k, dtype=np.uint64)
        t = np.empty(min(k, _BLOCK), dtype=np.uint64)
        for lo in range(0, k, _BLOCK):
            z = out[lo:lo + _BLOCK]
            offset = np.uint64((self._base + (self.counter + lo) * _GOLDEN) & _MASK)
            np.add(_STEPS[:len(z)], offset, out=z)
            _mix(z, t[:len(z)])
        self.counter += k
        return out

    def _window_words(self, h: int, end: int, window: tuple) -> tuple:
        """Words [lo, hi) and [h + lo, h + hi) of the next ``end`` words,
        drawn as two runs; the counter then moves past all ``end``."""
        lo, hi = window
        if not 0 <= lo < hi <= h:
            raise ValueError(f"window {window!r} lies outside [0, {h})")
        c = self.counter
        self.counter = c + lo
        first = self.words(hi - lo)
        self.counter = c + h + lo
        second = self.words(hi - lo)
        self.counter = c + end
        return first, second

    def uniforms(self, k: int, window: tuple | None = None) -> np.ndarray:
        """Next k doubles, uniform on [0, 1), written over their own words.

        With ``window = (lo, hi)``, only elements [lo, hi) and [h + lo, h + hi),
        h = ceil(k/2), stacked: the two halves' rows of a pair window. Their
        words are drawn alone, and the counter still moves past all k."""
        if window is None:
            w = self.words(k)
            u = w.view(np.float64)
            for lo in range(0, k, _BLOCK):
                _to_unit(w[lo:lo + _BLOCK], u[lo:lo + _BLOCK])
            return u
        first, second = self._window_words((k + 1) // 2, k, window)
        u = np.empty(2 * len(first))
        _to_unit(first, u[:len(first)])
        _to_unit(second, u[len(first):])
        return u

    def normals(self, k: int, window: tuple | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
        """Next k standard normal deviates (Box-Muller), written over the
        words they come from: r cos and r sin take the places of u1 and u2.

        With ``window = (lo, hi)``, only Box-Muller pairs [lo, hi) of the m,
        that is elements [lo, hi) and [m + lo, m + hi): r cos stacked over
        r sin of the same pairs, into ``out`` if given. Only the words of
        those pairs are drawn, and the counter still moves past all 2m."""
        m = (k + 1) // 2
        if window is None:
            w = self.words(2 * m)
            first, second = w[:m], w[m:]
            out = w.view(np.float64)
        else:
            first, second = self._window_words(m, 2 * m, window)
            if out is None:
                out = np.empty(2 * len(first))
        b = len(first)
        r, ang = np.empty(min(b, _BLOCK)), np.empty(min(b, _BLOCK))
        for lo in range(0, b, _BLOCK):
            hi = min(lo + _BLOCK, b)
            u1 = _to_unit(first[lo:hi], r[:hi - lo])
            u2 = _to_unit(second[lo:hi], ang[:hi - lo])
            np.subtract(1.0, u1, out=u1)  # (0, 1], keeps the log finite
            np.log(u1, out=u1)
            np.multiply(u1, -2.0, out=u1)
            np.sqrt(u1, out=u1)
            np.multiply(u2, 2.0 * np.pi, out=u2)
            for part, trig in ((out[lo:hi], np.cos), (out[b + lo:b + hi], np.sin)):
                trig(u2, out=part)
                np.multiply(part, u1, out=part)
        return out[:k] if window is None else out[:2 * b]
