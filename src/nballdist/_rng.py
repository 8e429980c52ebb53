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

Normal deviates come from a 256-layer ziggurat (Marsaglia & Tsang 2000,
"The Ziggurat Method for Generating Random Variables", J. Stat. Softw.
5(8)), with the layer and the magnitude taken from independent bits of one
word (Doornik 2005, "An Improved Ziggurat Method to Generate Normal Random
Samples"). Normal e of a call that starts at counter c comes from
w = word(c + e):

    j = w & 511        layer j & 255; negative iff j >= 256
    u = w >> 11        the top 53 bits
    accept iff u < K[j & 255];  the value is then u * (X[j & 255] * 2^-53)

Bits 9 and 10 are unused. Accepted values need no libm call. The tables
come from the Marsaglia-Tsang recursion for f(x) = exp(-x^2/2), 256 layers
of area v = 4.92867323399e-3 each, with r = 3.6541528853610088:

    x_255 = r,  x_(i-1) = sqrt(-2 log(v / x_i + f(x_i)))   (i = 255 .. 2)
    X_0 = v / f(r),  X_i = x_i                            (i >= 1)
    K_0 = floor(2^53 r / X_0),  K_1 = 0,  K_i = floor(2^53 x_(i-1) / x_i)
    F_0 = 1,  F_i = f(x_i)

Layer i >= 1 is the box [0, x_i] x [F_i, F_(i-1)], and layer 0 the base box
of width X_0 under f(r), the tail beyond r included. Built in double
precision with the platform's exp and log, X is within 3.6e-14 relative of a
50-digit recursion. The printed r and v do not close the stack exactly: the
top layer's area x_1 (1 - f(x_1)) is 9.9e-10 relative below v.

A normal whose word fails the test (1 - sum K / (256 * 2^53), about 1.5%)
takes its further words from a companion sequence keyed by its own counter:
with h = mix((base XOR 0x5851F42D4C957F2D) + (c + e + 1) * golden), attempt
a = 0, 1, ... reads A = mix(h + (2a + 1) golden) and
B = mix(h + (2a + 2) golden), and U(w) = (w >> 11) * 2^-53. In layer i >= 1
(the wedge test) the point z = u * (X_i * 2^-53), signed, is kept iff
F_i + U(A) (F_(i-1) - F_i) < exp(-0.5 z^2); otherwise B is a fresh main
word (j, u) and the value if it passes the main test, and the next attempt
starts from it if not. In layer 0 (Marsaglia's tail loop, which stays in
the tail until it accepts) x = -log(1 - U(A)) / r and y = -log(1 - U(B)),
and r + x, signed, is kept iff y + y >= x^2. The companion keys are words
of another base, so they never read the counters of the main sequence: a
call still draws exactly ``normal_words(k)`` words, 2 ceil(k/2). Only this
slow path calls exp and log, numpy's, whose last bit may depend on the CPU.

Every method works through blocks of ``_BLOCK`` elements with in-place
operations, so its scratch memory stays cache-sized whatever k is. Blocking
never changes an output bit: each element is computed by the same operations
in the same order as in one whole-array pass, and a slow-path value depends
only on its own counter, not on which failures are handled together.

``uniforms`` and ``normals`` also serve a window (lo, hi) of the next k
values: elements [lo, hi) and [h + lo, h + hi), h = ceil(k/2), stacked. A
window draws only the words of its own elements, and its values are bit for
bit those of the whole draw.
"""
from __future__ import annotations

import math

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

# Failures of the main test handled together, in one pass of whole-array
# operations per attempt: all of a call's, or those of about 8 _BLOCK normals
# (1.5% of them fail) of a longer call, so memory stays bounded
_SLOW_BATCH = 4096

_TAIL_R = 3.6541528853610088
_LAYER_AREA = 4.92867323399e-3
_COMPANION_XOR = 0x5851F42D4C957F2D


def _ziggurat_tables() -> tuple:
    """X (float64), K (uint64) and F (float64) of the module docstring."""
    r, v = _TAIL_R, _LAYER_AREA
    x = [0.0] * 256
    x[255] = r
    for i in range(255, 1, -1):
        x[i - 1] = math.sqrt(-2.0 * math.log(v / x[i] + math.exp(-0.5 * x[i] * x[i])))
    x[0] = v / math.exp(-0.5 * r * r)
    k = [int(r / x[0] * 2.0 ** 53), 0] + [int(x[i - 1] / x[i] * 2.0 ** 53) for i in range(2, 256)]
    f = [1.0] + [math.exp(-0.5 * t * t) for t in x[1:]]
    return np.array(x), np.array(k, dtype=np.uint64), np.array(f)


_X, _K, _F = _ziggurat_tables()
# indexed by the low 9 bits j of a word: the layer's K, and its X * 2^-53 signed
_K9 = np.concatenate((_K, _K))
_S9 = np.concatenate((_X, -_X)) * _TO_UNIT
# the wedge test's F_i and F_(i-1) - F_i (layer 0 takes the tail instead)
_F9 = np.concatenate((_F, _F))
_DF9 = np.concatenate((np.roll(_F, 1) - _F,) * 2)


def normal_words(k: int) -> int:
    """Words that ``normals(k)`` moves the counter past: 2 ceil(k/2)."""
    return 2 * ((k + 1) // 2)


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
        """Next k standard normal deviates (ziggurat), normal e from word
        c + e, written over the words they come from.

        With ``window = (lo, hi)``, only elements [lo, hi) and [m + lo,
        m + hi), m = ceil(k/2), stacked, into ``out`` if given. Only their
        words are drawn, and the counter still moves past all 2m."""
        m = (k + 1) // 2
        c = self.counter
        if window is None:
            w = self.words(normal_words(k))
            out = w.view(np.float64)
            runs = ((w, c, 0),)
        else:
            first, second = self._window_words(m, normal_words(k), window)
            b = len(first)
            out = np.empty(2 * b) if out is None else out[:2 * b]
            runs = ((first, c + window[0], 0), (second, c + m + window[0], b))
        size = min(len(runs[0][0]), _BLOCK)
        # the layers' K and then their scales take turns in kk
        j, kk, miss = np.empty(size, np.uint64), np.empty(size, np.uint64), np.empty(size, bool)
        scale = kk.view(np.float64)
        slow, pending = [], 0  # (positions in out, counters, j, u) of words that fail
        for w, start, at in runs:
            for lo in range(0, len(w), _BLOCK):
                ww = w[lo:lo + _BLOCK]
                n = len(ww)
                ji = np.bitwise_and(ww, 511, out=j[:n]).view(np.intp)
                np.take(_K9, ji, out=kk[:n], mode="clip")
                np.right_shift(ww, 11, out=ww)
                np.greater_equal(ww, kk[:n], out=miss[:n])
                pos = np.flatnonzero(miss[:n])
                slow.append((pos + (at + lo), pos.astype(np.uint64) + np.uint64(
                    (start + lo) & _MASK), ji[pos], ww[pos]))
                pending += len(pos)
                np.take(_S9, ji, out=scale[:n], mode="clip")
                np.multiply(ww, scale[:n], out=out[at + lo:at + lo + n])
                if pending >= _SLOW_BATCH:
                    self._fill_slow(out, slow)
                    slow, pending = [], 0
        if pending:
            self._fill_slow(out, slow)
        return out[:k] if window is None else out

    def _fill_slow(self, out: np.ndarray, slow: list) -> None:
        pos, counters, j, u = (np.concatenate(parts) for parts in zip(*slow))
        out[pos] = self._slow_normals(counters, j, u)

    def _slow_normals(self, counters: np.ndarray, j: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The values of normals whose word failed the main test, from their
        counters, low 9 bits j and top 53 bits u: the wedge test or the tail
        loop, attempt by attempt on whole arrays (module docstring)."""
        h = (counters + np.uint64(1)) * np.uint64(_GOLDEN) + np.uint64(
            (self._base ^ _COMPANION_XOR) & _MASK)
        _mix(h, np.empty_like(h))
        z = np.empty(len(h))
        todo = np.arange(len(h))
        a = 0
        while len(todo):
            # rows A and B of attempt a
            ab = h + np.array([[((2 * a + 1) * _GOLDEN) & _MASK],
                               [((2 * a + 2) * _GOLDEN) & _MASK]], dtype=np.uint64)
            _mix(ab, np.empty_like(ab))
            ua = (ab[0] >> np.uint64(11)) * _TO_UNIT
            ub = ab[1] >> np.uint64(11)
            jb = (ab[1] & np.uint64(511)).view(np.intp)
            scale = _S9[j]
            zw = u * scale
            # wedge: u's point of layer i >= 1 under the curve; otherwise B is
            # a fresh main word
            hit = _F9[j] + ua * _DF9[j] < np.exp(-0.5 * (zw * zw))
            z[todo] = np.where(hit, zw, ub * _S9[jb])
            more = ~hit & (ub >= _K9[jb])
            # tail (layer 0), about 2% of these: Marsaglia's loop beyond r
            t = np.flatnonzero((j & 255) == 0)
            if len(t):
                tx = -np.log(1.0 - ua[t]) / _TAIL_R
                ty = -np.log(1.0 - ub[t] * _TO_UNIT)
                z[todo[t]] = np.copysign(_TAIL_R + tx, scale[t])
                more[t] = ty + ty < tx * tx
                jb[t] = j[t]
            keep = np.flatnonzero(more)
            j, u, h, todo = jb[keep], ub[keep], h[keep], todo[keep]
            a += 1
        return z
