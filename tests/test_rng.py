"""The blocked counter stream against its one-shot oracle and known answers."""
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import reference_forms as ref
from nballdist import _rng
from nballdist._rng import CounterStream

B = _rng._BLOCK
SIZES = [1, 2, B - 1, B, B + 1, 2 * B + 1, 3 * B + 7]
# (seed, stream, start counter): the largest seed, and counters far from 0
STARTS = [(42, 0, 0), (0, 3, 12345), (2 ** 64 - 1, 7, 2 ** 63 - 5)]


def _bits(a):
    return a.view(np.uint64)


@pytest.mark.parametrize("method", ["words", "uniforms", "normals"])
@pytest.mark.parametrize("k", SIZES)
@pytest.mark.parametrize("seed,stream,counter", STARTS)
def test_blocked_stream_matches_one_shot_oracle(method, k, seed, stream, counter):
    got, want = CounterStream(seed, stream, counter), ref.OneShotStream(seed, stream, counter)
    # two calls in a row: the second starts where the first left the counter
    for _ in range(2):
        a, b = getattr(got, method)(k), getattr(want, method)(k)
        assert a.dtype == b.dtype and a.shape == b.shape == (k,)
        assert np.array_equal(_bits(a), _bits(b))
        assert got.counter == want.counter


@pytest.mark.parametrize("seed,stream", [(42, 0), (0, 3)])
def test_known_answers(seed, stream):
    words = CounterStream(seed, stream).words(5)
    assert [int(w) for w in words] == [ref.splitmix_word(seed, stream, i) for i in range(5)]


def test_known_answer_literals():
    assert [hex(int(w)) for w in CounterStream(42, 0).words(3)] == [
        "0x611f43bfea0d617b", "0x4cea2578b557daee", "0x4dc8910a309a91bb"]
    assert [hex(int(w)) for w in CounterStream(0, 3).words(3)] == [
        "0x93b80e933747501f", "0x71425195b21a1053", "0x6d68317ab9882707"]


def test_normals_draw_every_word_through_words():
    # k normals take the 2 ceil(k/2) words from counter c on, normal e word
    # c + e, all drawn through words in one call; the companion words of the
    # slow path are not words of this sequence
    calls = []
    stream = CounterStream(5, 1, 100)
    words = stream.words

    def counting(k):
        calls.append((stream.counter, k))
        return words(k)
    stream.words = counting
    stream.normals(2 * B + 3)
    assert calls == [(100, 2 * B + 4)] and stream.counter == 100 + 2 * B + 4


def _peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_normals_scratch_memory_is_bounded():
    # the 2e6 doubles returned take 16 MB; whole-array passes peaked at 64 MB
    assert _peak_mb(lambda: CounterStream(1).normals(2_000_000)) <= 16 * 1e6 / 2 ** 20 + 2


# ---------------------------------------------------------------------------
# The ziggurat: tables, the scalar oracle and the distribution
# ---------------------------------------------------------------------------

def test_ziggurat_tables_match_a_50_digit_recursion():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        r, v = mpmath.mpf(_rng._TAIL_R), mpmath.mpf(_rng._LAYER_AREA)
        x = [mpmath.mpf(0)] * 256
        x[255] = r
        for i in range(255, 1, -1):
            x[i - 1] = mpmath.sqrt(-2 * mpmath.log(v / x[i] + mpmath.exp(-x[i] ** 2 / 2)))
        x[0] = v / mpmath.exp(-r * r / 2)
        ratio = [r / x[0], mpmath.mpf(0)] + [x[i - 1] / x[i] for i in range(2, 256)]
        f = [mpmath.mpf(1)] + [mpmath.exp(-t * t / 2) for t in x[1:]]
        # the printed r and v leave the top layer 9.9e-10 relative short of v
        closure = float((x[1] * (1 - f[1]) - v) / v)
        assert -1.0e-9 < closure < -0.98e-9
        for table, exact in ((_rng._X, x), (_rng._F, f)):
            assert max(abs(float((mpmath.mpf(float(t)) - e) / e))
                       for t, e in zip(table, exact)) < 1e-13
        # the float recursion is 3.6e-14 off, so K may be off by 2^53 times that
        assert all(abs(int(k) - int(mpmath.floor(q * 2 ** 53))) <= 2 ** 53 * 1e-13
                   for k, q in zip(_rng._K, ratio))
    assert _rng._K[1] == 0 and np.all(_rng._K < np.uint64(2 ** 53))


def test_ziggurat_table_bits_are_pinned():
    # built with the platform's exp and log: other table bits fail here
    h = hashlib.sha256()
    for table, dtype in ((_rng._X, "<f8"), (_rng._K, "<u8"), (_rng._F, "<f8")):
        h.update(table.astype(dtype).tobytes())
    assert h.hexdigest() == "b5da939b4d8c3ab42ca4d10435898f8570c50324472033f7707f83784189fd52"


def _slow_paths(count):
    """The seed-42 counters below count that fail the main test, each with
    its slow path: found by scanning words, classified by the scalar oracle."""
    base = ref.splitmix_base(42, 0)
    w = CounterStream(42).words(count)
    j = (w & np.uint64(511)).astype(np.intp)
    return {int(i): ref.ziggurat_normal(base, int(i))
            for i in np.flatnonzero((w >> np.uint64(11)) >= _rng._K[j & 255])}


def test_normals_match_the_scalar_oracle_bit_for_bit():
    count = 400_000
    slow = _slow_paths(count)
    wedge = [i for i, (_, path) in slow.items() if path == ["wedge"]]
    tail = [i for i, (_, path) in slow.items() if path == ["tail"]]
    retry = [i for i, (_, path) in slow.items() if len(path) > 1]
    # every kind of path, the multi-attempt ones included
    assert len(wedge) > 1000 and len(tail) > 50 and len(retry) > 30
    assert {("tail", "tail"), ("wedge", "wedge")} <= {tuple(slow[i][1]) for i in retry}
    got = CounterStream(42).normals(count)
    base = ref.splitmix_base(42, 0)
    picked = sorted(set(range(2000)) | set(wedge[:1000]) | set(tail) | set(retry))
    want = np.array([ref.ziggurat_normal(base, i)[0] for i in picked])
    assert np.array_equal(_bits(got[picked]), _bits(want))
    # one element at a time, from its own counter
    for i in tail[:20] + retry[:20]:
        assert _bits(CounterStream(42, 0, i).normals(1))[0] == _bits(got[i:i + 1])[0]


def test_normal_words_is_the_counter_advance():
    for k in (1, 2, 7, 2 * B + 3):
        whole, window = CounterStream(3), CounterStream(3)
        whole.normals(k)
        window.normals(k, window=(0, 1))
        assert whole.counter == window.counter == _rng.normal_words(k) == 2 * ((k + 1) // 2)


@pytest.fixture(scope="module")
def normals_1e7():
    """10^7 seed-42 normals, and how many of them took the slow path."""
    seen = []
    slow = CounterStream._slow_normals

    def counting(stream, counters, j, u):
        seen.append(len(counters))
        return slow(stream, counters, j, u)
    CounterStream._slow_normals = counting
    try:
        z = CounterStream(42).normals(10_000_000)
    finally:
        CounterStream._slow_normals = slow
    return z, sum(seen)


@pytest.mark.parametrize("t", [2.0, 3.0, _rng._TAIL_R, 4.0])
def test_normal_tail_counts(normals_1e7, t):
    z = normals_1e7[0]
    # the tail loop must stay in the tail: a retry from a fresh layer left
    # 7% too few |z| > r, a -5.2 sigma count that KS does not see
    from scipy.special import ndtr
    n, p = len(z), 2.0 * ndtr(-t)
    count = int(np.count_nonzero(np.abs(z) > t))
    assert abs(count - n * p) <= 4.0 * math.sqrt(n * p * (1.0 - p))


def test_tail_mass_beyond_r_on_4e7_normals():
    # a 7% short tail is about -3.5 sigma at 10^7 normals and -7 sigma here;
    # drawn in chunks, so only counts are held
    from scipy.special import ndtr
    stream, n, count = CounterStream(42), 40_000_000, 0
    for _ in range(10):
        count += int(np.count_nonzero(np.abs(stream.normals(n // 10)) > _rng._TAIL_R))
    p = 2.0 * ndtr(-_rng._TAIL_R)
    assert abs(count - n * p) <= 4.0 * math.sqrt(n * p * (1.0 - p))


def test_normal_chi_square_over_equal_probability_bins(normals_1e7):
    from scipy.special import ndtr, ndtri
    from scipy.stats import chi2
    lo, hi = ndtr(-6.0), ndtr(6.0)
    edges = ndtri(lo + (hi - lo) * np.arange(201) / 200)
    edges[0], edges[-1] = -6.0, 6.0
    counts = np.histogram(normals_1e7[0], bins=edges)[0]
    expected = counts.sum() / 200
    assert chi2.sf(np.sum((counts - expected) ** 2 / expected), 199) >= 1e-3


def test_normal_signs_balance(normals_1e7):
    z = normals_1e7[0]
    assert abs(int(np.count_nonzero(z > 0)) - len(z) / 2) <= 4.0 * math.sqrt(len(z) / 4)


def test_slow_path_fraction_matches_the_tables(normals_1e7):
    z, misses = normals_1e7
    n = len(z)
    p = 1.0 - sum(int(k) for k in _rng._K) / (256 * 2.0 ** 53)
    assert 0.014 < p < 0.016
    assert abs(misses - n * p) <= 4.0 * math.sqrt(n * p * (1.0 - p))
