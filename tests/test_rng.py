"""The blocked counter stream against its one-shot oracle and known answers."""
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
    # k normals take m = ceil(k/2) pairs, u1 from counters [c, c + m) and u2
    # from [c + m, c + 2m), all drawn through words
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
