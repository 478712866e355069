"""The encode and decode cores against their scalar references.

The streaming ChannelEncoder must return its scalar oracle's words from
every push; the encoder core's frame walk must find the scalar walk's
frame starts, the encoder core must emit the streaming encoder's words,
encode_channels the scalar encoders' words per lead, and the loss
harness's wire the scalar encoders' words in their round-robin emission
order; both decoders must return their scalar
oracle's samples (and unknown spans) or raise the same EcgzError class,
on valid and on damaged streams, the erasure-tolerant one also with
frames erased.
"""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgz import bench, container, decoder, encoder, predictor
from ecgz.encoder import EncoderConfig
from ecgz.errors import CorruptStreamError, EcgzError, ReservedHeaderError, TruncationError
from oracle import (
    ChannelEncoderScalar,
    decode_channel_scalar,
    decode_resilient_scalar,
    frame_counts_priority,
    frame_starts_scalar,
    predict,
)

INTERVALS = [0, 1, 2, 5, 7, 13, 50]


def _signal(kind: str, seed: int, n: int) -> list[int]:
    rng = np.random.default_rng(seed)
    if kind == "raw_heavy":  # wide residuals: mostly escapes to Type E
        x = rng.integers(-2048, 2048, size=n)
    elif kind == "slew":  # steep rail-to-rail sawtooth
        x = np.cumsum(rng.integers(40, 90, size=n)) % 4096 - 2048
    elif kind == "flat":  # D-heavy with rare spikes
        x = np.where(rng.random(n) < 0.03, rng.integers(-2048, 2048, size=n), rng.integers(-1, 2, size=n))
    else:  # a random walk: the typical A/B/C mix
        x = np.cumsum(rng.integers(-12, 13, size=n)).clip(-2048, 2047)
    return x.astype(np.int64).tolist()


cases = st.tuples(
    st.sampled_from(["raw_heavy", "slew", "flat", "walk"]),
    st.integers(0, 2**32 - 1),
    st.integers(0, 300),
    st.integers(1, 4),
    st.sampled_from(INTERVALS),
)


def _config(order, interval):
    return EncoderConfig(resync_interval_samples=interval, order=order)


def _streamed(enc, xs):
    """Words of a streaming encoder over xs, the flush included."""
    return [word for x in xs for word in enc.push_sample(x)] + enc.flush()


@settings(max_examples=150, deadline=None)
@given(cases)
def test_encoder_core_matches_the_streaming_encoder(case):
    kind, seed, n, order, interval = case
    xs = _signal(kind, seed, n)
    cfg = _config(order, interval)
    got = encoder.encode_channel(xs, cfg)
    assert got.dtype == np.int64
    assert got.tolist() == _streamed(encoder.ChannelEncoder(cfg), xs)
    assert got.tolist() == _streamed(ChannelEncoderScalar(cfg), xs)
    # an int16 lead streams to plain-int words, through every resync the case reaches
    streamed = _streamed(encoder.ChannelEncoder(cfg), np.array(xs, dtype=np.int16))
    assert streamed == got.tolist() and all(type(w) is int for w in streamed)


def _walk_widths(kind: str, n: int, seed: int) -> np.ndarray:
    if kind == "all_D":  # every frame is six samples: chains from different starts never merge
        return np.full(n, 2)
    if kind == "all_E":
        return np.full(n, encoder.ESC)
    rng = np.random.default_rng(seed)
    weights = {"mixed": [1, 1, 1, 1, 1], "mostly_D": [12, 2, 1, 1, 1], "mostly_E": [1, 1, 1, 1, 8]}[kind]
    return rng.choice([2, 3, 5, 7, encoder.ESC], size=n, p=np.array(weights) / sum(weights))


@pytest.mark.parametrize("interval", [*range(17), 50, 1440])
def test_frame_walk_matches_the_scalar_walk(interval):
    lengths = [*range(41), *range(41, 601, 23), 600]
    if interval > 40:  # around the second resync, which 1440 reaches only past 600 samples
        lengths += [2 * interval + d for d in range(-6, 7)]
    for n in lengths:
        for kind in ("all_D", "all_E", "mixed", "mostly_D", "mostly_E"):
            counts = encoder._frame_counts(_walk_widths(kind, n, seed=n * 1000 + interval))
            for e_frames in (1, 2):
                got = encoder._frame_walk(counts, interval, e_frames)
                assert got.dtype == np.int64
                assert got.tolist() == frame_starts_scalar(counts.tolist(), n, interval, e_frames), (n, kind, e_frames)


def _push(enc, x):
    try:
        return enc.push_sample(x)
    except ValueError:
        return ValueError


@settings(max_examples=300, deadline=None)
@given(cases, st.integers(0, 2**32 - 1))
def test_streaming_encoder_matches_the_scalar_oracle(case, mseed):
    kind, seed, n, order, interval = case
    rng = np.random.default_rng(mseed)
    xs = _signal(kind, seed, n)
    for _ in range(int(rng.integers(0, 3))):  # out-of-range samples must raise and change nothing
        xs.insert(int(rng.integers(0, n + 1)), int(rng.choice([-2049, 2048, -(2**40), 2**40])))
    cut = int(rng.integers(0, len(xs) + 1))  # a flush mid-stream keeps the predictor and resync state
    cfg = _config(order, interval)
    enc, ref = encoder.ChannelEncoder(cfg), ChannelEncoderScalar(cfg)
    for part in (xs[:cut], xs[cut:]):
        for x in part:
            assert _push(enc, x) == _push(ref, x)
        assert enc.flush() == ref.flush()


def test_flush_at_every_queue_depth_matches_the_scalar_oracle():
    # After a flush the encoder's width key still holds the flushed samples' classes;
    # the next frame must not see them.
    rng = np.random.default_rng(2024)
    steps = rng.choice([0, 1, -1, 3, -3, 12, -12, 40, -40, 300, -300], size=48)
    xs = np.cumsum(steps).clip(-2048, 2047).tolist()
    for order, interval in itertools.product(range(1, 5), range(1, 8)):
        cfg = _config(order, interval)
        depths = set()
        for cut in range(30):
            enc, ref = encoder.ChannelEncoder(cfg), ChannelEncoderScalar(cfg)
            for x in xs[:cut]:
                assert enc.push_sample(x) == ref.push_sample(x)
            depths.add(len(ref.queue))
            assert enc.flush() == ref.flush()
            for x in xs[cut : cut + 14]:
                assert enc.push_sample(x) == ref.push_sample(x)
            assert enc.flush() == ref.flush()
        assert depths == set(range(6))


@settings(max_examples=150, deadline=None)
@given(cases, st.integers(1, 4))
def test_multichannel_encoder_matches_per_channel_scalar_encoders(case, nch):
    kind, seed, n, order, interval = case
    leads = [_signal(kind, seed + ch, n) for ch in range(nch)]
    cfg = EncoderConfig(resync_interval_samples=interval, channel_count=nch, order=order)
    refs = [ChannelEncoderScalar(cfg) for _ in range(nch)]
    # the leads share the link round-robin, then each flushes, in lead order
    log = [(ch, word) for i in range(n) for ch in range(nch) for word in refs[ch].push_sample(leads[ch][i])]
    log += [(ch, word) for ch, ref in enumerate(refs) for word in ref.flush()]
    got = encoder.encode_channels(leads, cfg)
    assert type(got) is list and all(words.dtype == np.int64 for words in got)
    assert [words.tolist() for words in got] == [[w for c, w in log if c == ch] for ch in range(nch)]
    # one 2-D array of leads gives the same list of word arrays
    from_array = encoder.encode_channels(np.array(leads, dtype=np.int64), cfg)
    assert type(from_array) is list and len(from_array) == nch
    assert all(a.dtype == np.int64 and np.array_equal(a, b) for a, b in zip(from_array, got))
    assert bench.LossHarness(leads, cfg).wire == container.wire_encode(log)


def _outcome(decode, words, count, order):
    try:
        return decode(words, count, order)
    except EcgzError as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(cases)
def test_decoder_core_matches_the_scalar_oracle(case):
    kind, seed, n, order, interval = case
    xs = _signal(kind, seed, n)
    words = encoder.encode_channel(xs, _config(order, interval)).tolist()
    assert decoder.decode_channel(words, n, order) == decode_channel_scalar(words, n, order) == xs


MUTATIONS = ["random_words", "random_stream", "reserved", "too_many", "truncate", "surplus_frame"]


def _damaged(case, mutation, rng):
    """An encoded stream with one kind of damage: (words, declared count, order)."""
    kind, seed, n, order, interval = case
    words = encoder.encode_channel(_signal(kind, seed, n), _config(order, interval)).tolist()
    count = n
    if mutation == "random_words" and words:  # a few words replaced: any mix of defects
        for i in rng.integers(0, len(words), size=rng.integers(1, 4)):
            words[i] = int(rng.integers(0, 1 << 16))
    elif mutation == "random_stream":  # long residual runs whose sums leave the range
        words = rng.integers(0, 1 << 16, size=rng.integers(0, 400)).tolist()
        count = int(rng.integers(0, 1500))
    elif mutation == "reserved" and words:
        words[int(rng.integers(len(words)))] = 0x2000 | int(rng.integers(0, 1 << 12))
    elif mutation == "too_many":
        count = max(0, n - int(rng.integers(1, 7)))
    elif mutation == "truncate" and words:
        words = words[: int(rng.integers(len(words)))]
    elif mutation == "surplus_frame":
        words = words + [int(rng.integers(0, 1 << 16)) & 0xDFFF]
    return words, count, order


@settings(max_examples=300, deadline=None)
@given(cases, st.sampled_from(MUTATIONS), st.integers(0, 2**32 - 1))
def test_decoder_core_matches_the_oracle_on_damaged_streams(case, mutation, mseed):
    words, count, order = _damaged(case, mutation, np.random.default_rng(mseed))
    got = _outcome(decoder.decode_channel, words, count, order)
    want = _outcome(decode_channel_scalar, words, count, order)
    assert got == want


def _erase(words, erasure, rng):
    """The stream with some frames replaced by None, the erasure marker."""
    if erasure == "random":
        lost = rng.random(len(words)) < rng.uniform(0, 0.3)
    elif erasure == "burst":
        lost = np.zeros(len(words), dtype=bool)
        start = int(rng.integers(0, len(words) + 1))
        lost[start : start + int(rng.integers(1, 11))] = True
    elif erasure == "first":
        lost = np.arange(len(words)) == 0
    elif erasure == "every":
        lost = np.ones(len(words), dtype=bool)
    else:
        lost = np.zeros(len(words), dtype=bool)
    return [None if gone else w for w, gone in zip(words, lost.tolist())]


@settings(max_examples=400, deadline=None)
@given(
    cases,
    st.sampled_from(["intact"] + MUTATIONS),
    st.sampled_from(["none", "random", "burst", "first", "every"]),
    st.integers(0, 2**32 - 1),
)
def test_resilient_core_matches_the_scalar_oracle(case, mutation, erasure, mseed):
    rng = np.random.default_rng(mseed)
    words, count, order = _damaged(case, mutation, rng)
    frames = _erase(words, erasure, rng)
    got = _outcome(decoder.decode_resilient, frames, count, order)
    want = _outcome(decode_resilient_scalar, frames, count, order)
    assert got == want
    if erasure == "none":  # a loss-free stream decodes, or fails, exactly as decode_channel does
        resilient = _samples_or_error(lambda *a: decoder.decode_resilient(*a)[0], frames, count, order)
        assert resilient == _samples_or_error(decoder.decode_channel, frames, count, order)


def _samples_or_error(decode, words, count, order):
    try:
        return decode(words, count, order)
    except EcgzError as exc:
        return type(exc), str(exc)


def test_first_bad_sample_is_exact_where_int64_wraps():
    # B frames of residuals (-2, -1): at order 4 the run's sums pass 2**63
    # long before its end; the run after the raw frame starts from garbage
    words = [0x7F7F] * 200_000 + [0x3000] + [0x7F7F] * 10
    count = 2 * 200_000 + 1 + 20
    pairs = [(decoder.decode_channel, decode_channel_scalar), (decoder.decode_resilient, decode_resilient_scalar)]
    for order in range(1, 5):
        for decode, scalar in pairs:
            with pytest.raises(CorruptStreamError) as core:
                decode(words, count, order)
            with pytest.raises(CorruptStreamError) as oracle:
                scalar(words, count, order)
            assert str(core.value) == str(oracle.value)


# The rebuild runs in int16. Its headroom: the first out-of-range known sample
# is L predictor terms over in-range samples plus a field of at most 7 bits,
# at most (2**L - 1) * 2048 + 64 in magnitude (30,784 at order 4).


def _rail_history(order: int, sign: int) -> list[int]:
    """L samples at the rails, oldest first, that push the order-L prediction furthest toward sign."""
    return [2047 if a * sign > 0 else -2048 for a in reversed(predictor.coefficients(order))]


def _predict(history: list[int], order: int) -> int:
    return sum(a * h for a, h in zip(predictor.coefficients(order), reversed(history)))


def _same_error(frames, count, order):
    """Both decoders raise their oracle's class and message; returns the message."""
    pairs = [(decoder.decode_resilient, decode_resilient_scalar)]
    if None not in frames:
        pairs.append((decoder.decode_channel, decode_channel_scalar))
    messages = set()
    for decode, scalar in pairs:
        with pytest.raises(EcgzError) as core:
            decode(frames, count, order)
        with pytest.raises(EcgzError) as oracle:
            scalar(frames, count, order)
        assert type(core.value) is type(oracle.value) and str(core.value) == str(oracle.value)
        messages.add(str(core.value))
    (message,) = messages
    return message


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("sign", [1, -1])
def test_first_bad_sample_at_the_int16_headroom_bound(order, sign):
    # a raw rail-to-rail history, then the widest residual a field holds, toward the same side
    history = _rail_history(order, sign)
    widest = 63 if sign > 0 else -64
    value = _predict(history, order) + widest
    assert (2**order - 1) * 2047 < abs(value) <= (2**order - 1) * 2048 + 64 < 1 << 15
    words = [encoder._PACKERS[1]([x]) for x in history] + [encoder._PACKERS[2]([widest, 0])]
    for frames in (words, [None] + words, [0x3005, None] + words):  # after an erasure, L raw samples resync
        message = _same_error(frames, order + 2 + (frames[0] == 0x3005), order)
        assert message == f"reconstructed sample {value} outside the 12-bit range"


def test_first_bad_sample_is_reported_when_a_later_one_wraps_into_range():
    # at order 4 the first bad sample is -30,777; the samples after it grow
    # cubically, and the fourth after it is -17 mod 2**16
    order, history = 4, _rail_history(4, -1)
    residuals = [-64] + [0] * 7
    xs = list(history)
    for e in residuals:
        xs.append(_predict(xs[-order:], order) + e)
    wrapped = [(x + (1 << 15)) % (1 << 16) - (1 << 15) for x in xs]
    assert xs[order] == -30_777 and wrapped[order + 4] == -17 and xs[order + 4] < -(1 << 15)
    words = [encoder._PACKERS[1]([x]) for x in history]
    words += [encoder._PACKERS[2](residuals[:2]), encoder._PACKERS[6](residuals[2:])]
    for frames in (words, [None] + words):
        assert _same_error(frames, len(xs), order) == "reconstructed sample -30777 outside the 12-bit range"


# The rebuild adds a step function to the running sums of the fields: at each
# raw sample it steps by the correction from the residual-coded L-th difference
# to the raw value. A stream with no raw sample after the L zeros of history
# takes no step, one of raw samples only has no residual run to rebuild, and
# raw runs at either end put a step on the first or the last sample.


def _is_raw_word(word: int) -> bool:
    return decoder.parse_header(word).tag == "E"


def _rebuild_edges(order: int) -> dict[str, tuple[list[int], list[int]]]:
    """(samples, words) of valid streams at each edge of the rebuild's step function."""
    smooth = np.rint(300 * np.sin(np.arange(400) * (2 * np.pi / 200))).astype(np.int64)
    jumps = np.array([1500, -1500] * 3)
    raw_only = np.random.default_rng(order).integers(-2048, 2048, size=64)
    edges = {"raw_runs_first_and_last": np.concatenate([jumps, smooth, jumps]), "one_sample": np.array([2047])}
    cases = {name: (xs.tolist(), encoder.encode_channel(xs, _config(order, 0)).tolist()) for name, xs in edges.items()}
    e = predictor.residuals(smooth, order).tolist()  # all within a B frame's 7-bit fields
    cases["no_raw"] = (smooth.tolist(), [encoder._PACKERS[2](e[i : i + 2]) for i in range(0, len(e), 2)])
    cases["raw_only"] = (raw_only.tolist(), [encoder._PACKERS[1]([x]) for x in raw_only.tolist()])
    return cases


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_rebuild_edge_cases_match_the_scalar_oracle(order):
    cases = _rebuild_edges(order)
    tags = {name: [_is_raw_word(w) for w in words] for name, (_, words) in cases.items()}
    assert not any(tags["no_raw"]) and all(tags["raw_only"]) and tags["one_sample"] == [True]
    first_last = tags["raw_runs_first_and_last"]
    assert first_last[0] and first_last[-1] and not all(first_last)
    for name, (xs, words) in cases.items():
        assert decoder.decode_channel(words, len(xs), order) == decode_channel_scalar(words, len(xs), order) == xs
        # an erasure in the first frame, then one in the last
        for frames in ([None] + words[1:], words[:-1] + [None]):
            got = decoder.decode_resilient(frames, len(xs), order)
            assert got == decode_resilient_scalar(frames, len(xs), order), name
    # one sample more than the single raw frame carries, or a two-sample frame for one sample
    assert _same_error([0x37FF], 2, order) == "frame stream ended at 1 of 2 samples"
    surplus = encoder._PACKERS[2]([1, 1])
    assert _same_error([surplus], 1, order) == "frame stream carries more than the declared 1 samples"


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_every_single_and_adjacent_pair_erasure_matches_the_scalar_oracle(order):
    # One short stream of all five frame types: raw runs at both ends, D frames
    # from a flat stretch, then a walk whose steps grow through the widths.
    # Erasing each frame, raw ones included, then each adjacent pair covers a
    # lost Type E frame, which must not count as raw, and losses at the stop mark.
    rng = np.random.default_rng(order)
    steps = np.concatenate([rng.integers(-s, s + 1, size=8) for s in (1, 3, 9, 27, 81)])
    jumps = [1500, -1500] * 2
    xs = jumps + [0] * 24 + (np.cumsum(steps) >> (order - 1)).tolist() + jumps
    words = encoder.encode_channel(np.array(xs), _config(order, 0)).tolist()
    tags = [decoder.parse_header(w).tag for w in words]
    assert set(tags) == set("ABCDE") and tags[0] == tags[-1] == "E"
    assert decoder.decode_resilient(words, len(xs), order) == decode_resilient_scalar(words, len(xs), order)
    for width in (1, 2):
        for i in range(len(words) - width + 1):
            frames = words[:i] + [None] * width + words[i + width :]
            got = decoder.decode_resilient(frames, len(xs), order)
            assert got == decode_resilient_scalar(frames, len(xs), order), (width, i, tags[i])


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_list_int64_and_big_endian_uint16_words_decode_alike(order):
    xs = _signal("walk", order, 500)
    words = encoder.encode_channel(xs, _config(order, 13)).tolist()
    rail = [0x37FF] * order + [encoder._PACKERS[2]([63, 0])]  # a raw rail, then a residual past it
    streams = [
        (words, len(xs)),
        (words[:9] + [0x2ABC] + words[9:], len(xs)),  # a reserved header
        (words, len(xs) - 1),  # a surplus
        (words[:-1], len(xs)),  # truncated
        (rail, order + 2),  # out of range
    ]
    kinds = set()
    for stream, count in streams:
        for lost in (None, np.arange(len(stream)) % 7 == 5):

            def core(words, count, order):
                out, known = decoder._decode(words, count, order, lost)
                return out.dtype, out.tobytes(), known.tobytes()

            inputs = (list(stream), np.array(stream, dtype=np.int64), np.array(stream, dtype=">u2"))
            first, *rest = [_samples_or_error(core, words, count, order) for words in inputs]
            assert all(got == first for got in rest)
            kinds.add(first[0])
    assert kinds == {np.dtype(np.int16), TruncationError, CorruptStreamError, ReservedHeaderError}
    assert decoder._decode(np.array(words, dtype=">u2"), len(xs), order)[0].tolist() == xs


# Streams for the run-boundary scan. Raw samples between residual runs come
# from resyncs (every 2-20 samples, one raw frame each) or from spikes, whose
# L-th differences are wide only in the middle at these heights: either way
# fewer than L raw samples separate most runs, so their exits chain. The maps
# composed along such chains lose factors of 2 and reach 0 mod 2**16 (the
# rebuild's int16) within about a hundred runs; lockstep streams repeat a gap
# and run length whose map is not nilpotent mod 2, so the doubling scan reaches
# stride 2**10 at order 2 and 2**11 at orders 3 and 4.
SPIKE_HEIGHTS = {1: (70, 500), 2: (33, 55), 3: (23, 50), 4: (12, 45)}
RESYNC_EVERY = {1: 3, 2: 8, 3: 13, 4: 19}
LOCKSTEP_RUNS = {1: [3], 2: [2], 3: [2, 3]}  # frame sizes of the run after each gap of 1, 2, 3 raw samples
CHAINS = [(order, kind) for order in range(1, 5) for kind in ("resync", "spikes")]
CHAINS += [(order, "lockstep") for order in range(2, 5)]


def _spiky(order: int, seed: int, n: int) -> np.ndarray:
    """A slow random walk with a spike every 2-20 samples."""
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.integers(-1, 2, size=n))
    at = np.cumsum(rng.integers(2, 21, size=n // 2))
    at = at[at < n]
    lo, hi = SPIKE_HEIGHTS[order]
    x[at] += rng.integers(lo, hi + 1, size=at.size) * rng.choice([-1, 1], size=at.size)
    return x


def _lockstep(order: int) -> tuple[list[int], list[int]]:
    """A slow walk framed by hand: for each gap g < L in turn, 1,100 times g raw frames then one run."""
    sizes = [size for gap in range(1, order) for _ in range(1_100) for size in [1] * gap + LOCKSTEP_RUNS[gap]]
    x = np.cumsum(np.random.default_rng(order).integers(-1, 2, size=sum(sizes)))
    e = predictor.residuals(x, order)
    at = np.cumsum(sizes) - sizes
    words = [encoder._PACKERS[n]((x if n == 1 else e)[q : q + n].tolist()) for q, n in zip(at.tolist(), sizes)]
    return x.tolist(), words


def _chained(kind: str, order: int) -> tuple[list[int], list[int]]:
    """(samples, words) of a stream with many short residual runs."""
    if kind == "lockstep":
        return _lockstep(order)
    if kind == "resync":
        xs = np.cumsum(np.random.default_rng(order).integers(-1, 2, size=25_000))
        return xs.tolist(), _one_raw_frame_per_resync(xs, order, RESYNC_EVERY[order])
    xs = _spiky(order, order, 20_000)
    return xs.tolist(), encoder.encode_channel(xs, _config(order, 0)).tolist()


def _one_raw_frame_per_resync(xs, order: int, interval: int) -> list[int]:
    """The encoder core's words with a single forced raw frame, not two, at each resync."""
    x, err = predictor.narrow_residuals(xs, order)
    starts = encoder._frame_walk(encoder._frame_counts(encoder.width_classes(err)), interval, 1)
    return encoder._pack(x, err, starts).tolist()


def _residual_runs(words) -> tuple[np.ndarray, np.ndarray]:
    """Sample index of each residual run's first and last sample."""
    counts = decoder._sample_counts(np.asarray(words, dtype=np.int64))
    raw = np.concatenate([[True], np.repeat(counts == 1, counts), [True]])
    edges = np.diff(raw.view(np.int8))
    return np.flatnonzero(edges == -1), np.flatnonzero(edges == 1) - 1


def _longest_chain(firsts, lasts, order) -> int:
    """Most consecutive runs with fewer than L raw samples between neighbours."""
    breaks = np.flatnonzero(np.concatenate([[True], firsts[1:] - lasts[:-1] - 1 >= order, [True]]))
    return int(np.diff(breaks).max())


@pytest.mark.parametrize("order, kind", CHAINS)
def test_chained_runs_match_the_scalar_oracle(order, kind):
    xs, words = _chained(kind, order)
    firsts, lasts = _residual_runs(words)
    assert firsts.size >= 1100
    if kind != "resync":
        assert set(range(1, order)) <= set((firsts[1:] - lasts[:-1] - 1).tolist())
    if kind == "lockstep":
        assert _longest_chain(firsts, lasts, order) == firsts.size  # one chain
    assert decoder.decode_channel(words, len(xs), order) == decode_channel_scalar(words, len(xs), order) == xs
    rng = np.random.default_rng(order)
    for erasure in ("none", "random", "random", "burst"):
        frames = _erase(words, erasure, rng)
        got = decoder.decode_resilient(frames, len(xs), order)
        assert got == decode_resilient_scalar(frames, len(xs), order)


@pytest.mark.parametrize("order, kind", [(order, kind) for order, kind in CHAINS if order > 1])
def test_first_bad_sample_in_a_chained_run_matches_the_oracle(order, kind):
    # Raw samples at the rail before a run that chains to the run before it
    # push the run's first or second sample out of range; its value rests on
    # the exit of every run before it in the chain.
    xs, words = _chained(kind, order)
    counts = decoder._sample_counts(np.asarray(words, dtype=np.int64))
    frame_of = np.repeat(np.arange(len(words)), counts)  # frame index of each sample
    firsts, lasts = _residual_runs(words)
    chained = np.flatnonzero(firsts[1:] - lasts[:-1] - 1 < order) + 1
    rng = np.random.default_rng(order)
    for r in [*rng.choice(chained, size=3, replace=False), chained[-1]]:
        damaged = list(words)
        for s in range(lasts[r - 1] + 1, firsts[r]):
            damaged[frame_of[s]] = 0x37FF  # a raw 2047
        for decode, scalar in ((decoder.decode_channel, decode_channel_scalar), (decoder.decode_resilient, decode_resilient_scalar)):
            with pytest.raises(CorruptStreamError) as core:
                decode(damaged, len(xs), order)
            with pytest.raises(CorruptStreamError) as oracle:
                scalar(damaged, len(xs), order)
            assert str(core.value) == str(oracle.value)
        frames = _erase(damaged, "random", rng)
        assert _outcome(decoder.decode_resilient, frames, len(xs), order) == _outcome(
            decode_resilient_scalar, frames, len(xs), order
        )


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_run_maps_step_the_predictor_exactly(order):
    # column l of C**length is the exit window that the scalar predictor reaches from unit window l
    lengths = np.arange(1, 601)
    maps = decoder._run_maps(lengths, order).astype(np.int64) % (1 << 16)
    for l in range(order):
        xs = [int(i == l) for i in range(order)]
        for length in lengths.tolist():
            xs.append(predict(xs[: -order - 1 : -1], order) % (1 << 16))
            assert maps[length - 1, :, l].tolist() == xs[-order:], (length, l)


def _matrix_power_mod16(C: list[list[int]], e: int) -> list[list[int]]:
    """C**e mod 2**16 by square-and-multiply over Python ints."""
    L = len(C)

    def mul(A, B):
        return [[sum(A[i][t] * B[t][j] for t in range(L)) % (1 << 16) for j in range(L)] for i in range(L)]

    out = [[int(i == j) for j in range(L)] for i in range(L)]
    while e:
        out, C, e = (mul(out, C) if e & 1 else out), mul(C, C), e >> 1
    return out


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_run_maps_are_exact_at_the_base_256_digit_boundaries(order):
    C = [[int(j == i + 1) for j in range(order)] for i in range(order - 1)]
    C.append(list(predictor.coefficients(order)[::-1]))
    lengths = [255, 256, 65_535, 65_536, (1 << 24) - 1, (1 << 24) + 1, (1 << 32) - 1, (1 << 32) + 1, 1 << 40, (1 << 63) - 1]
    maps = decoder._run_maps(np.array(lengths, dtype=np.int64), order).astype(np.int64) % (1 << 16)
    for length, M in zip(lengths, maps.tolist()):
        assert M == _matrix_power_mod16(C, length), length


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_a_run_past_2_to_the_21_round_trips(order):
    # A length past 2**21 has three base-256 digits, so its run map is a product of three table entries.
    # Escapes before the long run give it an entry window that is not all zeros.
    n_long = (1 << 21) + 5_000
    wave = np.rint(1500 * np.sin(np.arange(n_long) * (2 * np.pi / (1 << 17)))).astype(np.int64)
    head = _spiky(order, 6, 1_000)
    xs = np.concatenate([head, head[-1] + wave, head[-1] + wave[-1] + _spiky(order, 7, 5_000)])
    words = encoder.encode_channel(xs, _config(order, 0))
    firsts, lasts = _residual_runs(words)
    assert (lasts - firsts + 1).max() > 1 << 21
    assert firsts.size > 200 and _longest_chain(firsts, lasts, order) > (order > 1)
    out, known = decoder._decode(words, xs.size, order)
    assert np.array_equal(out, xs) and known.all()


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda v: encoder.encode_channel([3, v]), "sample"),
        (lambda v: encoder.encode_channels([[3, v]]), "sample"),
        (lambda v: bench.LossHarness([[3, v]]), "sample"),
        (lambda v: decoder.decode_channel([0x3003, v], 2, 1), "frame word"),
        (lambda v: decoder.decode_resilient([0x3003, None, v], 2, 1), "frame word"),
    ],
    # the LossHarness case keeps the id of encode_multichannel, the stream encoder it replaced
    ids=["encode_channel", "encode_channels", "encode_multichannel", "decode_channel", "decode_resilient"],
)
# an array in a list makes numpy read the list as ragged; the message still names the array
@pytest.mark.parametrize("value", [5.7, 12293.5, 5.0, 1 << 63, -(1 << 70), np.array([12292])])
def test_array_entry_points_reject_what_is_not_an_integer(call, what, value):
    with pytest.raises(ValueError, match=f"^{what} {re.escape(repr(value))} "):
        call(value)


# ---------------------------------------------------------------------------
# The encoder core's word widths: int16 samples and residuals, int8 width
# classes, uint16 words


def test_width_classes_and_width_list_match_min_width_class_for_every_16_bit_pattern():
    patterns = np.arange(1 << 16, dtype=np.uint16)
    expected = [encoder.min_width_class(v) for v in patterns.view(np.int16).tolist()]
    classes = encoder.width_classes(patterns.view(np.int16))
    assert classes.dtype == np.int8 and classes.tolist() == expected
    assert encoder.width_classes(patterns.view(np.int16).astype(np.int64)).tolist() == expected
    # the streaming encoder's list, indexed by e & 0xFFFF
    assert encoder._width_list() == expected and all(type(w) is int for w in encoder._width_list())


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_frame_counts_match_the_priority_loop_on_long_width_arrays(dtype):
    rng = np.random.default_rng(20)
    for kind in ("all_D", "all_E", "mixed", "mostly_D", "mostly_E"):
        for n in [*range(13), *rng.integers(13, 200_000, size=6).tolist()]:
            widths = _walk_widths(kind, n, seed=int(rng.integers(1 << 32))).astype(dtype)
            got = encoder._frame_counts(widths)
            assert got.dtype == np.int8
            assert np.array_equal(got, frame_counts_priority(widths)), (kind, n)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("interval", [0, 3, 7, 1440])
def test_encoder_core_matches_the_scalar_encoder_rail_to_rail(order, interval):
    # alternating rails give the widest residual of each order: +-32,760 at order 4
    rails = [predictor.SAMPLE_MAX, predictor.SAMPLE_MIN] * 800
    assert np.abs(predictor.residuals(rails, order)).max() == 4095 << (order - 1)
    cfg = _config(order, interval)
    for n in [*range(7), len(rails)]:
        assert encoder.encode_channel(rails[:n], cfg).tolist() == _streamed(ChannelEncoderScalar(cfg), rails[:n]), n


def test_narrow_residuals_and_width_classes_past_int16():
    xs = _signal("walk", 5, 500)
    for order in (1, 2, 3, 4):
        x, err = predictor.narrow_residuals(xs, order)
        assert x.dtype == err.dtype == np.int16
        assert x.tolist() == xs and err.tolist() == predictor.residuals(xs, order).tolist()
    # residuals past int16 are ESC, as the magnitude lookup before the table gave them
    e = np.array([0, 1, -2, 63, -64, 64, -65, 32767, -32768, 32768, -32769, 1 << 40, -(1 << 62), 2**63 - 1, -(2**63)])
    magnitude = np.minimum(e ^ (e >> 63), 64)
    assert encoder.width_classes(e).tolist() == [encoder.min_width_class(int(m)) for m in magnitude]
    assert encoder.width_classes([]).size == 0
