"""Frame parsing, lossless decoding, and erasure-resilient decoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pending, queue_of
from ecgz import decoder, encoder
from ecgz.encoder import FRAME_TYPES, EncoderConfig
from ecgz.errors import CorruptStreamError, EcgzError, ReservedHeaderError, TruncationError
from oracle import decode_resilient_scalar, frame_sample_count

FIELD_COUNTS = {"A": 3, "B": 2, "C": 4, "D": 6, "E": 1}


# ---------------------------------------------------------------------------
# Header parsing and frame unpacking


def test_parse_header_recognizes_every_type():
    assert decoder.parse_header(0x04D2).tag == "D"
    assert decoder.parse_header(0x1707).tag == "C"
    assert decoder.parse_header(0x3064).tag == "E"
    assert decoder.parse_header(0x7F80).tag == "B"
    assert decoder.parse_header(0x97AC).tag == "A"
    assert decoder.parse_header(0x8000).tag == "A"
    assert decoder.parse_header(0xFFFF).tag == "A"
    assert decoder.parse_header(0x4000).tag == "B"
    assert decoder.parse_header(0x0000).tag == "D"


def test_reserved_header_raises():
    for word in (0x2000, 0x2ABC, 0x2FFF):
        with pytest.raises(ReservedHeaderError):
            decoder.parse_header(word)


def test_every_word_parses_by_its_header_bits_exhaustively():
    # parse_header and _sample_counts share one table; check both against the FrameType headers,
    # and the core's field table, zero-padded to 6 fields, against unpack_frame
    counts = decoder._sample_counts(np.arange(1 << 16))
    table = decoder._field_table()
    assert table.shape == (6, 1 << 16) and table.dtype == np.int16
    for word in range(1 << 16):
        matching = [ft for ft in FRAME_TYPES.values() if word >> (16 - ft.header_len) == ft.header_bits]
        if word >> 12 == encoder.RESERVED_HEADER_BITS:
            assert matching == [] and counts[word] == 0 and not table[:, word].any()
            with pytest.raises(ReservedHeaderError):
                decoder.parse_header(word)
        else:
            assert decoder.parse_header(word) == matching[0] and len(matching) == 1
            assert counts[word] == matching[0].field_count
            fields = decoder.unpack_frame(word).fields
            assert table[:, word].tolist() == fields + [0] * (6 - len(fields))


def test_sample_counts_follow_parse_header_on_every_word_and_on_non_words():
    # the core's clipped lookup: a frame's field count, and 0 wherever parse_header raises
    def rule(word):
        try:
            return decoder.parse_header(word).field_count
        except (ValueError, ReservedHeaderError):
            return 0

    words = [*range(1 << 16), -1, -4096, -4097, 0x10000, 2**40, -(2**63), 2**63 - 1]
    counts = decoder._sample_counts(np.array(words, dtype=np.int64))
    assert counts.tolist() == [rule(w) for w in words]
    assert counts[-7:].tolist() == [0] * 7


def test_parse_header_rejects_non_words():
    with pytest.raises(ValueError):
        decoder.parse_header(-1)
    with pytest.raises(ValueError):
        decoder.parse_header(0x10000)


def test_unpack_frozen_words():
    assert decoder.unpack_frame(0x04D2) == (FRAME_TYPES["D"], [1, 0, -1, 1, 0, -2])
    assert decoder.unpack_frame(0x3064) == (FRAME_TYPES["E"], [100])
    assert decoder.unpack_frame(0x97AC) == (FRAME_TYPES["A"], [5, -3, 12])
    assert decoder.unpack_frame(0x7F80) == (FRAME_TYPES["B"], [-1, 0])
    assert decoder.unpack_frame(0x1707) == (FRAME_TYPES["C"], [3, -4, 0, -1])
    assert decoder.unpack_frame(0x3800) == (FRAME_TYPES["E"], [-2048])


def test_frame_sample_count():
    assert frame_sample_count(0x04D2) == 6
    assert frame_sample_count(0x3064) == 1
    assert frame_sample_count(0x97AC) == 3
    assert frame_sample_count(0x7F80) == 2
    assert frame_sample_count(0x1707) == 4


def residual_payload(ftype):
    half = 1 << (ftype.field_width - 1)
    return st.lists(
        st.integers(min_value=-half, max_value=half - 1),
        min_size=ftype.field_count,
        max_size=ftype.field_count,
    )


@given(
    st.sampled_from(["A", "B", "C", "D"]).flatmap(
        lambda tag: st.tuples(st.just(tag), residual_payload(FRAME_TYPES[tag]))
    )
)
def test_unpack_inverts_pack_for_residual_frames(case):
    tag, errors = case
    ftype = FRAME_TYPES[tag]
    word = encoder.pack_frame(ftype, queue_of(errors))
    assert decoder.unpack_frame(word) == (ftype, errors)


@given(st.integers(min_value=-2048, max_value=2047))
def test_unpack_inverts_pack_for_raw_frames(x):
    word = encoder.pack_frame(FRAME_TYPES["E"], [pending(0, original=x)])
    assert decoder.unpack_frame(word) == (FRAME_TYPES["E"], [x])


def repack(ftype, fields) -> int:
    if ftype.carries_original:
        return encoder.pack_frame(ftype, [pending(0, original=fields[0])])
    return encoder.pack_frame(ftype, [encoder.PendingSample(0, e, ftype.field_width) for e in fields])


@given(
    st.sampled_from(["A", "B", "C", "D", "E"]).flatmap(
        lambda tag: st.tuples(st.just(tag), residual_payload(FRAME_TYPES[tag]))
    )
)
def test_pack_inverts_unpack_on_valid_words(case):
    tag, fields = case
    word = repack(FRAME_TYPES[tag], fields)
    ftype, decoded = decoder.unpack_frame(word)
    assert repack(ftype, decoded) == word


# ---------------------------------------------------------------------------
# Lossless decoding


def walk(seed: int, n: int, step: int = 20) -> list:
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.integers(-step, step + 1, size=n)).clip(-2048, 2047).tolist()


@settings(max_examples=50, deadline=None)
@given(
    st.integers(0, 2**16),
    st.integers(0, 400),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([0, 32, 2048]),
)
def test_decode_inverts_encode(seed, n, order, interval):
    xs = walk(seed, n)
    cfg = EncoderConfig(resync_interval_samples=interval, order=order)
    words = encoder.encode_channel(xs, cfg)
    assert decoder.decode_channel(words, n, order) == xs


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=-2048, max_value=2047), max_size=150), st.integers(1, 4))
def test_decode_inverts_encode_on_arbitrary_sequences(xs, order):
    cfg = EncoderConfig(resync_interval_samples=17, order=order)
    words = encoder.encode_channel(xs, cfg)
    assert decoder.decode_channel(words, len(xs), order) == xs


def test_decode_detects_surplus_samples():
    words = encoder.encode_channel([0] * 6, EncoderConfig(resync_interval_samples=0))
    with pytest.raises(CorruptStreamError):
        decoder.decode_channel(words, 5)


def test_decode_detects_truncated_streams():
    xs = walk(3, 60)
    words = encoder.encode_channel(xs, EncoderConfig(resync_interval_samples=0))
    with pytest.raises(TruncationError):
        decoder.decode_channel(words[:-1], 60)


def test_decode_propagates_reserved_headers():
    with pytest.raises(ReservedHeaderError):
        decoder.decode_channel([0x2000], 1)


def test_decode_rejects_impossible_reconstructions():
    # raw 2047 twice, then a positive residual pushes past the top rail
    words = [0x37FF, 0x37FF, encoder.pack_frame(FRAME_TYPES["B"], queue_of([63, 0]))]
    with pytest.raises(CorruptStreamError):
        decoder.decode_channel(words, 4)


# ---------------------------------------------------------------------------
# Erasure-resilient decoding


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**16),
    st.integers(0, 300),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([0, 40]),
)
def test_resilient_decode_equals_plain_decode_without_losses(seed, n, order, interval):
    xs = walk(seed, n)
    cfg = EncoderConfig(resync_interval_samples=interval, order=order)
    words = encoder.encode_channel(xs, cfg)
    out, spans = decoder.decode_resilient(words, n, order)
    assert out == xs
    assert spans == []


def lose(words, k):
    lossy = list(words)
    lossy[k] = None
    return lossy


def sample_position(words, k) -> int:
    """Index of the first sample carried by frame k."""
    return sum(frame_sample_count(w) for w in words[:k])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**16), st.integers(0, 10**6))
def test_single_loss_keeps_every_known_value_correct(seed, kseed):
    xs = walk(seed, 400)
    cfg = EncoderConfig(resync_interval_samples=48)
    words = encoder.encode_channel(xs, cfg)
    k = kseed % len(words)
    out, spans = decoder.decode_resilient(lose(words, k), len(xs), 2)
    dropped = frame_sample_count(words[k])
    assert len(out) == len(xs) - dropped

    p = sample_position(words, k)
    assert out[:p] == xs[:p]
    for got, want in zip(out[p:], xs[p + dropped :]):
        assert got is None or got == want
    # the reported spans are exactly the None runs
    naive = []
    run = None
    for i, v in enumerate(out):
        if v is None and run is None:
            run = i
        elif v is not None and run is not None:
            naive.append((run, i))
            run = None
    if run is not None:
        naive.append((run, len(out)))
    assert spans == naive


def test_recovery_happens_at_the_next_raw_pair():
    xs = walk(12, 400)
    cfg = EncoderConfig(resync_interval_samples=48)
    words = encoder.encode_channel(xs, cfg)
    tags = ["E" if (w >> 12) == 3 else "x" for w in words]
    # drop the first frame, well before the first forced pair
    out, spans = decoder.decode_resilient(lose(words, 0), len(xs), 2)
    assert out[0] is None
    assert len(spans) >= 1
    # everything from the second pair onward is known again
    first_pair = next(i for i in range(len(tags) - 1) if tags[i] == "E" and tags[i + 1] == "E")
    resume = sample_position(words, first_pair + 2) - frame_sample_count(words[0])
    assert all(v is not None for v in out[resume:])


def test_raw_samples_stay_known_while_desynchronized():
    # a triangle wave without resyncs: each turn is the one order-2 residual
    # wider than 7 bits, and 30 zero residuals (five D frames) lie between
    # turns, so every escape goes out as a single raw frame
    xs = (40 * (15 - np.abs((np.arange(300) + 16) % 62 - 31))).tolist()
    words = encoder.encode_channel(xs, EncoderConfig(resync_interval_samples=0)).tolist()
    tags = "".join("E" if (w >> 12) == 3 else "x" for w in words)
    assert tags.count("E") >= 9 and "EE" not in tags
    out, _ = decoder.decode_resilient(lose(words, 1), len(xs), 2)
    # single raw frames never satisfy the default two-sample resync, so
    # only the raw values themselves are known after the loss
    p = sample_position(words, 1)
    known_after = [v for v in out[p:] if v is not None]
    e_words = [w for i, w in enumerate(words) if i > 1 and (w >> 12) == 3]
    assert known_after == [decoder.unpack_frame(w).fields[0] for w in e_words]


def test_higher_order_needs_matching_raw_run_to_resync():
    # small steps keep third differences narrow, so the only raw frames
    # are the forced pairs
    xs = walk(9, 300, step=3)
    cfg = EncoderConfig(resync_interval_samples=64, order=3)
    words = encoder.encode_channel(xs, cfg)
    out, _ = decoder.decode_resilient(lose(words, 0), len(xs), 3)
    # pairs of raw samples cannot rebuild three-deep history, so only
    # the raw values themselves are ever known after the loss
    known = [v for v in out if v is not None]
    e_fields = [
        decoder.unpack_frame(w).fields[0]
        for i, w in enumerate(words)
        if i > 0 and (w >> 12) == 3
    ]
    assert known == e_fields
    assert any(v is None for v in out[-10:])


def _resilient_outcome(decode, frames, count):
    try:
        return decode(frames, count, 2)
    except (ValueError, EcgzError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "frames",
    [
        [0x3003, None, 0x3004, -0.5, 0x3005],  # a float
        [0x3003, None, 0x3004, 12293.5, 0x3005],  # a float inside the 16-bit range
        [0x3003, None, 0x3004, np.array([0x3004]), 0x3005],  # an array
        [0x3003, None, 0x3004, 1 << 70, 0x3005],  # an int beyond int64
        [0x3003, None, 0x3004, 0x1FFFF, 0x3005],  # 17 bits
        [0x3003, None, 0x3004, -3, 0x3005],  # negative
        [None] * 4,
        [0x3003, None, 0x3004, None, 0x0123],
    ],
    ids=["float", "float_in_range", "array", "beyond_int64", "17_bits", "negative", "all_lost", "valid"],
)
@pytest.mark.parametrize("as_generator", [False, True])
def test_resilient_input_checks_match_the_scalar_oracle(frames, as_generator):
    def stream():
        return (w for w in frames) if as_generator else list(frames)

    got = _resilient_outcome(decoder.decode_resilient, stream(), 9)
    assert got == _resilient_outcome(decode_resilient_scalar, stream(), 9)


def test_resilient_rejects_surplus_and_truncation():
    words = encoder.encode_channel([0] * 12, EncoderConfig(resync_interval_samples=0))
    with pytest.raises(CorruptStreamError):
        decoder.decode_resilient(words, 11, 2)
    with pytest.raises(TruncationError):
        decoder.decode_resilient(words[:-1], 12, 2)
    # with an explicit loss a short result is expected, not an error
    out, _ = decoder.decode_resilient([None, words[1]], 12, 2)
    assert len(out) == 6
    # a surplus raises at its frame, before the reserved header after it, as in decode_channel
    words = encoder.encode_channel(list(range(1, 13))).tolist() + [0x2000]
    for decode in (decoder.decode_channel, decoder.decode_resilient):
        with pytest.raises(CorruptStreamError, match="^frame stream carries more than the declared 10 samples$"):
            decode(words, 10, 2)

