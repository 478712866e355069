"""Width classification, frame selection, packing, and channel encoding."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pending, queue_of
import bitbuffer as bitio
from ecgz import encoder
from ecgz.encoder import (
    ESC,
    FRAME_A,
    FRAME_B,
    FRAME_C,
    FRAME_D,
    FRAME_E,
    FRAME_TYPES,
    PRIORITY,
    EncoderConfig,
)
from oracle import _enabled_tags, pack_scalar
from oracle import select_frame as oracle_select_frame


# ---------------------------------------------------------------------------
# Width classes


def oracle_width(e: int) -> int:
    """Ascending scan of the two's-complement ranges, the slow way."""
    for c in encoder.WIDTH_CLASSES:
        if -(1 << (c - 1)) <= e <= (1 << (c - 1)) - 1:
            return c
    return ESC


def test_width_class_frozen_examples():
    assert encoder.min_width_class(0) == 2
    assert encoder.min_width_class(1) == 2
    assert encoder.min_width_class(-2) == 2
    assert encoder.min_width_class(2) == 3
    assert encoder.min_width_class(-3) == 3
    assert encoder.min_width_class(15) == 5
    assert encoder.min_width_class(-16) == 5
    assert encoder.min_width_class(16) == 7
    assert encoder.min_width_class(-64) == 7
    assert encoder.min_width_class(64) == ESC
    assert encoder.min_width_class(-8190) == ESC


@given(st.integers(min_value=-8192, max_value=8191))
def test_width_class_matches_range_oracle(e):
    assert encoder.min_width_class(e) == oracle_width(e)


@given(st.lists(st.integers(min_value=-8192, max_value=8191), max_size=100))
def test_vectorized_width_classes_match_scalar(errors):
    got = encoder.width_classes(np.array(errors, dtype=np.int64))
    assert got.tolist() == [encoder.min_width_class(e) for e in errors]


def test_flush_rejects_a_queued_float_at_every_queue_depth():
    # the float's residual is wide, so no push packs it and it waits in the queue for the flush
    depths = set()
    for prefix in range(12):
        enc = encoder.ChannelEncoder(EncoderConfig(resync_interval_samples=0))
        for x in range(prefix):
            enc.push_sample(x)
        enc.push_sample(1000.5)
        depths.add(len(enc._xs))
        with pytest.raises(ValueError, match=r"^sample 1000\.5 is not an integer"):
            enc.flush()
    assert depths == {1, 2, 3, 4, 5}


# ---------------------------------------------------------------------------
# Frame table structure


def test_every_frame_type_fills_exactly_sixteen_bits():
    for ft in FRAME_TYPES.values():
        assert ft.header_len + ft.field_width * ft.field_count == 16


def test_headers_are_prefix_free():
    headers = {ft.tag: format(ft.header_bits, f"0{ft.header_len}b") for ft in FRAME_TYPES.values()}
    headers["reserved"] = format(encoder.RESERVED_HEADER_BITS, "04b")
    items = list(headers.values())
    for i, a in enumerate(items):
        for j, b in enumerate(items):
            if i != j:
                assert not b.startswith(a), (a, b)


def test_priority_runs_densest_first():
    assert [ft.tag for ft in PRIORITY] == ["D", "C", "A", "B", "E"]


# ---------------------------------------------------------------------------
# Frame enable and selection


def frame_enable(errors) -> set[str]:
    return _enabled_tags([p.width for p in queue_of(errors)])


def test_frame_enable_examples():
    assert frame_enable([0, 0, 0, 0, 0, 0]) == {"D", "C", "A", "B", "E"}
    assert frame_enable([2, 2, 2, 2, 7, 7]) == {"C", "A", "B", "E"}
    assert frame_enable([4, 4, 4, 2, 2, 2]) == {"A", "B", "E"}
    assert frame_enable([100, 0, 0, 0, 0, 0]) == {"E"}
    assert frame_enable([0, 100]) == {"E"}
    # short queues cannot enable the wider-count types
    assert frame_enable([0, 0, 0, 0]) == {"C", "A", "B", "E"}
    assert frame_enable([0]) == {"E"}


def oracle_select(widths):
    """First priority type whose field count and width the queue satisfies."""
    for ft in PRIORITY:
        if len(widths) >= ft.field_count and all(w <= ft.field_width for w in widths[: ft.field_count]):
            return ft.tag
    raise AssertionError


@given(st.lists(st.sampled_from([2, 3, 5, 7, ESC]), min_size=1, max_size=6))
def test_select_frame_matches_priority_oracle(widths):
    # a queue of one to six samples is the flush's window, padded past its end
    count = encoder._frame_counts(np.array(widths))[0]
    assert encoder._TYPE_BY_COUNT[count].tag == oracle_select(widths)


def test_size_table_matches_the_frame_size_rule_exhaustively():
    table = encoder._size_table()
    classes = [*encoder.WIDTH_CLASSES, ESC]
    assert len(table) == len(classes) ** 6
    for window in itertools.product(classes, repeat=6):
        key = 0
        for w in window:  # the queue front in the highest 4 bits
            key = key << 4 | w
        queue = [encoder.PendingSample(0, 0, w) for w in window]
        assert encoder._TYPE_BY_COUNT[table[key]].tag == oracle_select_frame(queue).tag


def test_pending_resync_forces_type_e():
    # the ramp 1..7 has residuals 1, 0, 0, ...: six of them fill a Type D frame
    for pending, words in ((0, [0x0400]), (1, [0x3001, 0x0000]), (2, [0x3001, 0x3002])):
        enc = encoder.ChannelEncoder(EncoderConfig(resync_interval_samples=0))
        enc.resync_pending = pending
        assert [w for x in range(1, 8) for w in enc.push_sample(x)] == words
        assert enc.resync_pending == 0


# ---------------------------------------------------------------------------
# Packing


def bit_assembled(ftype, payload) -> int:
    """Independent packer: header then fields through the bit buffer."""
    buf = bitio.BitBuffer()
    buf.write_bits(ftype.header_bits, ftype.header_len)
    if ftype.carries_original:
        buf.write_bits(bitio.truncate_bits(payload[0].original, ftype.field_width), ftype.field_width)
    else:
        for p in payload:
            buf.write_bits(bitio.truncate_bits(p.error, ftype.field_width), ftype.field_width)
    cur = bitio.BitCursor(buf)
    return cur.read_bits(16)


def test_pack_frame_frozen_words():
    assert encoder.pack_frame(FRAME_D, queue_of([1, 0, -1, 1, 0, -2])) == 0x04D2
    assert encoder.pack_frame(FRAME_E, [pending(0, original=100)]) == 0x3064
    assert encoder.pack_frame(FRAME_A, queue_of([5, -3, 12])) == 0x97AC
    assert encoder.pack_frame(FRAME_B, queue_of([-1, 0])) == 0x7F80
    assert encoder.pack_frame(FRAME_C, queue_of([3, -4, 0, -1])) == 0x1707
    assert encoder.pack_frame(FRAME_E, [pending(0, original=-2048)]) == 0x3800


def test_pack_frame_validates_payload_length():
    with pytest.raises(ValueError):
        encoder.pack_frame(FRAME_D, queue_of([0] * 5))
    with pytest.raises(ValueError):
        encoder.pack_frame(FRAME_E, queue_of([0, 0]))


def test_pack_frame_rejects_field_overflow():
    bad = [encoder.PendingSample(0, 2, 2)] + queue_of([0] * 5)
    with pytest.raises(AssertionError):
        encoder.pack_frame(FRAME_D, bad)


@pytest.mark.parametrize("count", [1, 2, 3, 4, 6])
def test_packers_match_the_scalar_loop(count):
    ft = encoder._TYPE_BY_COUNT[count]
    header, width = ft.header_bits, ft.field_width
    half = 1 << (width - 1)
    pack = encoder._PACKERS[count]
    rng = np.random.default_rng(count)
    extremes = [[-half] * count, [half - 1] * count, [(-half, half - 1)[j % 2] for j in range(count)]]
    for fields in extremes + rng.integers(-half, half, size=(400, count)).tolist():
        queue = fields + rng.integers(-half, half, size=int(rng.integers(0, 6))).tolist()
        assert pack(queue) == pack_scalar(count, queue)  # only the queue front is packed
    assert pack([0] * count) == header << (width * count)
    assert pack([-1] * count) == (header << (width * count)) | ((1 << width * count) - 1)


def residual_payload(ftype):
    half = 1 << (ftype.field_width - 1)
    return st.lists(
        st.integers(min_value=-half, max_value=half - 1),
        min_size=ftype.field_count,
        max_size=ftype.field_count,
    ).map(queue_of)


@given(
    st.sampled_from(["A", "B", "C", "D"]).flatmap(
        lambda tag: st.tuples(st.just(tag), residual_payload(FRAME_TYPES[tag]))
    )
)
def test_pack_frame_matches_bit_assembly(case):
    tag, payload = case
    ftype = FRAME_TYPES[tag]
    assert encoder.pack_frame(ftype, payload) == bit_assembled(ftype, payload)


@given(st.integers(min_value=-2048, max_value=2047))
def test_pack_type_e_matches_bit_assembly(x):
    payload = [pending(0, original=x)]
    assert encoder.pack_frame(FRAME_E, payload) == bit_assembled(FRAME_E, payload)


# ---------------------------------------------------------------------------
# Whole-channel encoding


def _words(samples, cfg):
    """encode_channel's words as a list, after checking that they are int64."""
    words = encoder.encode_channel(samples, cfg)
    assert words.dtype == np.int64
    return words.tolist()


def test_constant_zero_signal_packs_six_per_frame():
    cfg = EncoderConfig(resync_interval_samples=0)
    assert _words([0] * 12, cfg) == [0x0000, 0x0000]


def test_constant_nonzero_signal_warms_up_through_type_e():
    cfg = EncoderConfig(resync_interval_samples=0)
    words = _words([100] * 20, cfg)
    # residuals are 100, -100, then zeros: two escapes, then 3 x 6 zeros
    assert words == [0x3064, 0x3064, 0x0000, 0x0000, 0x0000]


def test_flush_single_leftover_goes_out_as_type_e():
    cfg = EncoderConfig(resync_interval_samples=0)
    assert _words([0], cfg) == [0x3000]


def test_flush_five_narrow_leftovers_use_c_then_e():
    cfg = EncoderConfig(resync_interval_samples=0)
    assert _words([0] * 5, cfg) == [0x1000, 0x3000]


def test_flush_respects_field_counts_not_priority_order():
    # four width-2 leftovers: D needs six, so C wins
    cfg = EncoderConfig(resync_interval_samples=0)
    assert _words([0] * 4, cfg) == [0x1000]


def test_empty_input_yields_no_frames():
    assert _words([], EncoderConfig()) == []


def frame_tags(words):
    out = []
    for w in words:
        if w & 0x8000:
            out.append("A")
        elif w & 0x4000:
            out.append("B")
        else:
            out.append({0b0000: "D", 0b0001: "C", 0b0011: "E"}[w >> 12])
    return out


def test_resync_interval_forces_adjacent_raw_pairs():
    # steps of +-1 keep every residual narrow, so only forced escapes emit E
    rng = np.random.default_rng(5)
    x = np.cumsum(rng.integers(-1, 2, size=4 * 64 + 30)).astype(np.int64)
    cfg = EncoderConfig(resync_interval_samples=64)
    words = encoder.encode_channel(x, cfg)
    tags = frame_tags(words)
    e_at = [i for i, t in enumerate(tags) if t == "E"]
    assert len(e_at) == 8  # two per completed interval
    pairs = list(zip(e_at[0::2], e_at[1::2]))
    assert all(b == a + 1 for a, b in pairs)
    # each raw frame must carry exactly the input sample at its position
    xs = [int(v) for v in x]
    counts = {"A": 3, "B": 2, "C": 4, "D": 6, "E": 1}
    pos = 0
    for word, tag in zip(words, tags):
        if tag == "E":
            assert bitio.sign_extend(word & 0xFFF, 12) == xs[pos]
        pos += counts[tag]


def test_each_resync_forces_exactly_two_raw_frames():
    # steps of +-1 keep every residual narrow at every order, so only resyncs emit E
    rng = np.random.default_rng(5)
    x = np.cumsum(rng.integers(-1, 2, size=4 * 64 + 30)).astype(np.int64)
    assert encoder.RESYNC_RAW_SAMPLES == 2
    for order in (1, 2, 3, 4):
        cfg = EncoderConfig(resync_interval_samples=64, order=order)
        tags = "".join(frame_tags(encoder.encode_channel(x, cfg)))
        assert tags.count("E") == 4 * 2, order
        assert tags.count("EE") == 4 and "EEE" not in tags, order


def test_sample_count_is_conserved_across_frames():
    rng = np.random.default_rng(11)
    x = rng.integers(-2048, 2048, size=997)
    words = encoder.encode_channel(x, EncoderConfig(resync_interval_samples=100))
    counts = {"A": 3, "B": 2, "C": 4, "D": 6, "E": 1}
    assert sum(counts[t] for t in frame_tags(words)) == 997


signal_st = st.one_of(
    st.lists(st.integers(min_value=-2048, max_value=2047), max_size=200),
    st.builds(
        lambda seed, n, step: np.cumsum(
            np.random.default_rng(seed).integers(-step, step + 1, size=n)
        )
        .clip(-2048, 2047)
        .tolist(),
        st.integers(0, 2**16),
        st.integers(0, 300),
        st.sampled_from([1, 3, 20]),
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    signal_st,
    st.integers(min_value=1, max_value=4),
    st.sampled_from([0, 7, 64, 2048]),
)
def test_streaming_encoder_equals_the_indexed_fast_path(xs, order, interval):
    cfg = EncoderConfig(resync_interval_samples=interval, order=order)
    enc = encoder.ChannelEncoder(cfg)
    streamed = []
    for x in xs:
        streamed.extend(enc.push_sample(int(x)))
    streamed.extend(enc.flush())
    words, positions = (a.tolist() for a in encoder._encode_arrays(xs, cfg))
    assert words == streamed
    assert len(positions) == len(words)
    assert positions == sorted(positions)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**16),
    st.integers(0, 120),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([0, 50]),
)
def test_multichannel_stream_agrees_with_per_channel_arrays(seed, n, nch, interval):
    rng = np.random.default_rng(seed)
    chans = [rng.integers(-600, 600, size=n).tolist() for _ in range(nch)]
    cfg = EncoderConfig(resync_interval_samples=interval, channel_count=nch)
    by_arrays = encoder.encode_channels(chans, cfg)
    round_robin = [(c, chans[c][i]) for i in range(n) for c in range(nch)]
    by_stream = encoder.encode_multichannel(round_robin, cfg)
    for got, want in zip(by_stream.channel_frames, by_arrays.channel_frames, strict=True):
        assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want)
    assert by_stream.emission_log == by_arrays.emission_log


def test_emission_log_is_channel_tagged_and_complete():
    chans = [[0] * 13, [500] * 13]
    cfg = EncoderConfig(channel_count=2, resync_interval_samples=0)
    result = encoder.encode_channels(chans, cfg)
    assert sorted(ch for ch, _ in result.emission_log) == sorted(
        [0] * len(result.channel_frames[0]) + [1] * len(result.channel_frames[1])
    )
    for ch in (0, 1):
        assert [w for c, w in result.emission_log if c == ch] == result.channel_frames[ch].tolist()


def test_encode_channels_validates_shape():
    cfg = EncoderConfig(channel_count=2)
    with pytest.raises(ValueError, match=r"^got 1 channels but config says 2$"):
        encoder.encode_channels([[0, 1]], cfg)
    with pytest.raises(ValueError, match=r"^channel arrays must have equal lengths; stream unequal channels instead$"):
        encoder.encode_channels([[0, 1], [0]], cfg)


def test_multichannel_stream_rejects_unknown_channel():
    cfg = EncoderConfig(channel_count=2)
    with pytest.raises(ValueError):
        encoder.encode_multichannel([(2, 0)], cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        EncoderConfig(resync_interval_samples=-1)
    with pytest.raises(ValueError):
        EncoderConfig(channel_count=0)
    with pytest.raises(ValueError):
        EncoderConfig(channel_count=5)
    with pytest.raises(ValueError):
        EncoderConfig(order=7)
    with pytest.raises(TypeError):  # the raw samples per resync are fixed, not configured
        EncoderConfig(resync_e_frames=1)
