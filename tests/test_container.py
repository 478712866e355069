"""Container serialization and the 3-byte wire unit layer."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ecgz
from ecgz import container, decoder, encoder
from ecgz.container import RecordMeta
from ecgz.errors import (
    BadMagicError,
    BadVersionError,
    ContainerError,
    CorruptStreamError,
    CountMismatchError,
    EcgzError,
    TruncationError,
)
from oracle import read_ecgz_scalar, wire_decode_scalar, wire_encode_scalar, write_ecgz_scalar


def meta1(count=6, frames=1):
    return RecordMeta(
        channel_count=1,
        sample_rate_hz=360,
        resync_interval_samples=1440,
        predictor_order=2,
        sample_counts=(count,),
    )


def test_single_channel_header_layout():
    blob = container.write_ecgz(meta1(), [[0x04D2]])
    # magic, version, channels, rate, resync, order, then one count pair
    expect = b"ECGZ" + struct.pack(">BBHIB", 1, 1, 360, 1440, 2) + struct.pack(">II", 6, 1)
    assert blob[: len(expect)] == expect
    assert len(expect) == 21
    assert blob[21:] == b"\x04\xd2"


def test_header_grows_eight_bytes_per_channel():
    meta = RecordMeta(2, 500, 2048, 2, (6, 6))
    blob = container.write_ecgz(meta, [[0x0000], [0x0000]])
    assert len(blob) == 13 + 8 * 2 + 2 * 2


def test_payload_words_are_big_endian():
    blob = container.write_ecgz(meta1(count=2, frames=1), [[0x3064]])
    assert blob[-2:] == b"\x30\x64"


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(0, 2**16),
    st.integers(0, 150),
    st.sampled_from([0, 33]),
)
def test_container_round_trip(nch, seed, n, interval):
    import numpy as np

    rng = np.random.default_rng(seed)
    chans = [rng.integers(-2048, 2048, size=n).tolist() for _ in range(nch)]
    cfg = encoder.EncoderConfig(resync_interval_samples=interval, channel_count=nch)
    frames = encoder.encode_channels(chans, cfg)
    meta = RecordMeta(nch, 250, interval, 2, tuple(n for _ in range(nch)))
    blob = ecgz.compress(chans, 250, cfg)
    assert blob == container.write_ecgz(meta, frames)
    assert all(f.dtype == np.int64 for f in frames)
    got_meta, got_frames = container.read_ecgz(blob)
    assert got_meta == meta
    assert all(f.dtype == np.dtype(">u2") and not f.flags.writeable for f in got_frames)
    assert [f.tolist() for f in got_frames] == [f.tolist() for f in frames]
    decoded = [decoder.decode_channel(f, n, 2) for f in got_frames]
    assert decoded == chans
    meta_arrays, arrays = ecgz.decompress(blob)
    assert meta_arrays == meta
    assert all(a.dtype == np.int16 for a in arrays) and [a.tolist() for a in arrays] == chans
    # without a config, compress resyncs every 2,048 samples at order 2
    assert ecgz.compress(chans, 250) == ecgz.compress(chans, 250, encoder.EncoderConfig(channel_count=nch))


def test_write_rejects_mismatched_channel_lists():
    with pytest.raises(ValueError):
        container.write_ecgz(meta1(), [[0x0000], [0x0000]])


def test_read_rejects_bad_magic():
    blob = container.write_ecgz(meta1(), [[0x0000]])
    with pytest.raises(BadMagicError):
        container.read_ecgz(b"JUNK" + blob[4:])


def test_read_rejects_unknown_version():
    blob = bytearray(container.write_ecgz(meta1(), [[0x0000]]))
    blob[4] = 9
    with pytest.raises(BadVersionError):
        container.read_ecgz(bytes(blob))


def test_read_rejects_truncation_everywhere():
    blob = container.write_ecgz(meta1(), [[0x0000]])
    for cut in (3, 7, 15, len(blob) - 1):
        with pytest.raises(TruncationError):
            container.read_ecgz(blob[:cut])


def test_read_rejects_surplus_bytes():
    blob = container.write_ecgz(meta1(), [[0x0000]])
    with pytest.raises(CountMismatchError):
        container.read_ecgz(blob + b"\x00\x00")


def test_read_rejects_invalid_header_fields():
    blob = bytearray(container.write_ecgz(meta1(), [[0x0000]]))
    blob[5] = 0  # channel count
    with pytest.raises(ContainerError):
        container.read_ecgz(bytes(blob))
    blob = bytearray(container.write_ecgz(meta1(), [[0x0000]]))
    blob[12] = 9  # predictor order
    with pytest.raises(ContainerError):
        container.read_ecgz(bytes(blob))


def test_record_meta_validation():
    with pytest.raises(ValueError):
        RecordMeta(0, 360, 0, 2, ())
    with pytest.raises(ValueError):
        RecordMeta(5, 360, 0, 2, (1,) * 5)
    with pytest.raises(ValueError):
        RecordMeta(1, -1, 0, 2, (1,))
    with pytest.raises(ValueError):
        RecordMeta(1, 360, 0, 9, (1,))
    with pytest.raises(ValueError):
        RecordMeta(1, 360, 0, 2, (1, 2))
    with pytest.raises(ValueError):
        RecordMeta(1, 360, 0, 2, (1 << 32,))


# ---------------------------------------------------------------------------
# Wire units


def test_wire_unit_layout():
    data = container.wire_encode([(1, 0x04D2)])
    # channel in the top two tag bits, sequence (mod 64) below
    assert data == bytes([0x40, 0x04, 0xD2])
    data = container.wire_encode([(0, 0xFFFF)] * 65)
    assert data[0] == 0x00
    assert data[3] == 0x01
    assert data[64 * 3] == 0x00  # sequence wraps at 64


def test_wire_sequences_count_per_channel():
    log = [(0, 0x1111), (1, 0x2222), (0, 0x3333)]
    data = container.wire_encode(log)
    assert data[0] == 0x00
    assert data[3] == 0x40
    assert data[6] == 0x01  # channel 0 again, its second unit


def test_wire_encode_validates():
    with pytest.raises(ValueError):
        container.wire_encode([(4, 0)])
    with pytest.raises(ValueError):
        container.wire_encode([(0, 0x10000)])


def test_wire_round_trip_no_loss():
    log = [(0, 0x04D2), (1, 0x3064), (0, 0x97AC), (1, 0x0000)]
    result = container.wire_decode(container.wire_encode(log), 2)
    assert result.channels == [[0x04D2, 0x97AC], [0x3064, 0x0000]]
    assert result.gaps == []


def drop_units(data: bytes, indices) -> bytes:
    units = [data[i : i + 3] for i in range(0, len(data), 3)]
    return b"".join(u for i, u in enumerate(units) if i not in set(indices))


def test_wire_single_drop_is_located_exactly():
    log = [(0, w) for w in range(100, 140)]
    data = drop_units(container.wire_encode(log), {7})
    result = container.wire_decode(data, 1, expected_frame_counts=[40])
    assert len(result.channels[0]) == 40
    assert result.channels[0][7] is None
    assert [w for w in result.channels[0] if w is not None] == [w for i, (_, w) in enumerate(log) if i != 7]
    assert len(result.gaps) == 1
    gap = result.gaps[0]
    assert (gap.channel, gap.index, gap.missing, gap.ambiguous) == (0, 7, 1, False)


def test_wire_burst_of_sixty_five_reports_the_full_deficit():
    log = [(0, w & 0xFFFF) for w in range(200)]
    data = drop_units(container.wire_encode(log), set(range(50, 115)))
    result = container.wire_decode(data, 1, expected_frame_counts=[200])
    assert len(result.channels[0]) == 200
    assert len(result.gaps) == 1
    gap = result.gaps[0]
    assert (gap.channel, gap.missing) == (0, 65)
    assert gap.ambiguous  # mod-64 wrap makes the size a reconciliation, not a count


def test_wire_burst_of_exactly_sixty_four_is_flagged_ambiguous():
    log = [(0, w & 0xFFFF) for w in range(150)]
    data = drop_units(container.wire_encode(log), set(range(30, 94)))
    result = container.wire_decode(data, 1, expected_frame_counts=[150])
    # the sequence numbers line back up, so the deficit can only be
    # appended at the end and flagged
    assert sum(g.missing for g in result.gaps if g.channel == 0) == 64
    assert any(g.ambiguous for g in result.gaps)
    assert len(result.channels[0]) == 150


def test_wire_two_separate_drops():
    log = [(0, w) for w in range(80)]
    data = drop_units(container.wire_encode(log), {10, 50})
    result = container.wire_decode(data, 1, expected_frame_counts=[80])
    assert result.channels[0][10] is None
    assert result.channels[0][50] is None
    assert sum(1 for w in result.channels[0] if w is None) == 2
    assert len(result.gaps) == 2
    assert all(not g.ambiguous for g in result.gaps)


def test_wire_lone_gap_and_lost_tail_are_placed_exactly():
    # the tail unit shows in no sequence number; the deficit under one
    # mod-64 cycle belongs at the end, not in the interior gap
    log = [(0, w) for w in range(80)]
    data = drop_units(container.wire_encode(log), {10, 79})
    result = container.wire_decode(data, 1, expected_frame_counts=[80])
    frames = result.channels[0]
    assert len(frames) == 80
    assert [i for i, w in enumerate(frames) if w is None] == [10, 79]
    assert [w for w in frames if w is not None] == [w for i, (_, w) in enumerate(log) if i not in (10, 79)]
    assert [(g.index, g.missing, g.ambiguous) for g in result.gaps] == [(10, 1, False), (79, 1, False)]


def test_wire_lone_gap_takes_only_whole_cycles():
    # 64 + 1 lost in the burst (seen as one) plus 2 lost at the tail
    log = [(0, w) for w in range(200)]
    data = drop_units(container.wire_encode(log), {*range(50, 115), 198, 199})
    result = container.wire_decode(data, 1, expected_frame_counts=[200])
    frames = result.channels[0]
    assert [i for i, w in enumerate(frames) if w is None] == [*range(50, 115), 198, 199]
    assert [(g.index, g.missing, g.ambiguous) for g in result.gaps] == [(50, 65, True), (198, 2, True)]


def test_wire_interleaved_channels_with_loss():
    log = [(i % 2, 1000 + i) for i in range(60)]
    data = drop_units(container.wire_encode(log), {13})
    result = container.wire_decode(data, 2, expected_frame_counts=[30, 30])
    lost_channel = 13 % 2
    assert result.channels[lost_channel].count(None) == 1
    assert result.channels[1 - lost_channel].count(None) == 0


def test_wire_decode_validates_input():
    with pytest.raises(TruncationError):
        container.wire_decode(b"\x00\x00", 1)
    with pytest.raises(CorruptStreamError):
        container.wire_decode(bytes([0xC0, 0, 0]), 2)  # channel 3 of 2
    with pytest.raises(CountMismatchError):
        container.wire_decode(container.wire_encode([(0, 1), (0, 2)]), 1, expected_frame_counts=[1])


def _wire_outcome(decode, data, nch, expected):
    try:
        result = decode(data, nch, expected)
    except EcgzError as exc:
        return type(exc), str(exc)
    assert all(w is None or type(w) is int for frames in result.channels for w in frames)
    return result.channels, result.gaps


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(0, 400),
    st.sampled_from(["none", "random", "burst", "tail", "bad_tag", "truncate"]),
    st.sampled_from(["none", "true", "off_by_one"]),
    st.integers(0, 2**32 - 1),
)
@example(nch=2, n=400, damage="burst", counts="true", seed=0)  # a lone gap of 90 units takes one whole cycle
@example(nch=3, n=300, damage="tail", counts="true", seed=0)  # every channel loses its tail
def test_wire_decode_matches_the_scalar_receiver(nch, n, damage, counts, seed):
    rng = np.random.default_rng(seed)
    chans = rng.integers(0, nch, size=n)
    data = container.wire_encode(list(zip(chans.tolist(), rng.integers(0, 1 << 16, size=n).tolist())))
    units = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3).copy()
    keep = np.ones(n, dtype=bool)
    if damage == "random":
        keep = rng.random(n) >= rng.uniform(0, 0.3)
    elif damage == "burst" and n:  # 64 or more units of one channel: the sequence number wraps
        mine = np.flatnonzero(chans == chans[int(rng.integers(n))])
        start = int(rng.integers(mine.size))
        keep[mine[start : start + int(rng.integers(64, 140))]] = False
    elif damage == "tail":
        keep[n - int(rng.integers(0, 100)) :] = False
    elif damage == "bad_tag" and n:
        units[rng.integers(0, n, size=rng.integers(1, 3)), 0] = rng.integers(0, 256)
    data = units[keep].tobytes()
    if damage == "truncate":
        data = data[: int(rng.integers(0, len(data) + 1))]
    expected = None
    if counts != "none":
        expected = np.bincount(chans, minlength=nch).tolist()
        if counts == "off_by_one":
            expected[int(rng.integers(nch))] += int(rng.choice([-1, 1]))
    got = _wire_outcome(container.wire_decode, data, nch, expected)
    assert got == _wire_outcome(wire_decode_scalar, data, nch, expected)
    if isinstance(got[0], list):  # the array form the list form is read from
        arrays, gaps = container._wire_arrays(data, nch, expected)
        assert gaps == got[1] and len(arrays) == nch
        for (words, lost), frames in zip(arrays, got[0]):
            assert words.dtype == np.int64 and lost.dtype == bool
            assert lost.tolist() == [w is None for w in frames]
            assert words[~lost].tolist() == [w for w in frames if w is not None]


def test_file_and_memory_sizes_agree():
    import numpy as np

    rng = np.random.default_rng(0)
    chans = [rng.integers(-300, 300, size=500).tolist()]
    cfg = encoder.EncoderConfig(resync_interval_samples=128)
    frames = encoder.encode_channels(chans, cfg)
    meta = RecordMeta(1, 360, 128, 2, (500,))
    blob = container.write_ecgz(meta, frames)
    assert 8 * (len(blob) - 21) == 16 * len(frames[0])


# ---------------------------------------------------------------------------
# Array paths against the struct and unit-at-a-time references


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (EcgzError, ValueError) as exc:
        return type(exc), str(exc)


def _read_as_lists(data: bytes):
    """read_ecgz with each channel's words as a list, after checking they are read-only big-endian uint16."""
    meta, frames = container.read_ecgz(data)
    assert all(f.dtype == np.dtype(">u2") and not f.flags.writeable for f in frames)
    return meta, [f.tolist() for f in frames]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 12), min_size=1, max_size=4),
    st.sampled_from(["none", "truncate", "surplus", "count", "header"]),
    st.integers(0, 2**32 - 1),
)
def test_read_ecgz_matches_the_struct_reader(frame_counts, damage, seed):
    rng = np.random.default_rng(seed)
    frames = [rng.integers(0, 1 << 16, size=n).tolist() for n in frame_counts]
    meta = RecordMeta(len(frames), 360, 1440, 2, tuple(int(v) for v in rng.integers(0, 100, size=len(frames))))
    blob = bytearray(container.write_ecgz(meta, frames))
    assert bytes(blob) == write_ecgz_scalar(meta, frames)
    assert container.write_ecgz(meta, [np.array(f, dtype=np.uint16) for f in frames]) == blob
    if damage == "truncate":  # anywhere: fixed header, count table or payload
        blob = blob[: int(rng.integers(0, len(blob)))]
    elif damage == "surplus":
        blob += bytes(rng.integers(0, 256, size=int(rng.integers(1, 5))).tolist())
    elif damage == "count":  # one sample or frame count, up, down or to anything
        at = 13 + 4 * int(rng.integers(0, 2 * len(frames)))
        old = int.from_bytes(blob[at : at + 4], "big")
        new = int(rng.choice([old + 1, max(old - 1, 0), rng.integers(0, 1 << 32)]))
        blob[at : at + 4] = new.to_bytes(4, "big")
    elif damage == "header":  # version, channel count or predictor order
        blob[int(rng.choice([4, 5, 12]))] = int(rng.integers(0, 256))
    got = _outcome(_read_as_lists, bytes(blob))
    assert got == _outcome(read_ecgz_scalar, bytes(blob))
    if damage == "none":
        assert got == (meta, frames)
        assert all(type(w) is int for f in got[1] for w in f)


def test_write_ecgz_rejects_words_that_are_not_16_bit():
    for bad in (-1, 0x10000, 1.5):
        with pytest.raises(ValueError, match="frame word"):
            container.write_ecgz(meta1(), [[0x04D2, bad]])
    with pytest.raises(ValueError, match="frame word"):
        container.write_ecgz(meta1(), [np.array([0x04D2, 0x10000])])
    with pytest.raises(ValueError, match="frame word"):
        container.write_ecgz(meta1(), [[0x04D2, 1 << 70]])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 300),
    st.integers(0, 3),
    st.sampled_from([-1, 4, 1 << 70]),
    st.sampled_from([-1, 0x10000, 1 << 70]),
    st.integers(0, 2**32 - 1),
)
def test_wire_encode_matches_the_unit_loop(n, n_bad, bad_channel, bad_word, seed):
    rng = np.random.default_rng(seed)
    log = list(zip(rng.integers(0, 4, size=n).tolist(), rng.integers(0, 1 << 16, size=n).tolist()))
    for _ in range(n_bad if n else 0):  # bad channels, bad words or both at random positions
        i = int(rng.integers(n))
        ch, word = log[i]
        log[i] = [(bad_channel, word), (ch, bad_word), (bad_channel, bad_word)][int(rng.integers(3))]
    assert _outcome(container.wire_encode, log) == _outcome(wire_encode_scalar, log)
