"""On-disk .ecgz container and the tagged wire framing used in loss tests.

All multi-byte integers are big-endian. File layout:

    offset  size  field
    0       4     magic "ECGZ"
    4       1     version (1)
    5       1     channel_count (1..4)
    6       2     sample_rate_hz
    8       4     resync_interval_samples (0 = resync disabled)
    12      1     predictor_order
    13      8*C   per channel: sample_count u32, frame_count u32
    13+8C   ...   payload: each channel's frames in order, 16-bit words

A wire unit is 3 bytes: one tag byte holding the channel id in the top
2 bits and a mod-64 sequence number below, then the 16-bit frame word.
Receivers spot dropped units through sequence-number gaps; a burst of 64
or more in one channel wraps the counter, so its size is only recoverable
from the declared frame counts.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Sequence

import numpy as np

from .errors import (
    BadMagicError,
    BadVersionError,
    ContainerError,
    CorruptStreamError,
    CountMismatchError,
    TruncationError,
)
from .predictor import int_array

MAGIC = b"ECGZ"
VERSION = 1
_HEAD = struct.Struct(">BBHIB")  # version, channel_count, rate, resync, order
SEQ_MOD = 64


@dataclass(frozen=True)
class RecordMeta:
    channel_count: int
    sample_rate_hz: int
    resync_interval_samples: int
    predictor_order: int
    sample_counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.channel_count <= 4:
            raise ValueError("channel count must be 1..4")
        if len(self.sample_counts) != self.channel_count:
            raise ValueError("one sample count per channel required")
        if not 0 <= self.sample_rate_hz <= 0xFFFF:
            raise ValueError("sample rate must fit 16 bits")
        if not 0 <= self.resync_interval_samples <= 0xFFFFFFFF:
            raise ValueError("resync interval must fit 32 bits")
        if not 1 <= self.predictor_order <= 4:
            raise ValueError("predictor order must be 1..4")
        if any(n < 0 or n > 0xFFFFFFFF for n in self.sample_counts):
            raise ValueError("sample counts must fit 32 bits")


def _is_uint(value, top: int = 0xFFFF) -> bool:
    """value is an int (Python or numpy) in 0..top."""
    return isinstance(value, (int, np.integer)) and 0 <= value <= top


def write_ecgz(meta: RecordMeta, channel_frames: Sequence[Sequence[int]]) -> bytes:
    """Container bytes; each channel's frames may be a list or an integer array."""
    if len(channel_frames) != meta.channel_count:
        raise ValueError(f"meta declares {meta.channel_count} channels, got {len(channel_frames)}")
    words = [int_array(frames, 0, 0xFFFF, "frame word {!r} is not a 16-bit value") for frames in channel_frames]
    head = bytearray(MAGIC)
    head += _HEAD.pack(
        VERSION,
        meta.channel_count,
        meta.sample_rate_hz,
        meta.resync_interval_samples,
        meta.predictor_order,
    )
    for count, w in zip(meta.sample_counts, words):
        head += struct.pack(">II", count, w.size)
    return b"".join([bytes(head), *(w.astype(">u2").tobytes() for w in words)])


def read_ecgz(data: bytes) -> tuple[RecordMeta, list[np.ndarray]]:
    """The header and each channel's frames, as a read-only big-endian uint16 view of data."""
    if len(data) < 4 + _HEAD.size:
        raise TruncationError(f"file of {len(data)} bytes is shorter than the fixed header")
    if data[:4] != MAGIC:
        raise BadMagicError(f"bad magic {data[:4]!r}")
    version, channel_count, rate, resync, order = _HEAD.unpack_from(data, 4)
    if version != VERSION:
        raise BadVersionError(f"unsupported version {version}")
    if not 1 <= channel_count <= 4:
        raise ContainerError(f"channel count {channel_count} outside 1..4")
    if not 1 <= order <= 4:
        raise ContainerError(f"predictor order {order} outside 1..4")
    off = 4 + _HEAD.size
    if len(data) < off + 8 * channel_count:
        raise TruncationError("file ends inside the per-channel count table")
    counts = struct.unpack_from(f">{2 * channel_count}I", data, off)
    sample_counts, frame_counts = counts[0::2], counts[1::2]
    off += 8 * channel_count
    payload_len = len(data) - off
    need = 2 * sum(frame_counts)
    if payload_len < need:
        raise TruncationError(f"payload holds {payload_len} bytes, counts require {need}")
    if payload_len > need:
        raise CountMismatchError(f"{payload_len - need} payload bytes beyond the declared frames")
    offsets = accumulate((2 * nf for nf in frame_counts), initial=off)
    channels = [np.frombuffer(data, ">u2", nf, at) for nf, at in zip(frame_counts, offsets)]
    meta = RecordMeta(channel_count, rate, resync, order, sample_counts)
    return meta, channels


def wire_encode(emission_log: Sequence[tuple[int, int]]) -> bytes:
    """Serialize (channel, frame) pairs into 3-byte tagged wire units."""
    try:  # exact ints only: a float raises TypeError, an int beyond int64 OverflowError
        flat = np.frombuffer(array("q", chain.from_iterable(emission_log)), dtype=np.int64)
    except (TypeError, OverflowError):
        flat = None
    if flat is not None and flat.size != 2 * len(emission_log):
        raise ValueError("emission log entries must be (channel, word) pairs")
    if flat is None:
        first = next(i for i, (ch, w) in enumerate(emission_log) if not (_is_uint(ch, 3) and _is_uint(w)))
    else:
        chans, words = flat[0::2], flat[1::2]
        bad = np.flatnonzero((chans < 0) | (chans > 3) | (words < 0) | (words > 0xFFFF))
        first = int(bad[0]) if bad.size else None
    if first is not None:  # the channel is checked before the word
        ch, word = emission_log[first]
        if not _is_uint(ch, 3):
            raise ValueError(f"channel id {ch} outside 0..3")
        raise ValueError(f"frame word {word!r} is not a 16-bit value")
    return _wire_units(chans, words)


def _wire_units(chans: np.ndarray, words: np.ndarray) -> bytes:
    """wire_encode of integer arrays of channel ids, 0..3, and 16-bit frame words, unchecked."""
    units = np.empty((chans.size, 3), dtype=np.uint8)
    for ch in range(4):  # each channel numbers its own units
        sel = np.flatnonzero(chans == ch)
        units[sel, 0] = (ch << 6) | (np.arange(sel.size) % SEQ_MOD)
    units[:, 1] = words >> 8
    units[:, 2] = words & 0xFF
    return units.tobytes()


@dataclass
class WireGap:
    """A detected run of dropped units within one channel's stream."""

    channel: int
    index: int  # position in the per-channel frame list where the run sits
    missing: int
    ambiguous: bool = False  # True when mod-64 wraparound may hide the true extent


@dataclass
class WireDecodeResult:
    channels: list[list[int | None]]  # None marks a lost frame
    gaps: list[WireGap] = field(default_factory=list)


def wire_decode(
    data: bytes,
    channel_count: int,
    expected_frame_counts: Sequence[int] | None = None,
) -> WireDecodeResult:
    """Rebuild per-channel frame streams from wire units, marking losses.

    Sequence-number gaps turn into None entries, one per missing unit.
    Losses the sequence numbers cannot see (whole mod-64 cycles, or units
    dropped after a channel's last received one) are only found when
    expected_frame_counts is given; such repairs are flagged ambiguous
    when the missing units' positions cannot be pinned down.
    """
    channels, gaps = _wire_arrays(data, channel_count, expected_frame_counts)
    received = []
    for words, lost in channels:
        frames = words.tolist()
        for i in np.flatnonzero(lost).tolist():
            frames[i] = None
        received.append(frames)
    return WireDecodeResult(received, gaps)


def _wire_arrays(
    data: bytes, channel_count: int, expected: Sequence[int] | None = None
) -> tuple[list[tuple[np.ndarray, np.ndarray]], list[WireGap]]:
    """wire_decode with each channel as (words, lost): int64 frame words, 0 where the bool mask marks a loss."""
    if len(data) % 3:
        raise TruncationError(f"wire stream of {len(data)} bytes is not whole 3-byte units")
    if not 1 <= channel_count <= 4:
        raise ValueError("channel count must be 1..4")
    units = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3)
    chans = units[:, 0] >> 6
    unknown = np.flatnonzero(chans >= channel_count)
    if unknown.size:
        raise CorruptStreamError(f"unit at byte {3 * unknown[0]} tagged for unknown channel {chans[unknown[0]]}")
    if expected is not None and len(expected) != channel_count:
        raise ValueError("one expected frame count per channel required")
    seqs = (units[:, 0] & (SEQ_MOD - 1)).astype(np.int16)
    words = (units[:, 1].astype(np.int64) << 8) | units[:, 2]
    # Per channel: its units in arrival order, the units lost just before
    # each, and each word's slot in the channel's stream.
    streams, found = [], []
    for ch in range(channel_count):
        sel = np.flatnonzero(chans == ch)
        missing = (np.diff(seqs[sel], prepend=-1) - 1) & (SEQ_MOD - 1)
        at = np.arange(sel.size) + np.cumsum(missing)
        streams.append((sel, at, sel.size + int(missing.sum())))
        hit = np.flatnonzero(missing)
        found += zip(sel[hit].tolist(), [ch] * hit.size, (at - missing)[hit].tolist(), missing[hit].tolist())
    gaps = [WireGap(*g[1:]) for g in sorted(found)]  # in stream order
    channels = []
    for ch, (sel, at, size) in enumerate(streams):
        if expected is not None:
            _reconcile_channel(gaps, ch, at, size, expected[ch])
            size = expected[ch]
        frames, lost = np.zeros(size, dtype=np.int64), np.ones(size, dtype=bool)
        frames[at], lost[at] = words[sel], False
        channels.append((frames, lost))
    return channels, gaps


def _reconcile_channel(gaps: list[WireGap], ch: int, at: np.ndarray, size: int, expected: int) -> None:
    """Grow channel ch's stream from size to expected slots, marking the added ones in gaps.

    Moves the slots at of its received words past any units inserted before them.
    """
    deficit = expected - size
    if deficit < 0:
        raise CountMismatchError(f"channel {ch} received {size} frames, expected {expected}")
    # Units dropped after the channel's last received one show in no
    # sequence number; under one mod-64 cycle they are exactly the deficit
    # mod 64. Whole cycles may instead have vanished inside a gap: a lone
    # gap takes them, otherwise (no gap, or no way to tell which of several
    # swallowed them) they join the tail. Either way their place is uncertain.
    cycles = deficit - deficit % SEQ_MOD
    ch_gaps = [g for g in gaps if g.channel == ch]
    if cycles and len(ch_gaps) == 1:
        gap = ch_gaps[0]
        at[at >= gap.index] += cycles
        gap.missing += cycles
        gap.ambiguous = True
        deficit -= cycles
    if deficit:
        gaps.append(WireGap(ch, expected - deficit, deficit, ambiguous=cycles > 0))
