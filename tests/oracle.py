"""Scalar references: the object-at-a-time loops the fast paths replaced.

The predictor helpers compute one residual, or undo one, from a history
list; the frame packer loops over the fields and the sample counter
parses one header. The decoders walk the words one frame at a time
with a plain history list, so they state the lossless and the
erasure-tolerant decode contracts without any of the array core's
bookkeeping. The streaming encoder queues PendingSample objects and
picks each frame from the set of enabled types, the priority-loop
frame sizer writes each type's size over the positions it fits, densest
last, and the frame walk steps from one frame start to the next in a
Python loop; the wire sender and receiver walk the stream one 3-byte
unit at a time; the container codec packs and unpacks words with
struct; the CSV reader parses cell by cell and the CSV writer formats
with %d; the loss audit walks every frame and sample; the Huffman size
estimators take a residual list and histogram it first. Tests diff the
package's array paths against them.
"""

import csv
import io
import struct
from collections import deque
from typing import Sequence

import numpy as np

from ecgz import baselines, predictor
from ecgz.container import (
    _HEAD,
    MAGIC,
    SEQ_MOD,
    VERSION,
    RecordMeta,
    WireDecodeResult,
    WireGap,
)
from ecgz.decoder import parse_header, unpack_frame
from ecgz.encoder import (
    ESC,
    FRAME_A,
    FRAME_B,
    FRAME_C,
    FRAME_D,
    FRAME_E,
    PRIORITY,
    EncoderConfig,
    FrameType,
    PendingSample,
    min_width_class,
)
from ecgz.errors import (
    BadMagicError,
    BadVersionError,
    ContainerError,
    CorruptStreamError,
    CountMismatchError,
    TruncationError,
)
from ecgz.predictor import SAMPLE_BITS, SAMPLE_MAX, SAMPLE_MIN, coefficients


def check_sample(x: int) -> int:
    if not SAMPLE_MIN <= x <= SAMPLE_MAX:
        raise ValueError(f"sample {x} outside {SAMPLE_MIN}..{SAMPLE_MAX}")
    return x


def predict(history: Sequence[int], order: int) -> int:
    """Predicted next sample from history (most recent first)."""
    coef = coefficients(order)
    if len(history) != len(coef):
        raise ValueError(f"order-{order} predictor needs {len(coef)} history samples, got {len(history)}")
    return sum(a * h for a, h in zip(coef, history))


def prediction_error(x: int, history: Sequence[int], order: int) -> int:
    check_sample(x)
    return x - predict(history, order)


def advance(history: Sequence[int], x: int) -> list[int]:
    """Shift x into the history, dropping the oldest entry."""
    return [x, *history[:-1]]


def reconstruct(error: int, history: Sequence[int], order: int) -> int:
    """Inverse of prediction_error; rejects results outside the sample range."""
    x = predict(history, order) + error
    if not SAMPLE_MIN <= x <= SAMPLE_MAX:
        raise CorruptStreamError(f"reconstructed sample {x} outside {SAMPLE_MIN}..{SAMPLE_MAX}")
    return x


def decode_channel_scalar(frames, expected_count: int, order: int = 2) -> list[int]:
    coef = predictor.coefficients(order)
    history = predictor.zero_state(order)
    lo, hi = predictor.SAMPLE_MIN, predictor.SAMPLE_MAX
    out: list[int] = []
    for word in frames:
        ftype, fields = unpack_frame(word)
        if len(out) + ftype.field_count > expected_count:
            raise CorruptStreamError(f"frame stream carries more than the declared {expected_count} samples")
        if ftype.carries_original:
            x = fields[0]
            out.append(x)
            history.insert(0, x)
            history.pop()
        else:
            for e in fields:
                x = sum(a * h for a, h in zip(coef, history)) + e
                if not lo <= x <= hi:
                    raise CorruptStreamError(f"reconstructed sample {x} outside the 12-bit range")
                out.append(x)
                history.insert(0, x)
                history.pop()
    if len(out) != expected_count:
        raise TruncationError(f"frame stream ended at {len(out)} of {expected_count} samples")
    return out


def decode_resilient_scalar(frames, expected_count: int, order: int = 2):
    """Frame-by-frame erasure decoder: (samples with None, spans of None)."""
    coef = predictor.coefficients(order)
    L = len(coef)
    lo, hi = predictor.SAMPLE_MIN, predictor.SAMPLE_MAX
    recent = [0] * L  # last L output samples, most recent first
    synced = True
    raw_run = 0  # consecutive raw samples just seen
    saw_loss = False
    out = []
    for word in frames:
        if word is None:
            # the lost frame carried an unknown number of samples, so only
            # raw samples received after this point rebuild the history
            synced = False
            saw_loss = True
            raw_run = 0
            recent = [None] * L
            continue
        ftype, fields = unpack_frame(word)
        if len(out) + ftype.field_count > expected_count:
            raise CorruptStreamError(f"frame stream carries more than the declared {expected_count} samples")
        if ftype.carries_original:
            x = fields[0]
            out.append(x)
            recent.insert(0, x)
            recent.pop()
            raw_run += 1
            if raw_run >= L:
                synced = True
        elif synced:
            raw_run = 0
            for e in fields:
                x = sum(a * h for a, h in zip(coef, recent)) + e
                if not lo <= x <= hi:
                    raise CorruptStreamError(f"reconstructed sample {x} outside the 12-bit range")
                out.append(x)
                recent.insert(0, x)
                recent.pop()
        else:
            raw_run = 0
            for _ in fields:
                out.append(None)
                recent.insert(0, None)
                recent.pop()
    if not saw_loss and len(out) < expected_count:
        raise TruncationError(f"frame stream ended at {len(out)} of {expected_count} samples")
    spans = []
    start = None
    for i, v in enumerate(out):
        if v is None and start is None:
            start = i
        elif v is not None and start is not None:
            spans.append((start, i))
            start = None
    if start is not None:
        spans.append((start, len(out)))
    return out, spans


def _enabled_tags(widths: Sequence[int]) -> set[str]:
    tags = {"E"}
    for ft in (FRAME_D, FRAME_C, FRAME_A, FRAME_B):
        n = ft.field_count
        if len(widths) >= n and all(w <= ft.field_width for w in widths[:n]):
            tags.add(ft.tag)
    return tags


def select_frame(queue: Sequence[PendingSample], resync_pending: int = 0) -> FrameType:
    if not queue:
        raise ValueError("select_frame needs at least one queued sample")
    if resync_pending > 0:
        return FRAME_E
    enabled = _enabled_tags([p.width for p in queue])
    for ft in PRIORITY:
        if ft.tag in enabled:
            return ft
    raise AssertionError("unreachable: Type E is always enabled")


def frame_counts_priority(widths: np.ndarray) -> np.ndarray:
    """Greedy frame size at every start position, by masked writes in priority order.

    Each type's size is written wherever the widest of its first
    field_count widths fits its field width, the densest type last, so
    it wins. Widths past the end are padded above ESC, as in the final
    flush, where only types that fit the short queue qualify.
    """
    w = np.concatenate([widths, np.full(6, ESC + 1, dtype=widths.dtype)])
    widest = {2: np.maximum(w[:-1], w[1:])}  # widest[k][i]: widest of the k samples from i
    widest[3] = np.maximum(widest[2][:-1], w[2:])
    widest[4] = np.maximum(widest[3][:-1], w[3:])
    widest[6] = np.maximum(widest[4][:-2], widest[2][4:])
    counts = np.full(widths.size, FRAME_E.field_count, dtype=np.int8)
    for ft in reversed(PRIORITY[:-1]):
        counts[widest[ft.field_count][: widths.size] <= ft.field_width] = ft.field_count
    return counts


def pack_frame(ftype: FrameType, payload: Sequence[PendingSample]) -> int:
    if len(payload) != ftype.field_count:
        raise ValueError(f"Type {ftype.tag} packs {ftype.field_count} samples, got {len(payload)}")
    if ftype.carries_original:
        return (ftype.header_bits << SAMPLE_BITS) | (payload[0].original & ((1 << SAMPLE_BITS) - 1))
    w = ftype.field_width
    mask = (1 << w) - 1
    half = 1 << (w - 1)
    word = ftype.header_bits
    for p in payload:
        if not -half <= p.error < half:
            raise AssertionError(f"residual {p.error} overflows a {w}-bit field; selection must prevent this")
        word = (word << w) | (p.error & mask)
    return word


def pack_scalar(count: int, values: Sequence[int]) -> int:
    """The word of the count-sample frame of values[:count]: raw samples for E, else residuals."""
    ftype = next(ft for ft in PRIORITY if ft.field_count == count)
    word, width = ftype.header_bits, ftype.field_width
    for v in values[:count]:
        word = (word << width) | (v & ((1 << width) - 1))
    return word


def frame_sample_count(word: int) -> int:
    """How many samples this frame carries (1 for Type E)."""
    return parse_header(word).field_count


def frame_starts_scalar(counts: list[int], n: int, interval: int, e_frames: int) -> list[int]:
    """First sample of every frame, walked a frame (not a sample) at a time.

    The frame starting at qs goes out when sample qs + 5 arrives, or in
    the final flush once qs + 5 >= n. A resync fired after sample
    k * interval - 1 forces Type E on the next e_frames emissions; a
    later one restarts the count, and the flush ignores it.
    """
    starts: list[int] = []
    append = starts.append
    qs, fire = 0, interval or n  # fire: first emission position with a resync pending
    while qs + 5 < n:
        stop = min(n, fire) - 5
        while qs < stop:
            append(qs)
            qs += counts[qs]
        if qs + 5 < n:
            fire = ((qs + 5) // interval + 1) * interval
            forced_end = min(qs + e_frames, n - 5, fire - 5)
            starts.extend(range(qs, forced_end))
            qs = forced_end
    while qs < n:
        append(qs)
        qs += counts[qs]
    return starts


class ChannelEncoderScalar:
    """Streams one channel's samples into 16-bit frame words."""

    def __init__(self, config: EncoderConfig | None = None) -> None:
        self.config = config or EncoderConfig()
        self._history = predictor.zero_state(self.config.order)
        self.queue: deque[PendingSample] = deque()
        self.samples_since_resync = 0
        self.resync_pending = 0

    def push_sample(self, x: int) -> list[int]:
        """Accept one sample; return the frames it caused (possibly none)."""
        err = prediction_error(x, self._history, self.config.order)
        self._history = advance(self._history, x)
        self.queue.append(PendingSample(x, err, min_width_class(err)))
        emitted = []
        if len(self.queue) == 6:
            emitted.append(self._emit(use_pending=True))
        self.samples_since_resync += 1
        interval = self.config.resync_interval_samples
        if interval and self.samples_since_resync >= interval:
            self.resync_pending = 2  # raw samples forced per resync
            self.samples_since_resync = 0
        return emitted

    def flush(self) -> list[int]:
        """Drain the queue at end of input; every queued sample gets framed."""
        words = []
        while self.queue:
            words.append(self._emit(use_pending=False))
        return words

    def _emit(self, use_pending: bool) -> int:
        pending = self.resync_pending if use_pending else 0
        ftype = select_frame(self.queue, pending)
        payload = [self.queue.popleft() for _ in range(ftype.field_count)]
        if pending and ftype.carries_original:
            self.resync_pending -= 1
        return pack_frame(ftype, payload)


def wire_decode_scalar(
    data: bytes,
    channel_count: int,
    expected_frame_counts: Sequence[int] | None = None,
) -> WireDecodeResult:
    if len(data) % 3:
        raise TruncationError(f"wire stream of {len(data)} bytes is not whole 3-byte units")
    if not 1 <= channel_count <= 4:
        raise ValueError("channel count must be 1..4")
    channels: list[list[int | None]] = [[] for _ in range(channel_count)]
    gaps: list[WireGap] = []
    next_seq = [0] * channel_count
    for off in range(0, len(data), 3):
        tag = data[off]
        ch = tag >> 6
        if ch >= channel_count:
            raise CorruptStreamError(f"unit at byte {off} tagged for unknown channel {ch}")
        seq = tag & (SEQ_MOD - 1)
        gap = (seq - next_seq[ch]) % SEQ_MOD
        if gap:
            gaps.append(WireGap(ch, len(channels[ch]), gap))
            channels[ch].extend([None] * gap)
        channels[ch].append(int.from_bytes(data[off + 1 : off + 3], "big"))
        next_seq[ch] = (seq + 1) % SEQ_MOD
    result = WireDecodeResult(channels, gaps)
    if expected_frame_counts is not None:
        if len(expected_frame_counts) != channel_count:
            raise ValueError("one expected frame count per channel required")
        for ch in range(channel_count):
            _reconcile_channel(result, ch, expected_frame_counts[ch])
    return result


def _reconcile_channel(result: WireDecodeResult, ch: int, expected: int) -> None:
    frames = result.channels[ch]
    deficit = expected - len(frames)
    if deficit < 0:
        raise CountMismatchError(f"channel {ch} received {len(frames)} frames, expected {expected}")
    if deficit == 0:
        return
    ch_gaps = [g for g in result.gaps if g.channel == ch]
    # Units dropped after the channel's last received one show in no
    # sequence number; under one mod-64 cycle they are exactly the deficit
    # mod 64. Whole cycles may instead have vanished inside a gap: a lone
    # gap takes them, otherwise (no gap, or no way to tell which of several
    # swallowed them) they join the tail. Either way their place is uncertain.
    cycles = deficit - deficit % SEQ_MOD
    if cycles and len(ch_gaps) == 1:
        gap = ch_gaps[0]
        frames[gap.index : gap.index] = [None] * cycles
        gap.missing += cycles
        gap.ambiguous = True
        deficit -= cycles
    if deficit:
        result.gaps.append(WireGap(ch, len(frames), deficit, ambiguous=cycles > 0))
        frames.extend([None] * deficit)


def wire_encode_scalar(emission_log: Sequence[tuple[int, int]]) -> bytes:
    seq = [0, 0, 0, 0]
    out = bytearray()
    for ch, word in emission_log:
        if not 0 <= ch <= 3:
            raise ValueError(f"channel id {ch} outside 0..3")
        if not 0 <= word <= 0xFFFF:
            raise ValueError(f"frame word {word!r} is not a 16-bit value")
        out.append((ch << 6) | (seq[ch] % SEQ_MOD))
        out += word.to_bytes(2, "big")
        seq[ch] += 1
    return bytes(out)


def write_ecgz_scalar(meta: RecordMeta, channel_frames: Sequence[Sequence[int]]) -> bytes:
    if len(channel_frames) != meta.channel_count:
        raise ValueError(f"meta declares {meta.channel_count} channels, got {len(channel_frames)}")
    head = bytearray(MAGIC)
    head += _HEAD.pack(
        VERSION,
        meta.channel_count,
        meta.sample_rate_hz,
        meta.resync_interval_samples,
        meta.predictor_order,
    )
    for count, frames in zip(meta.sample_counts, channel_frames):
        head += struct.pack(">II", count, len(frames))
    parts = [bytes(head)]
    for frames in channel_frames:
        parts.append(struct.pack(f">{len(frames)}H", *frames))
    return b"".join(parts)


def read_ecgz_scalar(data: bytes) -> tuple[RecordMeta, list[list[int]]]:
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
    sample_counts = []
    frame_counts = []
    for _ in range(channel_count):
        ns, nf = struct.unpack_from(">II", data, off)
        sample_counts.append(ns)
        frame_counts.append(nf)
        off += 8
    payload_len = len(data) - off
    need = 2 * sum(frame_counts)
    if payload_len < need:
        raise TruncationError(f"payload holds {payload_len} bytes, counts require {need}")
    if payload_len > need:
        raise CountMismatchError(f"{payload_len - need} payload bytes beyond the declared frames")
    channels = []
    for nf in frame_counts:
        channels.append(list(struct.unpack_from(f">{nf}H", data, off)))
        off += 2 * nf
    meta = RecordMeta(channel_count, rate, resync, order, tuple(sample_counts))
    return meta, channels


def read_csv_scalar(text: str, channel_count: int | None = None) -> list[list[int]]:
    channels: list[list[int]] | None = None
    for rowno, row in enumerate(csv.reader(io.StringIO(text)), start=1):
        if not row:
            continue
        if channels is None:
            width = channel_count if channel_count is not None else len(row)
            channels = [[] for _ in range(width)]
        if len(row) != len(channels):
            raise ValueError(f"row {rowno}: expected {len(channels)} columns, got {len(row)}")
        for ch, cell in enumerate(row):
            try:
                value = int(cell.strip())
            except ValueError:
                raise ValueError(f"row {rowno}: {cell!r} is not an integer") from None
            if not SAMPLE_MIN <= value <= SAMPLE_MAX:
                raise ValueError(f"row {rowno}: sample {value} outside {SAMPLE_MIN}..{SAMPLE_MAX}")
            channels[ch].append(value)
    if channels is None:
        return [[] for _ in range(channel_count)] if channel_count else []
    return channels


def write_csv_scalar(path, channels, chunk_rows: int) -> None:
    """The %d writer of `ecgz decompress`: one row per time step every channel has."""
    rows = min((len(c) for c in channels), default=0)
    table = np.column_stack([c[:rows] for c in channels]) if rows else None
    fmt = ",".join(["%d"] * len(channels)) + "\n"
    with open(path, "w") as fh:
        for i in range(0, rows, chunk_rows):
            block = table[i : i + chunk_rows]
            fh.write((fmt * len(block)) % tuple(block.ravel().tolist()))


def audit_channel_scalar(
    truth: list[int],
    counts: Sequence[int],
    received: Sequence[int | None],
    resilient_out: list[int | None],
) -> list[bool] | None:
    """Corrupted flag per true sample position, None if a decoded value is wrong."""
    corrupted = [False] * len(truth)
    pos = 0
    ptr = 0
    for frame_idx, count in enumerate(counts):
        if received[frame_idx] is None:
            corrupted[pos : pos + count] = [True] * count
        else:
            seg = resilient_out[ptr : ptr + count]
            ptr += count
            if seg != truth[pos : pos + count]:
                for k, v in enumerate(seg, start=pos):
                    if v is None:
                        corrupted[k] = True
                    elif v != truth[k]:
                        return None
        pos += count
    if pos != len(truth) or ptr != len(resilient_out):
        raise AssertionError("frame accounting disagrees with the sample count")
    return corrupted


def bool_runs_scalar(flags: Sequence[bool]) -> list[tuple[int, int]]:
    spans = []
    start = None
    for i, f in enumerate(flags):
        if f and start is None:
            start = i
        elif not f and start is not None:
            spans.append((start, i))
            start = None
    if start is not None:
        spans.append((start, len(flags)))
    return spans


def ideal_huffman_bits(errors: Sequence[int]) -> int:
    """Total bits to code the stream with its own full Huffman codebook."""
    hist = baselines.build_histogram(errors)
    if not hist:
        raise ValueError("cannot size an empty residual stream")
    return baselines.ideal_huffman_bits_from_hist(hist)


def selective_huffman_bits(errors: Sequence[int], m: int, escape_bits: int = predictor.RESIDUAL_BITS) -> int:
    """Total bits with only the m most frequent residuals Huffman-coded."""
    hist = baselines.build_histogram(errors)
    if not hist:
        raise ValueError("cannot size an empty residual stream")
    return baselines.selective_huffman_bits_from_hist(hist, m, escape_bits)
