"""Scalar references: the object-at-a-time loops the fast paths replaced.

The decoders walk the words one frame at a time with a plain history
list, so they state the lossless and the erasure-tolerant decode
contracts without any of the array core's bookkeeping. The streaming
encoder queues PendingSample objects and picks each frame from the set
of enabled types; the wire receiver walks the stream one 3-byte unit at
a time. Tests diff ecgz.decoder.decode_channel and decode_resilient,
ecgz.encoder.ChannelEncoder and ecgz.container.wire_decode against them.
"""

from collections import deque
from typing import Sequence

from ecgz import predictor
from ecgz.container import SEQ_MOD, WireDecodeResult, WireGap, _reconcile_channel
from ecgz.decoder import unpack_frame
from ecgz.encoder import (
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
from ecgz.errors import CorruptStreamError, TruncationError
from ecgz.predictor import SAMPLE_BITS


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
    if len(out) > expected_count:
        raise CorruptStreamError(f"frame stream carries more than the declared {expected_count} samples")
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
        err = predictor.prediction_error(x, self._history, self.config.order)
        self._history = predictor.advance(self._history, x)
        self.queue.append(PendingSample(x, err, min_width_class(err)))
        emitted = []
        if len(self.queue) == 6:
            emitted.append(self._emit(use_pending=True))
        self.samples_since_resync += 1
        interval = self.config.resync_interval_samples
        if interval and self.samples_since_resync >= interval:
            self.resync_pending = self.config.resync_e_frames
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
