"""Frame parsing and sample reconstruction, with and without erasures.

The lossless path mirrors the encoder exactly: shared zero-initialized
predictor history, residual fields added back onto predictions, Type E
fields taken as raw samples.

The erasure-tolerant path accepts a stream where whole frames are
missing (None entries). A missing frame desynchronizes the predictor;
until enough consecutive raw samples arrive to rebuild its history the
decoder emits None for every residual-coded sample instead of guessing.
Because a lost frame may have carried 1..6 samples, erased frames
contribute no output positions and the caller aligns the result against
whatever ground truth it holds.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import predictor
from .bitio import sign_extend
from .encoder import FRAME_A, FRAME_B, FRAME_C, FRAME_D, FRAME_E, FRAME_TYPES, FrameType
from .errors import CorruptStreamError, ReservedHeaderError, TruncationError


class DecodedFrame(NamedTuple):
    ftype: FrameType
    fields: list[int]


def parse_header(word: int) -> FrameType:
    """Classify a 16-bit frame word by its prefix-free header."""
    if not 0 <= word <= 0xFFFF:
        raise ValueError(f"frame word {word!r} is not a 16-bit value")
    if word & 0x8000:
        return FRAME_A
    if word & 0x4000:
        return FRAME_B
    top4 = word >> 12
    if top4 == 0b0000:
        return FRAME_D
    if top4 == 0b0001:
        return FRAME_C
    if top4 == 0b0011:
        return FRAME_E
    raise ReservedHeaderError(f"word 0x{word:04X} uses the reserved 0010 header")


def unpack_frame(word: int) -> DecodedFrame:
    """Split a frame word into its type and sign-extended field values."""
    ftype = parse_header(word)
    w = ftype.field_width
    mask = (1 << w) - 1
    fields = []
    shift = 16 - ftype.header_len
    for _ in range(ftype.field_count):
        shift -= w
        fields.append(sign_extend((word >> shift) & mask, w))
    return DecodedFrame(ftype, fields)


def frame_sample_count(word: int) -> int:
    """How many samples this frame carries (1 for Type E)."""
    return parse_header(word).field_count


# Samples per frame by the top four bits of a word; 0 marks the reserved header.
_COUNT_BY_TOP4 = np.array([6, 4, 0, 1] + [2] * 4 + [3] * 8)  # D, C, reserved, E, then B and A


def decode_channel(frames: Sequence[int], expected_count: int, order: int = 2) -> list[int]:
    """Losslessly rebuild one channel from its frame words.

    The frame stream must account for exactly expected_count samples;
    anything short, long, or malformed raises. Of several defects the
    first in stream order is reported, as a frame-by-frame decoder would.
    """
    L = len(predictor.coefficients(order))
    words = np.asarray(frames, dtype=np.int64)
    counts = np.where((words >= 0) & (words <= 0xFFFF), _COUNT_BY_TOP4[(words >> 12) & 15], 0)
    ends = np.cumsum(counts)
    bad_word, surplus = _first(counts == 0), _first(ends > expected_count)
    cut = min(bad_word, surplus)  # frames before the first defect decode normally
    total = int(ends[cut - 1]) if cut else 0
    starts = ends[:cut] - counts[:cut] + L

    buf = np.zeros(L + total, dtype=np.int64)  # L zeros of history, then every field
    is_raw = np.zeros(L + total + 1, dtype=np.int8)
    is_raw[:L] = is_raw[-1] = 1
    for ft in FRAME_TYPES.values():
        sel = counts[:cut] == ft.field_count
        w, q, half = words[:cut][sel], starts[sel], 1 << (ft.field_width - 1)
        for j in range(ft.field_count):
            field = (w >> (16 - ft.header_len - ft.field_width * (j + 1))) & (2 * half - 1)
            buf[q + j] = (field ^ half) - half
        is_raw[q] = ft.carries_original

    # Each maximal run of residual samples follows L known outputs. Put
    # their L-th differences (zeros before them) in their place: L
    # cumulative sums then restore them and carry on through the run.
    # While every earlier sample is in range, every partial sum is a
    # bounded difference, so the first out-of-range sample comes out
    # exact even where int64 wraps further on.
    lo, hi = predictor.SAMPLE_MIN, predictor.SAMPLE_MAX
    accumulate = np.add.accumulate
    edges = np.diff(is_raw)
    for s, t in zip(np.flatnonzero(edges == -1).tolist(), np.flatnonzero(edges == 1).tolist()):
        span = buf[s + 1 - L : t + 1]
        d = span[:L].tolist()
        if min(d) < lo or max(d) > hi:
            break  # an earlier sample is already out of range
        for _ in range(L):
            d = [d[0]] + [b - a for a, b in zip(d, d[1:])]
        span[:L] = d
        for _ in range(L):
            accumulate(span, out=span)
    out = buf[L:]
    wrong = _first((out < lo) | (out > hi))
    if wrong < total:
        raise CorruptStreamError(f"reconstructed sample {out[wrong]} outside the 12-bit range")
    if bad_word < surplus:
        parse_header(int(words[bad_word]))  # raises for this word
    if surplus < bad_word:
        raise CorruptStreamError(f"frame stream carries more than the declared {expected_count} samples")
    if total != expected_count:
        raise TruncationError(f"frame stream ended at {total} of {expected_count} samples")
    return out.tolist()


def _first(mask: np.ndarray) -> int:
    """Index of the first True in mask, or len(mask) when there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else mask.size


def decode_resilient(
    frames: Iterable[int | None],
    expected_count: int,
    order: int = 2,
    resync_originals: int | None = None,
) -> tuple[list[int | None], list[tuple[int, int]]]:
    """Decode a frame stream that may contain whole-frame erasures.

    frames yields 16-bit words, with None marking each erased frame.
    Returns (samples, unknown_spans). Samples lost to desynchronization
    come out as None; unknown_spans lists the maximal [start, stop) runs
    of None in the output.

    After an erasure the channel stays desynchronized until
    resync_originals consecutive raw (Type E) samples arrive; that
    defaults to the predictor order, the count needed to rebuild history
    exactly. Passing a smaller value resumes earlier by padding the
    missing history with the oldest known sample, trading exactness for
    a shorter outage: samples decoded on padded history are approximate
    (clamped into the 12-bit range when the drifted prediction leaves
    it) until a full run of raw samples rebuilds the history.

    Erased frames contribute no output entries, so when losses occurred
    len(samples) < expected_count and absolute positions past the first
    loss are only as good as the caller's alignment. On a loss-free
    stream the result equals decode_channel exactly.
    """
    coef = predictor.coefficients(order)
    L = len(coef)
    if resync_originals is None:
        resync_originals = L
    if not 1 <= resync_originals <= L:
        raise ValueError(f"resync_originals must be 1..{L} for order {order}")

    recent: list[int | None] = [0] * L  # last L output samples, most recent first
    synced = True
    exact = True  # history matches the encoder's, not a padded stand-in
    raw_run = 0  # consecutive raw samples just seen
    saw_loss = False
    out: list[int | None] = []
    for word in frames:
        if word is None:
            # The lost frame carried an unknown number of samples, so the
            # samples already in recent are no longer adjacent to whatever
            # comes next; only raw samples received after this point count.
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
            if not synced and raw_run >= resync_originals:
                for i in range(raw_run, L):
                    recent[i] = recent[raw_run - 1]
                synced = True
                exact = raw_run >= L
            elif raw_run >= L:
                exact = True
        elif synced:
            raw_run = 0
            if L == 2 and exact:
                # while synced the history holds plain ints; same loop as the
                # generic branch with the order-2 prediction spelled out
                h0, h1 = recent
                for e in fields:
                    x = 2 * h0 - h1 + e
                    if not predictor.SAMPLE_MIN <= x <= predictor.SAMPLE_MAX:
                        raise CorruptStreamError(f"reconstructed sample {x} outside the 12-bit range")
                    out.append(x)
                    h1 = h0
                    h0 = x
                recent[0] = h0
                recent[1] = h1
            else:
                for e in fields:
                    x = sum(a * h for a, h in zip(coef, recent)) + e
                    if not predictor.SAMPLE_MIN <= x <= predictor.SAMPLE_MAX:
                        if exact:
                            raise CorruptStreamError(f"reconstructed sample {x} outside the 12-bit range")
                        # padded history drifts; pin the approximation in range
                        x = max(predictor.SAMPLE_MIN, min(predictor.SAMPLE_MAX, x))
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
    return out, _none_runs(out)


def _none_runs(values: Sequence[int | None]) -> list[tuple[int, int]]:
    spans = []
    start = None
    for i, v in enumerate(values):
        if v is None and start is None:
            start = i
        elif v is not None and start is not None:
            spans.append((start, i))
            start = None
    if start is not None:
        spans.append((start, len(values)))
    return spans
