"""Frame parsing and sample reconstruction, with and without erasures.

Both decoders run one array core. It places every field of every frame
at once, then rebuilds each run of residual-coded samples from the L
outputs before it: an order-L slope predictor is an L-th difference, so
L cumulative sums undo it. Type E fields are taken as raw samples, and
the history starts as L zeros, exactly as in the encoder.

decode_channel is the lossless path: the stream must account for
exactly the declared sample count, and any defect raises.

decode_resilient accepts a stream where whole frames are missing (None
entries). A missing frame desynchronizes the predictor; until L
consecutive raw (Type E) samples arrive to rebuild its history the
decoder emits None for every residual-coded sample instead of guessing.
Because a lost frame may have carried 1..6 samples, erased frames
contribute no output positions and the caller aligns the result against
whatever ground truth it holds.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import predictor
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


def _field(word, ftype: FrameType, j: int):
    """Field j of frame words of type ftype, sign-extended (ints or int arrays)."""
    half = 1 << (ftype.field_width - 1)
    raw = (word >> (16 - ftype.header_len - ftype.field_width * (j + 1))) & (2 * half - 1)
    return (raw ^ half) - half


def unpack_frame(word: int) -> DecodedFrame:
    """Split a frame word into its type and sign-extended field values."""
    ftype = parse_header(word)
    return DecodedFrame(ftype, [_field(word, ftype, j) for j in range(ftype.field_count)])


# Samples per frame by the top four bits of a word; 0 marks the reserved header.
_COUNT_BY_TOP4 = np.array([6, 4, 0, 1] + [2] * 4 + [3] * 8)  # D, C, reserved, E, then B and A


def _sample_counts(words: np.ndarray) -> np.ndarray:
    """Samples carried by each word; 0 for the reserved header and non-words."""
    return np.where((words >= 0) & (words <= 0xFFFF), _COUNT_BY_TOP4[(words >> 12) & 15], 0)


def _rebuild(
    words: np.ndarray, counts: np.ndarray, lost: np.ndarray, stop: int, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Decode frames [0, stop) into (samples, known) int64 and bool arrays.

    counts holds each frame's sample count, 0 for the erased frames that
    lost marks. A sample is known when it is raw, or when a run of L
    consecutive raw samples came before it with no erasure since; the L
    zeros of initial history count as such a run. Unknown samples hold
    junk. Raises CorruptStreamError for the first known sample outside
    the 12-bit range.
    """
    L = len(predictor.coefficients(order))
    words, counts, lost = words[:stop], counts[:stop], lost[:stop]
    starts = np.cumsum(counts) - counts + L  # buffer index of each frame's first sample
    n = int(starts[-1] + counts[-1]) if stop else L

    buf = np.zeros(n, dtype=np.int64)  # L zeros of history, then every field
    is_raw = np.zeros(n + 1, dtype=bool)  # the L zeros count as raw; a stop mark past the end
    is_raw[:L] = is_raw[n] = True
    for ft in FRAME_TYPES.values():
        sel = counts == ft.field_count
        w, q = words[sel], starts[sel]
        for j in range(ft.field_count):
            buf[q + j] = _field(w, ft, j)
        is_raw[q] = ft.carries_original

    # Samples before the first erasure are known. After it, an epoch is
    # the stretch of samples between two erasures. Tag each sample with
    # its epoch's first index and with the first index of the raw run it
    # ends (its own index + 1 if it is residual); a run that reaches L
    # samples within one epoch resynchronizes the rest of the epoch.
    known = np.ones(n, dtype=bool)
    cuts = starts[lost]
    if cuts.size:
        f = int(cuts[0])
        pos = np.arange(f, n)
        epoch = np.zeros(n + 1 - f, dtype=np.int64)
        epoch[cuts - f] = cuts
        epoch = np.maximum.accumulate(epoch[: n - f])
        raw = is_raw[f:n]
        run_start = np.maximum(np.maximum.accumulate(np.where(raw, 0, pos + 1)), epoch)
        synced_at = np.maximum.accumulate(np.where(pos - run_start >= L - 1, pos, -1))
        known[f:] = raw | (synced_at >= epoch)
        raw |= ~known[f:]  # the loop below leaves unknown samples alone too

    # Each maximal run of known residual samples follows L known outputs.
    # Put their L-th differences (zeros before them) in their place: L
    # cumulative sums then restore them and carry on through the run.
    # While every earlier sample is in range, every partial sum is a
    # bounded difference, so the first out-of-range sample comes out
    # exact even where int64 wraps further on.
    lo, hi = predictor.SAMPLE_MIN, predictor.SAMPLE_MAX
    accumulate = np.add.accumulate
    edges = np.diff(is_raw.view(np.int8))
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
    out, known = buf[L:], known[L:]
    wrong = _first(known & ((out < lo) | (out > hi)))
    if wrong < out.size:
        raise CorruptStreamError(f"reconstructed sample {out[wrong]} outside the 12-bit range")
    return out, known


def _first(mask: np.ndarray) -> int:
    """Index of the first True in mask, or len(mask) when there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else mask.size


def decode_channel(frames: Sequence[int], expected_count: int, order: int = 2) -> list[int]:
    """Losslessly rebuild one channel from its frame words.

    The frame stream must account for exactly expected_count samples;
    anything short, long, or malformed raises. Of several defects the
    first in stream order is reported, as a frame-by-frame decoder would.
    """
    return _decode_words(frames, expected_count, order).tolist()


def _decode_words(frames: Sequence[int], expected_count: int, order: int) -> np.ndarray:
    """decode_channel returning an int64 array; frames may be a list or an integer array."""
    words = np.asarray(frames, dtype=np.int64)
    counts = _sample_counts(words)
    bad_word, surplus = _first(counts == 0), _first(np.cumsum(counts) > expected_count)
    # frames before the first defect decode normally
    out, _ = _rebuild(words, counts, np.zeros(words.size, dtype=bool), min(bad_word, surplus), order)
    if bad_word < surplus:
        parse_header(int(words[bad_word]))  # raises for this word
    if surplus < bad_word:
        raise CorruptStreamError(f"frame stream carries more than the declared {expected_count} samples")
    if out.size != expected_count:
        raise TruncationError(f"frame stream ended at {out.size} of {expected_count} samples")
    return out


def decode_resilient(
    frames: Iterable[int | None], expected_count: int, order: int = 2
) -> tuple[list[int | None], list[tuple[int, int]]]:
    """Decode a frame stream that may contain whole-frame erasures.

    frames yields 16-bit words, with None marking each erased frame.
    Returns (samples, unknown_spans). Samples lost to desynchronization
    come out as None; unknown_spans lists the maximal [start, stop) runs
    of None in the output.

    After an erasure the channel stays desynchronized until as many
    consecutive raw (Type E) samples arrive as the predictor order, the
    count needed to rebuild its history exactly.

    Erased frames contribute no output entries, so when losses occurred
    len(samples) < expected_count and absolute positions past the first
    loss are only as good as the caller's alignment. On a loss-free
    stream the result equals decode_channel exactly. A stream that
    carries more than expected_count samples raises; a short one raises
    only when no frame was erased.
    """
    out, known, _ = _decode_erasures(frames, expected_count, order)
    samples = out.astype(object)
    samples[~known] = None
    return samples.tolist(), _runs(~known)


def _decode_erasures(
    frames: Iterable[int | None], expected_count: int, order: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """decode_resilient as arrays: (samples, known) over the received frames' samples, and lost per frame."""
    received = np.array(list(frames), dtype=object)
    lost = np.equal(received, None)
    words = np.where(lost, 0, received).astype(np.int64)
    counts = np.where(lost, 0, _sample_counts(words))
    bad_word = _first((counts == 0) & ~lost)
    out, known = _rebuild(words, counts, lost, bad_word, order)
    if bad_word < words.size:
        parse_header(int(words[bad_word]))  # raises for this word
    if out.size > expected_count:
        raise CorruptStreamError(f"frame stream carries more than the declared {expected_count} samples")
    if out.size < expected_count and not lost.any():
        raise TruncationError(f"frame stream ended at {out.size} of {expected_count} samples")
    return out, known, lost


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """The maximal [start, stop) runs of True in a bool array."""
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    return list(zip(edges[0::2].tolist(), edges[1::2].tolist()))
