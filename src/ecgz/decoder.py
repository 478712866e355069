"""Frame parsing and sample reconstruction, with and without erasures.

One array core, _decode, serves both decoders. It places the fields as
encoder._pack packs them, one pass per frame type, from a table of every
16-bit word's fields built once per process. Type E fields are raw
samples, the other fields residuals, and the history starts as L zeros,
exactly as in the encoder; the Type E frames' positions bound the runs
of residual samples. An order-L slope predictor is an L-th difference,
so on a run the output is the L-fold running sum of its residuals plus a
sequence that the predictor continues exactly from the L outputs before
the run: a power of the predictor's companion matrix takes those L to
the run's last L. Runs fewer than L raw samples apart chain, which makes
the last L outputs of the runs an affine recurrence over runs; one
doubling scan solves it for every run at once. The fields are the
output's L-th differences but at raw samples, where the L-th difference
is the field minus its prediction. So one running sum of the fields,
shared with the scan, plus a step function of those corrections, then
L - 1 more running sums rebuild the stream, in wrapping int16
arithmetic that is exact up to the first out-of-range sample (_decode
says why).

_decode states the one defect rule for both: the first defect in stream
order raises, and a short stream raises only when no frame was erased.
decode_channel is the lossless view, where every sample is known.

decode_resilient accepts a stream where whole frames are missing (None
entries). A missing frame desynchronizes the predictor; until L
consecutive raw (Type E) samples arrive to rebuild its history the
decoder emits None for every residual-coded sample instead of guessing.
The core finds, from the boundaries of the runs of raw samples, where
each erasure's resync happens. Because a lost frame may have carried
1..6 samples, erased frames contribute no output positions and the
caller aligns the result against whatever ground truth it holds.
ecgz.decompress, ecgz verify and the loss harness call _decode directly.
"""

from __future__ import annotations

import functools
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import predictor
from .encoder import _TYPE_BY_COUNT, FRAME_TYPES, FrameType
from .errors import CorruptStreamError, ReservedHeaderError, TruncationError

_WORD_CHECK = "frame word {!r} is not a 16-bit value"
_INT64 = (-(1 << 63), (1 << 63) - 1)


class DecodedFrame(NamedTuple):
    ftype: FrameType
    fields: list[int]


# Samples per frame by the top four bits of a word: the headers are prefix-free,
# so at most one type's header matches; 0 marks the reserved header. The count
# alone names the type.
_COUNT_BY_TOP4 = sum(
    np.where(np.arange(16) >> (4 - ft.header_len) == ft.header_bits, ft.field_count, 0) for ft in FRAME_TYPES.values()
)


def parse_header(word: int) -> FrameType:
    """Classify a 16-bit frame word by its prefix-free header."""
    if not (isinstance(word, (int, np.integer)) and 0 <= word <= 0xFFFF):
        raise ValueError(_WORD_CHECK.format(word))
    count = int(_COUNT_BY_TOP4[word >> 12])
    if not count:
        raise ReservedHeaderError(f"word 0x{word:04X} uses the reserved 0010 header")
    return _TYPE_BY_COUNT[count]


def _field(word, ftype: FrameType, j: int):
    """Field j of frame words of type ftype, sign-extended (ints or int arrays)."""
    half = 1 << (ftype.field_width - 1)
    raw = (word >> (16 - ftype.header_len - ftype.field_width * (j + 1))) & (2 * half - 1)
    return (raw ^ half) - half


def unpack_frame(word: int) -> DecodedFrame:
    """Split a frame word into its type and sign-extended field values."""
    ftype = parse_header(word)
    return DecodedFrame(ftype, [_field(word, ftype, j) for j in range(ftype.field_count)])


@functools.cache
def _field_table() -> np.ndarray:
    """Every 16-bit word's sign-extended fields as a (6, 65536) int16 table, one row per field, zero-padded.

    Columns of the reserved header are all zero. Built on first use, once per process.
    """
    words = np.arange(1 << 16)
    table = np.zeros((6, words.size), dtype=np.int16)
    for ft in FRAME_TYPES.values():
        w = words[_COUNT_BY_TOP4[words >> 12] == ft.field_count]
        for j in range(ft.field_count):
            table[j, w] = _field(w, ft, j)
    return table


# The counts indexed by the top four bits clipped to -1..16, plus one; non-words count 0.
_COUNT_BY_CLIPPED_TOP4 = np.concatenate([[0], _COUNT_BY_TOP4, [0]]).astype(np.int8)


def _sample_counts(words: np.ndarray) -> np.ndarray:
    """Samples carried by each word of a signed integer array, as int8; 0 for the reserved header and non-words."""
    top = words >> 12
    np.maximum(top, -1, out=top)  # in place, and not np.clip, which costs more per call
    np.minimum(top, 16, out=top)
    top += 1
    return _COUNT_BY_CLIPPED_TOP4.take(top)


def _decode(
    frames: Sequence[int], expected_count: int, order: int, lost: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Decode frame words into (samples, known), int16 and bool arrays over the received frames' samples.

    frames is a list or an integer array of words; lost, when given, masks
    the erased frames, whose words are ignored. The first defect in stream
    order raises, as in a frame-by-frame decoder: a word that is not a
    frame, a frame past expected_count samples or a known sample outside
    the 12-bit range. A short stream raises only when no frame was erased.

    A sample is known when it is raw, or when a run of L consecutive raw
    samples came before it with no erasure since; the L zeros of initial
    history count as such a run. Unknown samples hold junk.

    The rebuild runs in wrapping int16 arithmetic. Every step is a ring
    operation (sums, differences, products with integer weights), so
    every output is exact mod 2**16. Each sample is L predictor terms
    plus a field of at most 7 bits away from the L samples before it, so
    up to and including the first out-of-range sample every true value
    is at most (2**L - 1) * 2048 + 64 = 30,784 in magnitude, fits int16
    and comes out exact, and the error names that value. Samples after
    it may wrap.
    """
    words = predictor.int_array(frames, *_INT64, _WORD_CHECK)  # the 16-bit range is checked in stream order
    counts = _sample_counts(words)
    defect = counts == 0
    if lost is not None:
        counts[lost] = 0
        defect &= ~lost
    ends = np.cumsum(counts)
    bad_word, surplus = _first(defect), _first(ends > expected_count)
    stop = min(bad_word, surplus)  # frames before the first defect decode normally
    L = len(predictor.coefficients(order))
    n = int(ends[stop - 1]) + L if stop else L
    counts, starts = counts[:stop], ends[:stop]
    starts -= counts - L  # in place: the buffer index of each frame's first sample

    buf = np.zeros(n, dtype=np.int16)  # L zeros of history, then every field
    raw = np.empty(0, dtype=np.intp)  # until the Type E pass, if any
    for count in _TYPE_BY_COUNT:  # one pass per type, the mirror of encoder._pack
        frames = (counts == count).nonzero()[0]
        if not frames.size:
            continue
        w, at = words.take(frames), starts.take(frames)
        for j, column in enumerate(_field_table()[:count]):
            if j:
                at += 1
            buf[at] = column.take(w)
        if count == 1:
            raw = at  # Type E, the one single-sample frame: its samples in stream order
    bounds = np.concatenate(([L - 1], raw, [n]))  # the last history zero, the raw samples and a stop mark n
    runs = (bounds[1:] - bounds[:-1] > 1).nonzero()[0]  # the residual runs lie between them
    firsts, lasts = bounds[runs] + 1, bounds[runs + 1] - 1
    known = _known(n, raw, firsts, lasts, starts[:0] if lost is None else starts[lost[:stop]], L)
    header = int(words[bad_word]) if bad_word < surplus else 0  # kept for parse_header's error below
    # Free the word-sized arrays before the rebuild allocates its own: the
    # smaller peak lets a call reuse the heap that the previous call freed.
    del words, ends, starts, counts

    # Rebuild every maximal run of residual samples from the L outputs
    # before it. The fields are L-th differences of the output, except that
    # a raw sample's is its value minus its prediction from the L samples
    # before it, which are raw or in the last run's exit window
    # (_run_exits). The running sum of those corrections is a step
    # function; added to the running sum of buf, which also feeds
    # _run_exits, it leaves L - 1 running sums to restore every sample,
    # exact mod 2**16. Runs after an erasure come out as if nothing were
    # lost, which is junk until L raw samples resync; no known sample
    # depends on them.
    out = buf
    if firsts.size:
        out = np.cumsum(buf, dtype=np.int16)
        if raw.size:
            G = buf if L == 1 else out  # the (L-1)-fold running sum of buf
            for k in range(L - 2):
                G = np.cumsum(G, out=G if k else None, dtype=np.int16)
            exits = (lasts[:, None] - L + 1 + np.arange(L)).ravel()
            buf[exits] = _run_exits(buf, G, firsts, lasts, L).ravel()
            step = np.zeros(raw.size, dtype=np.int16)
            for k, a in enumerate(predictor.coefficients(order), start=1):
                step -= a * buf[raw - k]
            out[raw[0] :] += np.repeat(np.cumsum(step, dtype=np.int16), bounds[2:] - raw)
        for _ in range(L - 1):
            np.cumsum(out, out=out, dtype=np.int16)
    lo, hi = predictor.SAMPLE_MIN, predictor.SAMPLE_MAX
    out, known = out[L:], known[L:]
    wrong = _first(known & ((out < lo) | (out > hi)))
    if wrong < out.size:
        raise CorruptStreamError(f"reconstructed sample {out[wrong]} outside the 12-bit range")
    if bad_word < surplus:
        parse_header(header)  # raises for the first word that is not a frame
    if surplus < bad_word:
        raise CorruptStreamError(f"frame stream carries more than the declared {expected_count} samples")
    if out.size < expected_count and (lost is None or not lost.any()):
        raise TruncationError(f"frame stream ended at {out.size} of {expected_count} samples")
    return out, known


def _known(n: int, raw: np.ndarray, firsts: np.ndarray, lasts: np.ndarray, cuts: np.ndarray, L: int) -> np.ndarray:
    """Which of the n buffer samples are known, given erasures just before the indices cuts.

    raw holds the raw samples' indices, and firsts, lasts bound the runs of
    residual samples between them. Raw samples are known, and so is every
    sample before the first cut, the L of history included. After it, an
    epoch runs from one cut to the next; the first L raw samples in a row
    within an epoch resynchronize it, and its samples from the L-th on are known.
    """
    if not cuts.size:
        return np.ones(n, dtype=bool)
    rs, re = np.append(0, lasts + 1), np.append(firsts, n)  # the raw runs [rs, re)
    # The run that ends after a cut starts at the cut at the earliest; if it
    # holds fewer than L samples from there, the next run of at least L syncs.
    k = np.searchsorted(re, cuts, side="right")
    head = np.maximum(np.append(rs, n)[k], cuts)
    longs = np.flatnonzero(re - rs >= L)
    later = np.append(rs[longs], n)[np.searchsorted(longs, k, side="right")]
    synced = np.where(np.append(re, n)[k] - head >= L, head, later) + L - 1
    ends = np.append(cuts[1:], n)
    ok = synced < ends
    marks = np.zeros(n + 1, dtype=np.int8)  # +1 where a known stretch begins, -1 past its end
    marks[np.append(0, synced[ok])] = 1
    marks[np.append(cuts[0], ends[ok])] -= 1
    known = np.cumsum(marks[:n], dtype=np.int8).view(bool)
    known[raw] = True
    return known


def _run_exits(buf: np.ndarray, G: np.ndarray, firsts: np.ndarray, lasts: np.ndarray, L: int) -> np.ndarray:
    """The samples in each run's exit window, as an (R, L) int16 array exact mod 2**16.

    Run r holds residuals at firsts[r]..lasts[r]; its entry window is the
    L samples before it, its exit window its last L samples. G is the
    (L-1)-fold running sum of buf, folded by the caller from the running
    sum its own rebuild starts from. Let F be the L-fold running sum of
    buf: on a run, the predictor is exact on x - F, so exit = F + M (entry
    - F) for M = C**length, C the order-L companion matrix (_run_maps).
    An entry sample is raw, or it is in the previous run's exit window
    when fewer than L raw samples separate the runs. That makes the exits
    an affine recurrence over runs,
    exit_r = P_r exit_(r-1) + q_r, solved by Hillis-Steele doubling over
    batched int16 matrix products (numpy's integer matmul wraps like the
    rest). P_r is 0 after a gap of L raw samples, and the scan stops once
    every composed P is. Composed maps also lose factors of 2, so along
    the chains of real streams they reach 0 mod 2**16 within about a
    hundred runs.
    """
    R, win = firsts.size, np.arange(L)
    entry = firsts[:, None] - L + win
    # F at the window positions. The windows' first samples, entry then exit
    # window of each run in turn, strictly increase: one reduceat over G
    # gives F just before each, a short cumsum the rest.
    i16 = np.int16
    starts = np.stack([firsts - L, lasts - L + 1], axis=1).ravel()
    sums = [[G[: starts[0]].sum(dtype=i16)], np.add.reduceat(G[: starts[-1]], starts[:-1], dtype=i16)]
    before = np.cumsum(np.concatenate(sums), dtype=i16)
    F = (before[:, None] + np.cumsum(G[starts[:, None] + win], axis=1, dtype=i16)).reshape(R, 2, L)
    M = _run_maps(lasts - firsts + 1, L)
    gaps = firsts - np.concatenate([[-L - 1], lasts[:-1]]) - 1  # raw samples before each run
    # entry sample l is exit sample l + gap of the run before when l + gap < L, else raw
    shift = win == win[:, None] + gaps[:, None, None]
    raw_part = np.where(win >= L - gaps[:, None], buf[entry], 0)
    # (L+1)-square affine maps from the exit window before each run to its own
    T = np.zeros((R, L + 1, L + 1), dtype=i16)
    T[:, :L, :L] = M @ shift
    T[:, :L, L] = F[:, 1] + (M @ (raw_part - F[:, 0])[:, :, None])[:, :, 0]
    T[:, L, L] = 1
    # Hillis-Steele: after the step with stride d, T_r maps exit r - 2d to exit r.
    # Where its linear part is 0, its last column is exit r and the row is done.
    active, d = np.flatnonzero(T[:, :L, :L].any(axis=(1, 2))), 1
    while active.size:
        T[active] = U = T[active] @ T[active - d]
        active, d = active[U[:, :L, :L].any(axis=(1, 2))], 2 * d
    return T[:, :L, L]


@functools.cache
def _powers(L: int) -> np.ndarray:
    """C**(j * 256**k) for j < 256 and k < 8, as an (8, 256, L, L) int16 table exact mod 2**16.

    C, the order-L companion matrix, steps a window of L samples one
    sample on by the predictor: its rows are the identity shifted up one,
    then the coefficients reversed. Built on first use, once per order.
    """
    C = np.eye(L, k=1, dtype=np.int16)
    C[-1] = predictor.coefficients(L)[::-1]
    table = np.empty((8, 256, L, L), dtype=np.int16)
    for k in range(8):
        table[k, 0] = np.eye(L, dtype=np.int16)
        for m in 1, 2, 4, 8, 16, 32, 64, 128:  # C is C**(m * 256**k) here
            table[k, m : 2 * m] = table[k, :m] @ C
            C = C @ C
    table.flags.writeable = False  # one table per order, shared by every call
    return table


def _run_maps(lengths: np.ndarray, L: int) -> np.ndarray:
    """C**length for each run length, as an (R, L, L) int16 array exact mod 2**16: one product per base-256 digit."""
    table = _powers(L)
    M, rest, k = table[0, lengths & 255], lengths >> 8, 1
    while rest.any():
        M = M @ table[k, rest & 255]
        rest, k = rest >> 8, k + 1
    return M


def _first(mask: np.ndarray) -> int:
    """Index of the first True in mask, or len(mask) when there is none."""
    hits = mask.nonzero()[0]
    return int(hits[0]) if hits.size else mask.size


def decode_channel(frames: Sequence[int], expected_count: int, order: int = 2) -> list[int]:
    """Losslessly rebuild exactly expected_count samples from one channel's frame words; the first defect raises."""
    return _decode(frames, expected_count, order)[0].tolist()


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
    loss are only as good as the caller's alignment. A short stream
    raises only when no frame was erased, so on a loss-free stream the
    result, or the error, equals decode_channel's exactly.
    """
    received = list(frames)
    lost = np.zeros(len(received), dtype=bool)
    i = -1
    try:  # list.index finds each None at C speed
        while True:
            i = received.index(None, i + 1)
            received[i], lost[i] = 0, True
    except ValueError:
        pass
    out, known = _decode(received, expected_count, order, lost)
    spans = _runs(~known)
    samples = out.tolist()
    for start, stop in spans:
        samples[start:stop] = [None] * (stop - start)
    return samples, spans


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """The maximal [start, stop) runs of True in a bool array."""
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    return list(zip(edges[0::2].tolist(), edges[1::2].tolist()))
