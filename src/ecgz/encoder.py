"""Residual classification and fixed 16-bit frame packing.

Every emitted frame is exactly 16 bits: a prefix-free header followed by
equal-width two's-complement fields.

    type  header  fields           carries
    A     1       3 x 5 bits       residuals
    B     01      2 x 7 bits       residuals
    C     0001    4 x 3 bits       residuals
    D     0000    6 x 2 bits       residuals
    E     0011    1 x 12 bits      one original sample

Header 0010 is reserved. Residuals are classified by the smallest field
width that holds them (2, 3, 5, or 7 bits); anything wider escapes to
Type E, which stores the raw sample instead. Pending samples queue up
(at most 6) and whenever the queue is full the densest applicable type
wins, in priority order D, C, A, B, E. The array core (encode_channel,
run per lead by encode_channels) states each frame rule once:
_frame_counts selects, _frame_walk walks, and _PACKERS, one
shift-and-or expression per type, packs a whole numpy pass. The
streaming ChannelEncoder looks each frame size up in a table that
_frame_counts builds over every window of six width classes, packs one
frame with the same _PACKERS, and flushes its queue through the core.

Type E doubles as the resynchronization frame: at a configurable sample
interval the encoder forces RESYNC_RAW_SAMPLES consecutive E frames so a
decoder that lost frames can rebuild its predictor history from the raw
samples.

The core finds every frame start without a per-frame loop. A step table
sends each position to the start of the next frame, with the forced E
frames of each resync folded in at the few positions just before it.
Pointer doubling over that table jumps 32 frames at a time, so a short
loop collects one anchor per 32 frames, and gathers of the step table
fill in the frames between anchors.

The core runs at the datapath's widths. Samples and residuals are int16,
which is exact: an order-L residual of 12-bit input, the L-th difference,
spans at most 4095 * 2**(L-1) = 32,760, and each lower difference less.
Width classes (int8) and frame sizes are sums of comparisons, not table
gathers. The step tables and the packing gathers index with intp, numpy's
own index type: take converts any other index to a fresh intp copy first.
Words are or-ed together from the uint16 bit patterns and widened to
int64 once, at the end.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import predictor
from .predictor import SAMPLE_BITS, SAMPLE_MAX, SAMPLE_MIN

# Worth a reminder: 4 seconds of samples, the default resync spacing,
# is 2048 samples at the 512 Hz front-end rate.
DEFAULT_RESYNC_INTERVAL = 2048

MAX_CHANNELS = 4

# Raw samples forced at each resync: two rebuild the order-2 history.
RESYNC_RAW_SAMPLES = 2


@dataclass(frozen=True)
class FrameType:
    tag: str
    header_bits: int
    header_len: int
    field_width: int
    field_count: int
    carries_original: bool = False


FRAME_A = FrameType("A", 0b1, 1, 5, 3)
FRAME_B = FrameType("B", 0b01, 2, 7, 2)
FRAME_C = FrameType("C", 0b0001, 4, 3, 4)
FRAME_D = FrameType("D", 0b0000, 4, 2, 6)
FRAME_E = FrameType("E", 0b0011, 4, SAMPLE_BITS, 1, carries_original=True)

FRAME_TYPES: dict[str, FrameType] = {ft.tag: ft for ft in (FRAME_A, FRAME_B, FRAME_C, FRAME_D, FRAME_E)}
PRIORITY: tuple[FrameType, ...] = (FRAME_D, FRAME_C, FRAME_A, FRAME_B, FRAME_E)
RESERVED_HEADER_BITS = 0b0010

WIDTH_CLASSES = (2, 3, 5, 7)
# Pseudo-width for residuals wider than 7 bits; only Type E can carry those.
ESC = 8


def min_width_class(e: int) -> int:
    """Smallest field width whose two's-complement range holds e, else ESC.

    A residual fits c bits exactly when every bit above bit c-1 equals
    the sign bit, i.e. the arithmetic shift e >> (c-1) is 0 or -1.
    """
    for c in WIDTH_CLASSES:
        if (e >> (c - 1)) in (0, -1):
            return c
    return ESC


def width_classes(errors: np.ndarray) -> np.ndarray:
    """Vectorized min_width_class as int8; residuals beyond int16 are ESC, so they are clipped to it."""
    e = np.asarray(errors)
    e = e if e.dtype == np.int16 else np.clip(e, -(1 << 15), (1 << 15) - 1).astype(np.int16)
    a = e ^ (e >> 15)  # e, or -e - 1 below 0: e fits c bits when a < 2**(c-1)
    c = (a > 3).view(np.int8) + (a > 15) + 1
    c += c  # 2 + 2[a > 3] + 2[a > 15], then + [a > 1] + [a > 63]
    c += (a > 1).view(np.int8) + (a > 63)
    return c


# ChannelEncoder's table, a plain int per uint16 bit pattern of a residual, made on first use
_width_list = functools.cache(lambda: width_classes(np.arange(1 << 16, dtype=np.uint16).view(np.int16)).tolist())


@dataclass(frozen=True)
class PendingSample:
    original: int
    error: int
    width: int


# Frame type by sample count: the count alone identifies the type.
_TYPE_BY_COUNT = {ft.field_count: ft for ft in PRIORITY}

# The word of the count-sample frame at the front of v, by count (which alone
# identifies the type): raw samples for E, else residuals. The v[j] are ints,
# or in the array core one gathered array per field.
_PACKERS = (
    None,
    lambda v: 0x3000 | (v[0] & 0xFFF),
    lambda v: 0x4000 | (v[0] & 0x7F) << 7 | (v[1] & 0x7F),
    lambda v: 0x8000 | (v[0] & 0x1F) << 10 | (v[1] & 0x1F) << 5 | (v[2] & 0x1F),
    lambda v: 0x1000 | (v[0] & 7) << 9 | (v[1] & 7) << 6 | (v[2] & 7) << 3 | (v[3] & 7),
    None,
    lambda v: (v[0] & 3) << 10 | (v[1] & 3) << 8 | (v[2] & 3) << 6 | (v[3] & 3) << 4 | (v[4] & 3) << 2 | (v[5] & 3),
)


@functools.cache
def _size_table() -> dict[int, int]:
    """Frame size of every six-sample window of width classes, by rolling key.

    The key holds one width class per 4 bits, the queue front highest.
    The sizes come from the array core's rule, so the streaming encoder
    and the core cannot disagree.
    """
    classes = np.array([*WIDTH_CLASSES, ESC], dtype=np.int8)
    combos = classes[np.indices((classes.size,) * 6).reshape(6, -1).T]
    keys = combos @ (1 << np.arange(20, -1, -4))
    return dict(zip(keys.tolist(), _frame_counts(combos.ravel())[::6].tolist()))


def pack_frame(ftype: FrameType, payload: Sequence[PendingSample]) -> int:
    """Assemble one 16-bit frame word, header first, fields MSB-first."""
    if len(payload) != ftype.field_count:
        raise ValueError(f"Type {ftype.tag} packs {ftype.field_count} samples, got {len(payload)}")
    if ftype.carries_original:
        return _PACKERS[1]([payload[0].original])
    w = ftype.field_width
    for p in payload:
        if min_width_class(p.error) > w:
            raise AssertionError(f"residual {p.error} overflows a {w}-bit field; selection must prevent this")
    return _PACKERS[ftype.field_count]([p.error for p in payload])


@dataclass(frozen=True)
class EncoderConfig:
    resync_interval_samples: int = DEFAULT_RESYNC_INTERVAL  # 0 disables resync
    channel_count: int = 1
    order: int = 2

    def __post_init__(self) -> None:
        if self.resync_interval_samples < 0:
            raise ValueError("resync interval cannot be negative")
        if not 1 <= self.channel_count <= MAX_CHANNELS:
            raise ValueError(f"channel count must be 1..{MAX_CHANNELS}")
        predictor.coefficients(self.order)


class ChannelEncoder:
    """Streams one channel's samples into 16-bit frame words, a frame at a time."""

    def __init__(self, config: EncoderConfig | None = None) -> None:
        self.config = config or EncoderConfig()
        self._diffs = predictor.zero_state(self.config.order)  # previous x, Δx, ..., Δ^(L-1) x
        self._steps = range(len(self._diffs))
        self._xs, self._es = [], []  # the queue: samples and residuals
        # Width classes of the last six samples pushed, newest in the low 4 bits.
        # A frame is chosen only with six queued, and those are the last six pushed.
        self._key = 0
        self._sizes, self._widths = _size_table(), _width_list()
        # counts down to 0 at each resync; starts at 0 (never reached again) when resync is off
        self._until_resync = self.config.resync_interval_samples
        self.resync_pending = 0

    def push_sample(self, x: int) -> list[int]:
        """Accept one sample, an integer in the 12-bit range (else ValueError, changing nothing); return its frames."""
        if type(x) is not int:
            try:
                x = operator.index(x)
            except TypeError:
                raise ValueError(predictor.SAMPLE_CHECK.format(x)) from None
        if not SAMPLE_MIN <= x <= SAMPLE_MAX:
            raise ValueError(f"sample {x} outside {SAMPLE_MIN}..{SAMPLE_MAX}")
        e, d = x, self._diffs
        for k in self._steps:
            e, d[k] = e - d[k], e
        xs, es = self._xs, self._es
        xs.append(x)
        es.append(e)
        self._key = key = (self._key << 4 | self._widths[e & 0xFFFF]) & 0xFFFFFF  # exact: |e| <= 32,760
        if len(xs) < 6:
            emitted = []
        elif self.resync_pending:
            self.resync_pending -= 1
            emitted = [_PACKERS[1](xs)]
            del xs[0], es[0]
        else:
            count = self._sizes[key]
            emitted = [_PACKERS[count](xs if count == 1 else es)]
            del xs[:count], es[:count]
        self._until_resync -= 1
        if self._until_resync == 0:
            self.resync_pending = RESYNC_RAW_SAMPLES
            self._until_resync = self.config.resync_interval_samples
        return emitted

    def flush(self) -> list[int]:
        """Drain the queue at end of input, greedily: a pending resync does not apply."""
        x, err = np.array(self._xs, dtype=np.int16), np.array(self._es, dtype=np.int16)
        self._xs, self._es = [], []
        return _pack(x, err, _frame_walk(_frame_counts(width_classes(err)), 0, 0)).tolist()


def encode_channel(samples: Sequence[int], config: EncoderConfig | None = None) -> np.ndarray:
    """Encode one whole channel into int64 frame words; equals push_sample over samples then flush.

    Residuals give width classes, the width classes the greedy frame size
    at every position (_frame_counts), and the step table with its
    pointer doubling every frame start (_frame_walk); _pack packs each
    type in one numpy pass.
    """
    cfg = config or EncoderConfig()
    x, err = predictor.narrow_residuals(samples, cfg.order)  # validates sample range
    starts = _frame_walk(_frame_counts(width_classes(err)), cfg.resync_interval_samples, RESYNC_RAW_SAMPLES)
    return _pack(x, err, starts)


def _frame_counts(widths: np.ndarray) -> np.ndarray:
    """Greedy frame size, as int8, for a queue front at every start position.

    The type conditions nest (D implies C implies A implies B), so the
    priority winner's size is 1 + [B] + [A] + [C] + 2[D]. Widths past the
    end are padded above ESC, so the same rule serves the final flush,
    where only types that fit the short queue qualify.
    """
    w = np.concatenate([widths, np.full(5, ESC + 1, dtype=widths.dtype)])  # the last window of six reads 5 past the end
    w2 = np.maximum(w[:-1], w[1:])  # wk[i]: widest of the k samples from i
    w3 = np.maximum(w2[:-1], w[2:])
    w4 = np.maximum(w3[:-1], w[3:])
    d = np.maximum(w4[:-2], w2[4:]) <= FRAME_D.field_width
    counts = (w2[:-4] <= FRAME_B.field_width).view(np.int8) + (w3[:-3] <= FRAME_A.field_width)
    counts += (w4[:-2] <= FRAME_C.field_width).view(np.int8) + d + d + FRAME_E.field_count
    return counts


# The doubling table jumps 2**_DOUBLINGS frames; a Python loop steps over
# those jumps, about one per 90 samples of ECG.
_DOUBLINGS = 5


def _forced_end(landing: np.ndarray, last: int, interval: int, e_frames: int) -> np.ndarray:
    """End of the forced single frames from each landing, chained through stops.

    A frame from a landing at or after stop k * interval - 5 goes out with
    a resync pending, so it and the frames after it are Type E, up to
    e_frames of them, the flush at last = n - 5, or the next stop. At
    that stop a new resync restarts the count of e_frames.
    """
    if interval <= e_frames:  # every forced run reaches the next stop
        return np.full_like(landing, last)
    stop = landing + interval - (landing + 5) % interval  # the next stop after each landing
    end = np.minimum(np.minimum(landing + e_frames, last), stop)
    return np.where((stop <= landing + e_frames) & (stop < last), np.minimum(stop + e_frames, last), end)


def _frame_walk(counts: np.ndarray, interval: int, e_frames: int) -> np.ndarray:
    """First sample of every frame, given the greedy frame size at every position.

    The frame starting at qs goes out when sample qs + 5 arrives, or in
    the final flush once qs + 5 >= n. A resync fired after sample
    k * interval - 1 forces Type E on the next e_frames emissions; a
    later one restarts the count, and the flush ignores it. So the walk
    is greedy except where a frame lands at or after a stop
    k * interval - 5.

    - Step table: position i steps to i + counts[i]. Only the six
      positions before each stop can step onto or over it; from those,
      a landing before the flush steps on to where its forced E frames
      end (_forced_end), and the forced frames are put back at the end.
    - Pointer doubling: _DOUBLINGS gathers make a table that jumps
      2**_DOUBLINGS frames, a Python loop collects every such anchor of
      the chain from the first frame, and gathers of the step table fill
      in the frames between anchors. Two tables hold the levels in turn.
      A chain shorter than one jump has its first frame as sole anchor
      and builds no jump table.
    """
    n = counts.size
    last = n - 5  # frames from here on go out in the flush
    step = np.arange(n + 1, dtype=np.intp)  # step[n] = n ends every chain
    step[:n] += counts
    start, froms = 0, np.zeros(0, dtype=np.int64)
    if interval and last > max(interval - 5, 0):  # a resync fires before the flush
        # the six positions before each stop, fewer where stops are closer
        froms = (np.arange(interval - 5, last, interval)[:, None] - np.arange(min(interval, 6), 0, -1)).ravel()
        froms = froms[froms >= 0]
        landings = froms + counts[froms]
        hit = (landings < last) & ((landings + 5) // interval > (froms + 5) // interval)  # a stop in (from, landing]
        froms, landings = froms[hit], landings[hit]
        ends = _forced_end(landings, last, interval, e_frames)
        step[froms] = ends
        if interval <= 5:  # the first resync fires before the first frame goes out
            start = int(_forced_end(np.zeros(1, dtype=np.int64), last, interval, e_frames)[0])
    anchors = [start]  # a chain from start reaches n within n - start frames, so one anchor covers it
    if n - start >= 1 << _DOUBLINGS:
        # mode="clip" never clips (every entry indexes the table) but lets take write into out unbuffered
        jump, spare = step.take(step), np.empty_like(step)
        for _ in range(_DOUBLINGS - 1):
            jump.take(jump, out=spare, mode="clip")
            jump, spare = spare, jump
        del spare
        jumps = memoryview(jump)  # a memoryview indexes to plain ints
        a = jumps[start]
        while a < n:
            anchors.append(a)
            a = jumps[a]
        del jumps, jump
    # row k: k frames past each anchor
    chain = np.empty((min(1 << _DOUBLINGS, n - start + 1), len(anchors)), dtype=np.intp)
    chain[0] = anchors
    rows = list(chain)
    for prev, row in zip(rows, rows[1:]):
        step.take(prev, out=row, mode="clip")
    chain = chain.T.ravel()
    starts = chain[: np.searchsorted(chain, n)]
    if froms.size:  # the forced frames follow each from that the chain takes
        at = np.searchsorted(starts, froms)
        taken = starts[np.minimum(at, starts.size - 1)] == froms  # starts is not empty when froms is not
        runs = (ends - landings)[taken]
        forced = np.arange(runs.sum())  # forced frame q is the (q - before)-th of its run
        before = np.repeat(np.cumsum(runs) - runs, runs)
        starts = np.insert(starts, np.repeat(at[taken] + 1, runs), np.repeat(landings[taken], runs) + forced - before)
    if start:  # the frames before the start are forced ones
        starts = np.concatenate([np.arange(start), starts])
    return starts


def _pack(x: np.ndarray, err: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Frame words, as int64, of the frames that start at starts; x and err are int16.

    The sizes between starts name the types; each type is one _PACKERS
    call on its frames' fields, gathered as one uint16 array per field.
    """
    sizes = np.diff(starts, append=err.size)
    xu, eu = x.view(np.uint16), err.view(np.uint16)
    words = np.zeros(starts.size, dtype=np.uint16)
    for count in _TYPE_BY_COUNT:  # one pass per type
        frames = np.flatnonzero(sizes == count)  # integer indices gather faster than a boolean mask
        at = starts.take(frames) + np.arange(count, dtype=starts.dtype)[:, None]
        words[frames] = _PACKERS[count]((xu if count == 1 else eu).take(at))
    return words.astype(np.int64)


def encode_channels(channels: Sequence[Sequence[int]], config: EncoderConfig | None = None) -> list[np.ndarray]:
    """Encode simultaneously sampled, equal-length leads: per lead, its int64 frame words."""
    cfg = config or EncoderConfig(channel_count=len(channels) or 1)
    nch = len(channels)
    if nch != cfg.channel_count:
        raise ValueError(f"got {nch} channels but config says {cfg.channel_count}")
    if len({len(c) for c in channels}) > 1:
        raise ValueError("channel arrays must have equal lengths; stream unequal channels instead")
    return [encode_channel(samples, cfg) for samples in channels]
