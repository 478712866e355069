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
(at most 6, Type D's count) and whenever the queue is full the densest
applicable type wins, in priority order D, C, A, B, E. So the frame that
starts at sample q goes out when sample q + SEND_LAG (5) arrives, or in
the flush at the end of input. SEND_LAG states that schedule once: the
core, the streaming encoder's table and the loss harness read it. The
array core (encode_channel, run per lead by encode_channels) states each
frame rule once: _frame_counts selects, _Walk walks, and _PACKERS, one
shift-and-or expression per type, packs a whole numpy pass. The
streaming ChannelEncoder looks each frame size up in a table that
_frame_counts builds over every window of six width classes, packs one
frame with the same _PACKERS, and flushes its queue through the core.

Type E doubles as the resynchronization frame: at a configurable sample
interval the encoder forces RESYNC_RAW_SAMPLES consecutive E frames so a
decoder that lost frames can rebuild its predictor history from the raw
samples. The resync fired after sample s - 1 makes Type E the next
RESYNC_RAW_SAMPLES frames to go out, from sample s on, so the first of
them starts at s - SEND_LAG or later; the flush ignores a pending resync.

The core runs over a lead in blocks of _BLOCK samples (_blocks), so its
work stays in cache and its memory is one block's, whatever the lead's
length. Each block computes its residuals, with the L samples before it
as history; its frame sizes, with the SEND_LAG samples after it as
look-ahead; its frame starts; and its words. What a block hands the next
is the walk's state: the first frame start past the block, which is at
most SEND_LAG samples on, or, inside a resync's forced E frames, where
they end, which at resync intervals of 1 or 2 is the flush, blocks on.
The resync stops are absolute (k * interval), so each block finds its
own. The words of the blocks, one after another, are the lead's words.

The core finds every frame start in a block without a per-frame loop. A
step table sends each position to the start of the next frame, with
the forced E frames of each resync folded in at the few positions just
before it. Pointer doubling over that table jumps 32 frames at a time,
so a short loop collects one anchor per 32 frames, and gathers of the
step table fill in the frames between anchors.

The core runs at the datapath's widths. Samples and residuals are int16,
which is exact: an order-L residual of 12-bit input, the L-th difference,
spans at most 4095 * 2**(L-1) = 32,760, and each lower difference less.
Width classes (int8) and frame sizes are sums of comparisons, not table
gathers. The step tables and the packing gathers index with intp, numpy's
own index type: take converts any other index to a fresh intp copy first.
Words are or-ed together from the uint16 bit patterns, a block at a time,
and widened to int64 once, as the blocks are joined.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import predictor
from .container import MAX_CHANNELS
from .predictor import SAMPLE_BITS, SAMPLE_MAX, SAMPLE_MIN

# Worth a reminder: 4 seconds of samples, the default resync spacing,
# is 2048 samples at the 512 Hz front-end rate.
DEFAULT_RESYNC_INTERVAL = 2048

# Raw samples forced at each resync: two rebuild the order-2 history.
RESYNC_RAW_SAMPLES = 2


@dataclass(frozen=True)
class FrameType:
    """One 16-bit frame layout: its header and equal-width fields."""

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
# A frame is chosen once the queue holds enough samples for the widest type, D:
# the frame that starts at sample q goes out when sample q + SEND_LAG arrives,
# or in the flush at the end of input.
SEND_LAG = FRAME_D.field_count - 1

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
    """A queued sample: its raw value, residual and width class."""

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
    window, classes = SEND_LAG + 1, np.array([*WIDTH_CLASSES, ESC], dtype=np.int8)
    combos = classes[np.indices((classes.size,) * window).reshape(window, -1).T]
    keys = combos @ (1 << np.arange(4 * SEND_LAG, -1, -4))
    return dict(zip(keys.tolist(), _frame_counts(combos.ravel())[::window].tolist()))


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
    """Resync spacing, channel count and predictor order of an encoder."""

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
    """Encode one whole channel into int64 frame words; equals push_sample over samples then flush."""
    words = [_pack(x, err, starts) for x, err, starts, _ in _blocks(samples, config or EncoderConfig())]
    return np.concatenate(words, dtype=np.int64)


# Samples per block of the array core: its tables stay in cache, and a lead's
# peak memory is its words plus one block's work.
_BLOCK = 1 << 16


def _blocks(samples: Sequence[int], config: EncoderConfig) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
    """Walk one lead block by block: per block, (x, err, starts, m).

    The block holds samples b0 to b0 + m. x and err are its samples and
    residuals (int16) from b0 up to the first frame start after it, so
    they hold every sample of the frames that start in the block;
    starts are those frames' first samples, less b0. The residuals take
    the L samples before b0 as history, and the frame sizes the
    SEND_LAG samples after the block as look-ahead.
    """
    x = predictor.narrow_samples(samples)  # validates sample range
    n = x.size
    walk = _Walk(n, config.resync_interval_samples, RESYNC_RAW_SAMPLES)
    for b0 in range(0, max(n, 1), _BLOCK):  # a lead of no samples is one empty block
        b1 = min(b0 + _BLOCK, n)
        err = predictor.block_residuals(x, b0, min(b1 + SEND_LAG, n), config.order)
        starts = walk.step(b0, _frame_counts(width_classes(err))[: b1 - b0])
        yield x[b0 : walk.at], err[: walk.at - b0], starts, b1 - b0


def _frame_counts(widths: np.ndarray) -> np.ndarray:
    """Greedy frame size, as int8, for a queue front at every start position.

    The type conditions nest (D implies C implies A implies B), so the
    priority winner's size is 1 + [B] + [A] + [C] + 2[D]. Widths past the
    end are padded above ESC, so the same rule serves the final flush,
    where only types that fit the short queue qualify. A block passes
    its SEND_LAG samples of look-ahead and keeps the sizes of its own
    positions, which read no padding unless the lead ends there.
    """
    w = np.concatenate([widths, np.full(SEND_LAG, ESC + 1, dtype=widths.dtype)])  # the last window reads past the end
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

    A frame from a landing at or after stop k * interval - SEND_LAG goes
    out with a resync pending, so it and the frames after it are Type E, up
    to e_frames of them, the flush at last = n - SEND_LAG, or the next
    stop. At that stop a new resync restarts the count of e_frames.
    """
    if interval <= e_frames:  # every forced run reaches the next stop
        return np.full_like(landing, last)
    stop = landing + interval - (landing + SEND_LAG) % interval  # the next stop after each landing
    end = np.minimum(np.minimum(landing + e_frames, last), stop)
    return np.where((stop <= landing + e_frames) & (stop < last), np.minimum(stop + e_frames, last), end)


def _frame_walk(counts: np.ndarray, interval: int, e_frames: int) -> np.ndarray:
    """First sample of every frame, given the greedy frame size at every position: _Walk over blocks of counts."""
    walk = _Walk(counts.size, interval, e_frames)
    return np.concatenate([b0 + walk.step(b0, counts[b0 : b0 + _BLOCK]) for b0 in range(0, max(counts.size, 1), _BLOCK)])


class _Walk:
    """The frame starts of one n-sample lead, found a block at a time.

    The frame starting at qs goes out when sample qs + SEND_LAG arrives, or
    in the final flush once qs + SEND_LAG >= n. A resync fired after sample
    k * interval - 1 forces Type E on the next e_frames emissions; a
    later one restarts the count, and the flush ignores it. So the walk
    is greedy except where a frame lands at or after a stop
    k * interval - SEND_LAG.

    The state between blocks: at, the first frame start not yet walked,
    and forced. Every position from at up to forced starts a forced single
    frame; the chain goes on from forced. A forced run can end several
    blocks on (at resync intervals up to e_frames it lasts to the flush).
    """

    def __init__(self, n: int, interval: int, e_frames: int) -> None:
        self.interval, self.e_frames = interval, e_frames
        self.last = n - SEND_LAG  # frames from here on go out in the flush
        self.resync = interval and self.last > max(interval - SEND_LAG, 0)  # a resync fires before the flush
        self.at = self.forced = 0
        if self.resync and interval <= SEND_LAG:  # the first resync fires before the first frame goes out
            self.forced = int(_forced_end(np.zeros(1, dtype=np.int64), self.last, interval, e_frames)[0])

    def step(self, b0: int, counts: np.ndarray) -> np.ndarray:
        """Starts, less b0, of the frames that start in positions b0 to b0 + counts.size; counts are their sizes.

        - Step table: position i steps to i + counts[i]. The positions from
          the block's end m on are fixed points, which end every chain.
          Only the SEND_LAG + 1 positions before each stop can step onto or
          over it; from those, a landing before the flush steps on to where
          its forced E frames end (_forced_end), or to m if that is past
          the block, and the forced frames are put back at the end.
        - Pointer doubling: _DOUBLINGS gathers make a table that jumps
          2**_DOUBLINGS frames, a Python loop collects every such anchor of
          the chain from the block's first frame, and gathers of the step
          table fill in the frames between anchors. Two tables hold the
          levels in turn. A chain shorter than one jump has its first
          frame as sole anchor and builds no jump table.
        """
        m, at, forced = counts.size, self.at, self.forced
        b1 = b0 + m
        start = max(at, forced) - b0
        if start >= m:  # no chain in this block: forced frames, or none
            self.at = max(at, b1)
            return np.arange(at - b0, min(forced, b1) - b0)
        step = np.arange(m + SEND_LAG + 1, dtype=np.intp)  # a frame from the block ends at most SEND_LAG past it
        step[:m] += counts
        froms = self._froms(b0, b1)
        if froms.size:
            landings = froms + counts[froms - b0]
            # a stop in (from, landing]
            interval = self.interval
            hit = (landings < self.last) & ((landings + SEND_LAG) // interval > (froms + SEND_LAG) // interval)
            froms, landings = froms[hit], landings[hit]
            ends = _forced_end(landings, self.last, interval, self.e_frames)
            step[froms - b0] = np.minimum(ends - b0, m)
        anchors = [start]  # a chain from start reaches m within m - start frames, so one anchor covers it
        if m - start >= 1 << _DOUBLINGS:
            # mode="clip" never clips (every entry indexes the table) but lets take write into out unbuffered
            jump, spare = step.take(step), np.empty_like(step)
            for _ in range(_DOUBLINGS - 1):
                jump.take(jump, out=spare, mode="clip")
                jump, spare = spare, jump
            del spare
            jumps = memoryview(jump)  # a memoryview indexes to plain ints
            a = jumps[start]
            while a < m:
                anchors.append(a)
                a = jumps[a]
            del jumps, jump
        # row k: k frames past each anchor
        chain = np.empty((min(1 << _DOUBLINGS, m - start + 1), len(anchors)), dtype=np.intp)
        chain[0] = anchors
        rows = list(chain)
        for prev, row in zip(rows, rows[1:]):
            step.take(prev, out=row, mode="clip")
        chain = chain.T.ravel()
        starts = chain[: np.searchsorted(chain, m)]
        final = int(starts[-1])
        self.at = b0 + final + int(counts[final])  # the first start after the block
        if froms.size:  # the forced frames follow each from that the chain takes
            froms -= b0
            where = np.searchsorted(starts, froms)
            taken = starts[np.minimum(where, starts.size - 1)] == froms
            landings, ends = landings[taken], ends[taken]
            if landings.size and froms[taken][-1] == final:  # its forced frames go on past the block
                self.at, self.forced = max(int(landings[-1]), b1), int(ends[-1])
            runs = np.maximum(np.minimum(ends, b1) - landings, 0)  # the forced frames in the block
            nth = np.arange(runs.sum())  # forced frame q is the (q - before)-th of its run
            before = np.repeat(np.cumsum(runs) - runs, runs)
            starts = np.insert(starts, np.repeat(where[taken] + 1, runs), np.repeat(landings - b0, runs) + nth - before)
        if at < forced:  # forced frames carried into the block come first
            starts = np.concatenate([np.arange(at - b0, forced - b0), starts])
        return starts

    def _froms(self, b0: int, b1: int) -> np.ndarray:
        """The positions in b0..b1 - 1 among the SEND_LAG + 1 before each stop (fewer where stops are closer)."""
        if not self.resync:
            return np.zeros(0, dtype=np.int64)
        interval, width = self.interval, min(self.interval, SEND_LAG + 1)
        first = max(-(-(b0 + SEND_LAG + 1) // interval), 1) * interval - SEND_LAG  # the first stop past b0
        froms = (np.arange(first, min(b1 + width, self.last), interval)[:, None] - np.arange(width, 0, -1)).ravel()
        return froms[(froms >= b0) & (froms < b1)]


def _pack(x: np.ndarray, err: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Frame words, as uint16, of the frames that start at starts and end at the next start or at err.size.

    x and err are int16. The sizes between starts name the types; each
    type is one _PACKERS call on its frames' fields, gathered as one uint16
    array per field.
    """
    sizes = np.diff(starts, append=err.size)
    xu, eu = x.view(np.uint16), err.view(np.uint16)
    words = np.zeros(starts.size, dtype=np.uint16)
    for count in _TYPE_BY_COUNT:  # one pass per type
        frames = np.flatnonzero(sizes == count)  # integer indices gather faster than a boolean mask
        if not frames.size:  # a short block lacks some types
            continue
        at = starts.take(frames) + np.arange(count, dtype=starts.dtype)[:, None]
        words[frames] = _PACKERS[count]((xu if count == 1 else eu).take(at))
    return words


def encode_channels(channels: Sequence[Sequence[int]], config: EncoderConfig | None = None) -> list[np.ndarray]:
    """Encode simultaneously sampled, equal-length leads: per lead, its int64 frame words."""
    cfg = config or EncoderConfig(channel_count=len(channels) or 1)
    _check_leads(channels, cfg)
    return [encode_channel(samples, cfg) for samples in channels]


def _check_leads(channels: Sequence[Sequence[int]], config: EncoderConfig) -> None:
    if len(channels) != config.channel_count:
        raise ValueError(f"got {len(channels)} channels but config says {config.channel_count}")
    if len({len(c) for c in channels}) > 1:
        raise ValueError("channel arrays must have equal lengths; stream unequal channels instead")


def bcr(n_samples: int, orig_bits: int, compressed_bits: int) -> float:
    """Bit compression ratio: original bits over compressed bits."""
    if n_samples < 0 or orig_bits < 1:
        raise ValueError("need a non-negative sample count and positive original width")
    if compressed_bits <= 0:
        raise ValueError("compressed size must be positive")
    return n_samples * orig_bits / compressed_bits
