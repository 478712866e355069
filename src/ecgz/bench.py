"""Benchmark harness: compression ratios, predictor sweeps, loss recovery.

Ratios always compare against the raw storage cost of the original
samples (orig_bits per sample, 12 by default) and charge the codec 16
bits per emitted frame, nothing for container headers. Entropy-coding
estimators from the baselines module ride along so every record row
shows the packer between its selective and ideal reference points.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import baselines, compress, container, decoder, encoder, ingest, predictor
from .errors import WfdbParseError

DEFAULT_M_VALUES = (8, 16, 32, 64)
ORIG_BITS_DEFAULT = 12


def bcr(n_samples: int, orig_bits: int, compressed_bits: int) -> float:
    """Bit compression ratio: original bits over compressed bits."""
    if n_samples < 0 or orig_bits < 1:
        raise ValueError("need a non-negative sample count and positive original width")
    if compressed_bits <= 0:
        raise ValueError("compressed size must be positive")
    return n_samples * orig_bits / compressed_bits


def discover_records(directory: str | Path) -> list[Path]:
    """Record prefixes (paths without extension) for every .hea in a directory."""
    d = Path(directory)
    if not d.is_dir():
        return []
    return sorted(p.with_suffix("") for p in d.glob("*.hea"))


def _load_records(
    record_paths: Iterable[str | Path], missing: list[str]
) -> Iterator[tuple[ingest.WfdbRecord, list[np.ndarray]]]:
    """(record, channels) for each readable record; the others' errors go to missing.

    A record is unreadable on a file error, a malformed header, or a lead that does not centre.
    """
    for path in record_paths:
        try:
            yield ingest.load_record(path)
        except (OSError, WfdbParseError, ValueError) as exc:
            missing.append(f"{path}: {exc}")


def _format_table(head: Sequence[object], body: Iterable[Sequence[object]], foot: Sequence[object]) -> str:
    """Header, body and footer in right-aligned columns at least 12 wide, floats to 3 places."""
    lines = ([f"{c:>12.3f}" if isinstance(c, float) else f"{c!s:>12}" for c in cells] for cells in [head, *body, foot])
    return "\n".join("  ".join(cells) for cells in lines)


def _write_csv(path: str | Path, head: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """A header line and the rows, floats to 4 places."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(head)
        w.writerows([f"{c:.4f}" if isinstance(c, float) else c for c in row] for row in rows)


# ---------------------------------------------------------------------------
# Compression-ratio evaluation


@dataclass
class ChannelRow:
    record: str
    channel: int
    n_samples: int
    frame_count: int
    compressed_bits: int
    bcr: float
    ideal_bits: int
    ideal_bcr: float
    selective_bits: dict[int, int]
    selective_bcr: dict[int, float]


@dataclass
class RecordRow:
    """Per-record aggregate: channels pooled by total bits."""

    record: str
    n_samples: int
    compressed_bits: int
    bcr: float
    ideal_bcr: float
    selective_bcr: dict[int, float]


@dataclass
class DatabaseReport:
    rows: list[ChannelRow]
    missing: list[str]
    orig_bits: int
    m_values: tuple[int, ...]
    config: encoder.EncoderConfig

    def record_rows(self) -> list[RecordRow]:
        grouped: dict[str, list[ChannelRow]] = {}
        for row in self.rows:
            grouped.setdefault(row.record, []).append(row)
        out = []
        for name, rows in grouped.items():
            n = sum(r.n_samples for r in rows)
            raw = n * self.orig_bits
            packed = sum(r.compressed_bits for r in rows)
            ideal = sum(r.ideal_bits for r in rows)
            sel = {m: raw / sum(r.selective_bits[m] for r in rows) for m in self.m_values}
            out.append(RecordRow(name, n, packed, raw / packed, raw / ideal, sel))
        return out

    def average_bcr(self) -> float:
        rows = self.record_rows()
        return sum(r.bcr for r in rows) / len(rows)

    def max_bcr(self) -> float:
        return max(r.bcr for r in self.record_rows())

    def average_ideal_bcr(self) -> float:
        rows = self.record_rows()
        return sum(r.ideal_bcr for r in rows) / len(rows)

    def average_selective_bcr(self, m: int) -> float:
        rows = self.record_rows()
        return sum(r.selective_bcr[m] for r in rows) / len(rows)

    def best_m(self) -> int:
        return max(self.m_values, key=self.average_selective_bcr)

    def best_selective_bcr(self) -> float:
        return self.average_selective_bcr(self.best_m())

    def to_csv(self, path: str | Path) -> None:
        head = ["record", "channel", "samples", "frames", "bits", "bcr", "ideal_bcr"]
        head += [f"selective_bcr_m{m}" for m in self.m_values]
        rows = (
            [r.record, r.channel, r.n_samples, r.frame_count, r.compressed_bits, r.bcr, r.ideal_bcr]
            + [r.selective_bcr[m] for m in self.m_values]
            for r in self.rows
        )
        _write_csv(path, head, rows)

    def format_table(self) -> str:
        rows = sorted(self.record_rows(), key=lambda r: r.record)
        if not rows:
            return "no records evaluated"
        best = self.best_m()
        return _format_table(
            ["record", "samples", "packer", "selective(best m)", "ideal"],
            ([r.record, r.n_samples, r.bcr, r.selective_bcr[best], r.ideal_bcr] for r in rows),
            ["average", sum(r.n_samples for r in rows), self.average_bcr()]
            + [self.best_selective_bcr(), self.average_ideal_bcr()],
        )


def evaluate_channels(
    record_name: str,
    channels: Sequence[Sequence[int]],
    config: encoder.EncoderConfig,
    orig_bits: int = ORIG_BITS_DEFAULT,
    m_values: Sequence[int] = DEFAULT_M_VALUES,
) -> list[ChannelRow]:
    """Score one record's channels, charging each for the frames its container holds."""
    _, channel_words = container.read_ecgz(compress(channels, 0, config))
    escape_bits = predictor.residual_bits(config.order)  # the selective estimator's raw residual
    half = 1 << (escape_bits - 1)  # every residual is at least -half: the histogram counts from there
    rows = []
    for ch, (samples, words) in enumerate(zip(channels, channel_words)):
        bits = 16 * words.size
        raw = len(samples) * orig_bits
        counts = np.bincount(np.add(predictor.residuals(samples, config.order), half, dtype=np.intp))
        symbols = np.flatnonzero(counts)  # the residuals that occur, ascending, offset by half
        hist = dict(zip((symbols - half).tolist(), counts[symbols].tolist()))
        ideal = baselines.ideal_huffman_bits_from_hist(hist)
        sel = {m: baselines.selective_huffman_bits_from_hist(hist, m, escape_bits) for m in m_values}
        rows.append(
            ChannelRow(
                record=record_name,
                channel=ch,
                n_samples=len(samples),
                frame_count=words.size,
                compressed_bits=bits,
                bcr=raw / bits,
                ideal_bits=ideal,
                ideal_bcr=raw / ideal,
                selective_bits=sel,
                selective_bcr={m: raw / b for m, b in sel.items()},
            )
        )
    return rows


def run_database_eval(
    record_paths: Sequence[str | Path],
    config: encoder.EncoderConfig | None = None,
    orig_bits: int = ORIG_BITS_DEFAULT,
    m_values: Sequence[int] = DEFAULT_M_VALUES,
    resync_seconds: float | None = None,
) -> DatabaseReport:
    """Compress every record and tabulate packer and estimator ratios.

    Records that cannot be read are listed in .missing rather than
    aborting the run. The resync interval comes from the config, unless
    resync_seconds is given: then each record resyncs that often at its
    own sampling rate.
    """
    cfg = config or encoder.EncoderConfig()
    rows: list[ChannelRow] = []
    missing: list[str] = []
    for record, channels in _load_records(record_paths, missing):
        use = channels[: encoder.MAX_CHANNELS]
        ch_cfg = replace(cfg, channel_count=len(use))
        if resync_seconds is not None:
            ch_cfg = replace(ch_cfg, resync_interval_samples=int(round(resync_seconds * record.sampling_frequency)))
        rows.extend(evaluate_channels(record.name, use, ch_cfg, orig_bits, m_values))
    return DatabaseReport(rows, missing, orig_bits, tuple(m_values), cfg)


# ---------------------------------------------------------------------------
# Predictor comparison


@dataclass
class PredictorRow:
    record: str
    channel: int
    mape: dict[int, float]
    rmspe: dict[int, float]


@dataclass
class PredictorReport:
    rows: list[PredictorRow]
    missing: list[str]
    orders: tuple[int, ...]

    def record_values(self, record: str, channel: int = 0) -> PredictorRow:
        for row in self.rows:
            if row.record == record and row.channel == channel:
                return row
        raise KeyError(f"record {record} channel {channel} not in report")

    def average_mape(self, order: int, channel: int | None = 0) -> float:
        rows = [r for r in self.rows if channel is None or r.channel == channel]
        return sum(r.mape[order] for r in rows) / len(rows)

    def average_rmspe(self, order: int, channel: int | None = 0) -> float:
        rows = [r for r in self.rows if channel is None or r.channel == channel]
        return sum(r.rmspe[order] for r in rows) / len(rows)

    def argmin_mape_order(self, channel: int | None = 0) -> int:
        return min(self.orders, key=lambda o: self.average_mape(o, channel))

    def argmin_rmspe_order(self, channel: int | None = 0) -> int:
        return min(self.orders, key=lambda o: self.average_rmspe(o, channel))

    def _cells(self, r: PredictorRow) -> list[object]:
        return [r.record, r.channel] + [v[o] for v in (r.mape, r.rmspe) for o in self.orders]

    def to_csv(self, path: str | Path) -> None:
        head = ["record", "channel"] + [f"{k}_{o}" for k in ("mape", "rmspe") for o in self.orders]
        _write_csv(path, head, map(self._cells, self.rows))

    def format_table(self) -> str:
        if not self.rows:
            return "no records evaluated"
        return _format_table(
            ["record", "ch"] + [f"{k} o{o}" for k in ("mape", "rmspe") for o in self.orders],
            map(self._cells, sorted(self.rows, key=lambda r: (r.record, r.channel))),
            ["average(ch0)", ""] + [avg(o) for avg in (self.average_mape, self.average_rmspe) for o in self.orders],
        )


def predictor_comparison(
    record_paths: Sequence[str | Path], orders: Sequence[int] = (1, 2, 3, 4)
) -> PredictorReport:
    """Score every record and channel under each predictor order."""
    missing: list[str] = []
    rows = [
        PredictorRow(
            record=record.name,
            channel=ch,
            mape={o: predictor.mape(samples, o) for o in orders},
            rmspe={o: predictor.rmspe(samples, o) for o in orders},
        )
        for record, channels in _load_records(record_paths, missing)
        for ch, samples in enumerate(channels)
    ]
    return PredictorReport(rows, missing, tuple(orders))


# ---------------------------------------------------------------------------
# Loss simulation


@dataclass(frozen=True)
class LossPattern:
    """Which wire units to drop.

    mode "single" drops one unit (unit_index, or seeded choice), "burst"
    drops burst_length consecutive units, "random" drops each unit
    independently with drop_probability, "none" drops nothing.
    """

    mode: str = "single"
    drop_probability: float = 0.0
    burst_length: int = 1
    unit_index: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("none", "single", "random", "burst"):
            raise ValueError(f"unknown loss mode {self.mode!r}")
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError("drop probability must be in [0, 1]")
        if self.burst_length < 1:
            raise ValueError("burst length must be positive")


@dataclass
class LossReport:
    seed: int
    pattern: LossPattern
    n_channels: int
    samples_per_channel: list[int]
    dropped_units: list[int]
    spans: list[list[tuple[int, int]]]  # per channel, [start, stop) of corrupted runs
    corrupted_samples: int
    total_samples: int
    known_samples_exact: bool
    unresynced_samples: int  # unknown after the first resync received in full past a loss (LossHarness.run)
    span_bound: int | None = None

    @property
    def corrupted_fraction(self) -> float:
        return self.corrupted_samples / self.total_samples if self.total_samples else 0.0

    @property
    def max_span(self) -> int:
        return max((stop - start for spans in self.spans for start, stop in spans), default=0)

    @property
    def bound_ok(self) -> bool:
        """Spans within span_bound; after one lost unit, the total too: a failed resync leaves many short spans."""
        if self.span_bound is None:
            return True
        total = self.corrupted_samples if len(self.dropped_units) == 1 else 0
        return max(self.max_span, total) <= self.span_bound


def _choose_drops(pattern: LossPattern, n_units: int, rng: random.Random) -> set[int]:
    if pattern.mode == "none" or n_units == 0:
        return set()
    if pattern.mode == "random":
        return {i for i in range(n_units) if rng.random() < pattern.drop_probability}
    start = pattern.unit_index if pattern.unit_index is not None else rng.randrange(n_units)
    if not 0 <= start < n_units:
        raise ValueError(f"unit index {start} outside 0..{n_units - 1}")
    length = pattern.burst_length if pattern.mode == "burst" else 1
    return set(range(start, min(start + length, n_units)))


class LossHarness:
    """One record, encoded once, for repeated loss experiments.

    Encoding and wire serialization are the expensive part and do not
    depend on the loss pattern, so the constructor does them once; run()
    only drops units, decodes, and audits.
    """

    def __init__(
        self,
        channels: Sequence[Sequence[int]],
        config: encoder.EncoderConfig | None = None,
    ) -> None:
        self.config = config or encoder.EncoderConfig(channel_count=len(channels) or 1)
        self.channel_frames = encoder.encode_channels(channels, self.config)  # validates the samples
        self.channels = [np.asarray(ch, dtype=np.int64) for ch in channels]
        self.expected_frames = [len(f) for f in self.channel_frames]
        self._counts = [decoder._sample_counts(f) for f in self.channel_frames]
        # ChannelEncoder sends the frame that starts at sample q with sample q + 5 and
        # flushes the rest after the last sample; the leads share the link round-robin.
        nch, n = len(self.channels), len(self.channels[0])
        at = [np.minimum(np.cumsum(c) - c + 5, n) * nch + ch for ch, c in enumerate(self._counts)]
        order = np.argsort(np.concatenate(at), kind="stable")
        chans = np.repeat(np.arange(nch), self.expected_frames)[order]
        words = np.concatenate(self.channel_frames)[order]
        self.wire = container._wire_units(chans, words)
        self.n_units = int(order.size)

    def run(
        self,
        pattern: LossPattern = LossPattern(),
        seed: int = 0,
        span_bound: int | None = None,
        drops: set[int] | None = None,
    ) -> LossReport:
        """Drop wire units, decode resiliently, audit against the input.

        Pass drops to name the lost unit indices directly instead of
        drawing them from the pattern.

        The audit walks the true frame list (which it knows, having
        encoded), so every received frame's samples land at their true
        positions. A sample counts as corrupted when its frame was
        dropped or the decoder returned None for it; every other sample
        must match the input exactly, which the report records in
        known_samples_exact. From the first resync received in full
        after a loss up to the next loss, every sample must be known;
        unresynced_samples counts those that are not (_unresynced).
        """
        if drops is None:
            rng = random.Random(seed)
            drops = _choose_drops(pattern, self.n_units, rng)
        elif any(not 0 <= i < self.n_units for i in drops):
            raise ValueError(f"drop indices must lie in 0..{self.n_units - 1}")
        kept = _drop_units(self.wire, drops)
        received, _ = container._wire_arrays(kept, len(self.channels), self.expected_frames)

        all_spans: list[list[tuple[int, int]]] = []
        corrupted_total = unresynced = 0
        exact = True
        for ch, samples in enumerate(self.channels):
            words, lost = received[ch]
            if words.size != self.expected_frames[ch]:
                raise AssertionError("wire reconciliation lost track of the frame count")
            out, known = decoder._decode(words, len(samples), self.config.order, lost)
            corrupted = _audit_channel(samples, self._counts[ch], lost, out, known)
            if corrupted is None:
                exact = False
                corrupted = np.ones(len(samples), dtype=bool)
            spans = decoder._runs(corrupted)
            all_spans.append(spans)
            corrupted_total += int(np.count_nonzero(corrupted))
            unresynced += _unresynced(corrupted, self._counts[ch], lost, self.config.resync_interval_samples)
        return LossReport(
            seed=seed,
            pattern=pattern,
            n_channels=len(self.channels),
            samples_per_channel=[len(c) for c in self.channels],
            dropped_units=sorted(drops),
            spans=all_spans,
            corrupted_samples=corrupted_total,
            total_samples=sum(len(c) for c in self.channels),
            known_samples_exact=exact,
            unresynced_samples=unresynced,
            span_bound=span_bound,
        )


def _drop_units(wire: bytes, drops: set[int]) -> bytes:
    units = np.frombuffer(wire, dtype=np.uint8).reshape(-1, 3)
    return np.delete(units, list(drops), axis=0).tobytes()


def _unresynced(corrupted: np.ndarray, counts: np.ndarray, lost: np.ndarray, interval: int) -> int:
    """Samples still corrupted after the first resync that follows each lost frame in full.

    For a lost frame that ends before sample e, that is the first resync
    point s = k * interval with s - 5 >= e and s + 7 <= n: its forced raw
    frames start at s - 5 or later, after the loss, and both go out
    before the final flush. From s + RESYNC_RAW_SAMPLES up to the next
    lost frame, every sample must be known.
    """
    if not interval or not lost.any():
        return 0
    ends = np.cumsum(counts, dtype=np.int64)
    n, e = int(ends[-1]), ends[lost]
    s = -(-(e + 5) // interval) * interval
    lo, hi = s + encoder.RESYNC_RAW_SAMPLES, np.append((ends - counts)[lost][1:], n)
    checked = (s + 7 <= n) & (lo < hi)
    bad = np.concatenate([[0], np.cumsum(corrupted)])
    return int((bad[hi[checked]] - bad[lo[checked]]).sum())


def _audit_channel(
    truth: np.ndarray, counts: np.ndarray, lost: np.ndarray, out: np.ndarray, known: np.ndarray
) -> np.ndarray | None:
    """Mark each true sample position corrupted or verified-exact.

    counts and lost hold each true frame's sample count and erasure;
    out and known are the resilient decoder's samples of the received
    frames. Returns None if any known value disagrees with the truth,
    which would mean the decoder claimed knowledge it did not have.
    """
    received = np.repeat(~lost, counts)  # the true positions the received frames carry
    if received.size != truth.size or np.count_nonzero(received) != out.size:
        raise AssertionError("frame accounting disagrees with the sample count")
    if np.any(out[known] != truth[received][known]):
        return None
    corrupted = ~received
    corrupted[received] = ~known
    return corrupted


# ---------------------------------------------------------------------------
# Synthetic input


def synthetic_ecg(
    n_samples: int,
    sample_rate: float = 360.0,
    heart_rate_bpm: float = 75.0,
    amplitude: float = 900.0,
    seed: int = 0,
) -> np.ndarray:
    """Deterministic ECG-shaped test signal in the 12-bit sample range.

    One beat is a sum of Gaussian bumps (P, Q, R, S, T) over the beat
    phase, plus slow baseline wander and a little quantization-scale
    noise. Shaped enough to exercise every frame type; not physiology.
    """
    if n_samples <= 0:
        return np.zeros(0, dtype=np.int64)
    rng = np.random.default_rng(seed)
    t = np.arange(n_samples) / sample_rate
    phase = (t * heart_rate_bpm / 60.0) % 1.0
    #         center width  height (fraction of amplitude)
    waves = [
        (0.12, 0.05, 0.14),
        (0.24, 0.012, -0.12),
        (0.265, 0.014, 1.0),
        (0.29, 0.012, -0.24),
        (0.45, 0.055, 0.33),
    ]
    signal = np.zeros(n_samples)
    for center, width, height in waves:
        signal += height * np.exp(-0.5 * ((phase - center) / width) ** 2)
    signal *= amplitude
    signal += 60.0 * np.sin(2 * np.pi * 0.25 * t)  # baseline wander
    signal += rng.normal(0.0, 3.0, n_samples)
    return np.clip(np.rint(signal), predictor.SAMPLE_MIN, predictor.SAMPLE_MAX).astype(np.int64)
