"""Record ingestion: WFDB headers, format-212 signal files, CSV.

Only the subset of the WFDB header grammar that two-lead Holter archives
actually use is parsed: a record line (name, signal count, sampling
frequency, samples per signal) and one line per signal. Signal data must
be format 212, where each pair of 12-bit two's-complement samples packs
into three bytes:

    sample 2k   = byte[3k]   | low  nibble of byte[3k+1] << 8
    sample 2k+1 = byte[3k+2] | high nibble of byte[3k+1] << 8

Samples interleave across signals fastest, one frame of all signals per
time step. The bytes unpack into int16, and the leads stay int16 through
centring on their baselines: the width the codec core works in. Where a
signal line gives the initial value and checksum, load_record holds the
stored samples to them, so a damaged signal file is refused, not archived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import TruncationError, UnsupportedFormatError, WfdbParseError
from .predictor import SAMPLE_MAX, SAMPLE_MIN


@dataclass(frozen=True)
class SignalSpec:
    """One signal line of a WFDB header."""

    file_name: str
    fmt: int
    gain: float
    adc_resolution: int
    adc_zero: int
    baseline: int
    description: str = ""
    initial_value: int | None = None  # the first sample, as stored
    checksum: int | None = None  # the 16-bit sum of the stored samples, written signed or unsigned


@dataclass(frozen=True)
class WfdbRecord:
    """A parsed WFDB header: the record line and its signal lines."""

    name: str
    signal_count: int
    sampling_frequency: float
    samples_per_signal: int
    signals: tuple[SignalSpec, ...]


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_wfdb_header(text: str) -> WfdbRecord:
    lines = list(_content_lines(text))
    if not lines:
        raise WfdbParseError("header has no content lines")
    lineno, record_line = lines[0]
    tok = record_line.split()
    if len(tok) < 4:
        raise WfdbParseError(f"line {lineno}: record line needs name, signals, rate, samples")
    name = tok[0]
    if "/" in name:
        raise WfdbParseError(f"line {lineno}: multi-segment records are not supported")
    try:
        nsig = int(tok[1])
        freq = float(tok[2].split("/")[0])  # ignore any counter-frequency suffix
        nsamp = int(tok[3])
    except ValueError as exc:
        raise WfdbParseError(f"line {lineno}: {exc}") from None
    if nsig < 1:
        raise WfdbParseError(f"line {lineno}: signal count must be positive")
    if not 0 < freq < math.inf:  # false for nan too
        raise WfdbParseError(f"line {lineno}: sampling frequency must be finite and positive, got {tok[2]!r}")
    if nsamp < 0:
        raise WfdbParseError(f"line {lineno}: negative sample count")

    signal_lines = lines[1:]
    if len(signal_lines) < nsig:
        raise WfdbParseError(f"record declares {nsig} signals but header has {len(signal_lines)} signal lines")
    signals = tuple(_parse_signal_line(lineno, line) for lineno, line in signal_lines[:nsig])
    return WfdbRecord(name, nsig, freq, nsamp, signals)


def _parse_signal_line(lineno: int, line: str) -> SignalSpec:
    tok = line.split()
    if len(tok) < 2:
        raise WfdbParseError(f"line {lineno}: signal line needs a file name and format")
    file_name = tok[0]
    if not (tok[1].isascii() and tok[1].isdigit()):
        raise UnsupportedFormatError(f"line {lineno}: unsupported signal format {tok[1]!r}")
    fmt = int(tok[1])
    if fmt != 212:
        raise UnsupportedFormatError(f"line {lineno}: only format 212 is supported, got {fmt}")

    gain, paren_baseline = 200.0, None
    if len(tok) > 2:
        gain, paren_baseline = _parse_gain(lineno, tok[2])
        if gain == 0:
            gain = 200.0  # zero means the archive's default
    try:
        adc_res = int(tok[3]) if len(tok) > 3 else 12
        adc_zero = int(tok[4]) if len(tok) > 4 else 0
        initial_value = int(tok[5]) if len(tok) > 5 else None
        checksum = int(tok[6]) if len(tok) > 6 else None
    except ValueError as exc:
        raise WfdbParseError(f"line {lineno}: {exc}") from None
    baseline = paren_baseline if paren_baseline is not None else adc_zero
    description = " ".join(tok[8:]) if len(tok) > 8 else ""
    return SignalSpec(file_name, fmt, gain, adc_res, adc_zero, baseline, description, initial_value, checksum)


def _parse_gain(lineno: int, token: str) -> tuple[float, int | None]:
    # Forms: "200", "200/mV", "200(1024)/mV"
    body = token.split("/")[0]
    baseline = None
    if "(" in body:
        if not body.endswith(")"):
            raise WfdbParseError(f"line {lineno}: malformed gain field {token!r}")
        body, inner = body[:-1].split("(", 1)
        try:
            baseline = int(inner)
        except ValueError:
            raise WfdbParseError(f"line {lineno}: malformed baseline in {token!r}") from None
    try:
        return float(body), baseline
    except ValueError:
        raise WfdbParseError(f"line {lineno}: malformed gain field {token!r}") from None


# A format-212 triplet: bytes 3k and 3k+1 as one little-endian word (sample
# 2k in its low 12 bits, the high nibble of sample 2k+1 in its top 4), then
# byte 3k+2 (the low byte of sample 2k+1).
_TRIPLET = np.dtype([("low", "<u2"), ("high", "u1")])


def read_format212(data: bytes, n_samples: int, n_signals: int) -> list[np.ndarray]:
    """Unpack interleaved format-212 bytes into one int16 array per signal."""
    if n_samples < 0 or n_signals < 1:
        raise ValueError("need a non-negative sample count and at least one signal")
    total = n_samples * n_signals
    need = (total * 3 + 1) // 2
    if len(data) < need:
        raise TruncationError(f"signal file holds {len(data)} bytes, {need} required")
    ntrip = (total + 1) // 2
    trip = np.frombuffer(data.ljust(3 * ntrip, b"\0"), dtype=_TRIPLET, count=ntrip)
    words = np.empty((ntrip, 2), dtype=np.uint16)  # each sample's 12 bits at the top of a word
    np.left_shift(trip["low"], 4, out=words[:, 0])
    np.bitwise_and(trip["low"], 0xF000, out=words[:, 1])
    words[:, 1] |= trip["high"].astype(np.uint16) << 4
    values = words.view(np.int16).ravel()[:total]
    values >>= 4  # the arithmetic shift sign-extends
    return [values[k::n_signals] for k in range(n_signals)]


def normalize_to_12bit(raw_signals: Sequence[np.ndarray], record: WfdbRecord) -> list[np.ndarray]:
    """Center each signal on its baseline, as int16, so values sit in the codec range.

    The range check compares Python ints, so a baseline of any size gets its
    ValueError. After it every centred value fits int16, so the subtraction
    runs in int16 with the baseline taken mod 2**16, exact in the result.
    """
    if len(raw_signals) != record.signal_count:
        raise ValueError(f"record has {record.signal_count} signals, got {len(raw_signals)} arrays")
    out = []
    for spec, raw in zip(record.signals, raw_signals):
        raw = np.asarray(raw)
        if raw.size and not SAMPLE_MIN <= int(raw.min()) - spec.baseline <= int(raw.max()) - spec.baseline <= SAMPLE_MAX:
            raise ValueError(
                f"signal {spec.file_name}:{spec.description or '?'} leaves "
                f"{SAMPLE_MIN}..{SAMPLE_MAX} after centering on {spec.baseline}"
            )
        baseline = (spec.baseline + (1 << 15)) % (1 << 16) - (1 << 15)
        out.append(np.subtract(raw.astype(np.int16, copy=False), baseline, dtype=np.int16))
    return out


def _check_signals(raw_signals: Sequence[np.ndarray], record: WfdbRecord) -> None:
    """Raise WfdbParseError unless each signal's first sample and sum match the header's, where it gives them.

    The sum wraps in int16, so it is the sum mod 2**16, which a header may
    write signed or unsigned. In format 212 a flipped bit moves one sample
    by a power of two below 2**12, so the checksum catches it.
    """
    for spec, raw in zip(record.signals, raw_signals):
        name = f"{spec.file_name}:{spec.description or '?'}"
        if spec.initial_value is not None and int(raw[0]) != spec.initial_value:
            raise WfdbParseError(f"signal {name} starts at {int(raw[0])}, its header's initial value {spec.initial_value}")
        if spec.checksum is not None:
            total = int(raw.sum(dtype=np.int16))
            if (total - spec.checksum) % (1 << 16):
                total = total if spec.checksum < 0 else total % (1 << 16)  # in the header's form
                raise WfdbParseError(f"signal {name} sums to {total}, its header's checksum {spec.checksum}")


def load_record(path: str | Path) -> tuple[WfdbRecord, list[np.ndarray]]:
    """Read <record>.hea plus its signal file and return the record and its centred leads as int16 arrays.

    A header that declares 0 samples per signal takes the count from the
    signal file's size, 3 bytes per 2 samples; a file too short for one
    sample per signal is refused. Bytes past the samples are not read.
    """
    head = Path(path).with_suffix(".hea")
    record = parse_wfdb_header(head.read_text())
    dat_names = {s.file_name for s in record.signals}
    if len(dat_names) != 1:
        raise WfdbParseError(f"record {record.name} spreads signals over {len(dat_names)} files")
    dat = head.parent / dat_names.pop()
    data = dat.read_bytes()
    if not record.samples_per_signal:
        record = replace(record, samples_per_signal=2 * len(data) // 3 // record.signal_count)
        if not record.samples_per_signal:
            raise WfdbParseError(f"record {record.name} declares no samples, and {dat.name} holds none")
    raw = read_format212(data, record.samples_per_signal, record.signal_count)
    _check_signals(raw, record)
    return record, normalize_to_12bit(raw, record)


CSV_BLOCK_ROWS = 8192  # rows per block of the strict parser, which bounds its temporaries
_COMMA, _NEWLINE, _MINUS, _ZERO, _NINE = b",\n-09"


def read_csv(text: str, channel_count: int | None = None) -> list[np.ndarray]:
    """Parse integer CSV, one row per time step, into one int16 array per column (channel)."""
    table = _parse_strict_csv(text, channel_count)
    if table is not None:
        return list(table)
    return [np.array(c, dtype=np.int16) for c in _read_csv_cells(text, channel_count)]


def _parse_strict_csv(text: str, channel_count: int | None) -> np.ndarray | None:
    """(channels, rows) int16 table of well-formed CSV, else None.

    Well formed: every cell matches -?[0-9]{1,4} and lies in the sample
    range, every line (the last too) ends in a bare newline, and every
    row has the same number of cells, channel_count when given. Anything
    else, including every input that read_csv rejects, returns None.
    """
    data = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)
    if not data.size or data[-1] != _NEWLINE:
        return None
    ends = np.flatnonzero(data == _NEWLINE)
    width = int(np.count_nonzero(data[: ends[0]] == _COMMA)) + 1
    if channel_count is not None and channel_count != width:
        return None
    table = np.empty((width, ends.size), dtype=np.int16)
    start = 0
    for r0 in range(0, ends.size, CSV_BLOCK_ROWS):
        r1 = min(r0 + CSV_BLOCK_ROWS, ends.size)
        stop = int(ends[r1 - 1]) + 1
        values = _parse_csv_block(data[start:stop], r1 - r0, width)
        if values is None:
            return None
        table[:, r0:r1] = values.reshape(r1 - r0, width).T
        start = stop
    return table


def _parse_csv_block(block: np.ndarray, rows: int, width: int) -> np.ndarray | None:
    """Row-major int32 cells of rows whole lines of bytes, width cells each, else None."""
    seps = np.flatnonzero((block == _COMMA) | (block == _NEWLINE))  # the byte after each cell
    if seps.size != rows * width or not (block[seps[width - 1 :: width]] == _NEWLINE).all():
        return None  # the rows newlines end the rows, so every other separator is a comma
    first = np.concatenate(([0], seps[:-1] + 1))
    negative = block[first] == _MINUS
    digits = seps - first - negative
    if digits.min() < 1 or digits.max() > 4:
        return None
    # every other byte must be a digit: each cell's sign was counted apart
    if np.count_nonzero((block >= _ZERO) & (block <= _NINE)) != digits.sum():
        return None
    # digit values (wrapped for other bytes, which the masks drop) after 3 bytes of padding
    digit = np.concatenate((np.zeros(3, dtype=np.uint8), block - np.uint8(_ZERO)))
    values = digit[seps + 2].astype(np.int32)
    for k, scale in enumerate((10, 100, 1000), start=1):  # the k-th digit from the right
        values += (digit[seps + 2 - k] * (digits > k)).astype(np.int32) * scale
    values = np.where(negative, -values, values)
    if values.min() < SAMPLE_MIN or values.max() > SAMPLE_MAX:
        return None
    return values


def _read_csv_cells(text: str, channel_count: int | None) -> list[list[int]]:
    """The lenient cell-by-cell parser: every form csv.reader accepts, and every error."""
    import csv  # only this fallback needs it, so the codec commands start without it
    import io

    channels: list[list[int]] | None = None
    rowno = 0
    try:
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
    except csv.Error as exc:  # only the reader raises it, while reading the row after rowno
        raise ValueError(f"row {rowno + 1}: {exc}") from None
    if channels is None:
        return [[] for _ in range(channel_count)] if channel_count else []
    return channels
