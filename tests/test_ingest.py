"""WFDB header parsing, format-212 unpacking, CSV input."""

import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgz import ingest
from ecgz.errors import TruncationError, UnsupportedFormatError, WfdbParseError
from oracle import read_csv_scalar

HEADER = """\
100 2 360 650000
100.dat 212 200 11 1024 995 -22131 0 MLII
100.dat 212 200 11 1024 1011 20052 0 V5
# produced by a Holter digitizer
"""


def test_parse_header_fields():
    rec = ingest.parse_wfdb_header(HEADER)
    assert rec.name == "100"
    assert rec.signal_count == 2
    assert rec.sampling_frequency == 360.0
    assert rec.samples_per_signal == 650000
    s0, s1 = rec.signals
    assert s0.file_name == "100.dat"
    assert s0.fmt == 212
    assert s0.gain == 200.0
    assert s0.adc_resolution == 11
    assert s0.adc_zero == 1024
    assert s0.baseline == 1024  # defaults to adc zero without a paren form
    assert s0.description == "MLII"
    assert s1.description == "V5"


def test_parse_header_gain_variants():
    rec = ingest.parse_wfdb_header("r 1 250 10\nr.dat 212 100.5/mV 12 0\n")
    assert rec.signals[0].gain == 100.5
    rec = ingest.parse_wfdb_header("r 1 250 10\nr.dat 212 200(512)/mV 12 0\n")
    assert rec.signals[0].baseline == 512
    assert rec.signals[0].adc_zero == 0
    rec = ingest.parse_wfdb_header("r 1 250 10\nr.dat 212 0 12 64\n")
    assert rec.signals[0].gain == 200.0  # zero gain means the archive default
    assert rec.signals[0].baseline == 64


def test_parse_header_counter_frequency_suffix():
    rec = ingest.parse_wfdb_header("r 1 360/360 10\nr.dat 212\n")
    assert rec.sampling_frequency == 360.0
    assert rec.signals[0].adc_resolution == 12
    assert rec.signals[0].baseline == 0


def test_parse_header_skips_blanks_and_comments():
    rec = ingest.parse_wfdb_header("# top comment\n\nr 1 250 10\n\nr.dat 212\n")
    assert rec.name == "r"


def test_parse_header_rejects_garbage():
    with pytest.raises(WfdbParseError, match="no content"):
        ingest.parse_wfdb_header("# only comments\n")
    with pytest.raises(WfdbParseError, match="line 1"):
        ingest.parse_wfdb_header("r 2 250\n")
    with pytest.raises(WfdbParseError, match="multi-segment"):
        ingest.parse_wfdb_header("r/3 1 250 10\nr.dat 212\n")
    with pytest.raises(WfdbParseError, match="signal lines"):
        ingest.parse_wfdb_header("r 2 250 10\nr.dat 212\n")
    with pytest.raises(WfdbParseError, match="line 2"):
        ingest.parse_wfdb_header("r 1 250 10\nr.dat 212 abc\n")
    for freq in ("inf", "-inf", "nan", "1e999", "0", "0/360", "-360"):
        with pytest.raises(WfdbParseError, match=f"^line 1: sampling frequency must be finite and positive, got '{freq}'$"):
            ingest.parse_wfdb_header(f"r 1 {freq} 10\nr.dat 212\n")


def test_parse_header_rejects_other_formats():
    with pytest.raises(UnsupportedFormatError):
        ingest.parse_wfdb_header("r 1 250 10\nr.dat 16\n")
    with pytest.raises(UnsupportedFormatError):
        ingest.parse_wfdb_header("r 1 250 10\nr.dat 212x\n")


@pytest.mark.parametrize("fmt", ["21\u00b2", "\u00b9", "2\u00b912", "\u0663"])
def test_parse_header_refuses_a_non_ascii_digit_format(fmt):
    # str.isdigit accepts superscripts, which int() then refuses
    with pytest.raises(UnsupportedFormatError, match=f"^line 2: unsupported signal format {fmt!r}$"):
        ingest.parse_wfdb_header(f"r 1 250 10\nr.dat {fmt}\n")


# ---------------------------------------------------------------------------
# Format 212


def oracle_unpack(data: bytes, n_samples: int, n_signals: int):
    """Plain-integer reference decoder, one sample at a time."""
    total = n_samples * n_signals
    flat = []
    for k in range(total):
        trip = k // 2
        b1 = data[3 * trip + 1]
        if k % 2 == 0:
            v = data[3 * trip] | ((b1 & 0x0F) << 8)
        else:
            v = data[3 * trip + 2] | ((b1 >> 4) << 8)
        flat.append(v - 4096 if v >= 2048 else v)
    return [flat[k::n_signals] for k in range(n_signals)]


def pack212(flat) -> bytes:
    """Inverse layout builder used to synthesize signal files."""
    out = bytearray()
    for i in range(0, len(flat), 2):
        a = flat[i] & 0xFFF
        b = (flat[i + 1] & 0xFFF) if i + 1 < len(flat) else 0
        out += bytes([a & 0xFF, ((b >> 8) << 4) | (a >> 8), b & 0xFF])
    return bytes(out[: (len(flat) * 3 + 1) // 2])


def test_format212_frozen_triplets():
    got = ingest.read_format212(bytes([0x34, 0x12, 0xAB]), 2, 1)
    assert got[0].tolist() == [0x234, 0x1AB]
    got = ingest.read_format212(bytes([0x00, 0xF0, 0x00]), 2, 1)
    assert got[0].tolist() == [0, -256]


def test_format212_deinterleaves_two_signals():
    flat = [10, -20, 30, -40]
    got = ingest.read_format212(pack212(flat), 2, 2)
    assert got[0].tolist() == [10, 30]
    assert got[1].tolist() == [-20, -40]


def test_format212_odd_sample_count_uses_the_short_tail():
    flat = [100, 200, 300]
    data = pack212(flat)
    assert len(data) == 5
    got = ingest.read_format212(data, 3, 1)
    assert got[0].tolist() == flat


def test_format212_rejects_short_files():
    with pytest.raises(TruncationError):
        ingest.read_format212(b"\x00\x00\x00", 3, 1)
    with pytest.raises(ValueError):
        ingest.read_format212(b"", 1, 0)


def test_format212_matches_oracle_on_random_buffers():
    rng = np.random.default_rng(42)
    for _ in range(60):
        n_signals = int(rng.integers(1, 4))
        n_samples = int(rng.integers(0, 50))
        need = (n_samples * n_signals * 3 + 1) // 2
        data = bytes(rng.integers(0, 256, size=need, dtype=np.uint8))
        got = ingest.read_format212(data, n_samples, n_signals)
        want = oracle_unpack(data, n_samples, n_signals)
        assert [g.tolist() for g in got] == want


def test_pack_then_read_round_trips_signed_values():
    rng = np.random.default_rng(7)
    flat = rng.integers(-2048, 2048, size=101).tolist()
    got = ingest.read_format212(pack212(flat), 101, 1)
    assert got[0].tolist() == flat


# ---------------------------------------------------------------------------
# Normalization and record loading


def spec(baseline, name="s.dat"):
    return ingest.SignalSpec(name, 212, 200.0, 12, baseline, baseline)


def record_for(specs, n):
    return ingest.WfdbRecord("r", len(specs), 250.0, n, tuple(specs))


def test_normalize_centers_on_baseline():
    rec = record_for([spec(1024)], 3)
    out = ingest.normalize_to_12bit([np.array([1024, 0, 2047])], rec)
    assert out[0].tolist() == [0, -1024, 1023]


def test_normalize_rejects_values_leaving_the_sample_range():
    rec = record_for([spec(-500)], 1)
    with pytest.raises(ValueError):
        ingest.normalize_to_12bit([np.array([2047])], rec)


@pytest.mark.parametrize("dtype", [np.int64, np.int16])
def test_normalize_centres_int64_and_int16_leads_into_int16(dtype):
    rec = record_for([spec(1024), spec(-2047), spec(0)], 4)
    raw = [np.array(r, dtype=dtype) for r in ([-1024, 0, 1024, 3071], [-4095, -2047, 0, -1], [-2048, 0, 5, 2047])]
    out = ingest.normalize_to_12bit(raw, rec)
    assert all(a.dtype == np.int16 for a in out)
    assert [a.tolist() for a in out] == [[-2048, -1024, 0, 2047], [-2048, 0, 2047, 2046], [-2048, 0, 5, 2047]]


def test_normalize_centres_int64_values_beyond_int16():
    rec = record_for([spec(100_000)], 3)
    out = ingest.normalize_to_12bit([np.array([100_000, 97_952, 102_047])], rec)
    assert out[0].dtype == np.int16 and out[0].tolist() == [0, -2048, 2047]


@pytest.mark.parametrize("baseline", [10**23, -(10**23), 40_000, -40_000, 2048 + 5])
def test_normalize_reports_a_baseline_that_does_not_centre(baseline):
    # the check compares Python ints, so a baseline beyond int64 gets the same ValueError
    rec = record_for([spec(baseline)], 2)
    message = f"signal s.dat:? leaves -2048..2047 after centering on {baseline}"
    for dtype in (np.int16, np.int64):
        with pytest.raises(ValueError) as exc:
            ingest.normalize_to_12bit([np.array([0, 5], dtype=dtype)], rec)
        assert str(exc.value) == message
    assert ingest.normalize_to_12bit([np.zeros(0, dtype=np.int16)], rec)[0].tolist() == []


def test_normalize_checks_signal_count():
    rec = record_for([spec(0)], 1)
    with pytest.raises(ValueError):
        ingest.normalize_to_12bit([np.zeros(1), np.zeros(1)], rec)


def write_record(tmp_path, name, channels, rate=250, adc_zero=1024):
    n = len(channels[0])
    lines = [f"{name} {len(channels)} {rate} {n}"]
    for ch in channels:
        stored = [(v + adc_zero + 2048) % 4096 - 2048 for v in ch]  # the 12-bit values the file holds
        checksum = (sum(stored) + 32768) % 65536 - 32768  # written signed, as MIT-BIH does
        lines.append(f"{name}.dat 212 200 12 {adc_zero} {stored[0] if n else 0} {checksum} 0 lead")
    (tmp_path / f"{name}.hea").write_text("\n".join(lines) + "\n")
    flat = []
    for i in range(n):
        for ch in channels:
            flat.append(ch[i] + adc_zero)
    (tmp_path / f"{name}.dat").write_bytes(pack212(flat))
    return tmp_path / name


def test_load_record_round_trips_synthetic_files(tmp_path):
    chans = [[0, 5, -7, 100, -100, 3], [1, 2, 3, 4, 5, 6]]
    prefix = write_record(tmp_path, "toy", chans)
    rec, arrays = ingest.load_record(prefix)
    assert rec.signal_count == 2
    assert [a.tolist() for a in arrays] == chans
    # .hea suffix works too
    rec2, arrays2 = ingest.load_record(prefix.with_suffix(".hea"))
    assert [a.tolist() for a in arrays2] == chans


@pytest.mark.parametrize("baseline", [0, 2047, -2047])
@pytest.mark.parametrize("n_samples", [0, 1, 6, 7, 101])
@pytest.mark.parametrize("n_signals", [1, 2, 3, 4])
def test_format212_leads_are_int16_and_match_the_byte_oracle(tmp_path, n_signals, n_samples, baseline):
    # odd sample totals (one or three signals, an odd count) end in a short triplet
    rng = np.random.default_rng(1000 * n_signals + n_samples)
    lo, hi = max(-2048, baseline - 2048), min(2047, baseline + 2047)  # raw values that centre in range
    raw = rng.integers(lo, hi + 1, size=(n_samples, n_signals))
    raw.ravel()[:2] = [lo, hi][: raw.size]
    prefix = write_record(tmp_path, "r", [(raw[:, k] - baseline).tolist() for k in range(n_signals)], adc_zero=baseline)
    data = (tmp_path / "r.dat").read_bytes()
    want = oracle_unpack(data, n_samples, n_signals)
    got = ingest.read_format212(data, n_samples, n_signals)
    assert all(g.dtype == np.int16 for g in got) and [g.tolist() for g in got] == want
    if not n_samples:  # a header's 0 samples means "as many as the file holds", and this file holds none
        with pytest.raises(WfdbParseError, match="^record r declares no samples, and r.dat holds none$"):
            ingest.load_record(prefix)
        return
    _, leads = ingest.load_record(prefix)
    assert all(a.dtype == np.int16 for a in leads)
    assert [a.tolist() for a in leads] == [[v - baseline for v in w] for w in want]


def test_load_record_rejects_split_signal_files(tmp_path):
    (tmp_path / "x.hea").write_text("x 2 250 4\na.dat 212\nb.dat 212\n")
    with pytest.raises(WfdbParseError, match="files"):
        ingest.load_record(tmp_path / "x")


def sample_bits(n_samples: int, n_signals: int):
    """(byte, bit) of every bit of a format-212 file that belongs to a sample.

    With an odd sample total the file ends in two bytes whose second holds
    only the last sample's high nibble; its other nibble is padding.
    """
    size = (n_samples * n_signals * 3 + 1) // 2
    padded = size - 1 if n_samples * n_signals % 2 else None
    return [(at, bit) for at in range(size) for bit in range(8) if not (at == padded and bit >= 4)]


@pytest.mark.parametrize(("n_signals", "n_samples"), [(2, 5), (3, 3), (1, 7)])
def test_load_record_refuses_every_flipped_sample_bit(tmp_path, n_signals, n_samples):
    rng = np.random.default_rng(n_signals)
    chans = rng.integers(-900, 900, size=(n_signals, n_samples)).tolist()
    prefix = write_record(tmp_path, "f", chans)
    blob = (tmp_path / "f.dat").read_bytes()
    assert [a.tolist() for a in ingest.load_record(prefix)[1]] == chans
    for at, bit in sample_bits(n_samples, n_signals):
        flipped = bytearray(blob)
        flipped[at] ^= 1 << bit
        (tmp_path / "f.dat").write_bytes(flipped)
        with pytest.raises(WfdbParseError, match=r"^signal f\.dat:lead (starts at|sums to) "):
            ingest.load_record(prefix)
    if n_samples * n_signals % 2:  # the padding nibble and bytes past the samples are not read
        (tmp_path / "f.dat").write_bytes(blob[:-1] + bytes([blob[-1] ^ 0xF0]) + b"\xff\x00")
        assert [a.tolist() for a in ingest.load_record(prefix)[1]] == chans


def test_load_record_checks_each_header_field_it_is_given(tmp_path):
    # MIT-BIH writes the checksum signed (100.hea's -22131); perfbench's generator unsigned
    raw = [995, 1000, -2048, 2047, 7]  # sums to 2001
    (tmp_path / "c.dat").write_bytes(pack212(raw))
    head = tmp_path / "c.hea"
    for fields in ("", "995", "995 2001", "0 2001 0 MLII", "995 2001 0 MLII"):
        head.write_text(f"c 1 360 5\nc.dat 212 200 12 0 {fields}\n")
        if fields.startswith("0 "):
            with pytest.raises(WfdbParseError, match=r"^signal c\.dat:MLII starts at 995, its header's initial value 0$"):
                ingest.load_record(tmp_path / "c")
        else:
            assert ingest.load_record(tmp_path / "c")[1][0].tolist() == raw
    (tmp_path / "c.dat").write_bytes(pack212([995, 1001, -2048, 2047, 7]))
    for checksum, computed in (("2001", "2002"), ("-1", "2002"), ("65535", "2002")):
        head.write_text(f"c 1 360 5\nc.dat 212 200 12 0 995 {checksum}\n")
        with pytest.raises(WfdbParseError, match=rf"^signal c\.dat:\? sums to {computed}, its header's checksum {checksum}$"):
            ingest.load_record(tmp_path / "c")
    raw = [-2048] * 20  # -40,960 wraps to 24,576, or -40,960 + 65,536
    (tmp_path / "c.dat").write_bytes(pack212(raw))
    for checksum in ("24576", "-40960"):
        head.write_text(f"c 1 360 20\nc.dat 212 200 12 0 -2048 {checksum}\n")
        assert ingest.load_record(tmp_path / "c")[1][0].tolist() == raw
    head.write_text("c 1 360 20\nc.dat 212 200 12 0 -2048 12x\n")
    with pytest.raises(WfdbParseError, match="^line 2: "):
        ingest.load_record(tmp_path / "c")


def test_a_zero_sample_header_takes_the_count_from_the_signal_file(tmp_path):
    chans = [list(range(-50, 50)), list(range(100, 0, -1))]
    prefix = write_record(tmp_path, "z", chans)
    head = tmp_path / "z.hea"
    head.write_text(head.read_text().replace("z 2 250 100", "z 2 250 0", 1))
    record, leads = ingest.load_record(prefix)
    assert record.samples_per_signal == 100 and [a.tolist() for a in leads] == chans
    blob = (tmp_path / "z.dat").read_bytes()
    (tmp_path / "z.dat").write_bytes(blob + b"\x00" * 7)  # 2 more zero samples per signal, and a stray byte
    record, leads = ingest.load_record(prefix)
    assert record.samples_per_signal == 102 and [a.tolist()[:100] for a in leads] == chans
    head.write_text("z 2 250 0\nz.dat 212 200 12 1024\nz.dat 212 200 12 1024\n")
    for size, count in ((0, 0), (1, 0), (2, 0), (3, 1), (5, 1), (6, 2)):
        (tmp_path / "z.dat").write_bytes(blob[:size])
        if count:
            assert ingest.load_record(prefix)[0].samples_per_signal == count
        else:
            with pytest.raises(WfdbParseError, match="^record z declares no samples, and z.dat holds none$"):
                ingest.load_record(prefix)


# ---------------------------------------------------------------------------
# CSV


def _read_csv_lists(text, channel_count=None):
    """read_csv with each channel as a list, after checking that every channel is int16."""
    channels = ingest.read_csv(text, channel_count)
    assert all(isinstance(c, np.ndarray) and c.dtype == np.int16 for c in channels)
    return [c.tolist() for c in channels]


def test_read_csv_columns_become_channels():
    assert _read_csv_lists("1,2\n3,4\n5,6\n") == [[1, 3, 5], [2, 4, 6]]
    assert _read_csv_lists("7\n8\n") == [[7, 8]]
    assert _read_csv_lists(" 7\n-8\n") == [[7, -8]]  # the cell parser's int16 too


def test_read_csv_channel_count_must_match():
    with pytest.raises(ValueError, match="row 1"):
        ingest.read_csv("1,2\n", channel_count=3)


def test_read_csv_rejects_ragged_rows():
    with pytest.raises(ValueError, match="row 3"):
        ingest.read_csv("1,2\n3,4\n5\n")


def test_read_csv_rejects_non_integers():
    with pytest.raises(ValueError, match="row 2"):
        ingest.read_csv("1\nx\n")
    with pytest.raises(ValueError, match="row 1"):
        ingest.read_csv("1.5\n")


def test_read_csv_rejects_out_of_range_samples():
    with pytest.raises(ValueError, match="row 1"):
        ingest.read_csv("4096\n")


def test_read_csv_empty_input():
    assert _read_csv_lists("") == []
    assert _read_csv_lists("", channel_count=2) == [[], []]
    assert _read_csv_lists("\n\n") == []


def test_read_csv_reports_a_bare_carriage_return_as_a_row_error():
    with pytest.raises(ValueError, match=r"^row 1: new-line character seen in unquoted field"):
        ingest.read_csv("0\r0\r")
    with pytest.raises(ValueError, match=r"^row 4: new-line character seen in unquoted field"):
        ingest.read_csv("1\n\n2\n0\r0\r\n")


def _rows_read(text):
    """How many rows csv.reader yields before it raises."""
    rows = 0
    try:
        for rows, _ in enumerate(csv.reader(io.StringIO(text)), start=1):
            pass
    except csv.Error:
        return rows
    raise AssertionError("csv.reader accepted the text")


def _csv_outcome(read, text, channel_count):
    try:
        return read(text, channel_count)
    except ValueError as exc:
        return type(exc), str(exc)
    except csv.Error as exc:  # the cell parser lets csv.reader's refusal of a bare carriage return out
        return ValueError, f"row {_rows_read(text) + 1}: {exc}"


_STRICT_CELL = st.integers(-2048, 2047).map(str)
# every cell form the strict parser refuses, so the fallback must parse or reject it
_LENIENT_CELL = st.sampled_from(
    [" 5", "7 ", "\t-7", "+3", "00012", "12345", "-02047", "4096", "-2049", "9999", "-9999", "1.5", "x", "",
     "-", "--1", "1-", '"12"', '"1,2"', '"-2048"', "\u0663"]
)


@st.composite
def csv_texts(draw):
    """(text, channel_count, strict): well-formed CSV, or CSV with up to two kinds of defect."""
    defects = draw(st.sets(st.sampled_from(["cells", "ragged", "blank", "ends", "count"]), max_size=2))
    width = draw(st.integers(2 if "ragged" in defects else 1, 4))
    cell = st.one_of(_STRICT_CELL, _STRICT_CELL, _LENIENT_CELL) if "cells" in defects else _STRICT_CELL
    rows = draw(st.lists(st.lists(cell, min_size=width, max_size=width), max_size=25))
    if "ragged" in defects and rows:
        # "both" lengthens a row after the first (which sets the width) and shortens a
        # later one: the cell count still fits the rows
        ragged = draw(st.sampled_from(["long", "short", "both", "both"]))
        i = draw(st.integers(min(1, len(rows) - 1), len(rows) - 1))
        j = draw(st.integers(min(i + 1, len(rows) - 1), len(rows) - 1))
        if ragged in ("long", "both"):
            rows[i].append(draw(_STRICT_CELL))
        if ragged in ("short", "both"):
            rows[j].pop()
    if "blank" in defects:
        for _ in range(draw(st.integers(1, 2))):
            rows.insert(draw(st.integers(0, len(rows))), [])
    ends = draw(st.sampled_from(["\r\n", "\r", "\n\n", "none"])) if "ends" in defects else "\n"
    text = "".join(",".join(row) + ends for row in rows)
    if ends == "none":  # no line end after the last row
        text = "".join(",".join(row) + "\n" for row in rows)[:-1]
    if "count" in defects:
        channel_count = draw(st.sampled_from([width - 1, width + 1]))
    else:
        channel_count = draw(st.sampled_from([None, width]))
    return text, channel_count, not defects and bool(rows)


@settings(max_examples=400, deadline=None)
@given(csv_texts(), st.integers(1, 4))
def test_read_csv_matches_the_cell_parser(case, block_rows):
    text, channel_count, strict = case
    with mock.patch.object(ingest, "CSV_BLOCK_ROWS", block_rows):  # many blocks from few rows
        got = _csv_outcome(_read_csv_lists, text, channel_count)
        if strict:
            assert ingest._parse_strict_csv(text, channel_count) is not None
    assert got == _csv_outcome(read_csv_scalar, text, channel_count)


def test_read_csv_blocks_keep_row_numbers_and_values():
    rng = np.random.default_rng(11)
    table = rng.integers(-2048, 2048, size=(3 * ingest.CSV_BLOCK_ROWS + 5, 3))
    lines = [",".join(map(str, row)) + "\n" for row in table.tolist()]
    text = "".join(lines)
    assert _read_csv_lists(text) == table.T.tolist()
    assert ingest._parse_strict_csv(text, None) is not None
    for row, bad in (
        (2 * ingest.CSV_BLOCK_ROWS + 3, ["1,2,2048\n"]),
        (len(lines) - 1, ["1,2\n"]),
        (5, ["1, 2,3\n"]),
        (ingest.CSV_BLOCK_ROWS + 9, ["1,2,3,4\n", "5,6\n"]),  # as many cells as two good rows
    ):
        broken = "".join(lines[:row] + bad + lines[row + len(bad) :])
        assert _csv_outcome(_read_csv_lists, broken, None) == _csv_outcome(read_csv_scalar, broken, None)
