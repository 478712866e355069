"""Parsers under seeded mutation: malformed input raises the documented errors and nothing else.

Each test mutates one valid input a fixed number of times with a seeded
random.Random, so every run sees the same inputs. The codec's own
formats (WFDB headers, containers, the wire) raise only EcgzError; the
ingest of signal files and CSV text may also raise ValueError, for a
value outside the 12-bit range or a malformed cell. Any other exception
(an IndexError, an OverflowError) fails the test and names the input
that raised it.
"""

import math
import random

import numpy as np
import pytest

import ecgz
from ecgz import bench, container, decoder, ingest
from ecgz.errors import EcgzError
from test_ingest import write_record

HEADER = """\
100 2 360 650000
100.dat 212 200 11 1024 995 -22131 0 MLII
100.dat 212 200(-300)/mV 11 1024 1011 20052 0 V5
"""
# digits, the superscripts that str.isdigit accepts, separators and letters
HEADER_ALPHABET = "0123456789²¹ \t\n/()#.-+eEx"
# digits, signs, separators, line ends and what no cell may hold
CSV_ALPHABET = "0123456789-+,\n\r \t.x\"²"
HEADER_CASES = 3_000
CONTAINER_CASES = 2_000
WIRE_CASES = 1_000
FORMAT212_CASES = 1_000
CSV_CASES = 1_500
# the byte mutations of every target; the duplicate cases pass their own ops
MUTATIONS = ("flip", "truncate", "insert", "replace")


def _mutate_text(text: str, rng: random.Random, alphabet: str = HEADER_ALPHABET) -> str:
    """text with 1-3 characters from alphabet inserted, deleted or replaced."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(chars) + 1)
        op = rng.choice(("insert", "delete", "replace")) if at < len(chars) else "insert"
        if op == "insert":
            chars.insert(at, rng.choice(alphabet))
        elif op == "delete":
            del chars[at]
        else:
            chars[at] = rng.choice(alphabet)
    return "".join(chars)


def test_mutated_wfdb_headers_raise_only_ecgz_errors():
    rng = random.Random(13)
    refused = 0
    # frequencies that parsed and then failed in the CLI, with an OverflowError for inf
    fixed = [HEADER.replace(" 360 ", f" {freq} ", 1) for freq in ("inf", "nan", "1e999", "0", "-360")]
    for i in range(len(fixed) + HEADER_CASES):
        text = fixed[i] if i < len(fixed) else _mutate_text(HEADER, rng)
        try:
            rate = ingest.parse_wfdb_header(text).sampling_frequency
        except EcgzError:
            refused += 1
        except Exception as exc:
            raise AssertionError(f"{type(exc).__name__} escaped for header {text!r}") from exc
        else:
            assert 0 < rate < math.inf, f"frequency {rate} accepted from header {text!r}"
    assert len(fixed) < refused < len(fixed) + HEADER_CASES  # the mutations reach both outcomes


def _container() -> tuple[bytes, list[np.ndarray]]:
    """A two-lead order-2 container of 1,500 samples per lead, and its leads."""
    rng = np.random.default_rng(7)
    leads = [np.cumsum(rng.integers(-15, 16, size=1_500)).clip(-2048, 2047) for _ in range(2)]
    cfg = ecgz.EncoderConfig(resync_interval_samples=360, channel_count=2)
    return ecgz.compress(leads, 360, cfg), leads


def _mutate_bytes(blob: bytes, rng: random.Random, ops: tuple[str, ...] = MUTATIONS) -> bytes:
    data = bytearray(blob)
    op = rng.choice(ops)
    if op == "flip":
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    elif op == "truncate":
        del data[rng.randrange(len(data)) :]
    elif op == "insert":
        at = rng.randrange(len(data) + 1)
        data[at:at] = bytes(rng.randrange(256) for _ in range(rng.randint(1, 4)))
    elif op == "replace":
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(len(data))] = rng.randrange(256)
    else:  # "duplicate": 1-6 bytes anywhere; "duplicate_units": 1-3 whole 3-byte wire units
        unit, most = (3, 3) if op == "duplicate_units" else (1, 6)
        at, size = unit * rng.randrange(len(data) // unit), unit * rng.randint(1, most)
        data[at + size : at + size] = data[at : at + size]
    return bytes(data)


@pytest.mark.parametrize("ops, seed", [(MUTATIONS, 17), (("duplicate",), 41)], ids=["mixed", "duplicate"])
def test_mutated_containers_raise_only_ecgz_errors(ops, seed, record_property):
    blob, leads = _container()
    rng = random.Random(seed)
    refused = silent = 0
    for _ in range(CONTAINER_CASES):
        data = _mutate_bytes(blob, rng, ops)
        try:
            meta, channels = ecgz.decompress(data)
        except EcgzError:
            refused += 1
            continue
        except Exception as exc:
            raise AssertionError(f"{type(exc).__name__} escaped for container bytes {data.hex()}") from exc
        assert all(c.dtype == np.int16 for c in channels)
        if len(channels) != len(leads) or not all(np.array_equal(c, x) for c, x in zip(channels, leads)):
            silent += 1  # decoded without error to other samples: the container carries no checksum
    # Counted, not bounded: the version-1 container cannot tell these apart from a valid one.
    record_property("silent_wrong_decodes", silent)
    # every duplicate is refused: it leaves bytes past the declared frames, or shifts the header's fields
    assert refused == CONTAINER_CASES if ops != MUTATIONS else refused > 0


def _leads(seed: int, n: int, spread: int = 15) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [np.cumsum(rng.integers(-spread, spread + 1, size=n)).clip(-2048, 2047) for _ in range(2)]


@pytest.mark.parametrize(
    "ops, seed",
    [(MUTATIONS, 19), (("duplicate",), 43), (("duplicate_units",), 47)],
    ids=["mixed", "duplicate", "duplicate_units"],
)
def test_mutated_wire_streams_raise_only_ecgz_errors(ops, seed, record_property):
    leads = _leads(11, 3_000)
    cfg = ecgz.EncoderConfig(resync_interval_samples=360, channel_count=2)
    harness = bench.LossHarness(leads, cfg)
    rng = random.Random(seed)
    refused = silent = 0
    for _ in range(WIRE_CASES):
        data = _mutate_bytes(harness.wire, rng, ops)
        try:
            received = container.wire_decode(data, 2, harness.expected_frames)
            pairs = zip(received.channels, leads)
            decoded = [decoder.decode_resilient(frames, lead.size, cfg.order) for frames, lead in pairs]
        except EcgzError:
            refused += 1
            continue
        except Exception as exc:
            raise AssertionError(f"{type(exc).__name__} escaped for wire bytes {data.hex()}") from exc
        unflagged = not received.gaps and all(not spans for _, spans in decoded)
        if unflagged and any(samples != lead.tolist() for (samples, _), lead in zip(decoded, leads)):
            silent += 1  # no loss seen, other samples: a flipped word bit that still parses
    # Counted, not bounded: the wire carries no checksum either.
    record_property("silent_wrong_decodes", silent)
    # every duplicate is refused: it leaves a partial unit, or repeats a sequence number, which reads
    # as 63 lost units and so more frames than expected
    assert refused == WIRE_CASES if ops != MUTATIONS else 0 < refused < WIRE_CASES


def test_mutated_format212_signals_raise_only_ecgz_or_value_errors(tmp_path, record_property):
    leads = _leads(23, 1_000, spread=40)
    record = write_record(tmp_path, "rec", [lead.tolist() for lead in leads], rate=360)
    assert all(np.array_equal(got, lead) for got, lead in zip(ingest.load_record(record)[1], leads))
    blob = (tmp_path / "rec.dat").read_bytes()
    rng = random.Random(29)
    refused = silent = 0
    for _ in range(FORMAT212_CASES):
        data = _mutate_bytes(blob, rng)
        (tmp_path / "rec.dat").write_bytes(data)
        try:
            _, got = ingest.load_record(record)
        except (EcgzError, ValueError):
            refused += 1
            continue
        except Exception as exc:
            raise AssertionError(f"{type(exc).__name__} escaped for signal bytes {data.hex()}") from exc
        assert all(c.dtype == np.int16 and c.size == 1_000 for c in got)
        silent += not all(np.array_equal(c, lead) for c, lead in zip(got, leads))
    # Counted, not bounded: the header's checksum is a 16-bit sum, blind to changes that cancel
    # in it, such as two flips of one bit in two samples of a lead, one up and one down.
    record_property("silent_wrong_loads", silent)
    assert 0 < refused < FORMAT212_CASES


def test_mutated_csv_text_raises_only_ecgz_or_value_errors():
    leads = _leads(31, 300)
    text = "".join(f"{a},{b}\n" for a, b in zip(*leads))
    rng = random.Random(37)
    refused = 0
    for _ in range(CSV_CASES):
        mutated = _mutate_text(text, rng, CSV_ALPHABET)
        try:
            got = ingest.read_csv(mutated)
        except (EcgzError, ValueError):
            refused += 1
            continue
        except Exception as exc:
            raise AssertionError(f"{type(exc).__name__} escaped for CSV text {mutated!r}") from exc
        assert all(c.dtype == np.int16 for c in got)
    assert 0 < refused < CSV_CASES
