"""Parsers under seeded mutation: malformed input raises EcgzError and nothing else.

Each test mutates one valid input a fixed number of times with a seeded
random.Random, so every run sees the same inputs. Any exception outside
the EcgzError hierarchy (a bare ValueError, an IndexError, an
OverflowError) fails the test and names the input that raised it.
"""

import random

import numpy as np

import ecgz
from ecgz import ingest
from ecgz.errors import EcgzError

HEADER = """\
100 2 360 650000
100.dat 212 200 11 1024 995 -22131 0 MLII
100.dat 212 200(-300)/mV 11 1024 1011 20052 0 V5
"""
# digits, the superscripts that str.isdigit accepts, separators and letters
HEADER_ALPHABET = "0123456789²¹ \t\n/()#.-+eEx"
HEADER_CASES = 3_000
CONTAINER_CASES = 2_000


def _mutate_text(text: str, rng: random.Random) -> str:
    """text with 1-3 characters inserted, deleted or replaced."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(chars) + 1)
        op = rng.choice(("insert", "delete", "replace")) if at < len(chars) else "insert"
        if op == "insert":
            chars.insert(at, rng.choice(HEADER_ALPHABET))
        elif op == "delete":
            del chars[at]
        else:
            chars[at] = rng.choice(HEADER_ALPHABET)
    return "".join(chars)


def test_mutated_wfdb_headers_raise_only_ecgz_errors():
    rng = random.Random(13)
    refused = 0
    for _ in range(HEADER_CASES):
        text = _mutate_text(HEADER, rng)
        try:
            ingest.parse_wfdb_header(text)
        except EcgzError:
            refused += 1
        except Exception as exc:
            raise AssertionError(f"{type(exc).__name__} escaped for header {text!r}") from exc
    assert 0 < refused < HEADER_CASES  # the mutations reach both outcomes


def _container() -> tuple[bytes, list[np.ndarray]]:
    """A two-lead order-2 container of 1,500 samples per lead, and its leads."""
    rng = np.random.default_rng(7)
    leads = [np.cumsum(rng.integers(-15, 16, size=1_500)).clip(-2048, 2047) for _ in range(2)]
    cfg = ecgz.EncoderConfig(resync_interval_samples=360, channel_count=2)
    return ecgz.compress(leads, 360, cfg), leads


def _mutate_bytes(blob: bytes, rng: random.Random) -> bytes:
    data = bytearray(blob)
    op = rng.choice(("flip", "truncate", "insert", "replace"))
    if op == "flip":
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    elif op == "truncate":
        del data[rng.randrange(len(data)) :]
    elif op == "insert":
        at = rng.randrange(len(data) + 1)
        data[at:at] = bytes(rng.randrange(256) for _ in range(rng.randint(1, 4)))
    else:
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(len(data))] = rng.randrange(256)
    return bytes(data)


def test_mutated_containers_raise_only_ecgz_errors(record_property):
    blob, leads = _container()
    rng = random.Random(17)
    refused = silent = 0
    for _ in range(CONTAINER_CASES):
        data = _mutate_bytes(blob, rng)
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
    assert refused > 0
