"""Bit-level buffer, cursor, and two's-complement field helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import bitbuffer as bitio
from ecgz.errors import TruncationError


def test_partial_byte_pads_low_bits_with_zeros():
    buf = bitio.BitBuffer()
    buf.write_bits(0, 4)
    buf.write_bits(1, 2)
    assert buf.bit_length == 6
    # bits 000001, left-aligned in the byte
    assert buf.payload == b"\x04"


def test_sixteen_bit_write_lands_big_endian():
    buf = bitio.BitBuffer()
    buf.write_bits(0x04D2, 16)
    assert buf.payload == b"\x04\xd2"


def test_cursor_reads_a_big_endian_word():
    buf = bitio.BitBuffer.from_bytes(b"\x30\x64")
    cur = bitio.BitCursor(buf)
    assert cur.read_bits(16) == 0x3064
    assert cur.position == 16
    assert cur.remaining == 0


def test_unaligned_reads_cross_byte_boundaries():
    buf = bitio.BitBuffer.from_bytes(b"\xb5\xa0", bit_length=11)
    cur = bitio.BitCursor(buf)
    assert cur.read_bits(3) == 0b101
    assert cur.read_bits(7) == 0b1010110
    assert cur.remaining == 1


def test_reading_past_the_end_raises():
    buf = bitio.BitBuffer.from_bytes(b"\xff", bit_length=5)
    cur = bitio.BitCursor(buf)
    cur.read_bits(5)
    with pytest.raises(TruncationError):
        cur.read_bits(1)


def test_write_bits_validates_width_and_value():
    buf = bitio.BitBuffer()
    for bad_width in (0, 17, -1):
        with pytest.raises(ValueError):
            buf.write_bits(0, bad_width)
    with pytest.raises(ValueError):
        buf.write_bits(4, 2)
    with pytest.raises(ValueError):
        buf.write_bits(-1, 4)


def test_from_bytes_rejects_impossible_bit_length():
    with pytest.raises(ValueError):
        bitio.BitBuffer.from_bytes(b"\x00", bit_length=9)
    with pytest.raises(ValueError):
        bitio.BitBuffer.from_bytes(b"\x00", bit_length=-1)


fields = st.lists(
    st.integers(min_value=1, max_value=16).flatmap(
        lambda n: st.tuples(st.integers(min_value=0, max_value=(1 << n) - 1), st.just(n))
    ),
    max_size=120,
)


@given(fields)
def test_write_then_read_recovers_every_field(items):
    buf = bitio.BitBuffer()
    for value, n in items:
        buf.write_bits(value, n)
    assert buf.bit_length == sum(n for _, n in items)
    cur = bitio.BitCursor(buf)
    assert [(cur.read_bits(n), n) for _, n in items] == items
    assert cur.remaining == 0


@given(fields)
def test_payload_length_and_trailing_pad(items):
    buf = bitio.BitBuffer()
    for value, n in items:
        buf.write_bits(value, n)
    assert len(buf.payload) == (buf.bit_length + 7) // 8
    pad = -buf.bit_length % 8
    if pad:
        assert buf.payload[-1] & ((1 << pad) - 1) == 0


@given(fields)
def test_payload_survives_from_bytes_round_trip(items):
    buf = bitio.BitBuffer()
    for value, n in items:
        buf.write_bits(value, n)
    again = bitio.BitBuffer.from_bytes(buf.payload, buf.bit_length)
    assert again.payload == buf.payload
    assert again.bit_length == buf.bit_length


def test_sign_extend_known_patterns():
    assert bitio.sign_extend(0b01, 2) == 1
    assert bitio.sign_extend(0b10, 2) == -2
    assert bitio.sign_extend(0b101, 3) == -3
    assert bitio.sign_extend(0x3FFC, 14) == -4
    assert bitio.sign_extend(0, 14) == 0


def test_sign_extend_rejects_non_patterns():
    with pytest.raises(ValueError):
        bitio.sign_extend(4, 2)
    with pytest.raises(ValueError):
        bitio.sign_extend(-1, 2)
    with pytest.raises(ValueError):
        bitio.sign_extend(0, 0)


@given(
    st.integers(min_value=1, max_value=16).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(min_value=-(1 << (n - 1)), max_value=(1 << (n - 1)) - 1),
        )
    )
)
def test_truncate_then_extend_is_identity_on_signed_values(case):
    n, v = case
    assert bitio.sign_extend(bitio.truncate_bits(v, n), n) == v


@given(
    st.integers(min_value=1, max_value=16).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=(1 << n) - 1))
    )
)
def test_extend_then_truncate_is_identity_on_patterns(case):
    n, raw = case
    assert bitio.truncate_bits(bitio.sign_extend(raw, n), n) == raw
