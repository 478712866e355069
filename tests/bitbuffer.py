"""MSB-first bit buffer and cursor, an independent bit-level packer for tests.

Bits are packed most significant first within each byte and multi-bit
fields are written big-endian. A single read or write moves at most 16
bits (one frame word); wider values are composed from several calls.
The codec itself never needs bit-level I/O: every frame is one 16-bit
word. Tests use this module to assemble frames a second, independent way.
"""

from ecgz.errors import TruncationError

MAX_FIELD_BITS = 16


def sign_extend(raw: int, n: int) -> int:
    """Interpret the low n bits of raw as a two's-complement integer."""
    if n < 1:
        raise ValueError(f"bit count must be positive, got {n}")
    if not 0 <= raw < (1 << n):
        raise ValueError(f"raw value {raw} is not an unsigned {n}-bit pattern")
    if raw & (1 << (n - 1)):
        return raw - (1 << n)
    return raw


def _check_width(n: int) -> None:
    if not isinstance(n, int) or not 1 <= n <= MAX_FIELD_BITS:
        raise ValueError(f"bit width must be an int in 1..{MAX_FIELD_BITS}, got {n!r}")


class BitBuffer:
    """Append-only bit sequence."""

    def __init__(self) -> None:
        self._full = bytearray()
        self._acc = 0  # pending bits that do not yet fill a byte
        self._nacc = 0  # number of pending bits, 0..7

    @classmethod
    def from_bytes(cls, data: bytes, bit_length: int | None = None) -> "BitBuffer":
        if bit_length is None:
            bit_length = 8 * len(data)
        if bit_length < 0 or bit_length > 8 * len(data):
            raise ValueError(f"bit_length {bit_length} does not fit in {len(data)} bytes")
        buf = cls()
        nfull, nacc = divmod(bit_length, 8)
        buf._full = bytearray(data[:nfull])
        if nacc:
            buf._acc = data[nfull] >> (8 - nacc)
            buf._nacc = nacc
        return buf

    @property
    def bit_length(self) -> int:
        return 8 * len(self._full) + self._nacc

    @property
    def payload(self) -> bytes:
        """Buffer contents; unused trailing bits of the last byte are zero."""
        if self._nacc == 0:
            return bytes(self._full)
        return bytes(self._full) + bytes([self._acc << (8 - self._nacc)])

    def write_bits(self, value: int, n: int) -> None:
        """Append the n-bit big-endian encoding of value (0 <= value < 2**n)."""
        _check_width(n)
        if not 0 <= value < (1 << n):
            raise ValueError(f"value {value} does not fit in {n} bits")
        acc = (self._acc << n) | value
        nacc = self._nacc + n
        while nacc >= 8:
            nacc -= 8
            self._full.append((acc >> nacc) & 0xFF)
        self._acc = acc & ((1 << nacc) - 1)
        self._nacc = nacc


class BitCursor:
    """Sequential reader over a BitBuffer."""

    def __init__(self, source: BitBuffer, position: int = 0) -> None:
        self._data = source.payload
        self._bit_length = source.bit_length
        if not 0 <= position <= self._bit_length:
            raise ValueError(f"position {position} outside 0..{self._bit_length}")
        self._pos = position

    @property
    def position(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return self._bit_length - self._pos

    def read_bits(self, n: int) -> int:
        """Consume the next n bits and return them as an unsigned int."""
        _check_width(n)
        if self._pos + n > self._bit_length:
            raise TruncationError(
                f"read of {n} bits at position {self._pos} overruns {self._bit_length}-bit buffer"
            )
        value = 0
        pos = self._pos
        end = pos + n
        while pos < end:
            byte = self._data[pos >> 3]
            avail = 8 - (pos & 7)
            take = min(avail, end - pos)
            value = (value << take) | ((byte >> (avail - take)) & ((1 << take) - 1))
            pos += take
        self._pos = end
        return value


def truncate_bits(value: int, n: int) -> int:
    """Low n bits of value's two's-complement encoding, as an unsigned int."""
    if n < 1:
        raise ValueError(f"bit count must be positive, got {n}")
    return value & ((1 << n) - 1)
