"""Two's-complement field helper shared by the frame decoders."""


def sign_extend(raw: int, n: int) -> int:
    """Interpret the low n bits of raw as a two's-complement integer."""
    if n < 1:
        raise ValueError(f"bit count must be positive, got {n}")
    if not 0 <= raw < (1 << n):
        raise ValueError(f"raw value {raw} is not an unsigned {n}-bit pattern")
    if raw & (1 << (n - 1)):
        return raw - (1 << n)
    return raw
