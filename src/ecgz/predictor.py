"""Integer slope predictors and their residual metrics.

A predictor of order L estimates the next sample from the last L ones
with fixed integer coefficients (repeated first differences):

    order 1:  x^(n) = x(n-1)
    order 2:  x^(n) = 2 x(n-1) - x(n-2)
    order 3:  x^(n) = 3 x(n-1) - 3 x(n-2) + x(n-3)
    order 4:  x^(n) = 4 x(n-1) - 6 x(n-2) + 4 x(n-3) - x(n-4)

The residual e(n) = x(n) - x^(n) is what gets packed. History starts as
zeros on both sides of the link, so encoder and decoder agree from the
first sample. All arithmetic is exact integer math.
"""

from __future__ import annotations

import math
from array import array
from typing import Sequence

import numpy as np

SAMPLE_BITS = 12
SAMPLE_MIN = -(1 << (SAMPLE_BITS - 1))
SAMPLE_MAX = (1 << (SAMPLE_BITS - 1)) - 1

# Residuals of the default order 2 on 12-bit input always fit 14 bits;
# residual_bits gives the width at every order.
RESIDUAL_BITS = SAMPLE_BITS + 2

PREDICTOR_COEFFS: dict[int, tuple[int, ...]] = {
    1: (1,),
    2: (2, -1),
    3: (3, -3, 1),
    4: (4, -6, 4, -1),
}


def coefficients(order: int) -> tuple[int, ...]:
    try:
        return PREDICTOR_COEFFS[order]
    except KeyError:
        raise ValueError(f"predictor order must be 1..4, got {order!r}") from None


def residual_bits(order: int) -> int:
    """Two's-complement width that holds every order-L residual of 12-bit input.

    The residual is the L-th difference of the samples, so it spans
    +-4095 * 2**(L-1): 13, 14, 15 and 16 bits for orders 1-4.
    """
    return SAMPLE_BITS + len(coefficients(order))


def int_array(values, lo: int, hi: int, message: str, dtype=np.int64) -> np.ndarray:
    """values as an integer array of dtype; ValueError for the first that is not an integer in lo..hi.

    message is formatted with the offending value. An integer array costs
    a min and a max, and so does a list of ints, read through array("q").
    Anything else (floats, ints too wide for int64, a mix of objects)
    converts exactly, as array("q") does, or is searched for the first
    offender. lo..hi must fit dtype; an array of that dtype is returned as is.
    """
    if isinstance(values, list):
        try:  # a float raises TypeError, an int beyond int64 OverflowError
            values = np.frombuffer(array("q", values), dtype=np.int64)
        except (TypeError, OverflowError):
            pass
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged, such as a list holding an array: searched as given
        arr = np.asarray(values, dtype=object)
    if arr.dtype.kind not in "biu":
        try:  # a float raises TypeError, an int beyond int64 OverflowError
            arr = np.frombuffer(array("q", arr.ravel().tolist()), dtype=np.int64).reshape(arr.shape)
        except (TypeError, OverflowError):
            arr = np.asarray(values, dtype=object)  # the values as given, not as numpy upcast them
    if arr.dtype == object or arr.size and (arr.min() < lo or arr.max() > hi):
        bad = (v for v in arr.ravel().tolist() if not (isinstance(v, (int, np.integer)) and lo <= v <= hi))
        raise ValueError(message.format(next(bad)))
    return arr.astype(dtype, copy=False)


SAMPLE_CHECK = f"sample {{!r}} is not an integer in {SAMPLE_MIN}..{SAMPLE_MAX}"


def zero_state(order: int) -> list[int]:
    """Fresh history (most recent first), predetermined to zeros."""
    return [0] * len(coefficients(order))


def narrow_residuals(samples: Sequence[int], order: int) -> tuple[np.ndarray, np.ndarray]:
    """The samples and their residuals as int16: the L-th difference after L zeros of history.

    int16 is exact, as residual_bits says: an order-L residual spans at most 4095 * 2**(L-1).
    int16 samples are range-checked and used as they are.
    """
    L = len(coefficients(order))
    x = int_array(samples, SAMPLE_MIN, SAMPLE_MAX, SAMPLE_CHECK, np.int16)
    if x.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    return x, np.diff(x, n=L, prepend=np.zeros(L, dtype=np.int16))


def residuals(samples: Sequence[int], order: int) -> np.ndarray:
    """Residual sequence for a whole channel, zero-initialized history, as int64 (narrow_residuals)."""
    return narrow_residuals(samples, order)[1].astype(np.int64)


def mape(samples: Sequence[int], order: int) -> float:
    """Mean absolute prediction error over the sequence, warm-up included."""
    e = residuals(samples, order)
    if e.size == 0:
        raise ValueError("cannot score an empty sequence")
    return int(np.abs(e).sum()) / e.size


def rmspe(samples: Sequence[int], order: int) -> float:
    """Root mean square prediction error over the sequence, warm-up included."""
    e = residuals(samples, order)
    if e.size == 0:
        raise ValueError("cannot score an empty sequence")
    return math.sqrt(int((e * e).sum()) / e.size)
