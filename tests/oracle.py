"""Scalar reference decoder: the frame-by-frame loop the array decoder replaced.

It walks the words one frame at a time with a plain history list, so it
states the lossless decode contract without any of the array decoder's
bookkeeping. Tests diff ecgz.decoder.decode_channel against it.
"""

from ecgz import predictor
from ecgz.decoder import unpack_frame
from ecgz.errors import CorruptStreamError, TruncationError


def decode_channel_scalar(frames, expected_count: int, order: int = 2) -> list[int]:
    coef = predictor.coefficients(order)
    history = predictor.zero_state(order)
    lo, hi = predictor.SAMPLE_MIN, predictor.SAMPLE_MAX
    out: list[int] = []
    for word in frames:
        ftype, fields = unpack_frame(word)
        if len(out) + ftype.field_count > expected_count:
            raise CorruptStreamError(f"frame stream carries more than the declared {expected_count} samples")
        if ftype.carries_original:
            x = fields[0]
            out.append(x)
            history.insert(0, x)
            history.pop()
        else:
            for e in fields:
                x = sum(a * h for a, h in zip(coef, history)) + e
                if not lo <= x <= hi:
                    raise CorruptStreamError(f"reconstructed sample {x} outside the 12-bit range")
                out.append(x)
                history.insert(0, x)
                history.pop()
    if len(out) != expected_count:
        raise TruncationError(f"frame stream ended at {len(out)} of {expected_count} samples")
    return out
