"""Scalar reference decoders: the frame-by-frame loops the array core replaced.

They walk the words one frame at a time with a plain history list, so
they state the lossless and the erasure-tolerant decode contracts
without any of the array core's bookkeeping. Tests diff
ecgz.decoder.decode_channel and decode_resilient against them.
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


def decode_resilient_scalar(frames, expected_count: int, order: int = 2):
    """Frame-by-frame erasure decoder: (samples with None, spans of None)."""
    coef = predictor.coefficients(order)
    L = len(coef)
    lo, hi = predictor.SAMPLE_MIN, predictor.SAMPLE_MAX
    recent = [0] * L  # last L output samples, most recent first
    synced = True
    raw_run = 0  # consecutive raw samples just seen
    saw_loss = False
    out = []
    for word in frames:
        if word is None:
            # the lost frame carried an unknown number of samples, so only
            # raw samples received after this point rebuild the history
            synced = False
            saw_loss = True
            raw_run = 0
            recent = [None] * L
            continue
        ftype, fields = unpack_frame(word)
        if ftype.carries_original:
            x = fields[0]
            out.append(x)
            recent.insert(0, x)
            recent.pop()
            raw_run += 1
            if raw_run >= L:
                synced = True
        elif synced:
            raw_run = 0
            for e in fields:
                x = sum(a * h for a, h in zip(coef, recent)) + e
                if not lo <= x <= hi:
                    raise CorruptStreamError(f"reconstructed sample {x} outside the 12-bit range")
                out.append(x)
                recent.insert(0, x)
                recent.pop()
        else:
            raw_run = 0
            for _ in fields:
                out.append(None)
                recent.insert(0, None)
                recent.pop()
    if len(out) > expected_count:
        raise CorruptStreamError(f"frame stream carries more than the declared {expected_count} samples")
    if not saw_loss and len(out) < expected_count:
        raise TruncationError(f"frame stream ended at {len(out)} of {expected_count} samples")
    spans = []
    start = None
    for i, v in enumerate(out):
        if v is None and start is None:
            start = i
        elif v is not None and start is not None:
            spans.append((start, i))
            start = None
    if start is not None:
        spans.append((start, len(out)))
    return out, spans
