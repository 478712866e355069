"""Lossless multi-channel ECG codec built on integer slope prediction.

Residuals from a small integer predictor are packed into fixed 16-bit
frames whose type adapts to the local signal activity; periodic raw
sample frames bound how long a receiver stays dark after packet loss.
"""

import numpy as np

from . import container, decoder, encoder
from .container import RecordMeta, read_ecgz, write_ecgz
from .decoder import decode_channel, decode_resilient
from .encoder import ChannelEncoder, EncoderConfig, encode_channel, encode_channels

__version__ = "0.3.0"

__all__ = [
    "ChannelEncoder",
    "EncoderConfig",
    "RecordMeta",
    "compress",
    "decode_channel",
    "decode_resilient",
    "decompress",
    "encode_channel",
    "encode_channels",
    "read_ecgz",
    "write_ecgz",
]


def compress(channels, sample_rate_hz: int, config: EncoderConfig | None = None) -> bytes:
    """Encode equal-length channel arrays straight into container bytes."""
    cfg = config or EncoderConfig(channel_count=len(channels) or 1)
    meta = RecordMeta(  # checks the header's fields before any encoding
        channel_count=len(channels),
        sample_rate_hz=sample_rate_hz,
        resync_interval_samples=cfg.resync_interval_samples,
        predictor_order=cfg.order,
        sample_counts=tuple(len(c) for c in channels),
    )
    return container.write_ecgz(meta, encoder.encode_channels(channels, cfg))


def decompress(data: bytes) -> tuple[RecordMeta, list[np.ndarray]]:
    """Inverse of compress: container bytes back to (meta, channels), each channel's samples as int16."""
    meta, channel_words = container.read_ecgz(data)
    channels = [
        decoder._decode(words, count, meta.predictor_order)[0]
        for words, count in zip(channel_words, meta.sample_counts)
    ]
    return meta, channels
