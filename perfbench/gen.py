"""Deterministic inputs for the perfbench workloads.

Every input is a pure function of the workload seed: the same seed gives
byte-identical files. The seed only moves noise realisations, spike
positions and waveform phases; heart rates, amplitudes, lengths and lead
shapes are fixed per workload, so throughput stays comparable from one
seed to the next.

The package reads format 212 but never writes it, so the writer lives
here. ``write_record`` produces a ``.hea``/``.dat`` pair that
``ecgz.ingest.load_record`` reads back unchanged (baseline 0, 12-bit).
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from ecgz import bench

RATE_HZ = 360
SAMPLE_MIN, SAMPLE_MAX = -2048, 2047

# holter_wfdb: 30-minute two-lead records, one per heart rate. The rates
# are close enough that the records cost about the same to process.
HOLTER_SECONDS = 30 * 60
HOLTER_HEART_RATES = (70.0, 82.0)
HOLTER_AMPLITUDES = ((900.0, 540.0), (950.0, 570.0))

# adverse_csv: one 2-minute four-lead CSV whose leads span the frame mix.
ADVERSE_SECONDS = 2 * 60
ADVERSE_LEADS = ("noisy", "slew", "flat_spikes", "typical")

# telemetry_loss: four leads of one heart, streamed in 1 s blocks.
TELEMETRY_SECONDS = 5 * 60
TELEMETRY_AMPLITUDES = (900.0, 600.0, 1100.0, 400.0)
TELEMETRY_HEART_RATE = 72.0
DROP_PROBABILITY = 1e-3


def child_seed(seed: int, *tags: int) -> int:
    """Independent 32-bit seed for one random stream of one workload."""
    return int(np.random.SeedSequence((seed, *tags)).generate_state(1)[0])


def pack_format212(channels: list[np.ndarray]) -> bytes:
    """Interleave channels and pack each sample pair into three bytes."""
    flat = np.stack([np.asarray(c, dtype=np.int64) for c in channels], axis=1).ravel()
    if flat.size and (flat.min() < SAMPLE_MIN or flat.max() > SAMPLE_MAX):
        raise ValueError("format 212 holds 12-bit samples only")
    total = flat.size
    u = np.zeros(total + (total & 1), dtype=np.int64)
    u[:total] = flat & 0xFFF
    a, b = u[0::2], u[1::2]
    out = np.empty((a.size, 3), dtype=np.uint8)
    out[:, 0] = a & 0xFF
    out[:, 1] = ((a >> 8) & 0x0F) | (((b >> 8) & 0x0F) << 4)
    out[:, 2] = b & 0xFF
    return out.tobytes()[: (3 * total + 1) // 2]


def write_record(directory: Path, name: str, channels: list[np.ndarray], rate: int = RATE_HZ) -> Path:
    """Write <name>.hea and <name>.dat; returns the record prefix."""
    n = len(channels[0])
    if any(len(c) != n for c in channels):
        raise ValueError("channels must have equal lengths")
    dat = f"{name}.dat"
    lines = [f"{name} {len(channels)} {rate} {n}"]
    for k, c in enumerate(channels):
        first = int(c[0]) if n else 0
        checksum = int(np.asarray(c, dtype=np.int64).sum()) & 0xFFFF
        lines.append(f"{dat} 212 200 12 0 {first} {checksum} 0 lead{k}")
    (directory / f"{name}.hea").write_text("\n".join(lines) + "\n")
    (directory / dat).write_bytes(pack_format212(channels))
    return directory / name


def csv_text(channels: list[np.ndarray]) -> str:
    """One row per time step, one integer column per channel."""
    columns = [map(str, np.asarray(c).tolist()) for c in channels]
    return "".join(",".join(row) + "\n" for row in zip(*columns))


def holter_channels(seed: int) -> dict[str, list[np.ndarray]]:
    """Record name -> two leads, each HOLTER_SECONDS at RATE_HZ."""
    n = HOLTER_SECONDS * RATE_HZ
    records = {}
    for r, (hr, amps) in enumerate(zip(HOLTER_HEART_RATES, HOLTER_AMPLITUDES)):
        records[f"h{r}"] = [
            bench.synthetic_ecg(n, RATE_HZ, hr, amp, seed=child_seed(seed, 1, r, lead))
            for lead, amp in enumerate(amps)
        ]
    return records


def adverse_channels(seed: int) -> list[np.ndarray]:
    """The four adverse leads, in ADVERSE_LEADS order."""
    n = ADVERSE_SECONDS * RATE_HZ
    rng = np.random.default_rng(child_seed(seed, 2))
    t = np.arange(n)

    # Noise-dominated: residuals mostly beyond 7 bits, so Type E dominates.
    noisy = bench.synthetic_ecg(n, RATE_HZ, 70.0, 700.0, seed=child_seed(seed, 2, 0))
    noisy = np.clip(noisy + np.rint(rng.normal(0.0, 50.0, n)).astype(np.int64), SAMPLE_MIN, SAMPLE_MAX)

    # Rail-to-rail triangle with a non-integer slope: the order-2 residual
    # sits in {-1, 0, 1} along each ramp, and the wave clips at both rails.
    period = 1111.0
    phase = (t + rng.uniform(0.0, period)) / period % 1.0
    tri = 4.0 * np.abs(phase - 0.5) - 1.0
    slew = np.clip(np.rint(2300.0 * tri), SAMPLE_MIN, SAMPLE_MAX).astype(np.int64)

    # Near-flat: a constant level, rare one-count dither, and a narrow
    # spike every 2-4 s.
    flat = np.full(n, 12, dtype=np.int64)
    flat += (rng.random(n) < 0.002).astype(np.int64)
    pos = int(rng.integers(0, 2 * RATE_HZ))
    shape = np.array([300, 1100, 1500, 700, 150], dtype=np.int64)
    while pos + shape.size <= n:
        flat[pos : pos + shape.size] += np.rint(shape * rng.uniform(0.6, 1.0)).astype(np.int64)
        pos += int(rng.integers(2 * RATE_HZ, 4 * RATE_HZ))

    typical = bench.synthetic_ecg(n, RATE_HZ, 76.0, 900.0, seed=child_seed(seed, 2, 3))
    return [noisy, slew, flat, typical]


def telemetry_channels(seed: int) -> list[np.ndarray]:
    """Four leads of one heart, each TELEMETRY_SECONDS at RATE_HZ."""
    n = TELEMETRY_SECONDS * RATE_HZ
    return [
        bench.synthetic_ecg(n, RATE_HZ, TELEMETRY_HEART_RATE, amp, seed=child_seed(seed, 3, lead))
        for lead, amp in enumerate(TELEMETRY_AMPLITUDES)
    ]


def drop_mask(seed: int, n_units: int) -> np.ndarray:
    """Seeded independent unit drops for the telemetry link."""
    rng = np.random.default_rng(child_seed(seed, 4))
    return rng.random(n_units) < DROP_PROBABILITY


def sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def samples_digest(channels: list[np.ndarray]) -> str:
    """Digest of the sample values themselves, independent of file format."""
    return sha256(*(np.asarray(c, dtype=">i2").tobytes() for c in channels))
