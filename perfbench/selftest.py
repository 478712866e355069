"""Self-test of the benchmark's own code; exits non-zero on any failure.

    python3 perfbench/selftest.py

Checks that the format-212 writer round-trips bit-exact through
``ecgz.ingest.load_record``, that every generator is a pure function of
its seed, the frame-header classifier, the tail-percentile rule, the
host-speed scaling of timed ops, and that the metrics BENCHMARK.json
names are the ones the benchmark emits.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from ecgz import ingest  # noqa: E402

import gen  # noqa: E402
import refspeed  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from spans import LAYERS  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def format212_round_trip() -> None:
    rng = np.random.default_rng(7)
    with tempfile.TemporaryDirectory() as tmp:
        for signals in (1, 2, 3, 4):
            for n in (1, 2, 7, 1000):
                chans = [rng.integers(-2048, 2048, n) for _ in range(signals)]
                chans[0][0] = -2048
                chans[-1][-1] = 2047
                prefix = gen.write_record(Path(tmp), f"r{signals}_{n}", chans)
                record, back = ingest.load_record(prefix)
                expect(
                    record.signal_count == signals
                    and record.sampling_frequency == gen.RATE_HZ
                    and all(np.array_equal(a, b) for a, b in zip(back, chans)),
                    f"format 212: {signals} signal(s) x {n} samples read back bit-exact",
                )


def generators_are_seeded() -> None:
    for name, make in (
        ("telemetry", gen.telemetry_channels),
        ("adverse", gen.adverse_channels),
        ("holter", lambda s: [c for chans in gen.holter_channels(s).values() for c in chans]),
    ):
        a, b, c = make(3), make(3), make(4)
        expect(gen.samples_digest(a) == gen.samples_digest(b), f"{name}: same seed, same inputs")
        expect(gen.samples_digest(a) != gen.samples_digest(c), f"{name}: other seed, other inputs")
        expect(all(x.min() >= -2048 and x.max() <= 2047 for x in a), f"{name}: samples in the 12-bit range")
    m1, m2 = gen.drop_mask(5, 100_000), gen.drop_mask(5, 100_000)
    expect(bool(np.array_equal(m1, m2)) and 50 < m1.sum() < 150, "drop mask: seeded, about 1e-3 of units")


def classifiers() -> None:
    words = [0x97AC, 0x4123, 0x1FFF, 0x04D2, 0x3064, 0x2000]
    expect(worker.frame_codes(words).tolist() == [0, 1, 2, 3, 4, -1], "frame headers: A B C D E reserved")
    p, value, beyond = worker.tail_percentile([float(i) for i in range(1, 1001)])
    expect((p, value, beyond) == (99.0, 990.0, 10), "tail: p99 of 1..1000 has 10 beyond")
    p, _, beyond = worker.tail_percentile([1.0] * 300)
    expect(p == 95.0 and beyond == 15, "tail: 300 values fall back to p95")


def meter() -> None:
    nominal = refspeed.NOMINAL_S
    m = refspeed.Meter()
    m.probes = [nominal, 3 * nominal]
    # Half the op at nominal speed, half where the probes went from 1x to 3x.
    m._ops = [("x", 2.0, 1.0, 1.0, 0, [(0.5, nominal)]), ("y", 1.0, 1.0, 1.0, 1, [])]
    m.probes.append(3 * nominal)  # what close() would add
    m.probe = lambda: None
    ops = m.close()
    expect(abs(ops[0][3] - 0.75) < 1e-9 and abs(ops[1][3] - 1 / 3) < 1e-9, "meter: stretches scaled by their probes")

    live = refspeed.Meter()
    with live.timed("busy"):
        start = time.thread_time()
        while time.thread_time() - start < 0.35:
            pass
    ticks = live._ops[0][5]
    kind, wall, cpu, scaled = live.close()[0]
    expect(len(ticks) >= 2, f"meter: {len(ticks)} host-speed ticks inside a 0.35 s op")
    # The loop's own clock counts the ticks; the op must not.
    expect(
        live._ticks_cpu > 0 and abs(cpu + live._ticks_cpu - 0.35) < 0.01,
        f"meter: the ticks' {live._ticks_cpu:.4f} s are left out of the op's {cpu:.4f} s",
    )
    expect(wall >= cpu and scaled > 0, "meter: wall time keeps the ticks, scaled time is positive")


def metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    fake = {
        "timing": {"encode_s": 1.0, "decode_s": 1.0, "pipeline_sps": 1.0},
        "samples_per_pass": 10,
        "bits_per_sample": 6.0,
        "peak_rss_mb": 1.0,
    }
    produced = set(run.end_to_end(fake, 0.1))
    expect(produced == {m["name"] for m in spec["end_to_end"]}, "BENCHMARK.json end_to_end = metrics emitted")
    traced = [{"own": {"encoder.push_block": 1.0}, "incl": {"encoder.push_block": 1.0},
               "calls": {"encoder.push_block": 1}, "errors": {}, "wall": 1.0, "ops": [("block", 1.0, 1.0, 1.0)]}]  # fmt: skip
    result = {"frames": {t: 1 for t in worker.FRAME_TAGS}, "samples_per_pass": 10}
    layers = worker.summarize_traced(traced, [{"wall": 1.0, "ops": [("block", 1.0, 1.0, 1.0)]}], result, {})
    names = {m["name"] for m in spec["per_layer"]}
    expect(names <= set(layers["per_layer"]), "BENCHMARK.json per_layer metrics are all emitted")
    expect({f"{layer}.calls" for layer in LAYERS} <= names, "every layer reports its calls")


if __name__ == "__main__":
    format212_round_trip()
    generators_are_seeded()
    classifiers()
    meter()
    metric_names()
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)
