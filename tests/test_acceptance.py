"""End-to-end acceptance checklist.

One test per headline guarantee, each stated at its published tolerance.
Run with -s (or read the -v status per test) to get one line per check.
Checks that need the PhysioNet archives skip with download instructions
when the records are not on disk; everything else runs self-contained.
"""

import random
import time

import numpy as np
import pytest

import ecgz
from conftest import MITDB_RECORDS, pending, queue_of
from ecgz import bench, container, decoder, encoder, ingest
from ecgz.encoder import FRAME_TYPES, EncoderConfig
from test_ingest import oracle_unpack


def _note(msg: str) -> None:
    print(f"[acceptance] {msg}: PASS")


# ---------------------------------------------------------------------------
# 1. Lossless reconstruction over randomized recordings


def test_lossless_round_trip_on_randomized_recordings():
    rng = np.random.default_rng(2026)
    lengths = [0, 1, 2, 5, 6, 7, 12, 36, 10_000]
    while len(lengths) < 10_000:
        u = rng.random()
        if u < 0.80:
            lengths.append(int(rng.integers(0, 33)))
        elif u < 0.95:
            lengths.append(int(rng.integers(33, 257)))
        else:
            lengths.append(int(rng.integers(257, 2049)))

    for i, n in enumerate(lengths):
        nch = int(rng.integers(1, 5))
        order = int(rng.integers(1, 5))
        interval = int(rng.choice([0, 7, 64, 512, 2048]))
        kind = i % 3
        chans = []
        for _ in range(nch):
            if kind == 0:
                xs = rng.integers(-2048, 2048, size=n)
            elif kind == 1:
                xs = np.cumsum(rng.integers(-9, 10, size=n)).clip(-2048, 2047)
            else:
                xs = np.full(n, rng.integers(-2048, 2048))
            chans.append(xs.astype(np.int64).tolist())
        cfg = EncoderConfig(
            resync_interval_samples=interval, channel_count=nch, order=order
        )
        frames = encoder.encode_channels(chans, cfg)
        meta = container.RecordMeta(nch, 360, interval, order, (n,) * nch)
        blob = ecgz.compress(chans, 360, cfg)
        assert blob == container.write_ecgz(meta, frames)
        got_meta, got = ecgz.decompress(blob)
        assert got_meta == meta and all(c.dtype == np.int16 for c in got), f"case {i}"
        assert [c.tolist() for c in got] == chans, (
            f"case {i}: n={n} nch={nch} order={order} interval={interval}"
        )
    _note("lossless round trip over 10,000 randomized recordings")


# ---------------------------------------------------------------------------
# 2. Frame words are bit-exact


def repack(ftype, fields) -> int:
    if ftype.carries_original:
        return encoder.pack_frame(ftype, [pending(0, original=fields[0])])
    return encoder.pack_frame(
        ftype, [encoder.PendingSample(0, e, ftype.field_width) for e in fields]
    )


def test_frame_words_are_bit_exact():
    assert encoder.pack_frame(FRAME_TYPES["D"], queue_of([1, 0, -1, 1, 0, -2])) == 0x04D2
    assert encoder.pack_frame(FRAME_TYPES["E"], [pending(0, original=100)]) == 0x3064
    assert encoder.pack_frame(FRAME_TYPES["A"], queue_of([5, -3, 12])) == 0x97AC
    assert decoder.unpack_frame(0x04D2).fields == [1, 0, -1, 1, 0, -2]
    assert decoder.unpack_frame(0x3064).fields == [100]
    assert decoder.unpack_frame(0x97AC).fields == [5, -3, 12]

    rng = np.random.default_rng(7)
    tags = "ABCDE"
    for _ in range(10_000):
        ft = FRAME_TYPES[tags[rng.integers(0, 5)]]
        half = 1 << (ft.field_width - 1)
        fields = [int(v) for v in rng.integers(-half, half, size=ft.field_count)]
        word = repack(ft, fields)
        got_type, got_fields = decoder.unpack_frame(word)
        assert got_type == ft and got_fields == fields
        assert repack(got_type, got_fields) == word
    _note("three frozen frame words and 10,000 random words round trip")


# ---------------------------------------------------------------------------
# 3. Width classification is exhaustively correct


def test_width_classification_matches_oracle_exhaustively():
    start = time.perf_counter()
    for e in range(-8192, 8192):
        if -2 <= e <= 1:
            want = 2
        elif -4 <= e <= 3:
            want = 3
        elif -16 <= e <= 15:
            want = 5
        elif -64 <= e <= 63:
            want = 7
        else:
            want = encoder.ESC
        assert encoder.min_width_class(e) == want, e
    assert time.perf_counter() - start < 1.0
    _note("width classes match the range oracle on all of [-8192, 8191]")


# ---------------------------------------------------------------------------
# 4. Ratio table over the 48-record arrhythmia set


def test_arrhythmia_database_compression_table(full_mitdb_dir):
    paths = [full_mitdb_dir / name for name in MITDB_RECORDS]
    cfg = EncoderConfig(resync_interval_samples=1440)  # 4 s at 360 Hz
    report = bench.run_database_eval(paths, cfg)
    assert report.missing == []
    assert len(report.record_rows()) == 48

    avg, peak = report.average_bcr(), report.max_bcr()
    ideal = report.average_ideal_bcr()
    selective = report.best_selective_bcr()
    assert avg == pytest.approx(2.25, abs=0.10), f"average ratio {avg:.3f}"
    assert peak == pytest.approx(2.44, abs=0.10), f"max ratio {peak:.3f}"
    assert ideal == pytest.approx(2.66, abs=0.15), f"ideal average {ideal:.3f}"
    assert selective == pytest.approx(2.15, abs=0.15), f"selective average {selective:.3f}"
    assert ideal >= avg >= selective
    _note(
        f"48-record ratios: packer {avg:.3f} (max {peak:.3f}), "
        f"selective {selective:.3f}, ideal {ideal:.3f}"
    )


# ---------------------------------------------------------------------------
# 5. Average ratio over the 168-record compression-test set


def test_compression_test_database_average(cdb_dir):
    paths = bench.discover_records(cdb_dir)
    rate = ingest.parse_wfdb_header(paths[0].with_suffix(".hea").read_text()).sampling_frequency
    cfg = EncoderConfig(resync_interval_samples=int(round(4 * rate)))
    report = bench.run_database_eval(paths, cfg)
    assert report.missing == []
    avg = report.average_bcr()
    assert avg == pytest.approx(2.198, abs=0.10), f"average ratio {avg:.3f}"
    _note(f"168-record average ratio {avg:.3f}")


# ---------------------------------------------------------------------------
# 6. Prediction-error table and the order-2 optimum


def test_prediction_error_table(full_mitdb_dir):
    paths = [full_mitdb_dir / name for name in MITDB_RECORDS]
    report = bench.predictor_comparison(paths)
    assert report.missing == []

    r104 = report.record_values("104", channel=0)
    r203 = report.record_values("203", channel=0)
    assert r104.mape[2] == pytest.approx(3.95, abs=0.3), f"104 mape {r104.mape[2]:.3f}"
    assert r203.mape[2] == pytest.approx(4.53, abs=0.3), f"203 mape {r203.mape[2]:.3f}"
    assert r104.rmspe[2] == pytest.approx(9.19, abs=0.7), f"104 rmspe {r104.rmspe[2]:.3f}"
    assert r203.rmspe[2] == pytest.approx(6.71, abs=0.7), f"203 rmspe {r203.rmspe[2]:.3f}"
    assert report.argmin_mape_order() == 2
    assert report.argmin_rmspe_order() == 2
    _note("prediction-error table reproduced; order 2 minimizes both averages")


# ---------------------------------------------------------------------------
# 7. Recovery from frame loss


def test_single_frame_loss_recovery_bound():
    # 45 s at 360 Hz with raw-sample pairs every 4 s
    signal = bench.synthetic_ecg(16_200, seed=3)
    cfg = EncoderConfig(resync_interval_samples=1440)
    bound = 1440 + 6
    harness = bench.LossHarness([signal], cfg)
    reports = [harness.run(bench.LossPattern("single"), seed=s, span_bound=bound) for s in range(1000)]
    bad = [r.seed for r in reports if not (r.known_samples_exact and r.bound_ok) or r.unresynced_samples]
    assert bad == [], f"failing seeds: {bad[:10]}"
    worst = max(r.max_span for r in reports)
    assert worst <= bound
    _note(f"1,000 single-loss runs: all exact, worst unknown span {worst} <= {bound}")


def test_sparse_loss_corruption_stays_below_one_percent():
    # 30 minutes at 360 Hz, one unit lost in each 10-minute stretch
    n = 30 * 60 * 360
    signal = bench.synthetic_ecg(n, seed=8)
    cfg = EncoderConfig(resync_interval_samples=1440)
    harness = bench.LossHarness([signal], cfg)
    rng = random.Random(99)
    third = harness.n_units // 3
    drops = {rng.randrange(k * third, (k + 1) * third) for k in range(3)}
    report = harness.run(drops=drops)
    assert report.known_samples_exact
    assert report.corrupted_fraction < 0.01, f"corrupted {100 * report.corrupted_fraction:.3f}%"
    _note(
        f"one loss per 10 min corrupts {100 * report.corrupted_fraction:.3f}% "
        "of a 30-minute recording"
    )


# ---------------------------------------------------------------------------
# 8. Output size is exactly 16 bits per frame


def test_serialized_size_is_sixteen_bits_per_frame():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(0, 400))
        nch = int(rng.integers(1, 5))
        chans = [
            np.cumsum(rng.integers(-20, 21, size=n)).clip(-2048, 2047).tolist()
            for _ in range(nch)
        ]
        cfg = EncoderConfig(
            resync_interval_samples=int(rng.choice([0, 100])), channel_count=nch
        )
        frames = encoder.encode_channels(chans, cfg)
        meta = container.RecordMeta(nch, 250, cfg.resync_interval_samples, 2, (n,) * nch)
        blob = container.write_ecgz(meta, frames)
        header = 13 + 8 * nch
        assert 8 * (len(blob) - header) == 16 * sum(len(f) for f in frames)
    # the bench path re-checks the same identity on every evaluation
    bench.evaluate_channels("probe", [[0] * 100], EncoderConfig())
    _note("compressed payload is 16 bits per frame across 200 random encodes")


# ---------------------------------------------------------------------------
# 9. Signal-file reader agrees with a byte-level oracle


def test_format212_reader_matches_byte_oracle():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n_signals = int(rng.integers(1, 5))
        n_samples = int(rng.integers(0, 40))
        need = (n_samples * n_signals * 3 + 1) // 2
        data = bytes(rng.integers(0, 256, size=need, dtype=np.uint8))
        got = ingest.read_format212(data, n_samples, n_signals)
        assert [g.tolist() for g in got] == oracle_unpack(data, n_samples, n_signals)
    _note("signal-file reader matches the byte-level oracle on 1,000 buffers")


def test_format212_published_record_shape(mitdb_dir):
    head = mitdb_dir / "100.hea"
    if not head.is_file():
        pytest.skip(f"record 100 not present in {mitdb_dir}")
    rec = ingest.parse_wfdb_header(head.read_text())
    assert rec.signal_count == 2
    assert rec.sampling_frequency == 360.0
    assert rec.samples_per_signal == 650_000
    record, channels = ingest.load_record(mitdb_dir / "100")
    assert len(channels) == 2
    assert all(len(c) == 650_000 for c in channels)
    _note("record 100 parses to 2 signals, 360 Hz, 650,000 samples")
