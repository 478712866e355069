"""Ratio bookkeeping, database evaluation, and loss simulation."""

import importlib.util
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import REPO_ROOT
from ecgz import bench, container, decoder, encoder, predictor
from oracle import audit_channel_scalar, bool_runs_scalar, frame_sample_count, selective_huffman_bits
from test_ingest import write_record


def test_bcr_definition():
    assert bench.bcr(1000, 12, 6000) == 2.0
    assert bench.bcr(0, 12, 16) == 0.0
    with pytest.raises(ValueError):
        bench.bcr(10, 12, 0)
    with pytest.raises(ValueError):
        bench.bcr(-1, 12, 16)


def test_constant_signal_reaches_the_packing_ceiling():
    # six samples per 16-bit frame against 12-bit raw: 72/16
    cfg = encoder.EncoderConfig(resync_interval_samples=0)
    rows = bench.evaluate_channels("flat", [[0] * 600], cfg)
    assert rows[0].bcr == pytest.approx(4.5)


def test_incompressible_signal_hits_the_escape_floor():
    # residuals alternate around +-6000, so every frame is an escape
    xs = [2000 if i % 2 == 0 else -2000 for i in range(300)]
    cfg = encoder.EncoderConfig(resync_interval_samples=0)
    rows = bench.evaluate_channels("noise", [xs], cfg)
    assert rows[0].frame_count == 300
    assert rows[0].bcr == pytest.approx(0.75)


def test_evaluate_channels_row_contents():
    rng = np.random.default_rng(1)
    xs = np.cumsum(rng.integers(-4, 5, size=1000)).clip(-2048, 2047).tolist()
    cfg = encoder.EncoderConfig(resync_interval_samples=250)
    rows = bench.evaluate_channels("walk", [xs], cfg, orig_bits=12, m_values=(8, 64))
    (row,) = rows
    assert row.n_samples == 1000
    assert row.compressed_bits == 16 * row.frame_count
    assert row.bcr == pytest.approx(12000 / row.compressed_bits)
    assert set(row.selective_bcr) == {8, 64}
    assert row.ideal_bcr >= row.bcr  # codebook-free bound beats the packer
    assert row.selective_bits[8] >= row.ideal_bits


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_evaluate_channels_histogram_is_the_sorted_residual_count(order):
    # rail-to-rail samples reach the widest residual of the order, +-4095 * 2**(order-1)
    rng = np.random.default_rng(order)
    walk = np.cumsum(rng.integers(-40, 41, size=900)).clip(-2048, 2047).tolist()
    xs = walk + [2047, -2048] * 50
    hists = []
    real = bench.baselines.ideal_huffman_bits_from_hist
    with mock.patch.object(bench.baselines, "ideal_huffman_bits_from_hist", lambda h: hists.append(h) or real(h)):
        bench.evaluate_channels("walk", [xs], encoder.EncoderConfig(resync_interval_samples=0, order=order))
    symbols, counts = np.unique(predictor.residuals(xs, order), return_counts=True)
    (hist,) = hists
    assert list(hist.items()) == list(zip(symbols.tolist(), counts.tolist()))
    assert all(type(k) is int and type(v) is int for k, v in hist.items())


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_selective_escapes_cost_the_residual_width_of_the_order(order):
    rng = np.random.default_rng(order)
    xs = np.cumsum(rng.integers(-40, 41, size=800)).clip(-2048, 2047).tolist()
    cfg = encoder.EncoderConfig(resync_interval_samples=0, order=order)
    (row,) = bench.evaluate_channels("walk", [xs], cfg, m_values=(4,))
    errors = predictor.residuals(xs, order).tolist()
    assert row.selective_bits[4] == selective_huffman_bits(errors, 4, escape_bits=12 + order)
    if order == 2:  # the default prices escapes as before
        assert row.selective_bits[4] == selective_huffman_bits(errors, 4)


def test_database_report_pools_channels_per_record(tmp_path):
    chans = [[0] * 60, [100] * 60]
    write_record(tmp_path, "r1", chans)
    write_record(tmp_path, "r2", [[0] * 60])
    paths = bench.discover_records(tmp_path)
    assert [p.name for p in paths] == ["r1", "r2"]
    report = bench.run_database_eval(paths, encoder.EncoderConfig(resync_interval_samples=0))
    assert report.missing == []
    assert len(report.rows) == 3  # r1 has two channels
    recs = {r.record: r for r in report.record_rows()}
    assert recs["r1"].n_samples == 120
    r1_rows = [r for r in report.rows if r.record == "r1"]
    assert recs["r1"].compressed_bits == sum(r.compressed_bits for r in r1_rows)
    assert report.average_bcr() == pytest.approx(
        (recs["r1"].bcr + recs["r2"].bcr) / 2
    )
    assert report.best_m() in report.m_values


def test_database_eval_collects_missing_records(tmp_path):
    write_record(tmp_path, "ok", [[0] * 30])
    report = bench.run_database_eval([tmp_path / "ok", tmp_path / "absent"])
    assert len(report.rows) == 1
    assert len(report.missing) == 1
    assert "absent" in report.missing[0]


def test_database_report_csv_and_table(tmp_path):
    write_record(tmp_path, "r1", [[7] * 90])
    report = bench.run_database_eval(bench.discover_records(tmp_path))
    table = report.format_table()
    assert "r1" in table and "average" in table
    out = tmp_path / "report.csv"
    report.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("record,")


def test_predictor_comparison_table(tmp_path):
    rng = np.random.default_rng(3)
    xs = np.cumsum(rng.integers(-3, 4, size=400)).clip(-2048, 2047).tolist()
    write_record(tmp_path, "w", [xs])
    report = bench.predictor_comparison(bench.discover_records(tmp_path))
    assert report.orders == (1, 2, 3, 4)
    row = report.record_values("w", 0)
    assert set(row.mape) == {1, 2, 3, 4}
    assert report.average_mape(2) == pytest.approx(row.mape[2])
    assert report.argmin_mape_order() in (1, 2, 3, 4)
    assert "w" in report.format_table()


def test_discover_records_on_missing_directory(tmp_path):
    assert bench.discover_records(tmp_path / "nope") == []


# ---------------------------------------------------------------------------
# Loss simulation


def synthetic_channel(n=6000, seed=0):
    return bench.synthetic_ecg(n, sample_rate=360.0, seed=seed).tolist()


def test_synthetic_signal_is_deterministic_and_in_range():
    a = bench.synthetic_ecg(2000, seed=9)
    b = bench.synthetic_ecg(2000, seed=9)
    assert np.array_equal(a, b)
    assert a.min() >= -2048 and a.max() <= 2047
    assert bench.synthetic_ecg(0).size == 0
    # enough structure to use more than one frame type
    cfg = encoder.EncoderConfig(resync_interval_samples=0)
    words = encoder.encode_channel(a.tolist(), cfg)
    headers = {decoderless_tag(w) for w in words}
    assert len(headers) >= 3


def decoderless_tag(w):
    if w & 0x8000:
        return "A"
    if w & 0x4000:
        return "B"
    return {0: "D", 1: "C", 3: "E"}[w >> 12]


def test_loss_pattern_validation():
    with pytest.raises(ValueError):
        bench.LossPattern(mode="flood")
    with pytest.raises(ValueError):
        bench.LossPattern(drop_probability=1.5)
    with pytest.raises(ValueError):
        bench.LossPattern(burst_length=0)


def test_no_loss_run_is_clean():
    cfg = encoder.EncoderConfig(resync_interval_samples=720)
    report = bench.LossHarness([synthetic_channel()], cfg).run(bench.LossPattern("none"))
    assert report.dropped_units == []
    assert report.corrupted_samples == 0
    assert report.known_samples_exact
    assert report.max_span == 0
    assert report.corrupted_fraction == 0.0


def test_single_loss_report_shape():
    cfg = encoder.EncoderConfig(resync_interval_samples=720)
    report = bench.LossHarness([synthetic_channel()], cfg).run(
        bench.LossPattern("single"), seed=5, span_bound=726
    )
    assert len(report.dropped_units) == 1
    assert report.known_samples_exact
    assert report.bound_ok
    assert report.corrupted_samples == sum(
        stop - start for spans in report.spans for start, stop in spans
    )


def test_same_seed_reproduces_the_run():
    cfg = encoder.EncoderConfig(resync_interval_samples=720)
    harness = bench.LossHarness([synthetic_channel()], cfg)
    a = harness.run(bench.LossPattern("single"), seed=17)
    b = harness.run(bench.LossPattern("single"), seed=17)
    assert a.dropped_units == b.dropped_units
    assert a.spans == b.spans


def test_fixed_unit_index_drops_that_unit():
    cfg = encoder.EncoderConfig(resync_interval_samples=720)
    pattern = bench.LossPattern("single", unit_index=11)
    report = bench.LossHarness([synthetic_channel()], cfg).run(pattern)
    assert report.dropped_units == [11]


def test_explicit_drop_set_overrides_the_pattern():
    cfg = encoder.EncoderConfig(resync_interval_samples=720)
    harness = bench.LossHarness([synthetic_channel()], cfg)
    report = harness.run(drops={3, 40})
    assert report.dropped_units == [3, 40]
    with pytest.raises(ValueError):
        harness.run(drops={harness.n_units})


def test_burst_loss_spans_stay_contained():
    cfg = encoder.EncoderConfig(resync_interval_samples=720)
    pattern = bench.LossPattern("burst", burst_length=3)
    report = bench.LossHarness([synthetic_channel()], cfg).run(pattern, seed=2)
    assert len(report.dropped_units) == 3
    assert report.known_samples_exact and report.unresynced_samples == 0
    # a short burst still resolves by the second resync pair at the latest
    assert report.max_span <= 2 * 720 + 12


def test_multichannel_loss_only_touches_the_hit_channel():
    cfg = encoder.EncoderConfig(resync_interval_samples=720, channel_count=2)
    chans = [synthetic_channel(seed=1), synthetic_channel(seed=2)]
    harness = bench.LossHarness(chans, cfg)
    report = harness.run(drops={harness.n_units // 2})
    assert report.known_samples_exact
    corrupted_channels = [ch for ch, spans in enumerate(report.spans) if spans]
    assert len(corrupted_channels) == 1


def test_loss_sweep_shares_the_encode():
    cfg = encoder.EncoderConfig(resync_interval_samples=720)
    harness = bench.LossHarness([synthetic_channel()], cfg)
    reports = [harness.run(bench.LossPattern("single"), seed=s, span_bound=726) for s in range(8)]
    assert len(reports) == 8
    assert all(r.known_samples_exact and r.bound_ok for r in reports)
    assert {r.seed for r in reports} == set(range(8))


def _report_by_frame_walk(harness: bench.LossHarness, drops: set[int]):
    """(spans, corrupted count, exact, unresynced count) from the per-frame audit."""
    received = container.wire_decode(
        bench._drop_units(harness.wire, drops), len(harness.channels), harness.expected_frames
    ).channels
    spans, exact, unresynced = [], True, 0
    for ch, truth in enumerate(harness.channels):
        out, _ = decoder.decode_resilient(received[ch], len(truth), harness.config.order)
        counts = [frame_sample_count(w) for w in harness.channel_frames[ch]]
        corrupted = audit_channel_scalar(truth.tolist(), counts, received[ch], out)
        if corrupted is None:
            exact = False
            corrupted = [True] * len(truth)
        spans.append(bool_runs_scalar(corrupted))
        unresynced += _unresynced_by_frame_walk(corrupted, counts, received[ch], harness.config.resync_interval_samples)
    corrupted_total = sum(stop - start for runs in spans for start, stop in runs)
    return spans, corrupted_total, exact, unresynced


def _unresynced_by_frame_walk(corrupted: list[bool], counts: list[int], frames: list, interval: int) -> int:
    """Corrupted samples from the first resync received in full after each lost frame up to the next one."""
    n, total, end, resync_end = len(corrupted), 0, 0, None
    for count, word in zip(counts, frames):
        if word is None:
            if resync_end is not None:
                total += sum(corrupted[resync_end:end])
            s = interval
            while s and s - 5 < end + count:  # the forced raw frames start after this frame
                s += interval
            resync_end = s + encoder.RESYNC_RAW_SAMPLES if s and s + 7 <= n else None
        end += count
    return total + (sum(corrupted[resync_end:]) if resync_end is not None else 0)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(0, 1500),
    st.sampled_from([0, 7, 50, 300]),
    st.sampled_from(["none", "single", "random", "burst"]),
    st.booleans(),
    st.integers(0, 2**16),
)
@example(nch=3, n=110, interval=50, mode="random", tamper=False, seed=2190)  # a lone gap and a lost tail unit
def test_loss_audit_matches_the_frame_walk(nch, n, interval, mode, tamper, seed):
    chans = [bench.synthetic_ecg(n, seed=seed + ch) for ch in range(nch)]
    cfg = encoder.EncoderConfig(resync_interval_samples=interval, channel_count=nch, order=1 + seed % 4)
    harness = bench.LossHarness(chans, cfg)
    pattern = bench.LossPattern(mode, drop_probability=0.05, burst_length=1 + seed % 5)
    erasures = decoder._decode

    def wrong_known_sample(*args):  # a decoder that claims a sample it got wrong
        out, known = erasures(*args)
        if known.any():
            out[np.flatnonzero(known)[seed % np.count_nonzero(known)]] += 1
        return out, known

    with mock.patch.object(decoder, "_decode", wrong_known_sample if tamper else erasures):
        report = harness.run(pattern, seed=seed)
        expected = _report_by_frame_walk(harness, set(report.dropped_units))
    got = (report.spans, report.corrupted_samples, report.known_samples_exact, report.unresynced_samples)
    assert got == expected
    assert all(type(v) is int for runs in report.spans for span in runs for v in span)
    assert type(report.corrupted_samples) is int and type(report.known_samples_exact) is bool


def test_every_tracer_target_resolves_in_the_package():
    # perfbench's tracer wraps each target by getattr, so a name missing here
    # breaks every traced benchmark run, which the untraced CI gate never makes
    spec = importlib.util.spec_from_file_location("perfbench_spans", REPO_ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = [
        f"{module}.{name}"
        for module, name, _ in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"ecgz.{module}"), name, None))
    ]
    assert missing == []
