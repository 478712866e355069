"""Command line behavior, driven through main() with temp files."""

import csv
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecgz
from ecgz import bench, cli, container, encoder
from ecgz.errors import ReservedHeaderError
from oracle import write_csv_scalar
from test_ingest import pack212, sample_bits, write_record


def write_csv(path, channels):
    rows = zip(*channels)
    path.write_text("".join(",".join(str(v) for v in row) + "\n" for row in rows))


def walk_csv(tmp_path, n=800, nch=2, seed=0):
    rng = np.random.default_rng(seed)
    chans = [np.cumsum(rng.integers(-6, 7, size=n)).clip(-2048, 2047).tolist() for _ in range(nch)]
    src = tmp_path / "rec.csv"
    write_csv(src, chans)
    return src, chans


def test_compress_decompress_verify_round_trip(tmp_path, capsys):
    src, chans = walk_csv(tmp_path)
    packed = tmp_path / "rec.ecgz"
    assert cli.main(["compress", str(src), str(packed)]) == 0
    out = capsys.readouterr().out
    assert "samples in 2 channel(s)" in out and "bcr" in out

    restored = tmp_path / "back.csv"
    assert cli.main(["decompress", str(packed), str(restored)]) == 0
    assert restored.read_text() == src.read_text()

    assert cli.main(["verify", str(src), str(packed)]) == 0
    assert "matches" in capsys.readouterr().out


def test_compress_records_the_resync_interval(tmp_path):
    src, _ = walk_csv(tmp_path, n=100, nch=1)
    packed = tmp_path / "rec.ecgz"
    # CSV default rate is 512 Hz, so 4 seconds is 2048 samples
    assert cli.main(["compress", str(src), str(packed)]) == 0
    meta, _ = container.read_ecgz(packed.read_bytes())
    assert meta.resync_interval_samples == 2048
    assert meta.sample_rate_hz == 512

    assert cli.main(["compress", str(src), str(packed), "--resync-samples", "600", "--rate", "250"]) == 0
    meta, _ = container.read_ecgz(packed.read_bytes())
    assert meta.resync_interval_samples == 600
    assert meta.sample_rate_hz == 250


@pytest.mark.parametrize(
    "flags, rate, interval, order",
    [([], 512, 2048, 2), (["--rate", "360.4", "--order", "3"], 360, 1442, 3), (["--resync-samples", "0"], 512, 0, 2)],
)
def test_compress_writes_the_package_compress_bytes(tmp_path, flags, rate, interval, order):
    src, chans = walk_csv(tmp_path, n=700, nch=3)
    packed = tmp_path / "rec.ecgz"
    assert cli.main(["compress", str(src), str(packed), *flags]) == 0
    cfg = encoder.EncoderConfig(resync_interval_samples=interval, channel_count=3, order=order)
    assert packed.read_bytes() == ecgz.compress(chans, rate, cfg)


def test_compress_flat_signal_reports_ceiling_ratio(tmp_path, capsys):
    src = tmp_path / "zeros.csv"
    write_csv(src, [[0] * 600])
    packed = tmp_path / "zeros.ecgz"
    assert cli.main(["compress", str(src), str(packed), "--resync-samples", "0"]) == 0
    assert "bcr 4.500" in capsys.readouterr().out


def test_verify_reports_first_mismatch(tmp_path, capsys):
    src, chans = walk_csv(tmp_path, n=50, nch=1)
    packed = tmp_path / "rec.ecgz"
    assert cli.main(["compress", str(src), str(packed)]) == 0
    capsys.readouterr()
    chans[0][17] += 1
    tampered = tmp_path / "other.csv"
    write_csv(tampered, chans)
    assert cli.main(["verify", str(tampered), str(packed)]) == 1
    assert "index 17" in capsys.readouterr().out


def test_verify_catches_channel_count_mismatch(tmp_path, capsys):
    src, chans = walk_csv(tmp_path, n=40, nch=2)
    packed = tmp_path / "rec.ecgz"
    assert cli.main(["compress", str(src), str(packed)]) == 0
    single = tmp_path / "one.csv"
    write_csv(single, chans[:1])
    assert cli.main(["verify", str(single), str(packed)]) == 1


def test_verify_reports_a_decode_error_before_the_channel_count(tmp_path, capsys):
    # verify decodes through ecgz.decompress first, so a corrupt archive exits 2 whatever the source
    src, chans = walk_csv(tmp_path, n=40, nch=2)
    words = [encoder.encode_channel(c) for c in chans]
    words[1][3] = 0x2ABC  # a reserved header
    packed = tmp_path / "rec.ecgz"
    packed.write_bytes(container.write_ecgz(ecgz.RecordMeta(2, 512, 0, 2, (40, 40)), words))
    single = tmp_path / "one.csv"
    write_csv(single, chans[:1])
    for source in (src, single):
        assert cli.main(["verify", str(source), str(packed)]) == 2
        assert capsys.readouterr() == ("", "error: word 0x2ABC uses the reserved 0010 header\n")


def test_missing_input_exits_two(tmp_path, capsys):
    assert cli.main(["compress", str(tmp_path / "none.csv"), str(tmp_path / "x.ecgz")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_corrupt_container_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.ecgz"
    bad.write_bytes(b"not a container")
    assert cli.main(["decompress", str(bad), str(tmp_path / "out.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_csv_exits_two(tmp_path, capsys):
    src = tmp_path / "bad.csv"
    src.write_text("1,2\n3\n")
    assert cli.main(["compress", str(src), str(tmp_path / "x.ecgz")]) == 2
    assert "row 2" in capsys.readouterr().err


@pytest.mark.parametrize("rate", ["inf", "nan", "0", "-360"])
def test_a_rate_that_is_not_finite_and_positive_exits_two(tmp_path, capsys, rate):
    # exit 2 and no traceback: rounding the resync spacing at an inf rate raises OverflowError
    write_record(tmp_path, "r", [[0] * 10], rate=rate)
    assert cli.main(["compress", str(tmp_path / "r"), str(tmp_path / "r.ecgz")]) == 2
    assert capsys.readouterr().err == f"error: line 1: sampling frequency must be finite and positive, got {rate!r}\n"
    src = tmp_path / "rec.csv"
    src.write_text("1\n2\n3\n")
    for argv in (["compress", str(src), str(tmp_path / "x.ecgz")], ["simulate-loss", str(src)]):
        with pytest.raises(SystemExit) as exit_:
            cli.main([*argv, "--rate", rate])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: argument --rate: sample rate must be a finite, positive number, got {rate!r}\n")
    assert not (tmp_path / "r.ecgz").exists() and not (tmp_path / "x.ecgz").exists()


@pytest.mark.parametrize(
    "rate, flags, stored",
    [("0.2", [], 0), ("0.4", ["--resync-seconds", "1"], 0), ("65535.5", [], 65536), ("0.3", None, 0)],
)
def test_a_rate_the_container_cannot_store_exits_two_before_encoding(tmp_path, capsys, rate, flags, stored):
    # a positive rate that rounds outside the 16-bit header field: no container, one error line, no encode
    if flags is None:  # from a WFDB header
        write_record(tmp_path, "r", [[0] * 10], rate=rate)
        argv = ["compress", str(tmp_path / "r"), str(tmp_path / "out.ecgz")]
    else:
        src = tmp_path / "rec.csv"
        src.write_text("1\n2\n3\n")
        argv = ["compress", str(src), str(tmp_path / "out.ecgz"), "--rate", rate, *flags]
    with mock.patch.object(cli, "compress", side_effect=AssertionError("encoded")):
        assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: sample rate {float(rate):g} Hz rounds to {stored} Hz; the container holds 1..65535 Hz\n"
    )
    assert not (tmp_path / "out.ecgz").exists()


@pytest.mark.parametrize("bits", ["0", "-12", "twelve", "1.5"])
def test_an_orig_bits_below_one_exits_two_before_reading_input(tmp_path, capsys, bits):
    src, _ = walk_csv(tmp_path, n=100, nch=1)
    out = tmp_path / "rec.ecgz"
    with mock.patch.object(cli, "_load_input", side_effect=AssertionError("read input")):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["compress", str(src), str(out), "--orig-bits", bits])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument --orig-bits: must be a positive integer, got {bits!r}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value, rule",
    [
        ("compress", "--resync-seconds", "inf", "must be a finite, non-negative number"),
        ("compress", "--resync-seconds", "nan", "must be a finite, non-negative number"),
        ("compress", "--resync-seconds", "-1", "must be a finite, non-negative number"),
        ("compress", "--resync-samples", "-1", "must be a non-negative integer"),
        ("simulate-loss", "--resync-seconds", "inf", "must be a finite, non-negative number"),
        ("simulate-loss", "--duration", "inf", "must be a finite, positive number"),
        ("simulate-loss", "--duration", "nan", "must be a finite, positive number"),
        ("simulate-loss", "--duration", "0", "must be a finite, positive number"),
        ("simulate-loss", "--duration", "-5", "must be a finite, positive number"),
        ("simulate-loss", "--runs", "0", "must be a positive integer"),
        ("simulate-loss", "--runs", "-1", "must be a positive integer"),
    ],
)
def test_a_spacing_duration_or_run_count_out_of_range_is_a_usage_error(tmp_path, capsys, command, flag, value, rule):
    # exit 2 with argparse's message before any input is read: an inf spacing would overflow when rounded to
    # samples, and zero runs or a duration of no sample would pass with nothing simulated
    src, _ = walk_csv(tmp_path, n=100, nch=1)
    out = tmp_path / "rec.ecgz"
    paths = [str(src), str(out)] if command == "compress" else []
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, *paths, flag, value])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.endswith(f"error: argument {flag}: {rule}, got {value!r}\n")
    assert not out.exists()


def test_a_duration_that_holds_no_sample_exits_two(capsys):
    assert cli.main(["simulate-loss", "--duration", "0.001"]) == 2
    assert capsys.readouterr() == ("", "error: --duration 0.001 s at 360 Hz holds no sample\n")


# Run in a fresh interpreter: the codec commands, then which modules they loaded, then bench.
_CODEC_PROCESS = """
import json, sys
sys.path.insert(0, sys.argv[1])
from ecgz import cli

tmp = sys.argv[2]
codes = []
for src in (tmp + "/rec.csv", tmp + "/rec212"):
    codes += [
        cli.main(["compress", src, tmp + "/out.ecgz"]),
        cli.main(["decompress", tmp + "/out.ecgz", tmp + "/out.csv"]),
        cli.main(["verify", src, tmp + "/out.ecgz"]),
    ]
loaded = sorted(m for m in ("ecgz.bench", "ecgz.baselines", "csv") if m in sys.modules)
codes.append(cli.main(["bench", "--data", tmp]))
from ecgz import bench, encoder

print(json.dumps({"codes": codes, "loaded": loaded, "same_bcr": bench.bcr is encoder.bcr}))
"""


def test_the_codec_commands_start_without_the_report_modules(tmp_path):
    # compress, decompress and verify load no report code; bench, run later in the same process, still works
    walk_csv(tmp_path, n=600, nch=2, seed=4)
    rng = np.random.default_rng(4)
    leads = np.cumsum(rng.integers(-9, 10, size=(2, 3000)), axis=1).clip(-900, 900)
    write_record(tmp_path, "rec212", leads.tolist(), rate=360)  # its header gives initial values and checksums
    package_root = Path(ecgz.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _CODEC_PROCESS, str(package_root), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert result == {"codes": [0] * 7, "loaded": [], "same_bcr": True}
    packed = [line.rsplit(" bcr ", 1)[1] for line in lines if line.startswith(f"{tmp_path / 'rec212'}: ")]
    benched = [line.split()[2] for line in lines if line.split()[:1] == ["rec212"]]
    assert len(packed) == 1 and benched == packed


def test_main_parses_each_call_afresh_and_dispatches_by_name(tmp_path, capsys):
    # the parser is built once; options of one call must not leak into the next
    src, _ = walk_csv(tmp_path, n=100, nch=1)
    packed = tmp_path / "rec.ecgz"
    assert cli.main(["compress", str(src), str(packed), "--order", "4"]) == 0
    assert container.read_ecgz(packed.read_bytes())[0].predictor_order == 4
    assert cli.main(["compress", str(src), str(packed)]) == 0
    assert container.read_ecgz(packed.read_bytes())[0].predictor_order == 2
    # a command replaced after the parser was built is the one that runs
    with mock.patch.object(cli, "cmd_verify", return_value=7) as verify:
        assert cli.main(["verify", str(src), str(packed)]) == 7
    verify.assert_called_once()
    assert cli.main(["verify", str(src), str(packed)]) == 0


def test_wfdb_record_compresses_by_prefix(tmp_path, capsys):
    rng = np.random.default_rng(5)
    chans = [np.cumsum(rng.integers(-3, 4, size=300)).clip(-900, 900).tolist()]
    write_record(tmp_path, "toy", chans, rate=360)
    packed = tmp_path / "toy.ecgz"
    assert cli.main(["compress", str(tmp_path / "toy"), str(packed)]) == 0
    meta, _ = container.read_ecgz(packed.read_bytes())
    assert meta.sample_rate_hz == 360
    assert meta.resync_interval_samples == 1440  # 4 s at the record's rate
    restored = tmp_path / "toy.csv"
    assert cli.main(["decompress", str(packed), str(restored)]) == 0
    got = [int(line) for line in restored.read_text().splitlines()]
    assert got == chans[0]


def test_bench_without_records_prints_instructions(tmp_path, capsys):
    assert cli.main(["bench", "--data", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "no records evaluated" in captured.out
    assert "fetch_mitdb" in captured.err


def test_bench_on_synthetic_records(tmp_path, capsys):
    rng = np.random.default_rng(1)
    for name in ("a1", "a2"):
        chans = [np.cumsum(rng.integers(-4, 5, size=500)).clip(-2000, 2000).tolist()]
        write_record(tmp_path, name, chans, rate=250)
    out_dir = tmp_path / "reports"
    assert cli.main(["bench", "--data", str(tmp_path), "--out-dir", str(out_dir)]) == 0
    captured = capsys.readouterr().out
    assert "a1" in captured and "packer avg" in captured
    assert (out_dir / "bcr_report.csv").is_file()


def test_bench_record_filter(tmp_path, capsys):
    rng = np.random.default_rng(2)
    for name in ("b1", "b2"):
        chans = [np.cumsum(rng.integers(-4, 5, size=400)).clip(-2000, 2000).tolist()]
        write_record(tmp_path, name, chans)
    assert cli.main(["bench", "--data", str(tmp_path), "--records", "b2"]) == 0
    captured = capsys.readouterr().out
    assert "b2" in captured and "b1" not in captured


def test_predict_eval_table(tmp_path, capsys):
    rng = np.random.default_rng(3)
    chans = [np.cumsum(rng.integers(-4, 5, size=400)).clip(-2000, 2000).tolist()]
    write_record(tmp_path, "p1", chans)
    assert cli.main(["predict-eval", "--data", str(tmp_path)]) == 0
    captured = capsys.readouterr().out
    assert "p1" in captured and "lowest average error" in captured


def test_simulate_loss_synthetic_run(tmp_path, capsys):
    out = tmp_path / "runs.csv"
    code = cli.main(
        [
            "simulate-loss",
            "--duration",
            "10",
            "--runs",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert captured.count("seed") == 3
    assert "worst span" in captured
    assert out.read_text().startswith("seed,")


def test_simulate_loss_none_mode_is_lossless(capsys):
    assert cli.main(["simulate-loss", "--duration", "5", "--loss-mode", "none"]) == 0
    assert "dropped 0 unit(s)" in capsys.readouterr().out


@pytest.mark.parametrize("order", [1, 2, 3])
def test_simulate_loss_verdict_counts_the_total_after_one_lost_unit(order, capsys, tmp_path):
    # at order 3 two raw samples per resync cannot restart the predictor: seed 1 loses 30,540
    # of 36,000 samples in spans that each stay within the bound, so only the total shows it
    # after one lost unit, and in every mode the samples left unknown after a full resync
    modes = {
        "single": ["--runs", "5"],
        "burst": ["--burst-length", "2", "--runs", "3"],
        "random": ["--loss-prob", "0.0005", "--runs", "3"],
    }
    for mode, flags in modes.items():
        out = tmp_path / f"{mode}.csv"
        argv = ["simulate-loss", "--order", str(order), "--loss-mode", mode, *flags, "--duration", "100"]
        code = cli.main([*argv, "--out", str(out)])
        lines = capsys.readouterr().out.splitlines()
        unresynced = [int(row["unresynced"]) for row in csv.DictReader(out.read_text().splitlines())]
        if order == 3:
            assert code == 1 and any(unresynced), mode
            if mode != "random":
                dropped = {"single": 1, "burst": 2}[mode]
                assert lines[1].startswith(f"seed 1: dropped {dropped} unit(s), corrupted 30540/36000 samples")
                assert lines[1].endswith("FAIL")
            else:  # each seed loses 73-97% of the lead
                assert all(line.endswith("FAIL") for line in lines[:3]) and all(unresynced)
        else:
            assert code == 0 and not any(line.endswith("FAIL") for line in lines), mode
            assert unresynced == [0] * len(unresynced)


def test_simulate_loss_holds_no_loss_at_the_tail_to_the_bound(capsys):
    # the lost unit is the second forced raw frame of the resync at sample 2,484; the next
    # resync would fall in the flush, which ignores it, so 13 samples stay unknown to the end
    argv = ["simulate-loss", "--duration", "6.925", "--seed", "184815775", "--order", "1"]
    argv += ["--resync-samples", "6", "--loss-mode", "single", "--unit-index", "1435"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.startswith("seed 184815775: dropped 1 unit(s), corrupted 13/2493 samples")
    channels = [bench.synthetic_ecg(2493, 360.0, seed=184815775)]
    harness = bench.LossHarness(channels, encoder.EncoderConfig(resync_interval_samples=6, order=1))
    report = harness.run(drops={1435})
    assert report.span_bound is None and report.unresynced_samples == 0 and report.known_samples_exact
    assert report.max_span == 13 > 6 + 6 and report.passed
    report = harness.run(drops={1432})  # the same frame of the resync before, which a full resync follows
    assert report.span_bound == 12 and report.corrupted_samples == 4 and report.passed


def test_a_flipped_source_bit_is_refused_by_compress_and_verify(tmp_path, capsys):
    chans = [[0, 5, -7, 100, -100], [1, 2, 3, 4, 5]]
    prefix = write_record(tmp_path, "f", chans, rate=360)
    packed = tmp_path / "f.ecgz"
    assert cli.main(["compress", str(prefix), str(packed)]) == 0
    blob = (tmp_path / "f.dat").read_bytes()
    capsys.readouterr()
    for at, bit in sample_bits(5, 2):
        flipped = bytearray(blob)
        flipped[at] ^= 1 << bit
        (tmp_path / "f.dat").write_bytes(flipped)
        out = tmp_path / "g.ecgz"
        assert cli.main(["compress", str(prefix), str(out)]) == 2 and not out.exists()
        assert cli.main(["verify", str(prefix), str(packed)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: signal f.dat:lead ")


def test_compress_reads_a_zero_sample_header_to_the_end_of_its_signal_file(tmp_path, capsys):
    chans = [list(range(100)), list(range(0, -200, -2))]
    prefix = write_record(tmp_path, "z", chans, rate=360)
    head = tmp_path / "z.hea"
    head.write_text(head.read_text().replace("z 2 360 100", "z 2 360 0", 1))
    assert cli.main(["compress", str(prefix), str(tmp_path / "z.ecgz")]) == 0
    assert capsys.readouterr().out.startswith(f"{prefix}: 200 samples in 2 channel(s), ")
    assert [c.tolist() for c in ecgz.decompress((tmp_path / "z.ecgz").read_bytes())[1]] == chans
    (tmp_path / "z.dat").write_bytes(b"")
    assert cli.main(["compress", str(prefix), str(tmp_path / "y.ecgz")]) == 2
    assert capsys.readouterr().err == "error: record z declares no samples, and z.dat holds none\n"
    assert not (tmp_path / "y.ecgz").exists()


def test_simulate_loss_detects_csv_case_insensitively(tmp_path, capsys):
    src, _ = walk_csv(tmp_path, n=900, nch=2)
    argv = ["--loss-mode", "single", "--resync-samples", "200", "--seed", "4"]
    assert cli.main(["simulate-loss", str(src), *argv]) == 0
    lower = capsys.readouterr().out
    assert cli.main(["simulate-loss", str(src.rename(tmp_path / "REC.CSV")), *argv]) == 0
    assert capsys.readouterr().out == lower


def test_bench_skips_a_malformed_header_wherever_it_sorts(tmp_path, capsys):
    rng = np.random.default_rng(6)
    for name in ("b1", "b2"):
        chans = [np.cumsum(rng.integers(-4, 5, size=1500)).clip(-2000, 2000).tolist()]
        write_record(tmp_path, name, chans, rate=250)
    assert cli.main(["bench", "--data", str(tmp_path)]) == 0
    clean = capsys.readouterr().out
    for bad in ("aa", "zz"):
        (tmp_path / f"{bad}.hea").write_text(f"{bad} 2 abc 3600\n")
        assert cli.main(["bench", "--data", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == clean  # each record's resync spacing comes from its own rate
        assert captured.err == f"skipped: {tmp_path / bad}: line 1: could not convert string to float: 'abc'\n"
        (tmp_path / f"{bad}.hea").unlink()


@pytest.mark.parametrize("baseline", [10**23, 40_000])
def test_a_baseline_that_does_not_centre_is_reported_not_raised(tmp_path, capsys, baseline):
    # a baseline beyond int64 once escaped as an OverflowError; one that only fails to
    # centre stopped ecgz bench for the whole directory
    write_record(tmp_path, "g0", [[0, 5, -7, 100, -100, 3]])
    (tmp_path / "h0.hea").write_text(f"h0 1 360 6\nh0.dat 212 200({baseline}) 12 0 5 45 0 lead0\n")
    (tmp_path / "h0.dat").write_bytes(pack212([5, 6, 7, 8, 9, 10]))
    reason = f"signal h0.dat:lead0 leaves -2048..2047 after centering on {baseline}"
    packed = tmp_path / "g0.ecgz"
    assert cli.main(["compress", str(tmp_path / "g0"), str(packed)]) == 0
    capsys.readouterr()
    assert cli.main(["compress", str(tmp_path / "h0"), str(tmp_path / "h0.ecgz")]) == 2
    assert capsys.readouterr().err == f"error: {reason}\n"
    assert cli.main(["verify", str(tmp_path / "h0"), str(packed)]) == 2
    assert capsys.readouterr().err == f"error: {reason}\n"
    assert cli.main(["bench", "--data", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == f"skipped: {tmp_path / 'h0'}: {reason}\n"
    assert [line.split()[0] for line in captured.out.splitlines()[1:2]] == ["g0"]


def test_bench_scales_the_resync_interval_by_each_records_rate(tmp_path, capsys):
    # at the default 4 s, a (500 Hz) resyncs every 2,000 samples and b (125 Hz) every 500
    rng = np.random.default_rng(9)
    for name, rate in (("a", 500), ("b", 125)):
        write_record(tmp_path, name, [np.cumsum(rng.integers(-4, 5, size=6000)).clip(-2000, 2000).tolist()], rate=rate)

    def row_of_b(argv):
        assert cli.main(["bench", "--data", str(tmp_path), *argv]) == 0
        return next(line for line in capsys.readouterr().out.splitlines() if line.split()[:1] == ["b"])

    assert row_of_b([]) == row_of_b(["--records", "b"])


def _packed_channels(tmp: Path, lengths, seed: int) -> tuple[Path, list[list[int]]]:
    """A container of seeded channels of the given lengths, and the channels."""
    rng = np.random.default_rng(seed)
    chans = []
    for n in lengths:
        x = np.cumsum(rng.integers(-40, 41, size=n)).clip(-2048, 2047)
        x[rng.integers(0, n, size=min(n, 3))] = rng.choice([-2048, 2047])  # the range ends
        chans.append(x.tolist())
    cfg = encoder.EncoderConfig(resync_interval_samples=int(rng.integers(0, 50)))
    frames = [encoder.encode_channel(c, cfg) for c in chans]
    meta = container.RecordMeta(len(chans), 360, cfg.resync_interval_samples, cfg.order, tuple(lengths))
    packed = tmp / "rec.ecgz"
    packed.write_bytes(container.write_ecgz(meta, frames))
    return packed, chans


def _decompress_both_ways(tmp: Path, lengths, seed: int, chunk_rows: int) -> tuple[bytes, bytes]:
    """`ecgz decompress` output and the %d writer's, for channels of the given lengths."""
    packed, chans = _packed_channels(tmp, lengths, seed)
    restored, expected = tmp / "out.csv", tmp / "expected.csv"
    with mock.patch.object(cli, "CSV_CHUNK_ROWS", chunk_rows):
        assert cli.main(["decompress", str(packed), str(restored)]) == 0
    write_csv_scalar(expected, chans, chunk_rows)
    return restored.read_bytes(), expected.read_bytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=4), st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_decompressed_csv_matches_the_percent_d_writer(lengths, chunk_rows, seed):
    # A CSV row takes one sample from every channel: unequal lengths are refused, and the
    # shortest length, given to every channel, is written.
    with tempfile.TemporaryDirectory() as tmp:
        if len(set(lengths)) > 1:
            packed, _ = _packed_channels(Path(tmp), lengths, seed)
            assert cli.main(["decompress", str(packed), str(Path(tmp) / "out.csv")]) == 2
            assert not (Path(tmp) / "out.csv").exists()
        got, expected = _decompress_both_ways(Path(tmp), [min(lengths)] * len(lengths), seed, chunk_rows)
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_csv_bytes_of_int16_columns_match_the_percent_d_writer(nch, rows, seed):
    # the decoder hands int16 columns to the CSV writer, which gathers its cells through intp
    rng = np.random.default_rng(seed)
    columns = [rng.integers(-2048, 2048, size=rows).astype(np.int16) for _ in range(nch)]
    columns[-1][: min(rows, 2)] = [-2048, 2047][:rows]  # the range ends
    with tempfile.TemporaryDirectory() as tmp:
        expected = Path(tmp) / "expected.csv"
        write_csv_scalar(expected, columns, max(rows, 1))
        assert cli._csv_bytes(columns) == expected.read_bytes()


def test_decompressed_csv_crosses_the_write_chunk(tmp_path):
    lengths = (cli.CSV_CHUNK_ROWS + 37,) * 3
    got, expected = _decompress_both_ways(tmp_path, lengths, 4, cli.CSV_CHUNK_ROWS)
    assert got == expected
    assert got.count(b"\n") == cli.CSV_CHUNK_ROWS + 37


def test_decompress_refuses_unequal_channel_lengths(tmp_path, capsys):
    packed, _ = _packed_channels(tmp_path, (5, 9, 5), 1)
    restored = tmp_path / "out.csv"
    assert cli.main(["decompress", str(packed), str(restored)]) == 2
    assert not restored.exists()
    err = capsys.readouterr().err
    assert "channel 0: 5, channel 1: 9, channel 2: 5" in err
    # the lengths are refused before any frame is decoded, so a payload that cannot decode gets the same message
    blob = bytearray(packed.read_bytes())
    blob[13 + 8 * 3 : 15 + 8 * 3] = b"\x20\x00"  # reserved frame header 0010
    packed.write_bytes(bytes(blob))
    with pytest.raises(ReservedHeaderError):
        ecgz.decompress(bytes(blob))
    assert cli.main(["decompress", str(packed), str(restored)]) == 2
    assert not restored.exists()
    assert "channel 0: 5, channel 1: 9, channel 2: 5" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Report output, pinned byte for byte

GOLDEN_BENCH = """\
      record       samples        packer  selective(best m)         ideal
          g1           960         2.215         2.011         2.416
          g2           960         2.169         2.011         2.416
          g3           960         2.182         2.014         2.420
     average          2880         2.189         2.012         2.417

packer avg 2.189 (max 2.215)  selective avg 2.012 at m=64  ideal avg 2.417
wrote <out>/bcr_report.csv
"""

GOLDEN_BENCH_CSV = """\
record,channel,samples,frames,bits,bcr,ideal_bcr,selective_bcr_m8,selective_bcr_m16,selective_bcr_m32,selective_bcr_m64
g1,0,480,163,2608,2.2086,2.4040,1.0942,1.4049,1.9773,2.0028
g1,1,480,162,2592,2.2222,2.4283,1.1420,1.4545,2.0014,2.0196
g2,0,480,166,2656,2.1687,2.4010,1.1345,1.4198,1.9506,2.0007
g2,1,480,166,2656,2.1687,2.4314,1.1444,1.5118,1.9807,2.0218
g3,0,480,163,2608,2.2086,2.4202,1.1081,1.4582,1.9938,2.0140
g3,1,480,167,2672,2.1557,2.4202,1.1470,1.4977,1.9645,2.0140
"""

GOLDEN_BENCH_FLAGS = """\
      record       samples        packer  selective(best m)         ideal
          g1           960         2.031         1.310         2.215
          g2           960         1.988         1.342         2.215
          g3           960         2.000         1.355         2.218
     average          2880         2.006         1.336         2.216

packer avg 2.006 (max 2.031)  selective avg 1.336 at m=16  ideal avg 2.216
"""

GOLDEN_PREDICT = """\
      record            ch       mape o1       mape o2       mape o3       mape o4      rmspe o1      rmspe o2      rmspe o3      rmspe o4
          g1             0         4.900         6.650        11.581        21.142         5.613         8.048        13.993        25.575
          g1             1         4.710         6.246        11.075        19.850         5.432         7.691        13.453        24.692
          g2             0         4.881         6.581        11.533        20.810         5.591         8.069        14.099        25.840
          g2             1         4.665         6.167        10.750        19.292         5.436         7.605        13.097        23.816
          g3             0         4.662         6.500        11.477        21.204         5.361         7.779        13.770        25.466
          g3             1         4.781         6.235        10.754        19.179         5.527         7.729        13.132        23.625
average(ch0)                       4.815         6.577        11.531        21.052         5.522         7.965        13.954        25.627

lowest average error at order 1 (mape), order 1 (rmspe)
wrote <out>/predictor_report.csv
"""

GOLDEN_PREDICT_CSV = """\
record,channel,mape_1,mape_2,mape_3,mape_4,rmspe_1,rmspe_2,rmspe_3,rmspe_4
g1,0,4.9000,6.6500,11.5813,21.1417,5.6132,8.0480,13.9932,25.5755
g1,1,4.7104,6.2458,11.0750,19.8500,5.4320,7.6906,13.4532,24.6924
g2,0,4.8812,6.5812,11.5333,20.8104,5.5911,8.0688,14.0989,25.8401
g2,1,4.6646,6.1667,10.7500,19.2917,5.4362,7.6051,13.0974,23.8155
g3,0,4.6625,6.5000,11.4771,21.2042,5.3607,7.7787,13.7696,25.4658
g3,1,4.7812,6.2354,10.7542,19.1792,5.5266,7.7286,13.1319,23.6252
"""


def golden_records(data_dir):
    """Three two-lead random-walk records at 360 Hz, 480 samples each."""
    rng = np.random.default_rng(11)
    data_dir.mkdir()
    for name in ("g1", "g2", "g3"):
        chans = [np.cumsum(rng.integers(-9, 10, size=480)).clip(-2048, 2047).tolist() for _ in range(2)]
        write_record(data_dir, name, chans, rate=360)
    return data_dir


@pytest.mark.parametrize(
    "argv, stdout, csv_name, csv_text",
    [
        (["bench", "--out-dir", "<out>"], GOLDEN_BENCH, "bcr_report.csv", GOLDEN_BENCH_CSV),
        (["bench", "--m", "4,16", "--orig-bits", "11", "--resync-samples", "500"], GOLDEN_BENCH_FLAGS, None, None),
        (["predict-eval", "--out-dir", "<out>"], GOLDEN_PREDICT, "predictor_report.csv", GOLDEN_PREDICT_CSV),
    ],
)
def test_report_output_is_pinned(tmp_path, capsys, argv, stdout, csv_name, csv_text):
    data = golden_records(tmp_path / "data")
    out_dir = tmp_path / "out"
    argv = [str(out_dir) if a == "<out>" else a for a in argv]
    assert cli.main([*argv, "--data", str(data)]) == 0
    captured = capsys.readouterr()
    assert captured.out.replace(str(out_dir), "<out>") == stdout
    assert captured.err == ""
    if csv_name:
        # csv.writer ends rows with \r\n
        assert (out_dir / csv_name).read_bytes() == csv_text.replace("\n", "\r\n").encode()
    else:
        assert not out_dir.exists()
