"""Command line front end.

Subcommands: compress, decompress, verify, bench, predict-eval,
simulate-loss. Inputs are integer CSV (one row per time step, one column
per channel) or WFDB format-212 records; outputs are .ecgz containers
and CSV reports.

The codec commands (compress, decompress, verify) load only the codec
modules. The report commands (bench, predict-eval, simulate-loss) import
bench, and with it baselines and the report writer, when they run, so a
codec process never pays for them.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import compress, container, decompress, encoder, ingest
from .errors import EcgzError
from .predictor import ORDERS, SAMPLE_MAX, SAMPLE_MIN

DOWNLOAD_HELP = """\
No records found. The benchmark records are two-lead Holter archives
published on PhysioNet; fetch them on a networked machine with:

    python3 scripts/fetch_mitdb.py --dest data/mitdb
    python3 scripts/fetch_mitdb.py --database cdb --dest data/cdb   (optional)

or download any mirror of the 48-record arrhythmia set (*.hea/*.dat,
format 212) and point --data or ECGZ_MITDB_DIR at the directory.
"""


CSV_CHUNK_ROWS = 1 << 14  # rows formatted per write by decompress; its cell table, mask and compress index grow with it


def _checked(convert, ok, message: str):
    """An argparse type: convert(text) where ok holds for it, else a usage error (exit 2) that says message."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{message}, got {text!r}")
        return value

    return parse


# Every comparison with nan is false, so the float types refuse it.
_positive_int = _checked(int, lambda v: v >= 1, "must be a positive integer")  # a count such as --orig-bits
_non_negative_int = _checked(int, lambda v: v >= 0, "must be a non-negative integer")
_rate = _checked(float, lambda v: 0 < v < math.inf, "sample rate must be a finite, positive number")  # in Hz
_positive_seconds = _checked(float, lambda v: 0 < v < math.inf, "must be a finite, positive number")
_non_negative_seconds = _checked(float, lambda v: 0 <= v < math.inf, "must be a finite, non-negative number")


@functools.cache  # built on first use; main dispatches by name, so a cmd_* patched later still runs
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ecgz", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add_input_flags(sp):
        sp.add_argument("--format", choices=("csv", "wfdb"), default=None, help="input format (default: by suffix)")
        sp.add_argument("--channels", type=int, default=None, help="expected channel count for CSV input")

    def add_codec_flags(sp):
        seconds, samples = "resync spacing in seconds (0 disables)", "resync spacing in samples, overrides --resync-seconds"
        sp.add_argument("--resync-seconds", type=_non_negative_seconds, default=4.0, help=seconds)
        sp.add_argument("--resync-samples", type=_non_negative_int, default=None, help=samples)
        sp.add_argument("--order", type=int, default=2, choices=ORDERS, help="predictor order")

    sp = sub.add_parser("compress", help="pack a recording into a .ecgz container")
    sp.add_argument("input", type=Path)
    sp.add_argument("output", type=Path)
    add_input_flags(sp)
    sp.add_argument("--rate", type=_rate, default=512.0, help="sample rate in Hz for CSV input")
    add_codec_flags(sp)
    sp.add_argument("--orig-bits", type=_positive_int, default=12, help="raw bits per sample for the ratio summary")

    sp = sub.add_parser("decompress", help="expand a .ecgz container to CSV")
    sp.add_argument("input", type=Path)
    sp.add_argument("output", type=Path)

    sp = sub.add_parser("verify", help="check a .ecgz container against its source recording")
    sp.add_argument("original", type=Path)
    sp.add_argument("compressed", type=Path)
    add_input_flags(sp)

    sp = sub.add_parser("bench", help="compression-ratio table over a record directory")
    sp.add_argument("--data", type=Path, default=Path("data/mitdb"), help="directory of .hea/.dat records")
    sp.add_argument("--records", default=None, help="comma-separated record names (default: all)")
    sp.add_argument("--orig-bits", type=int, default=12, choices=(11, 12))
    sp.add_argument("--m", default="8,16,32,64", help="comma-separated codebook sizes for the selective estimator")
    add_codec_flags(sp)
    sp.add_argument("--out-dir", type=Path, default=None, help="also write CSV reports here")

    sp = sub.add_parser("predict-eval", help="prediction-error table per predictor order")
    sp.add_argument("--data", type=Path, default=Path("data/mitdb"))
    sp.add_argument("--records", default=None)
    sp.add_argument("--out-dir", type=Path, default=None)

    sp = sub.add_parser("simulate-loss", help="drop wire units and audit the recovery")
    sp.add_argument("record", nargs="?", default="synthetic", help="record prefix, CSV file, or 'synthetic'")
    sp.add_argument("--loss-mode", choices=("none", "single", "random", "burst"), default="single")
    sp.add_argument("--loss-prob", type=float, default=0.001, help="per-unit drop probability for random mode")
    sp.add_argument("--burst-length", type=int, default=2)
    sp.add_argument("--unit-index", type=int, default=None, help="fix the dropped unit instead of a seeded choice")
    sp.add_argument("--runs", type=_positive_int, default=1, help="number of seeded simulations")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--rate", type=_rate, default=360.0, help="sample rate for synthetic and CSV input")
    sp.add_argument("--duration", type=_positive_seconds, default=30.0, help="synthetic input length in seconds")
    add_codec_flags(sp)
    sp.add_argument("--out", type=Path, default=None, help="write a CSV of per-run results")
    return p


def _codec_config(args, rate: float, channel_count: int = 1) -> encoder.EncoderConfig:
    """The EncoderConfig the add_codec_flags flags ask for, --resync-seconds counted at rate."""
    samples, seconds = args.resync_samples, args.resync_seconds
    interval = int(round(seconds * rate)) if samples is None else samples
    return encoder.EncoderConfig(resync_interval_samples=interval, channel_count=channel_count, order=args.order)


def _detect_format(path: Path, flag) -> str:
    return flag or ("csv" if path.suffix.lower() == ".csv" else "wfdb")


def _load_input(path: Path, fmt: str, channels_flag, rate: float):
    """Returns (channels as int16 arrays, sample_rate)."""
    if fmt == "csv":
        return ingest.read_csv(path.read_text(), channels_flag), rate
    record, arrays = ingest.load_record(path)
    if channels_flag is not None and channels_flag != len(arrays):
        raise ValueError(f"record has {len(arrays)} channels, --channels says {channels_flag}")
    return arrays, record.sampling_frequency


def cmd_compress(args) -> int:
    fmt = _detect_format(args.input, args.format)
    channels, rate = _load_input(args.input, fmt, args.channels, args.rate)
    if not 1 <= round(rate) <= 0xFFFF:  # the header's 16-bit field; a rate of 0 would also zero --resync-seconds
        raise ValueError(f"sample rate {rate:g} Hz rounds to {round(rate)} Hz; the container holds 1..65535 Hz")
    blob = compress(channels, round(rate), _codec_config(args, rate, len(channels)))
    args.output.write_bytes(blob)
    n = sum(len(c) for c in channels)
    frames = sum(w.size for w in container.read_ecgz(blob)[1])
    ratio = encoder.bcr(n, args.orig_bits, 16 * frames) if frames else float("nan")
    print(f"{args.input}: {n} samples in {len(channels)} channel(s), {frames} frames, bcr {ratio:.3f}")
    return 0


@functools.cache
def _csv_cells() -> np.ndarray:
    """Each sample value's CSV text (index value - SAMPLE_MIN) ending in "," (row 0) or "\n" (row 1).

    The cells are NUL-padded to 8 bytes; no cell holds a NUL byte.
    """
    values = range(SAMPLE_MIN, SAMPLE_MAX + 1)
    cells = np.array([[f"{v}{end}".encode() for v in values] for end in ",\n"], dtype="S8")
    cells.flags.writeable = False  # one table, shared by every call
    return cells


def _csv_bytes(columns: list[np.ndarray]) -> bytes:
    """The CSV rows of equal-length sample columns: what "%d,%d\n" formatting gives."""
    cells = _csv_cells()
    last = len(columns) - 1
    at = [np.subtract(c, SAMPLE_MIN, dtype=np.intp) for c in columns]  # numpy gathers slower through int16
    table = np.stack([cells[int(ch == last)][i] for ch, i in enumerate(at)], axis=1)
    raw = table.view(np.uint8).ravel()  # compress on the flat view runs faster than a mask on the 2-D view
    return raw.compress(raw != 0).tobytes()


def cmd_decompress(args) -> int:
    data = args.input.read_bytes()
    meta = container.read_ecgz(data)[0]  # header checks only: refuse unequal lengths before decoding
    if len(set(meta.sample_counts)) > 1:
        counts = ", ".join(f"channel {ch}: {n}" for ch, n in enumerate(meta.sample_counts))
        raise EcgzError(f"cannot write CSV rows from channels of unequal length ({counts} samples)")
    _, channels = decompress(data)
    rows = min(meta.sample_counts, default=0)
    with open(args.output, "wb") as fh:
        for i in range(0, rows, CSV_CHUNK_ROWS):
            fh.write(_csv_bytes([c[i : min(i + CSV_CHUNK_ROWS, rows)] for c in channels]))
    print(f"{args.input}: restored {sum(meta.sample_counts)} samples to {args.output}")
    return 0


def cmd_verify(args) -> int:
    fmt = _detect_format(args.original, args.format)
    channels, _ = _load_input(args.original, fmt, args.channels, 0.0)
    meta, decoded_channels = decompress(args.compressed.read_bytes())
    if len(channels) != meta.channel_count:
        print(f"channel count differs: source {len(channels)}, container {meta.channel_count}")
        return 1
    for ch, (samples, decoded) in enumerate(zip(channels, decoded_channels)):
        if meta.sample_counts[ch] != len(samples):
            print(f"channel {ch}: length differs, source {len(samples)}, container {meta.sample_counts[ch]}")
            return 1
        differ = np.flatnonzero(samples != decoded)
        if differ.size:
            i = int(differ[0])
            print(f"channel {ch}: mismatch at sample index {i} ({samples[i]} != {decoded[i]})")
            return 1
    print(f"{args.compressed}: matches {args.original} exactly")
    return 0


def _select_records(args) -> list[Path]:
    from . import bench

    paths = bench.discover_records(args.data)
    if args.records:
        wanted = {r.strip() for r in args.records.split(",") if r.strip()}
        paths = [p for p in paths if p.name in wanted]
    return paths


def _run_report(args, evaluate, summarize, csv_name: str) -> int:
    """Evaluate the selected records; print the table, skipped records and summary; write the CSV."""
    paths = _select_records(args)
    if not paths:
        print(DOWNLOAD_HELP, file=sys.stderr)
        print("no records evaluated")
        return 0
    report = evaluate(paths)
    print(report.format_table())
    for line in report.missing:
        print(f"skipped: {line}", file=sys.stderr)
    if report.rows:
        print("\n" + summarize(report))
    if args.out_dir:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        report.to_csv(args.out_dir / csv_name)
        print(f"wrote {args.out_dir / csv_name}")
    return 0


def cmd_bench(args) -> int:
    from . import bench

    def evaluate(paths):
        cfg = _codec_config(args, 0.0)  # without --resync-samples, --resync-seconds at each record's own rate
        seconds = args.resync_seconds if args.resync_samples is None else None
        m_values = tuple(int(v) for v in args.m.split(","))
        return bench.run_database_eval(paths, cfg, orig_bits=args.orig_bits, m_values=m_values, resync_seconds=seconds)

    def summarize(report):
        return (
            f"packer avg {report.average_bcr():.3f} (max {report.max_bcr():.3f})  "
            f"selective avg {report.best_selective_bcr():.3f} at m={report.best_m()}  "
            f"ideal avg {report.average_ideal_bcr():.3f}"
        )

    return _run_report(args, evaluate, summarize, "bcr_report.csv")


def cmd_predict_eval(args) -> int:
    from . import bench

    def summarize(report):
        return (
            f"lowest average error at order {report.argmin_mape_order()} (mape), "
            f"order {report.argmin_rmspe_order()} (rmspe)"
        )

    return _run_report(args, bench.predictor_comparison, summarize, "predictor_report.csv")


def cmd_simulate_loss(args) -> int:
    from . import bench

    if args.record == "synthetic":
        n = int(round(args.duration * args.rate))
        if not n:
            raise ValueError(f"--duration {args.duration:g} s at {args.rate:g} Hz holds no sample")
        channels = [bench.synthetic_ecg(n, args.rate, seed=args.seed)]
        rate = args.rate
    else:
        path = Path(args.record)
        channels, rate = _load_input(path, _detect_format(path, None), None, args.rate)
    cfg = _codec_config(args, rate, len(channels))
    pattern = bench.LossPattern(
        mode=args.loss_mode,
        drop_probability=args.loss_prob,
        burst_length=args.burst_length,
        unit_index=args.unit_index,
    )
    harness = bench.LossHarness(channels, cfg)
    rows = []
    worst = 0
    for run in range(args.runs):
        report = harness.run(pattern, seed=args.seed + run)
        worst = max(worst, report.max_span)
        rows.append(report)
        status = "ok" if report.passed else "FAIL"
        print(
            f"seed {report.seed}: dropped {len(report.dropped_units)} unit(s), "
            f"corrupted {report.corrupted_samples}/{report.total_samples} samples "
            f"({100 * report.corrupted_fraction:.3f}%), max span {report.max_span}, {status}"
        )
    if args.runs > 1:
        bound = max(r.span_bound or 0 for r in rows)
        print(f"worst span over {args.runs} runs: {worst}" + (f" (bound {bound})" if bound else ""))
    if args.out:
        head = ["seed", "dropped_units", "corrupted", "total", "max_span", "exact", "unresynced"]
        cells = (
            [r.seed, len(r.dropped_units), r.corrupted_samples, r.total_samples, r.max_span]
            + [r.known_samples_exact, r.unresynced_samples]
            for r in rows
        )
        bench._write_csv(args.out, head, cells)
        print(f"wrote {args.out}")
    return 0 if all(r.passed for r in rows) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return 2
    except (EcgzError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
