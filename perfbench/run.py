"""perfbench: the offline ecgz benchmark, one workload per invocation.

    python3 perfbench/run.py --workload holter_wfdb --seed 0 --seconds 20 --trace 0

Run it from a source checkout: the codec is imported from ``src/`` next
to this directory, and the benchmark refuses to run without it. It

1. times ``import ecgz.cli`` in several fresh processes (``setup_s``),
   on the CPU clock scaled to a nominal host (refspeed.py);
2. writes the workload's inputs, generated from --seed, under
   ``.perfbench_work/`` and checks the format-212 records read back
   bit-exact through ``ecgz.ingest.load_record``;
3. runs the workload in a fresh single-threaded process (worker.py) for
   --seconds, checking every output; its timings are CPU times scaled
   by host-speed probes taken between and during the timed calls;
4. on the default seed (0), compares the input and frame-word digests
   with the ones pinned in digests.json;
5. prints a report, then one JSON line with the metrics that
   BENCHMARK.json names: the end-to-end ones with --trace 0, the
   per-layer ones with --trace 1.

The result, the per-layer table and the span dump are also written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import refspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("holter_wfdb", "telemetry_loss", "adverse_csv")
SETUP_PROBES = (5, 4)  # before and after the workload, to sample more of the run
DEADLINE_S = 160.0  # the worker must end in time for the last setup probes
# CPU time of ``import ecgz.cli``, scaled by host-speed probes taken
# around and during it in the same process (refspeed.py).
PROBE = """import sys
sys.path.append(sys.argv[1])
import refspeed
meter = refspeed.Meter(tick_s=0.02)
with meter.timed("import"):
    import ecgz.cli
_, _, cpu, scaled = meter.close()[0]
print(scaled, cpu, ecgz.cli.__file__)
"""
WIDTH_NAMES = {2: "w2", 3: "w3", 5: "w5", 7: "w7", 8: "escape"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def from_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def environment() -> dict:
    import numpy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
    }


def measure_setup(count: int) -> list[tuple[float, float]]:
    """(scaled, CPU) seconds of ``import ecgz.cli`` in ``count`` fresh processes."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, str(HERE)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60,
        )  # fmt: skip
        if proc.returncode != 0:
            fail(f"importing ecgz.cli failed:\n{proc.stderr}")
        scaled, cpu, path = proc.stdout.strip().split(maxsplit=2)
        if not from_src(path):
            fail(f"ecgz.cli was imported from {path}, not from {SRC}")
        times.append((float(scaled), float(cpu)))
    return times


def width_histogram(channels, order: int) -> dict[str, int]:
    import numpy as np
    from ecgz import encoder, predictor

    counts = Counter()
    for c in channels:
        classes = encoder.width_classes(predictor.residuals(c, order))
        values, n = np.unique(classes, return_counts=True)
        counts.update({WIDTH_NAMES[int(v)]: int(k) for v, k in zip(values, n)})
    return {name: counts[name] for name in WIDTH_NAMES.values()}


def prepare(workload: str, seed: int, work: Path) -> tuple[dict, list[str]]:
    """Write the inputs; return their properties and any readback failures."""
    import numpy as np
    from ecgz import ingest

    import gen

    problems: list[str] = []
    props: dict = {"rate_hz": gen.RATE_HZ}
    if workload == "holter_wfdb":
        records = gen.holter_channels(seed)
        (work / "holter").mkdir()
        arrays = {}
        for name, chans in records.items():
            prefix = gen.write_record(work / "holter", name, chans)
            _, back = ingest.load_record(prefix)
            if len(back) != len(chans) or not all(np.array_equal(a, b) for a, b in zip(back, chans)):
                problems.append(f"record {name} does not read back bit-exact through ingest.load_record")
            arrays.update({f"{name}_{k}": c for k, c in enumerate(chans)})
        np.savez(work / "holter.npz", **arrays)
        streams = [c for chans in records.values() for c in chans]
        props.update(records=len(records), leads_per_record=2, heart_rates_bpm=list(gen.HOLTER_HEART_RATES))
        props["width_classes"] = {"order2": width_histogram(streams, 2)}
        props["readback_checks"] = len(records)
    elif workload == "adverse_csv":
        streams = gen.adverse_channels(seed)
        (work / "adverse.csv").write_text(gen.csv_text(streams))
        np.savez(work / "adverse.npz", **{f"lead_{k}": c for k, c in enumerate(streams)})
        props["lead_names"] = list(gen.ADVERSE_LEADS)
        props["width_classes"] = {
            f"order{order}": {name: width_histogram([c], order) for name, c in zip(gen.ADVERSE_LEADS, streams)}
            for order in (2, 4)
        }
    else:
        streams = gen.telemetry_channels(seed)
        np.savez(work / "telemetry.npz", **{f"lead_{k}": c for k, c in enumerate(streams)})
        props.update(block_seconds=1, resync_seconds=4, drop_probability=gen.DROP_PROBABILITY)
        props["width_classes"] = {"order2": width_histogram(streams, 2)}
    props.update(leads=len(streams), samples_per_lead=int(streams[0].size), inputs_sha256=gen.samples_digest(streams))
    return props, problems


def run_worker(args, work: Path, out: Path, budget: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--work", str(work), "--out", str(out),
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]  # fmt: skip
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        fail(f"the {args.workload} worker did not finish within {budget:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"the {args.workload} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def end_to_end(res: dict, setup: float) -> dict[str, float]:
    t = res["timing"]
    samples = res["samples_per_pass"]
    return {
        "encode_sps": samples / t["encode_s"],
        "decode_sps": samples / t["decode_s"],
        "pipeline_sps": t["pipeline_sps"],
        "bits_per_sample": res["bits_per_sample"],
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": setup,
    }


def report(args, env: dict, props: dict, res: dict, setup_times: list[float], digest_note: str) -> list[str]:
    """Human-readable lines: every metric named for this workload, with units."""
    workload = args.workload
    lines = [f"perfbench {workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"]
    lines.append("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    lines.append(
        f"inputs: {props['leads']} leads x {props['samples_per_lead']} samples at {props['rate_hz']} Hz; "
        f"sha256 {props['inputs_sha256'][:16]}"
    )
    lines.append("frames: " + ", ".join(f"{k}={v}" for k, v in res["frames"].items()) + f" (sha256 {res['frames_sha256'][:16]})")
    for name, s in res["streams"].items():
        total = sum(v for k, v in s["frames"].items() if k != "reserved")
        mix = " ".join(f"{k} {100 * v / total:.1f}%" for k, v in s["frames"].items() if k != "reserved" and v)
        lines.append(f"  stream {name}: {s['samples']} samples, {total} frames: {mix}")
    for order, hist in props["width_classes"].items():
        lines.append(f"width classes {order}: {json.dumps(hist)}")
    if "loss" in res:
        loss = res["loss"]
        rate = props["rate_hz"]
        lines.append(
            f"loss: {loss['units_dropped']} units dropped, {loss['unknown_samples']} unknown samples "
            f"({loss['unknown_samples'] / rate:.1f} s) in {loss['unknown_spans']} spans, "
            f"longest {loss['max_span_samples']} samples ({loss['max_span_samples'] / rate:.2f} s), "
            f"mean {loss['mean_span_samples']:.1f} samples ({loss['mean_span_samples'] / rate:.2f} s)"
        )
    lines.append(f"passes: {res['passes']}, {res['samples_per_pass']} samples per pass")
    lines.append(f"setup_s samples, scaled (CPU) s: {', '.join(f'{s:.4f} ({c:.4f})' for s, c in setup_times)}")
    t = res["timing"]
    lines.append(
        f"host: refspeed probe median {1000 * t['probe_median_s']:.3f} ms against the nominal "
        f"{1000 * refspeed.NOMINAL_S:.3f} ms; pass of median calls {t['pass_s']:.4f} s scaled, "
        f"{t['cpu_pass_s']:.4f} s CPU, {t['wall_pass_s']:.4f} s wall"
    )
    lines.append(digest_note)
    failed_ops = res["failed"] / res["attempted"]
    samples = res["samples_per_pass"]
    rows = [
        ("bits_per_sample", res["bits_per_sample"], "bits"),
        ("failed_ops", failed_ops, "ratio"),
        ("peak_rss_mb", res["peak_rss_mb"], "MB"),
        ("setup_s", statistics.median(s for s, _ in setup_times), "s"),
    ]
    if workload == "telemetry_loss":
        rows += [
            ("stream_encode_sps", samples / t["encode_s"], "samples/s"),
            ("block_p50_ms", t["block_p50_ms"], "ms"),
            (
                f"block_tail_ms (p{t['block_tail_percentile']:g}, {t['block_tail_beyond']} of "
                f"{t['block_count']} blocks beyond)",
                t["block_tail_ms"],
                "ms",
            ),
            ("receive_sps", samples / t["decode_s"], "samples/s"),
            ("unknown_fraction", res["loss"]["unknown_fraction"], "ratio"),
        ]
    else:
        verify_s = sum(v for kind, v in t["kind_s"].items() if kind.startswith("verify"))
        rows += [
            ("compress_sps", samples / t["encode_s"], "samples/s"),
            ("decompress_sps", samples / t["decode_s"], "samples/s"),
            ("verify_sps", samples / verify_s, "samples/s"),
        ]
        if workload == "holter_wfdb":
            rows.append(("table_s", t["kind_s"]["table"], "s"))
    rows.append(("pipeline_sps", t["pipeline_sps"], "samples/s"))
    lines += [f"  {name:<44} {value:>16.6g} {unit}" for name, value, unit in rows]
    if "layers" in res:
        lines += layer_table(res["layers"])
    for msg in res["failures"]:
        lines.append(f"FAILED: {msg}")
    return lines


def layer_table(layers: dict) -> list[str]:
    from spans import LAYERS

    traced, untraced = layers["traced_pass_s"], layers["untraced_pass_s"]
    lines = [
        f"traced pass {traced:.4f} s vs untraced {untraced:.4f} s (median call of each kind): "
        f"tracing overhead {100 * (traced / untraced - 1):+.2f}%",
        f"  {'span (per pass, median of traced passes)':<46} {'calls':>7} {'self_s':>10} {'incl_s':>10} {'incl/call ms':>13}",
    ]
    for name, f in sorted(layers["functions"].items()):
        per_call = 1000 * f["incl_s"] / f["calls"] if f["calls"] else 0.0
        lines.append(f"  {name:<46} {f['calls']:>7g} {f['self_s']:>10.4f} {f['incl_s']:>10.4f} {per_call:>13.3f}")
    per_layer = layers["per_layer"]
    for layer in LAYERS:
        lines.append(
            f"  layer {layer:<40} {per_layer[f'{layer}.calls']:>7g} {per_layer[f'{layer}.self_s']:>10.4f}"
            f"   errors {per_layer[f'{layer}.errors']:g}"
        )
    gap, wall = layers["worst_gap_s"], layers["worst_gap_wall_s"]
    ok = abs(gap) <= 0.02 * wall
    lines.append(
        f"  self times sum to the traced wall time within {abs(gap):.4f} s of {wall:.4f} s in the worst pass "
        f"({'ok' if ok else 'MISMATCH'})"
    )
    return lines


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    started = time.perf_counter()

    if not (SRC / "ecgz" / "__init__.py").is_file():
        fail(f"no ecgz sources at {SRC}; run from a checkout of the repository")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import ecgz

    if not from_src(ecgz.__file__):
        fail(f"ecgz was imported from {ecgz.__file__}, not from {SRC}")

    env = environment()
    setup_times = measure_setup(SETUP_PROBES[0])
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    work.mkdir(parents=True)
    try:
        props, problems = prepare(args.workload, args.seed, work)
        res = run_worker(args, work, out, DEADLINE_S - (time.perf_counter() - started))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup_times += measure_setup(SETUP_PROBES[1])
    setup = statistics.median(scaled for scaled, _ in setup_times)

    res["attempted"] += props.pop("readback_checks", 0)
    res["failed"] += len(problems)
    res["failures"] = problems + res["failures"]
    pinned = json.loads((HERE / "digests.json").read_text()).get(args.workload)
    digest_note = f"digests: inputs {props['inputs_sha256']}, frames {res['frames_sha256']}; "
    if args.seed != 0:
        digest_note += "pinned for seed 0 only"
    elif pinned is None:
        digest_note += "none pinned for this workload"
    else:
        for key, actual in (("inputs_sha256", props["inputs_sha256"]), ("frames_sha256", res["frames_sha256"])):
            res["attempted"] += 1
            if actual != pinned[key]:
                res["failed"] += 1
                res["failures"].append(f"{key} {actual} differs from the pinned {pinned[key]}")
        digest_note += "both compared with digests.json"

    lines = report(args, env, props, res, setup_times, digest_note)
    print("\n".join(lines))
    if args.trace:
        values = res["layers"]["per_layer"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        values = end_to_end(res, setup)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"result-{stem}.json").write_text(
        json.dumps({"result": result, "environment": env, "inputs": props, "worker": res}, indent=1) + "\n"
    )
    (out / f"report-{stem}.txt").write_text("\n".join(lines) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
