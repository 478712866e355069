"""Run one perfbench workload in this process; print its result as JSON.

run.py starts this in a fresh single-threaded process after writing the
inputs, so that peak RSS belongs to the workload alone:

    PYTHONPATH=src python3 perfbench/worker.py --workload holter_wfdb \
        --work DIR --out DIR --seed 0 --seconds 20 --trace 0

Every workload is a closed loop: one driver, each call made after the
previous one returned. A pass is one fixed unit of work (all records,
both orders, or one telemetry session) that is repeated unchanged until
--seconds have elapsed. Each pass has a timed phase, which makes only
the calls being measured, and a gate phase afterwards that checks every
output; with --trace 1 the tracer is installed for the timed phase of
every second pass only, so the untraced passes in between give the
tracing overhead. Each timed call is kept on three clocks by
``refspeed.Meter``: wall, CPU, and CPU scaled to a host of nominal speed;
the metrics use the scaled one.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import statistics
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from ecgz import cli, container, decoder, encoder
from ecgz.errors import EcgzError

import gen
import refspeed
from spans import LAYERS, Tracer, layer_of

FRAME_TAGS = ("A", "B", "C", "D", "E")
SAMPLES_PER_FRAME = np.array([3, 2, 4, 6, 1])
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0)


def frame_codes(words) -> np.ndarray:
    """Index into FRAME_TAGS for each 16-bit word, from its header bits; -1 if reserved."""
    w = np.asarray(words, dtype=np.int64)
    top4 = w >> 12
    return np.select(
        [w >> 15 == 1, w >> 14 == 1, top4 == 1, top4 == 0, top4 == 3], [0, 1, 2, 3, 4], -1
    )


def frame_mix(words) -> dict[str, int]:
    counts = np.bincount(frame_codes(words) + 1, minlength=6)
    return {"reserved": int(counts[0]), **{t: int(c) for t, c in zip(FRAME_TAGS, counts[1:])}}


def parse_csv(text: str) -> np.ndarray:
    return np.fromstring(text.replace("\n", ","), dtype=np.int64, sep=",")


def tail_percentile(values: list[float]) -> tuple[float, float, int]:
    """Highest ladder percentile with at least 10 values beyond it (nearest rank)."""
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_LADDER:
        idx = max(math.ceil(p * n / 100) - 1, 0)
        if n - idx - 1 >= 10:
            return p, xs[idx], n - idx - 1
    return 50.0, statistics.median(xs), n // 2


class Gate:
    """Counts checked operations and the ones whose output was wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


def run_cli(meter: refspeed.Meter, kind: str, argv: list[str]) -> tuple[int, str]:
    """One in-process ``ecgz`` call, probed before and timed: (exit code, captured output)."""
    buf = io.StringIO()
    meter.probe()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf), meter.timed(kind):
        try:
            rc = cli.main(argv)
        except Exception:  # an escaped exception is a failed operation, not a crash
            rc = -1
            buf.write(traceback.format_exc())
    return rc, buf.getvalue()


class Workload:
    """One pass = run_timed (measured) followed by check (gate)."""

    def __init__(self, work: Path, seed: int, gate: Gate) -> None:
        self.work = work
        self.seed = seed
        self.gate = gate
        self.first: dict | None = None  # outputs of the first pass, for repeat checks

    def pass_samples(self) -> int:
        raise NotImplementedError

    def run_timed(self, span) -> dict:
        raise NotImplementedError

    def check(self, timed: dict) -> dict:
        raise NotImplementedError


class ArchiveWorkload(Workload):
    """CLI compress -> decompress (CSV) -> verify over files on disk."""

    def _cli_cycle(
        self, source: str, stem: str, extra: list[str], suffix: str, meter: refspeed.Meter, outputs: list
    ) -> None:
        packed = self.work / f"{stem}.ecgz"
        restored = self.work / f"{stem}.out.csv"
        for op, argv in (
            ("compress", ["compress", source, str(packed), *extra]),
            ("decompress", ["decompress", str(packed), str(restored)]),
            ("verify", ["verify", source, str(packed)]),
        ):
            rc, text = run_cli(meter, op + suffix, argv)
            outputs.append((stem, op, rc, text))

    def _check_cycle(self, stem: str, truth: list[np.ndarray], outputs: list, result: dict) -> None:
        results = {op: (rc, text) for s, op, rc, text in outputs if s == stem}
        for op, (rc, text) in results.items():
            self.gate.check(rc == 0, f"{stem}: ecgz {op} exited {rc}: {text[-300:]}")
        try:
            blob = (self.work / f"{stem}.ecgz").read_bytes()
            meta, frames = container.read_ecgz(blob)
            counts = list(meta.sample_counts)
        except (OSError, EcgzError) as exc:
            blob, frames, counts = b"", [[] for _ in truth], None
            self.gate.check(False, f"{stem}: cannot read the compressed file: {exc}")
        words = [np.asarray(f, dtype=np.int64) for f in frames]
        self.gate.check(counts == [len(c) for c in truth], f"{stem}: container sample counts {counts}")
        try:
            restored = parse_csv((self.work / f"{stem}.out.csv").read_text())
        except (OSError, ValueError):
            restored = np.zeros(0, dtype=np.int64)
        expect = np.stack(truth, axis=1).ravel()
        self.gate.check(
            restored.shape == expect.shape and bool(np.array_equal(restored, expect)),
            f"{stem}: decompressed CSV differs from the input",
        )
        self.gate.check("exactly" in results["verify"][1], f"{stem}: verify did not report an exact match")
        for name, w in zip(self.lead_names, words):
            result["streams"][f"{stem}.{name}"] = w
        result["blobs"][stem] = blob


class HolterWfdb(ArchiveWorkload):
    def __init__(self, work: Path, seed: int, gate: Gate) -> None:
        super().__init__(work, seed, gate)
        loaded = np.load(work / "holter.npz")
        names = sorted({key.split("_")[0] for key in loaded.files})
        self.records = {name: [loaded[f"{name}_{k}"] for k in range(2)] for name in names}
        self.record_dir = work / "holter"
        self.lead_names = ("lead0", "lead1")

    def pass_samples(self) -> int:
        return sum(c.size for chans in self.records.values() for c in chans)

    def run_timed(self, span) -> dict:
        meter = refspeed.Meter()
        outputs: list = []
        for name in self.records:
            self._cli_cycle(str(self.record_dir / name), name, [], f".{name}", meter, outputs)
        rc, text = run_cli(meter, "table", ["bench", "--data", str(self.record_dir)])
        outputs.append(("bench", "bench", rc, text))
        return {"ops": meter.close(), "probes": meter.probes, "outputs": outputs}

    def check(self, timed: dict) -> dict:
        result = {"streams": {}, "blobs": {}}
        for name, truth in self.records.items():
            self._check_cycle(name, truth, timed["outputs"], result)
        _, _, rc, text = timed["outputs"][-1]
        self.gate.check(rc == 0, f"ecgz bench exited {rc}: {text[-300:]}")
        rows = {line.split()[0]: line.split() for line in text.splitlines() if line.split()}
        for name, truth in self.records.items():
            frames = sum(len(result["streams"][f"{name}.{lead}"]) for lead in self.lead_names)
            expect = 12 * sum(c.size for c in truth) / (16 * frames)
            row = rows.get(name, [])
            try:
                ok = abs(float(row[2]) - expect) < 6e-4
            except (IndexError, ValueError):
                ok = False
            self.gate.check(ok, f"ecgz bench row for {name} is {row}, expected packer ratio {expect:.3f}")
        return result


class AdverseCsv(ArchiveWorkload):
    ORDERS = (2, 4)

    def __init__(self, work: Path, seed: int, gate: Gate) -> None:
        super().__init__(work, seed, gate)
        loaded = np.load(work / "adverse.npz")
        self.leads = [loaded[f"lead_{k}"] for k in range(len(gen.ADVERSE_LEADS))]
        self.csv = str(work / "adverse.csv")
        self.lead_names = gen.ADVERSE_LEADS

    def pass_samples(self) -> int:
        return len(self.ORDERS) * sum(c.size for c in self.leads)

    def run_timed(self, span) -> dict:
        meter = refspeed.Meter()
        outputs: list = []
        for order in self.ORDERS:
            extra = ["--rate", str(gen.RATE_HZ), "--order", str(order)]
            self._cli_cycle(self.csv, f"order{order}", extra, f".order{order}", meter, outputs)
        return {"ops": meter.close(), "probes": meter.probes, "outputs": outputs}

    def check(self, timed: dict) -> dict:
        result = {"streams": {}, "blobs": {}}
        for order in self.ORDERS:
            self._check_cycle(f"order{order}", self.leads, timed["outputs"], result)
        return result


class TelemetryLoss(Workload):
    """Four leads streamed block by block, sent over the wire, received with losses."""

    CHANNELS = 4
    PROBE_BLOCKS = 8  # blocks between host-speed probes

    def __init__(self, work: Path, seed: int, gate: Gate) -> None:
        super().__init__(work, seed, gate)
        loaded = np.load(work / "telemetry.npz")
        self.leads = [loaded[f"lead_{k}"] for k in range(self.CHANNELS)]
        self.n = self.leads[0].size
        self.config = encoder.EncoderConfig(resync_interval_samples=4 * gen.RATE_HZ, channel_count=1)
        rows = list(zip(*(lead.tolist() for lead in self.leads)))
        self.blocks = [rows[i : i + gen.RATE_HZ] for i in range(0, self.n, gen.RATE_HZ)]
        self.drops: np.ndarray | None = None

    def pass_samples(self) -> int:
        return self.CHANNELS * self.n

    def run_timed(self, span) -> dict:
        encoders = [encoder.ChannelEncoder(self.config) for _ in range(self.CHANNELS)]
        pushes = [(ch, enc.push_sample) for ch, enc in enumerate(encoders)]
        log: list[tuple[int, int]] = []
        append = log.append
        meter = refspeed.Meter()
        for k, block in enumerate(self.blocks):
            if k % self.PROBE_BLOCKS == 0:
                meter.probe()
            with meter.timed("block"), span("encoder.push_block"):
                for row in block:
                    for ch, push in pushes:
                        for word in push(row[ch]):
                            append((ch, word))
        meter.probe()
        with meter.timed("flush"), span("encoder.flush"):
            for ch, enc in enumerate(encoders):
                for word in enc.flush():
                    append((ch, word))
        meter.probe()
        with meter.timed("wire_encode"):
            wire = container.wire_encode(log)

        # The link: drop whole 3-byte units (not timed).
        if self.drops is None:
            self.drops = gen.drop_mask(self.seed, len(log))
        units = np.frombuffer(wire, dtype=np.uint8).reshape(-1, 3)
        kept = units[~self.drops].tobytes() if len(self.drops) == len(units) else wire
        frame_counts = np.bincount(units[:, 0] >> 6, minlength=self.CHANNELS).tolist()

        # A receiver error is a failed operation: it is kept and gated.
        meter.probe()
        with meter.timed("wire_decode"):
            try:
                received = container.wire_decode(kept, self.CHANNELS, expected_frame_counts=frame_counts).channels
            except EcgzError as exc:
                received = [exc] * self.CHANNELS
        decoded = []
        for ch, frames in enumerate(received):
            meter.probe()
            with meter.timed(f"decode_resilient.lead{ch}"):
                try:
                    out = frames if isinstance(frames, EcgzError) else decoder.decode_resilient(frames, self.n, 2)[0]
                except EcgzError as exc:
                    out = exc
            decoded.append(out)
        ops = meter.close()
        return {"ops": ops, "probes": meter.probes, "log": log, "wire": wire, "received": received, "decoded": decoded}

    def check(self, timed: dict) -> dict:
        wire = timed["wire"]
        units = np.frombuffer(wire, dtype=np.uint8).reshape(-1, 3)
        chans = units[:, 0] >> 6
        words = (units[:, 1].astype(np.int64) << 8) | units[:, 2]
        log = timed["log"]
        self.gate.check(
            len(log) == len(units) and bool(np.array_equal(words, [w for _, w in log])),
            "wire units do not carry the emitted words in arrival order",
        )
        self.gate.check(len(self.drops) == len(units), "frame count changed between passes")
        streams = {f"lead{ch}": words[chans == ch] for ch in range(self.CHANNELS)}
        if self.first is None:
            # Lossless round trip of every lead, once per run.
            for ch in range(self.CHANNELS):
                out = decoder.decode_channel(streams[f"lead{ch}"].tolist(), self.n, 2)
                self.gate.check(out == self.leads[ch].tolist(), f"lead {ch}: sent frames do not decode to the input")
        unknown_total = 0
        spans: list[int] = []
        for ch in range(self.CHANNELS):
            lead_words = streams[f"lead{ch}"]
            lost = self.drops[chans == ch]
            got = timed["received"][ch]
            self.gate.check(
                isinstance(got, list) and [w is None for w in got] == lost.tolist(),
                f"lead {ch}: wire_decode marked other frames lost than were dropped ({got!r:.200})",
            )
            counts = SAMPLES_PER_FRAME[frame_codes(lead_words)]
            starts = np.cumsum(counts) - counts
            keep = ~lost
            # True sample position of every output entry of decode_resilient,
            # which emits nothing for an erased frame.
            pos = np.repeat(starts[keep], counts[keep]) + (
                np.arange(counts[keep].sum()) - np.repeat(np.cumsum(counts[keep]) - counts[keep], counts[keep])
            )
            out = timed["decoded"][ch]
            if not self.gate.check(
                isinstance(out, list) and len(out) == pos.size,
                f"lead {ch}: decode_resilient gave {out!r:.200} for {pos.size} received samples",
            ):
                continue
            known = np.array([v is not None for v in out], dtype=bool)
            values = np.array([0 if v is None else v for v in out], dtype=np.int64)
            self.gate.check(
                bool(np.array_equal(values[known], self.leads[ch][pos[known]])),
                f"lead {ch}: a decoded sample differs from the input at its true position",
            )
            unknown = np.ones(self.n, dtype=bool)
            unknown[pos[known]] = False
            unknown_total += int(unknown.sum())
            edges = np.flatnonzero(np.diff(np.concatenate([[0], unknown.view(np.int8), [0]])))
            spans.extend((edges[1::2] - edges[0::2]).tolist())
        return {
            "streams": streams,
            "blobs": {"wire": wire},
            "unknown_samples": unknown_total,
            "unknown_spans": spans,
            "units_dropped": int(self.drops.sum()),
        }


WORKLOADS = {"holter_wfdb": HolterWfdb, "telemetry_loss": TelemetryLoss, "adverse_csv": AdverseCsv}


def run(args) -> dict:
    gate = Gate()
    wl = WORKLOADS[args.workload](Path(args.work), args.seed, gate)
    samples = wl.pass_samples()
    untraced: list[dict] = []
    traced: list[dict] = []
    span_file = Path(args.out) / f"spans-{args.workload}-seed{args.seed}.jsonl"
    start = time.perf_counter()
    k = 0
    while True:
        tracer = Tracer(f"{args.workload}-seed{args.seed}-pass{k}") if args.trace and k % 2 else None
        # Every pass starts from the same heap: no garbage of the previous one.
        gc.collect()
        if tracer:
            tracer.install()
        try:
            timed = wl.run_timed(tracer.span if tracer else _no_span)
        finally:
            if tracer:
                tracer.uninstall()
        checked = wl.check(timed)
        if wl.first is None:
            wl.first = checked
        else:
            for key, blob in checked["blobs"].items():
                gate.check(blob == wl.first["blobs"][key], f"pass {k}: {key} differs from the first pass")
        record = {"ops": timed["ops"], "probes": timed["probes"], "wall": sum(op[1] for op in timed["ops"])}
        if tracer:
            own, incl, calls = tracer.self_times()
            record.update(own=own, incl=incl, calls=dict(calls), errors=dict(tracer.errors))
            tracer.dump(span_file, "w" if not traced else "a")
            traced.append(record)
        else:
            untraced.append(record)
        del timed, checked
        k += 1
        if time.perf_counter() - start >= args.seconds and (not args.trace or traced):
            break

    first = wl.first
    frames = Counter()
    for words in first["streams"].values():
        frames.update(frame_mix(words))
    n_frames = sum(frames[t] for t in FRAME_TAGS)
    gate.check(frames["reserved"] == 0, "an emitted word uses the reserved 0010 header")
    result = {
        "attempted": gate.attempted,
        "failed": gate.failed,
        "failures": gate.messages,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "samples_per_pass": samples,
        "frames": {t: frames[t] for t in FRAME_TAGS},
        "bits_per_sample": 16 * n_frames / samples,
        "frames_sha256": gen.sha256(*(np.asarray(w, dtype=">u2").tobytes() for w in first["streams"].values()))
        if args.workload != "telemetry_loss"
        else gen.sha256(first["blobs"]["wire"]),
        "streams": {
            name: {"frames": frame_mix(words), "samples": int(SAMPLES_PER_FRAME[frame_codes(words)].sum())}
            for name, words in first["streams"].items()
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if "unknown_samples" in first:
        spans = first["unknown_spans"]
        result["loss"] = {
            "units_dropped": first["units_dropped"],
            "unknown_samples": first["unknown_samples"],
            "unknown_fraction": first["unknown_samples"] / samples,
            "unknown_spans": len(spans),
            "max_span_samples": max(spans, default=0),
            "mean_span_samples": statistics.fmean(spans) if spans else 0.0,
        }
    result["timing"] = summarize_untraced(untraced, samples)
    if traced:
        result["layers"] = summarize_traced(traced, untraced, result, first)
    return result


ENCODE_KINDS = ("compress", "block", "flush", "wire_encode")
DECODE_KINDS = ("decompress", "wire_decode", "decode_resilient")


CLOCKS = {"wall": 1, "cpu": 2, "scaled": 3}  # index of each clock in a timed op


def kind_seconds(passes: list[dict], clock: str = "scaled") -> dict[str, float]:
    """Per-pass seconds of each op kind, from the median call of the kind.

    A kind is one call on one input (``compress.h0``, ``block``,
    ``decode_resilient.lead2``). Its calls are pooled over all passes, so
    a call slowed by other tenants of a shared machine moves the median
    less than it moves a per-pass sum. The default clock is the CPU time
    of this single-threaded process, which leaves out time spent waiting
    for a core, scaled by the host-speed probes next to the call
    (refspeed.py), which takes out the rest of the host's drift.
    """
    calls: dict[str, list[float]] = defaultdict(list)
    for p in passes:
        for op in p["ops"]:
            calls[op[0]].append(op[CLOCKS[clock]])
    per_pass = Counter(op[0] for op in passes[0]["ops"])
    return {kind: statistics.median(calls[kind]) * n for kind, n in per_pass.items()}


def summarize_untraced(passes: list[dict], samples: int) -> dict:
    """Scaled seconds per pass for each kind and role, the host figures and the block times."""
    kind_s = kind_seconds(passes)

    def role_s(prefixes) -> float:
        return sum(v for kind, v in kind_s.items() if kind.split(".")[0] in prefixes)

    out = {
        "kind_s": kind_s,
        "encode_s": role_s(ENCODE_KINDS),
        "decode_s": role_s(DECODE_KINDS),
        "pass_s": sum(kind_s.values()),
        "wall_pass_s": sum(kind_seconds(passes, "wall").values()),
        "cpu_pass_s": sum(kind_seconds(passes, "cpu").values()),
        "probe_median_s": statistics.median(x for p in passes for x in p["probes"]),
        "raw_ops": [p["ops"] for p in passes],
    }
    out["pipeline_sps"] = samples / out["pass_s"]
    blocks = [op[1] for p in passes for op in p["ops"] if op[0] == "block"]
    if blocks:
        p, value, beyond = tail_percentile(blocks)
        out.update(
            block_count=len(blocks),
            block_p50_ms=1000 * statistics.median(blocks),
            block_tail_ms=1000 * value,
            block_tail_percentile=p,
            block_tail_beyond=beyond,
        )
    return out


def summarize_traced(traced: list[dict], untraced: list[dict], result: dict, first: dict) -> dict:
    """Per-pass span figures: the median over the traced passes."""
    names = sorted({n for p in traced for n in p["own"]})

    def med(fn):
        return statistics.median(fn(p) for p in traced)

    functions = {
        n: {
            "calls": statistics.median(p["calls"].get(n, 0) for p in traced),
            "self_s": med(lambda p: p["own"].get(n, 0.0)),
            "incl_s": med(lambda p: p["incl"].get(n, 0.0)),
        }
        for n in names
    }
    per_layer = {}
    for layer in LAYERS:
        per_layer[f"{layer}.self_s"] = med(lambda p: sum(v for n, v in p["own"].items() if layer_of(n) == layer))
        per_layer[f"{layer}.calls"] = statistics.median(
            sum(c for n, c in p["calls"].items() if layer_of(n) == layer) for p in traced
        )
        per_layer[f"{layer}.errors"] = max(p["errors"].get(layer, 0) for p in traced)
    for t in FRAME_TAGS:
        per_layer[f"encoder.frames.{t}"] = result["frames"][t]
    per_layer["encoder.frames_per_sample"] = sum(result["frames"].values()) / result["samples_per_pass"]
    per_layer["decoder.unknown_samples"] = first.get("unknown_samples", 0)
    traced_s = sum(kind_seconds(traced).values())
    untraced_s = sum(kind_seconds(untraced).values())
    per_layer["trace.overhead_ratio"] = traced_s / untraced_s
    # Self times must add up to the wall time of the timed calls in each pass.
    gaps = [sum(p["own"].values()) - p["wall"] for p in traced]
    worst = max(range(len(traced)), key=lambda i: abs(gaps[i]) / traced[i]["wall"])
    return {
        "per_layer": per_layer,
        "functions": functions,
        "traced_pass_s": traced_s,
        "untraced_pass_s": untraced_s,
        "worst_gap_s": gaps[worst],
        "worst_gap_wall_s": traced[worst]["wall"],
    }


@contextlib.contextmanager
def _no_span(name: str):
    yield


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--work", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    print(json.dumps(run(args)))


if __name__ == "__main__":
    main()
