"""In-memory span tracer installed around the public calls of each layer.

Spans are installed by replacing the attribute on the module that
defines the function (``ecgz.decoder.decode_channel``, not the re-export
in ``ecgz/__init__``), so calls between modules, which all go through
module attributes, are seen as well. Nothing in ``src/`` changes.

A layer's self time is its span durations minus the durations of their
direct child spans; the benchmark is single-threaded, so child spans of
one parent never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from ecgz.errors import EcgzError

# (module, attribute, span name). Per-sample calls (push_sample,
# unpack_frame, sign_extend) are left unwrapped: a wrapper would cost
# more than the call. The telemetry driver times whole blocks instead.
TARGETS = (
    ("ingest", "load_record", "ingest.load_record"),
    ("ingest", "read_csv", "ingest.read_csv"),
    ("ingest", "parse_wfdb_header", "ingest.parse_wfdb_header"),
    ("predictor", "residuals", "predictor.residuals"),
    ("encoder", "encode_channels", "encoder.encode_channels"),
    ("encoder", "width_classes", "encoder.width_classes"),
    ("container", "write_ecgz", "container.write_ecgz"),
    ("container", "read_ecgz", "container.read_ecgz"),
    ("container", "wire_encode", "container.wire_encode"),
    ("container", "wire_decode", "container.wire_decode"),
    ("decoder", "decode_channel", "decoder.decode_channel"),
    ("decoder", "decode_resilient", "decoder.decode_resilient"),
    ("baselines", "build_histogram", "baselines.build_histogram"),
    ("baselines", "ideal_huffman_bits_from_hist", "baselines.huffman"),
    ("baselines", "selective_huffman_bits_from_hist", "baselines.huffman"),
    ("bench", "run_database_eval", "bench.run_database_eval"),
    ("bench", "evaluate_channels", "bench.evaluate_channels"),
    ("bench", "discover_records", "bench.discover_records"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_compress", "cli.compress"),
    ("cli", "cmd_decompress", "cli.decompress"),
    ("cli", "cmd_verify", "cli.verify"),
    ("cli", "cmd_bench", "cli.bench"),
)

LAYERS = ("ingest", "predictor", "encoder", "container", "decoder", "baselines", "bench", "cli")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """Collects spans (id, parent, name, start, end, run) for one pass."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.errors: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((sid, parent, name, 0.0, 0.0))
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        except EcgzError:
            self.errors[layer_of(name)] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, start, end)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(f"ecgz.{module_name}")
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def self_times(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """(self seconds by span name, inclusive seconds by name, calls by name)."""
        child = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        incl: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for sid, _, name, start, end in self.spans:
            own[name] += end - start - child[sid]
            incl[name] += end - start
            calls[name] += 1
        return dict(own), dict(incl), calls

    def dump(self, path: Path, mode: str = "a") -> None:
        with open(path, mode) as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"run": self.run_id, "id": sid, "parent": parent, "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )
