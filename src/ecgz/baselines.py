"""Entropy-coding size estimators used as reference points for the packer.

Both estimators price a residual stream without emitting bits. The ideal
variant charges each residual its per-record Huffman code length and
nothing for the codebook, so it bounds what any per-record prefix code
could achieve. The selective variant Huffman-codes only the m most
frequent residuals, spending one flag bit per value and a fixed-width
escape for everything else, which is what a small hardware codebook can
afford.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Iterable, Mapping

from .predictor import RESIDUAL_BITS


def build_histogram(values: Iterable[int]) -> Counter:
    return Counter(values)


def build_huffman(hist: Mapping[int, int]) -> dict[int, int]:
    """Map each symbol to its Huffman code length.

    Ties break on (count, symbol value) for leaves and creation order for
    merged nodes, so lengths are deterministic. A lone symbol still needs
    one bit per occurrence.
    """
    if not hist:
        raise ValueError("cannot build a code over an empty histogram")
    if any(c <= 0 for c in hist.values()):
        raise ValueError("histogram counts must be positive")
    syms = sorted(hist)
    if len(syms) == 1:
        return {syms[0]: 1}
    heap = [(hist[s], i) for i, s in enumerate(syms)]
    heapq.heapify(heap)
    parent = [-1] * len(syms)
    nxt = len(syms)
    while len(heap) > 1:
        w1, a = heapq.heappop(heap)
        w2, b = heapq.heappop(heap)
        parent[a] = nxt
        parent[b] = nxt
        parent.append(-1)
        heapq.heappush(heap, (w1 + w2, nxt))
        nxt += 1
    lengths = {}
    for i, s in enumerate(syms):
        depth = 0
        j = i
        while parent[j] != -1:
            j = parent[j]
            depth += 1
        lengths[s] = depth
    return lengths


def ideal_huffman_bits_from_hist(hist: Mapping[int, int]) -> int:
    """Total bits to code a histogram's residuals with their own full Huffman codebook."""
    lengths = build_huffman(hist)
    return sum(count * lengths[sym] for sym, count in hist.items())


def selective_huffman_bits_from_hist(
    hist: Mapping[int, int], m: int, escape_bits: int = RESIDUAL_BITS
) -> int:
    """Total bits with only the m most frequent residuals Huffman-coded.

    Every value costs one flag bit; coded values add their Huffman length
    over the top-m histogram, all others add escape_bits raw bits.
    """
    if m < 1:
        raise ValueError(f"codebook size must be at least 1, got {m}")
    if escape_bits < 1:
        raise ValueError("escape width must be positive")
    top = sorted(hist.items(), key=lambda kv: (-kv[1], kv[0]))[:m]
    lengths = build_huffman(dict(top))
    total = 0
    for sym, count in hist.items():
        if sym in lengths:
            total += count * (1 + lengths[sym])
        else:
            total += count * (1 + escape_bits)
    return total
