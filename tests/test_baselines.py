"""Entropy-coding size estimators: full and selective prefix codes."""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgz import baselines
from oracle import ideal_huffman_bits, selective_huffman_bits

hist_st = st.dictionaries(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=30),
    min_size=1,
    max_size=8,
)


def optimal_code_bits(hist) -> int:
    """Exhaustive minimum over every full binary code tree."""
    symbols = tuple(sorted(hist))
    if len(symbols) == 1:
        return hist[symbols[0]]  # a lone symbol still costs one bit each

    @lru_cache(maxsize=None)
    def cost(group: frozenset) -> int:
        if len(group) == 1:
            return 0
        items = sorted(group)
        first, rest = items[0], items[1:]
        best = None
        # pin the first symbol to the left child to halve the search
        for mask in range(1 << len(rest)):
            left = frozenset([first] + [s for i, s in enumerate(rest) if mask >> i & 1])
            if len(left) == len(items):
                continue
            c = cost(left) + cost(frozenset(items) - left)
            if best is None or c < best:
                best = c
        return sum(hist[s] for s in group) + best

    return cost(frozenset(symbols))


def test_two_equiprobable_symbols_get_one_bit_each():
    lengths = baselines.build_huffman({0: 5, 1: 5})
    assert lengths == {0: 1, 1: 1}


def test_single_symbol_still_costs_one_bit():
    assert baselines.build_huffman({42: 9}) == {42: 1}
    assert ideal_huffman_bits([42] * 9) == 9


def test_skewed_histogram_classic_lengths():
    # textbook case: weights 1,1,2,4 nest into a chain
    lengths = baselines.build_huffman({0: 4, 1: 2, 2: 1, 3: 1})
    assert lengths[0] == 1
    assert lengths[1] == 2
    assert lengths[2] == 3
    assert lengths[3] == 3


def test_build_huffman_validates_input():
    with pytest.raises(ValueError):
        baselines.build_huffman({})
    with pytest.raises(ValueError):
        baselines.build_huffman({0: 0})
    with pytest.raises(ValueError):
        baselines.build_huffman({0: -3})


@settings(max_examples=60, deadline=None)
@given(hist_st)
def test_huffman_total_matches_exhaustive_optimum(hist):
    if len(hist) > 5:
        hist = dict(sorted(hist.items())[:5])
    lengths = baselines.build_huffman(hist)
    total = sum(hist[s] * lengths[s] for s in hist)
    assert total == optimal_code_bits(hist)
    assert baselines.ideal_huffman_bits_from_hist(hist) == total


@given(hist_st)
def test_huffman_lengths_satisfy_kraft(hist):
    lengths = baselines.build_huffman(hist)
    assert set(lengths) == set(hist)
    kraft = sum(Fraction(1, 2 ** l) for l in lengths.values())
    if len(hist) == 1:
        assert kraft == Fraction(1, 2)
    else:
        assert kraft == 1  # optimal prefix codes leave no slack


def test_ideal_bits_from_stream_and_hist_agree():
    errors = [0, 0, 1, -1, 0, 2, 0, 0]
    hist = baselines.build_histogram(errors)
    assert hist == {0: 5, 1: 1, -1: 1, 2: 1}
    assert ideal_huffman_bits(errors) == baselines.ideal_huffman_bits_from_hist(hist)


def test_ideal_bits_rejects_empty():
    with pytest.raises(ValueError):
        ideal_huffman_bits([])


def test_identical_residuals_cost_one_bit_each():
    assert ideal_huffman_bits([3] * 100) == 100


# ---------------------------------------------------------------------------
# Selective code


def test_selective_unique_symbols_m1():
    errors = list(range(10))  # all counts equal, so the smallest symbol is kept
    got = selective_huffman_bits(errors, m=1)
    # kept symbol: flag + 1-bit code; the rest escape at flag + 14 raw bits
    assert got == 2 + 15 * 9


def test_selective_escape_width_override():
    errors = list(range(10))
    assert selective_huffman_bits(errors, m=1, escape_bits=20) == 2 + 21 * 9


def test_selective_with_room_for_everything_is_ideal_plus_flags():
    errors = [0, 0, 0, 1, 1, -2, 5, 5, 5, 5]
    ideal = ideal_huffman_bits(errors)
    assert selective_huffman_bits(errors, m=10) == ideal + len(errors)


def test_selective_prefers_frequent_symbols():
    errors = [7] * 90 + [100, -100] * 5
    bits_keep_top = selective_huffman_bits(errors, m=1)
    # 90 coded at 2 bits, 10 escapes at 15
    assert bits_keep_top == 90 * 2 + 10 * 15


def test_selective_validates_m():
    with pytest.raises(ValueError):
        selective_huffman_bits([0], m=0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-300, max_value=300), min_size=1, max_size=120), st.sampled_from([1, 2, 8, 64]))
def test_ideal_never_beats_selective(errors, m):
    assert ideal_huffman_bits(errors) <= selective_huffman_bits(errors, m)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-8190, max_value=8190), min_size=1, max_size=80))
def test_selective_never_beats_raw_plus_flag_bound(errors):
    # every symbol could at worst escape, so the total is bounded by that
    worst = len(errors) * 15
    assert selective_huffman_bits(errors, m=8) <= worst
