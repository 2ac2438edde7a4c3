"""Bitset linear algebra against slow reference implementations."""

from __future__ import annotations

import random
from functools import reduce
from itertools import combinations, product
from operator import xor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycode import _linalg
from polycode._linalg import (
    affine_weights,
    column_kernel,
    in_span,
    min_weight_affine,
    min_weight_span,
    min_weight_span_reference,
    nullspace,
    parity_dot,
    rank,
    rref,
)


def test_parity_dot_small():
    assert parity_dot(0b101, 0b100) == 1
    assert parity_dot(0b101, 0b101) == 0
    assert parity_dot(0, 0b111) == 0


def test_rank_and_rref_agree():
    rng = random.Random(7)
    for _ in range(200):
        ncols = rng.randrange(1, 20)
        rows = [rng.getrandbits(ncols) for _ in range(rng.randrange(0, 12))]
        r = rank(list(rows))
        pivots = rref(list(rows))
        assert len(pivots) == r
        # pivot columns strictly decrease and each pivot row owns its column alone
        cols = [c for c, _ in pivots]
        assert cols == sorted(cols, reverse=True)
        for c, row in pivots:
            assert row >> c & 1
            assert sum(other >> c & 1 for _, other in pivots) == 1


def test_in_span_matches_rank_growth():
    rng = random.Random(11)
    for _ in range(200):
        ncols = rng.randrange(1, 18)
        rows = [rng.getrandbits(ncols) for _ in range(rng.randrange(0, 10))]
        pivots = rref(list(rows))
        w = rng.getrandbits(ncols)
        assert in_span(pivots, w) == (rank(rows + [w]) == rank(list(rows)))


def test_nullspace_dimension_and_orthogonality():
    rng = random.Random(13)
    for _ in range(150):
        ncols = rng.randrange(1, 16)
        rows = [rng.getrandbits(ncols) for _ in range(rng.randrange(0, 10))]
        ns = nullspace(list(rows), ncols)
        assert len(ns) == ncols - rank(list(rows))
        for v in ns:
            assert all(parity_dot(v, row) == 0 for row in rows)
        assert rank(list(ns)) == len(ns)


def test_column_kernel_masks_cancel_columns():
    rng = random.Random(17)
    for _ in range(150):
        nbits = rng.randrange(1, 14)
        cols = [rng.getrandbits(nbits) for _ in range(rng.randrange(1, 12))]
        kernel = column_kernel(cols)
        # every mask combines its columns to zero
        for mask in kernel:
            acc = 0
            mm = mask
            while mm:
                i = (mm & -mm).bit_length() - 1
                acc ^= cols[i]
                mm &= mm - 1
            assert acc == 0
        assert len(kernel) == len(cols) - rank(list(cols))
        assert rank(list(kernel)) == len(kernel)


def test_min_weight_engine_matches_reference():
    rng = random.Random(23)
    for _ in range(60):
        nbits = rng.randrange(4, 26)
        nrows = rng.randrange(1, 9)
        rows = [rng.getrandbits(nbits) for _ in range(nrows)]
        if not any(rows):
            rows[0] = 1
        assert min_weight_span(rows, nbits) == min_weight_span_reference(rows)


def test_min_weight_handles_dependent_rows():
    rows = [0b1011, 0b0110, 0b1101]  # third row = first ^ second
    assert min_weight_span(rows, 4) == min_weight_span_reference(rows) == 2


def test_min_weight_crosses_the_engine_split():
    # one case on each side of the int/vectorized boundary, same span
    rng = random.Random(29)
    rows = [rng.getrandbits(40) | 1 for _ in range(17)]
    got = min_weight_span(rows, 40)
    best = min(
        bin(subset_xor).count("1")
        for r in range(1, 4)
        for combo in combinations(rows, r)
        for subset_xor in [combo[0] if r == 1 else (combo[0] ^ combo[1] if r == 2 else combo[0] ^ combo[1] ^ combo[2])]
    )
    assert got <= best


# ---------------------------------------------------------------------------
# the enumeration kernel against an itertools brute force
# ---------------------------------------------------------------------------

LANE_EDGES = (1, 2, 7, 31, 63, 64, 65, 127, 128, 129)


def _affine_weights_brute(g, rows):
    """Weight of g ^ (XOR of rows[b] over the set bits b of i), for every index i."""
    # product varies its last factor fastest, so rows[0] must come last
    return [reduce(xor, combo, g).bit_count() for combo in product(*([0, r] for r in reversed(rows)))]


@st.composite
def affine_sets(draw, min_k=0, max_k=12):
    """(g, rows, nbits) with zero words, zero rows and dependent rows all likely."""
    nbits = draw(st.sampled_from(LANE_EDGES) | st.integers(1, 200))
    word = st.integers(0, (1 << nbits) - 1)
    k = draw(st.integers(min_k, max_k))
    rows = []
    for _ in range(k):
        kind = draw(st.sampled_from(["fresh", "zero", "dependent"]))
        if kind == "fresh" or not rows:
            rows.append(draw(word) if kind != "zero" else 0)
        else:
            picks = draw(st.lists(st.sampled_from(rows), max_size=3))
            rows.append(reduce(xor, picks, 0))
    g = draw(st.just(0) | word | st.sampled_from(rows or [0]))
    return g, rows, nbits


def _check_kernel(g, rows, nbits):
    want = _affine_weights_brute(g, rows)
    best = min((w for w in want if w), default=None)
    assert affine_weights(g, rows, nbits).tolist() == want
    assert min_weight_affine(g, rows, nbits) == best
    if best is not None:
        assert min_weight_affine(g, rows, nbits, floor=best) == best
        assert min_weight_affine(g, rows, nbits, floor=best - 1) == best


@given(
    affine_sets(),
    st.sampled_from([-1, _linalg._INT_WALK_MAX]),
    st.sampled_from([1, 3, _linalg._INT_TABLE]),
    st.sampled_from([1, 3, _linalg._SPLIT]),
)
def test_kernel_matches_brute_force(case, int_walk_max, int_table, split):
    # shrinking the thresholds sends small sets down the prefix walks, on ints and on the numpy table
    with (
        mock.patch.object(_linalg, "_INT_WALK_MAX", int_walk_max),
        mock.patch.object(_linalg, "_INT_TABLE", int_table),
        mock.patch.object(_linalg, "_SPLIT", split),
    ):
        _check_kernel(*case)


@settings(max_examples=6, deadline=None)
@given(affine_sets(min_k=_linalg._SPLIT, max_k=_linalg._SPLIT + 1))
def test_kernel_matches_brute_force_across_the_table_split(case):
    _check_kernel(*case)


@pytest.mark.parametrize("int_walk_max, int_table, split", [(16, 8, 16), (16, 3, 16), (-1, 8, 3)])
def test_kernel_finds_the_lightest_word_wherever_it_sits(int_walk_max, int_table, split):
    # one weight-1 word among random 64-bit words, moved through every index of a 2^10-word set
    rng = random.Random(7)
    rows = [rng.getrandbits(64) for _ in range(10)]
    with (
        mock.patch.object(_linalg, "_INT_WALK_MAX", int_walk_max),
        mock.patch.object(_linalg, "_INT_TABLE", int_table),
        mock.patch.object(_linalg, "_SPLIT", split),
    ):
        for t in range(1 << len(rows)):
            g = reduce(xor, (r for b, r in enumerate(rows) if t >> b & 1), 1 << 40)
            assert min_weight_affine(g, rows, 64) == 1, t


def test_kernel_returns_none_when_every_word_is_zero():
    for k in (0, 3, _linalg._INT_TABLE + 2, _linalg._INT_WALK_MAX + 1):
        assert min_weight_affine(0, [0] * k, 64) is None
    assert min_weight_affine(0b101, [0b101] * 10, 3) == 2


def test_kernel_lookup_table_popcount_agrees():
    # numpy < 2 has no bitwise_count; the lookup-table path must give the same weights
    rng = random.Random(31)
    for nbits in (40, 64, 65, 129):
        g = rng.getrandbits(nbits)
        rows = [rng.getrandbits(nbits) for _ in range(_linalg._SPLIT + 1)]
        want = affine_weights(g, rows, nbits)
        with (
            mock.patch.object(_linalg, "_popcounts", _linalg._popcounts_lut),
            mock.patch.object(_linalg, "_INT_WALK_MAX", -1),  # the span below takes the numpy path too
        ):
            assert np.array_equal(affine_weights(g, rows, nbits), want)
            assert min_weight_affine(g, rows, nbits) == int(want[want > 0].min())
            assert min_weight_span(rows[:12], nbits) == min_weight_span_reference(rows[:12])
