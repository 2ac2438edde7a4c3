"""Bitset linear algebra against slow reference implementations."""

from __future__ import annotations

import random
import tracemalloc
from functools import reduce
from itertools import combinations, product
from math import comb
from operator import or_, xor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycode import _linalg, duality
from polycode.codes import code, lead_coset
from polycode.errors import InternalConsistencyError
from polycode.gf2poly import is_irreducible
from polycode.ring import new_context
from polycode._linalg import (
    column_kernel,
    gray_walk,
    min_weight_affine,
    min_weight_span,
    nullspace,
    rank,
    rref,
)
from _reference import generator_rows, parity_dot


def min_weight_span_reference(rows):
    """Minimum nonzero weight over the span by itertools, every subset of the rows."""
    weights = [reduce(xor, combo).bit_count() for size in range(1, len(rows) + 1) for combo in combinations(rows, size)]
    if not any(weights):
        raise ValueError("empty span has no nonzero word")
    return min(w for w in weights if w)


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


def _rank_reference(rows):
    """Rank by min(v, v ^ b) over a basis kept sorted, highest first."""
    basis, r = [], 0
    for v in rows:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
            r += 1
    return r


def _rref_reference(rows):
    """Reduced echelon form, every pivot row reduced against each new row as it comes."""
    pivots = []
    for v in rows:
        for c, b in pivots:
            if (v >> c) & 1:
                v ^= b
        if v == 0:
            continue
        c = v.bit_length() - 1
        pivots = [(pc, pr ^ v if (pr >> c) & 1 else pr) for pc, pr in pivots]
        pivots.append((c, v))
        pivots.sort(reverse=True)
    return pivots


@st.composite
def row_lists(draw):
    """(rows, ncols): zero rows, duplicate rows and dependent rows all likely."""
    ncols = draw(st.integers(1, 200))
    word = st.integers(0, (1 << ncols) - 1)
    rows = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["fresh", "zero", "duplicate", "dependent"]))
        if kind == "fresh" or not rows:
            rows.append(draw(word) if kind != "zero" else 0)
        elif kind == "zero":
            rows.append(0)
        elif kind == "duplicate":
            rows.append(draw(st.sampled_from(rows)))
        else:
            rows.append(reduce(xor, draw(st.lists(st.sampled_from(rows), min_size=2, max_size=4)), 0))
    return rows, ncols


@given(row_lists())
def test_elimination_matches_the_reference_implementations(case):
    rows, ncols = case
    assert rank(list(rows)) == _rank_reference(list(rows))
    assert rref(list(rows)) == _rref_reference(list(rows))
    ns = nullspace(list(rows), ncols)
    assert all(parity_dot(r, v) == 0 for r in rows for v in ns)
    assert len(ns) == ncols - rank(list(rows))
    assert _rank_reference(ns) == len(ns)
    assert all(v < 1 << ncols for v in ns)


def test_nullspace_refuses_a_corrupted_echelon_form(monkeypatch):
    rows = [0b1011 << i for i in range(4)]
    good = rref(rows)

    def corrupted(r):
        (c, b), *rest = good
        return [(c, b ^ 1), *rest]  # the top pivot row loses its orthogonality

    monkeypatch.setattr(_linalg, "rref", corrupted)
    with pytest.raises(InternalConsistencyError):
        nullspace(rows, 7)


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
        assert min_weight_span(rows) == min_weight_span_reference(rows)


def test_min_weight_handles_dependent_rows():
    rows = [0b1011, 0b0110, 0b1101]  # third row = first ^ second
    assert min_weight_span(rows) == min_weight_span_reference(rows) == 2


def test_min_weight_crosses_the_engine_split():
    # 17 rows on 40 bits, where the information-set search runs: no heavier than any XOR of up to three rows
    rng = random.Random(29)
    rows = [rng.getrandbits(40) | 1 for _ in range(17)]
    got = min_weight_span(rows)
    best = min(
        bin(subset_xor).count("1")
        for r in range(1, 4)
        for combo in combinations(rows, r)
        for subset_xor in [combo[0] if r == 1 else (combo[0] ^ combo[1] if r == 2 else combo[0] ^ combo[1] ^ combo[2])]
    )
    assert got <= best
    # 16 and 17 rows with a zero and a dependent row, every word weighed by the brute force
    for k, nbits in ((16, 65), (17, 129)):
        rows = [rng.getrandbits(nbits) for _ in range(k - 2)]
        _check_kernel(rng.getrandbits(nbits), [*rows, 0, rows[0] ^ rows[1]])


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
    """(g, rows) with zero words, zero rows and dependent rows all likely."""
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
    return g, rows


def _walk_by_index(g, rows):
    """gray_walk's words in index order: the word at walk position t is that of index t ^ (t >> 1)."""
    words = [None] * (1 << len(rows))
    for t, w in enumerate(gray_walk(g, rows)):
        words[t ^ (t >> 1)] = w
    return words


def _walk_min(g, rows):
    return min(filter(None, map(int.bit_count, gray_walk(g, rows))), default=None)


def _search_min(g, rows):
    """The information-set search, which takes nonzero rows; with none, the only word is g."""
    rows = list(filter(None, rows))
    return _linalg._information_set_search(g, rows) if rows else _walk_min(g, rows)


KERNELS = {"walk": _walk_min, "search": _search_min, "rule": min_weight_affine}


def _check_kernel(g, rows):
    """Both walks and the kernel's choice between them against the itertools brute force."""
    want = _affine_weights_brute(g, rows)
    assert [w.bit_count() for w in _walk_by_index(g, rows)] == want
    _assert_kernels(g, rows, min((w for w in want if w), default=None))


def _assert_kernels(g, rows, best):
    """Every kernel reads best; where every word is zero (best None) the two walks read None and the rule raises."""
    if best is None:
        with pytest.raises(ValueError):
            min_weight_affine(g, rows)
    names = [name for name in KERNELS if best is not None or name != "rule"]
    assert {name: KERNELS[name](g, rows) for name in names} == dict.fromkeys(names, best)


@given(affine_sets())
def test_kernel_matches_brute_force(case):
    _check_kernel(*case)


def _spy_walks(g, rows):
    """(answer, calls) for min_weight_affine: calls lists the search's levels as w and each Gray-code walk as "walk", in order."""
    calls = []
    real_level, real_walk = _linalg._level, _linalg.gray_walk
    with (
        mock.patch.object(_linalg, "_level", lambda *args: calls.append(args[2]) or real_level(*args)),
        mock.patch.object(_linalg, "gray_walk", lambda *args: calls.append("walk") or real_walk(*args)),
    ):
        return min_weight_affine(g, rows), calls


@pytest.mark.parametrize(
    "k, n, walk",
    [(10, 79, False), (10, 80, True), (1, 1, False), (1, 2, True), (1, 3, True)],
    ids=["k10-n79-search", "k10-n80-walk", "k1-n1-search", "k1-n2-walk", "k1-n3-walk"],
)
def test_the_kernel_takes_the_walk_its_set_up_rule_names_at_the_boundary(k, n, walk):
    # 2^k against N*(k^2 + k(k-1)/2), N = n // k: 1024 against 7*145 = 1015 at n = 79 and 8*145 = 1160 at
    # n = 80; 2 against 1, 2 (equal: the walk) and 3 at k = 1.  g = 0 leaves level 0 nothing to weigh, so
    # a search always reaches level 1
    rng = random.Random(n)
    rows = [rng.getrandbits(n) | 1 for _ in range(k)]
    rows[0] |= 1 << (n - 1)
    got, calls = _spy_walks(0, rows)
    # the walk the rule starts with: a search runs its levels before any hand-over to the walk
    assert calls[0] == ("walk" if walk else 1)
    if walk:
        assert calls == ["walk"]
    assert got == min(w for w in _affine_weights_brute(0, rows) if w)


def _random_high_d_span():
    # 12 random rows of 200 bits: the rule picks the search (2^12 = 4096 against 16 * 210), but d is near
    # 70, so the levels needed to prove it weigh far more than the 4096 words of the whole walk
    rng = random.Random(12)
    return [rng.getrandbits(200) | 1 << 199 for _ in range(12)]


def _dual_oracle_rows_L100():
    # the 16-row dual oracle of x^16+x^5+x^3+x+1, L = 100, j = 1: n = 1 600 and d_dual = 750
    dual = duality.dual_code(code(new_context(0b10000000000101011, 100), 1))
    return [(dual.h_star << i) & ((1 << dual.n) - 1) for i in range(dual.dim)]


@pytest.mark.parametrize("make_rows", [_random_high_d_span, _dual_oracle_rows_L100], ids=["random-k12-n200", "dual-L100"])
def test_the_search_hands_over_to_the_walk_once_it_has_weighed_2_to_the_k_words(make_rows):
    rows = make_rows()
    got, calls = _spy_walks(0, rows)
    assert calls[0] == 1 and calls[-1] == "walk" and calls.count("walk") == 1
    assert max(c for c in calls if c != "walk") >= 3  # levels past the first two ran before the hand-over
    assert got == min(w for w in _affine_weights_brute(0, rows) if w)


@pytest.mark.parametrize("kernel", ["search", "walk", "rule"])
def test_kernel_finds_the_lightest_word_wherever_it_sits(kernel):
    # one weight-1 word among random 64-bit words, moved through every index of a 2^10-word set: the
    # information-set search, the Gray-code walk (its word at each index too) and the kernel's choice
    rng = random.Random(7)
    rows = [rng.getrandbits(64) for _ in range(10)]
    for t in range(1 << len(rows)):
        g = reduce(xor, (r for b, r in enumerate(rows) if t >> b & 1), 1 << 40)
        assert KERNELS[kernel](g, rows) == 1, t
        if kernel == "walk":
            assert _walk_by_index(g, rows)[t] == 1 << 40, t


def test_kernel_raises_when_every_word_is_zero():
    for k in (0, 3, 10, 20):
        with pytest.raises(ValueError):
            min_weight_affine(0, [0] * k)
        # the span is refused before it is weighed
        with mock.patch.object(_linalg, "min_weight_affine", side_effect=AssertionError("weighed")):
            with pytest.raises(ValueError, match="empty span has no nonzero word"):
                min_weight_span([0] * k)
    for k in (0, 1, 3, 10):
        assert not any(gray_walk(0, [0] * k)) and len(list(gray_walk(0, [0] * k))) == 1 << k
    assert list(gray_walk(0b101, [])) == [0b101]
    # g ^ span([g] * 10) holds only 0 and g, so each walk (the rule takes the search here) reads 2
    assert {name: kernel(0b101, [0b101] * 10) for name, kernel in KERNELS.items()} == dict.fromkeys(KERNELS, 2)
    assert min_weight_affine(0b100, [0] * 10) == 1


# ---------------------------------------------------------------------------
# the information-set search (Brouwer-Zimmermann) in every shape
# ---------------------------------------------------------------------------


@st.composite
def searched_sets(draw):
    """(g, rows, nbits) for the information-set search: one information set (nbits < 2k) or many (nbits >> k)."""
    k = draw(st.integers(1, 13))
    nbits = draw(st.integers(k, 2 * k - 1) | st.integers(4 * k, 200))
    word = st.integers(0, (1 << nbits) - 1)
    sparse = st.lists(st.integers(0, nbits - 1), max_size=4).map(lambda bits: sum(1 << b for b in set(bits)))
    rows = []
    for _ in range(k):
        kind = draw(st.sampled_from(["fresh", "sparse", "zero", "dependent"]))
        if kind == "dependent" and rows:
            rows.append(reduce(xor, draw(st.lists(st.sampled_from(rows), max_size=3)), 0))
        else:
            rows.append(0 if kind == "zero" else draw(sparse if kind == "sparse" else word))
    g = draw(st.just(0) | word | sparse | st.sampled_from(rows))
    return g, rows, nbits


@settings(deadline=None)
@given(searched_sets())
def test_information_set_search_matches_brute_force(case):
    g, rows, _ = case
    words = {reduce(xor, combo, g) for combo in product(*([0, r] for r in rows))}
    best = min((w.bit_count() for w in words if w), default=None)
    _assert_kernels(g, rows, best)
    if g == 0 and any(rows):
        assert min_weight_span(rows) == min_weight_span_reference(rows) == best


@st.composite
def coset_shapes(draw):
    """(g, rows): the lead coset of one word's shifts, whole or cut at nbits bits, or random rows with holes in
    their support and g reaching past it."""
    kind = draw(st.sampled_from(["shifts", "cut shifts", "random"]))
    k = draw(st.integers(1, 12))
    if kind == "random":
        nbits = draw(st.integers(1, 80))
        columns = draw(st.integers(1, (1 << nbits) - 1))  # the rows' support lies in these columns
        rows = [r & columns for r in draw(st.lists(st.integers(0, (1 << nbits) - 1), min_size=k, max_size=k))]
        return draw(st.integers(0, (1 << (nbits + 8)) - 1)), rows
    base = draw(st.integers(1, (1 << 40) - 1))
    whole = base.bit_length() + k - 1  # the bits of the top shift, g
    nbits = draw(st.integers(whole, whole + 8) if kind == "shifts" else st.integers(1, max(1, whole - 1)))
    g, rows = lead_coset(base, k + 1, nbits)
    return draw(st.just(g) | st.integers(0, (1 << (nbits + 4)) - 1)), rows


@settings(deadline=None)
@given(coset_shapes())
def test_information_set_search_counts_the_bits_no_row_reaches(case):
    # the search forced on shift rows (set 0 by recurrence), on cut shifts (eliminated) and on random rows
    # whose g holds bits outside their support, against the Gray-code walk
    g, rows = case
    assert _search_min(g, rows) == _walk_min(g, rows)


@given(searched_sets())
def test_information_sets_are_disjoint_systematic_bases(case):
    _, rows, nbits = case
    sets = _linalg._information_sets(rows)
    k = rank(list(rows))
    assert bool(sets) == (k > 0)
    used = 0
    for piv in sets:
        mask = sum(1 << c for c in piv)
        assert used & mask == 0 and len(piv) == k
        assert all(r & mask == 1 << c for c, r in piv.items())  # identity on the pivot columns
        assert rank([*rows, *piv.values()]) == k == rank(list(piv.values()))
        used |= mask
    # greedy: the columns left over after the last set hold less than the full rank
    assert rank([r & ~used for r in rows]) < k or k == 0
    if k and nbits < 2 * k:
        assert len(sets) == 1


def _information_sets_reference(rows):
    """The information sets as they were built before the free-column count: each elimination runs to its end."""
    sets, used = [], 0
    while True:
        lead = {}
        for v in rows:
            while live := v & ~used:
                c = live.bit_length() - 1
                if c not in lead:
                    lead[c] = v
                    break
                v ^= lead[c]
        if not lead or (sets and len(lead) < len(rows)):
            return sets
        sets.append(_linalg._reduce_pivots(lead))
        rows = list(sets[-1].values())
        used |= sum(1 << c for c in lead)


@given(searched_sets())
def test_information_sets_start_no_elimination_that_cannot_reach_full_rank(case):
    # the same sets as the loop that ran every elimination to its end, and no elimination started with
    # fewer than k free columns of the span, where no set of k pivots can follow
    _, rows, _ = case
    k = rank(list(rows))
    started, real = [], _linalg._pivots
    with mock.patch.object(_linalg, "_pivots", lambda rows, free: started.append(free.bit_count()) or real(rows, free)):
        sets = _linalg._information_sets(rows)
    assert sets == _information_sets_reference(rows)
    assert all(free >= k for free in started)


def _spy_pivots(rows):
    """(sets, frees): _information_sets(rows) and the free mask of each elimination it started."""
    started, real = [], _linalg._pivots
    with mock.patch.object(_linalg, "_pivots", lambda rows, free: started.append(free) or real(rows, free)):
        return _linalg._information_sets(rows), started


def test_the_last_elimination_is_skipped_where_the_columns_run_out():
    # three disjoint copies of the identity on 30 columns: after three sets no column is free, so the
    # three sets take three eliminations, not four.  In shift order set 0 is the window [20, 30) by
    # recurrence and two eliminations follow; in reverse order set 0 is eliminated too
    rows = [(1 << i) | (1 << (i + 10)) | (1 << (i + 20)) for i in range(10)]
    sets, started = _spy_pivots(rows)
    assert len(sets) == 3 and len(started) == 2
    sets, started = _spy_pivots(rows[::-1])
    assert len(sets) == 3 and len(started) == 3


@given(st.integers(1, (1 << 40) - 1), st.integers(2, 16))
def test_set_0_of_consecutive_shifts_is_the_eliminated_window(base, k):
    # rows x^i*base, i < k: set 0 comes from the recurrence, one elimination fewer than the same rows in
    # reverse order, whose set 0 is eliminated, has the same pivots and so the same systematic rows, and
    # whose later sets are those of the shift order
    rows = [base << i for i in range(k)]
    sets, started = _spy_pivots(rows)
    reversed_sets, reversed_started = _spy_pivots(rows[::-1])
    top = base.bit_length() - 1
    eliminated = _linalg._reduce_pivots(_linalg._pivots(rows, reduce(or_, rows)))
    assert list(sets[0].items()) == list(eliminated.items()) and list(sets[0]) == list(range(top, top + k))
    assert [list(s.items()) for s in sets] == [list(s.items()) for s in reversed_sets]
    assert sets == _information_sets_reference(rows)
    assert len(started) == len(reversed_started) - 1


def test_kernel_search_stops_at_the_proven_bound():
    # three disjoint copies of the identity: every row weighs 3 = N * 1, so level 1 on the first set proves it
    rows = [(1 << i) | (1 << (i + 10)) | (1 << (i + 20)) for i in range(10)]
    assert len(_linalg._information_sets(rows)) == 3
    levels, real = [], _linalg._level
    with mock.patch.object(_linalg, "_level", lambda *args: levels.append(args[2]) or real(*args)):
        assert min_weight_affine(0, rows) == 3
    assert levels == [1]
    assert min_weight_affine(1 << 29, rows) == 1


def test_kernel_memory_stays_bounded_at_k_28():
    # x^4+x+1, L = 16, j = 9: the oracle over a 2^28-word code holds no level whole
    rows = generator_rows(code(new_context(0b10011, 16), 9))
    assert len(rows) == 28
    tracemalloc.start()
    try:
        assert min_weight_span(rows) == 6
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_kernel_holds_no_pair_table_on_a_wide_ring():
    # x^2+x+1, L = 8191, j = 8177: k = 28 on n = 16 382 bits over 551 information sets.  Their
    # systematic rows hold about 33 MB; the pair tables of every set at once held 243 MB more.
    # Every level streams its pair XORs, so the search holds the sets' rows and no table
    rows = generator_rows(code(new_context(0b111, 8191), 8177))
    tracemalloc.start()
    try:
        assert min_weight_span(rows) == 1364
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 << 20


def test_the_kernel_streams_level_2_on_a_wide_coset():
    # the oracle's coset at x^4+x+1, L = 4096, j = 4031: k = 260 on n = 16 384 bits over 63 information
    # sets, d = 136.  Level 1 runs on every set and level 2 on the first; a table of its 33 411 pair XORs
    # would hold about 70 MB on top of the sets' rows
    c = code(new_context(0b10011, 4096), 4031)
    g, rows = lead_coset(c.generator, c.k, c.n)
    levels, real = [], _linalg._level
    tracemalloc.start()
    try:
        with mock.patch.object(_linalg, "_level", lambda *args: levels.append(args[2]) or real(*args)):
            assert min_weight_affine(g, rows) == 136
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert levels.count(2) == 1 and max(levels) == 2
    assert peak < 64 << 20


def test_the_bits_no_row_reaches_end_the_search_at_level_1():
    # the oracle's coset at x^2+x+1, L = 8191, j = 8001: k = 380 on n = 16 382 bits over 42 information
    # sets, d = 85.  Every word holds g's 21 bits on the columns no row reaches, so once level 1 has run
    # on 22 sets no unseen word weighs less than 42 + 22 + 21 = 85; without them level 2 runs
    c = code(new_context(0b111, 8191), 8001)
    levels, real = [], _linalg._level
    with mock.patch.object(_linalg, "_level", lambda *args: levels.append(args[2]) or real(*args)):
        assert min_weight_affine(*lead_coset(c.generator, c.k, c.n)) == 85
    assert levels == [1] * 22


def test_every_level_hands_out_each_xor_of_w_rows_once():
    # level w yields g ^ (XOR of a head of w-2 rows) with the stream of the pair XORs past the head's last
    # row (level 2: g and all C(k, 2) pairs), so the words x ^ t are each XOR of w rows, each once
    rng = random.Random(2)
    R = [rng.getrandbits(40) for _ in range(9)]
    for w in range(1, 5):
        steps = [(x, list(tail), size) for x, tail, size in _linalg._level(5, R, w)]
        assert all(size == len(tail) for _, tail, size in steps)
        words = [x ^ t for x, tail, _ in steps for t in tail]
        assert sum(size for *_, size in steps) == len(words) == comb(len(R), w)
        assert sorted(words) == sorted(reduce(xor, combo, 5) for combo in combinations(R, w)), w


def test_level_3_streams_its_pairs():
    # the first level-3 step over 300 random rows of 4 096 bits: the head is row 0 and the tail the
    # C(299, 2) pair XORs past it, which a table of 512-byte words held in about 25 MB
    rng = random.Random(3)
    R = [rng.getrandbits(4096) for _ in range(300)]
    tracemalloc.start()
    try:
        x, tail, size = next(_linalg._level(0, R, 3))
        assert x == R[0] and size == 299 * 298 // 2
        assert min(map(int.bit_count, map(x.__xor__, tail))) > 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_the_search_reaches_level_3_on_a_long_code():
    # the oracle's coset at x^4+x+1, L = 256, j = 243: k = 52 on n = 1 024 bits over 19 information
    # sets, d = 66, which level 2 alone cannot prove
    c = code(new_context(0b10011, 256), 243)
    levels, real = [], _linalg._level
    with mock.patch.object(_linalg, "_level", lambda *args: levels.append(args[2]) or real(*args)):
        assert min_weight_affine(*lead_coset(c.generator, c.k, c.n)) == 66
    assert max(levels) == 3


def test_the_gray_walk_holds_no_table_of_its_words():
    # 2^16 words of 1 024 bits would take over 10 MB; the walk holds its ruler of 2^16 row references
    rows = [(1 << 1023) | (1 << i) for i in range(16)]
    tracemalloc.start()
    try:
        assert sum(1 for _ in gray_walk(0, rows)) == 1 << 16
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def _numpy_weights(g, rows, nbits):
    """The weight of every word of g ^ span(rows) by a numpy doubling table, one uint64 lane per 64 bits of a word."""
    lanes = -(-nbits // 64)
    words = np.array([[w >> (64 * i) & (1 << 64) - 1 for i in range(lanes)] for w in [g, *rows]], dtype=np.uint64)
    tab = words[:1]
    for r in words[1:]:
        tab = np.concatenate([tab, tab ^ r])
    return np.bitwise_count(tab).sum(axis=1)


def test_kernel_equals_the_numpy_walk_on_every_small_chain():
    # every ring with deg P <= 5 and mL <= 30, every j with k <= 20: the kernel
    # against the minimum of _numpy_weights, an independent numpy walk
    checked = 0
    for deg in (2, 3, 4, 5):
        for f in range((1 << deg) | 1, 1 << (deg + 1), 2):
            if not is_irreducible(f):
                continue
            for L in range(2, 30 // deg + 1):
                ctx = new_context(f, L)
                for j in range(max(0, L - 20 // deg), L):
                    rows = generator_rows(code(ctx, j))
                    weights = _numpy_weights(0, rows, ctx.n)
                    assert min_weight_span(rows) == int(weights[1:].min()), (f, L, j)
                    checked += 1
    assert checked == 366
